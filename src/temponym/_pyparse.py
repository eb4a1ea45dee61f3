"""The SSA row grammar and the parser that splits a year file by sex.

A year file is lines separated by ``\\n``::

    line  = [name "," sex "," count] ["\\r"]
    name  = 2 to 15 characters, none of them "," or "\\n"
    sex   = "F" | "M"
    count = one or more ASCII digits 0-9

A line without a row is blank and is ignored. The optional ``\\r`` accepts
the CRLF line endings of the published SSA files. A count is thus never
signed, padded with spaces, written with ``_`` separators or in non-ASCII
digits, although ``int()`` accepts all of those. Strict mode further
rejects counts below the publication floor of 5 and a second row for the
same name and sex; lenient mode skips and counts every rejected row
instead. In both modes a count must fit the 32-bit columns of the index.

``merge_rows`` first splits the whole file into a key, ``name,sex``, and a
count per row and checks them in bulk, each rule one pass in C over all
rows, with no regular expression. Only a file that fails a check, or holds
a blank line or a count with a leading zero, is read line by line against
``GRAMMAR``; that loop alone names bad lines and counts skipped rows.
Either way a row is kept as the int id of its key, from one ``KeyIds`` map
that every year of an ingest shares, and its count: one id probe per row.
"""
from __future__ import annotations

import json
import re
from itertools import islice
from typing import Optional

from . import errors

# The fields of a row. ``_rejection`` checks a bad line's sex and count with these.
NAME = r"[^,\n]{2,15}"
SEX = re.compile("[FM]")
COUNT = re.compile("[0-9]+")
ROW = rf"{NAME},{SEX.pattern},{COUNT.pattern}"
LINE = rf"(?:{ROW})?\r?"
# Matches a whole file, and so also any one line of it.
GRAMMAR = re.compile(rf"(?:{LINE}\n)*{LINE}")

# 1 to 9 ASCII digits: a corpus activity_year, a fixture sample_count and each
# number of a cohort spec. int() also takes "+1", "1_0", " 1" and "٣".
NUMBER = re.compile("[0-9]{1,9}")
# An ASCII decimal, a fixture p_female: float() also takes "0.5_0", "+.5e0" and "nan".
DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")

# Every byte but "," and "\n", deleted to leave a file's line structure.
_NOT_SEPARATORS = bytes(set(range(256)) - set(b",\n"))
# The bytes of a year file's counts joined by ",".
_COUNT_BYTES = b"0123456789,"
# The lengths of a key, "name,sex", whose name has 2 to 15 characters.
_KEY_LENGTHS = frozenset(range(4, 18))

FLOOR = 5
MAX_COUNT = 2**32 - 1

# A year file's kept rows: the id of each row's key, and its count.
Rows = tuple[list[int], list[int]]


class KeyIds(dict):
    """Each ``name,sex`` key's id, in order of first sight: a key it does not
    hold gets the next id, ``len(self)``, when it is first looked up."""

    def __missing__(self, key: str) -> int:
        self[key] = i = len(self)
        return i


def merge_rows(content: str, strict: bool, ids: KeyIds) -> tuple[Rows, int]:
    """Parse one year file into ``((row ids, counts), skipped)``.

    The rows are those kept, in file order: the id of each row's key (its
    name and sex joined as ``name,sex``) and its count. ``ids`` maps each key
    to its id; a key not in it gets the next id when its first row is kept,
    so ids run in order of first sight and ``ids`` grows only from kept rows.
    A file of rows without a blank line is checked and converted in bulk,
    with no per-row Python loop (``_split``); any other file is read line by
    line to name the first bad line (strict) or to skip and count the bad
    rows (lenient). Both give the same result or error for any text, and
    leave ``ids`` the same.
    """
    rows = _split(content, strict, ids)
    if rows is not None:
        return rows, 0
    return _merge_lines(content, strict, ids)


def _split(content: str, strict: bool, ids: KeyIds) -> Optional[Rows]:
    """The rows of a file of valid rows and no blank line.

    None, with ``ids`` as it was, if any line is not a row (``GRAMMAR``'s
    rules, checked field by field over the whole file; a name's length only
    for a key that ``ids`` does not hold yet), or a rule beyond the grammar
    fails (a duplicate row, the floor in strict mode, a count above 32
    bits); the line loop then finds the line.
    """
    if "\r" in content:  # the \r of a CRLF ending, or of the last line, is in no field
        content = content.replace("\r\n", "\n").removesuffix("\r")
    content = content.removesuffix("\n")
    # Exactly two commas on every line. Neither byte occurs inside a
    # multi-byte UTF-8 character, and "surrogatepass" keeps a lone
    # surrogate, which a name may hold.
    shape = content.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    lines = len(shape) // 3 + 1
    if shape != b",,\n" * (lines - 1) + b",,":
        return None
    # A name holds no comma, so ",F," and ",M," can only be a sex field
    # between a line's two commas; its second comma becomes a line break,
    # leaving the key "name,sex" and the count on lines of their own. A line
    # of any other sex keeps both commas, and so adds no field.
    fields = content.replace(",F,", ",F\n").replace(",M,", ",M\n").split("\n")
    if len(fields) != 2 * lines:
        return None
    keys, digits = fields[0::2], ",".join(fields[1::2])
    # JSON refuses an empty count, but for the one count of a one-row file: "[]".
    if not (digits and digits.isascii()) or digits.encode().translate(None, _COUNT_BYTES):
        return None
    try:  # JSON reads the counts in C, faster than int(), and refuses an
        # empty field, a leading zero and more digits than int() converts
        counts = json.loads(f"[{digits}]")
    except ValueError:
        return None
    if max(counts) > MAX_COUNT or strict and min(counts) < FLOOR:
        return None
    known = len(ids)
    row_ids = list(map(ids.__getitem__, keys))
    added = len(ids) - known
    if (added and not set(map(len, islice(reversed(ids), added))) <= _KEY_LENGTHS
            or len(set(row_ids)) != len(row_ids)):  # a bad name length, or a key twice
        for _ in range(added):  # the line loop adds the keys of the rows it keeps
            ids.popitem()
        return None
    return row_ids, counts


def _merge_lines(content: str, strict: bool, ids: KeyIds) -> tuple[Rows, int]:
    cells: dict[int, int] = {}  # row id -> count, in file order
    skipped = 0
    for lineno, line in enumerate(content.split("\n"), start=1):
        if not GRAMMAR.fullmatch(line):
            if strict:
                raise _rejection(lineno, line)
            skipped += 1
            continue
        row = line.removesuffix("\r")
        if not row:
            continue
        key, _, count_text = row.rpartition(",")
        # int() refuses more than 4,300 digits, leading zeros included; a
        # count of more than 10 significant digits is above MAX_COUNT anyway.
        digits = count_text.lstrip("0")
        count = int(digits or "0") if len(digits) <= 10 else MAX_COUNT + 1
        name, sex = key[:-2], key[-1]
        if strict and count < FLOOR:
            raise errors.FloorViolation(lineno, name, count)
        if ids.get(key) in cells:
            if strict:
                raise errors.DuplicateRow(lineno, name, sex)
            skipped += 1
            continue
        if count > MAX_COUNT:
            raise errors.TemponymError(
                f"line {lineno}: {name} has a count above {MAX_COUNT}, "
                "the largest the index stores"
            )
        cells[ids[key]] = count
    return (list(cells), list(cells.values())), skipped


def _rejection(lineno: int, line: str) -> errors.TemponymError:
    """Why a non-empty line is not a row, checked in a fixed order."""
    fields = line.split(",")
    if len(fields) != 3:
        return errors.MalformedLine(lineno, line, "expected 3 fields")
    name, sex, count_text = fields
    if not SEX.fullmatch(sex):
        return errors.InvalidSex(lineno, sex)
    digits = count_text.removesuffix("\r")
    if not COUNT.fullmatch(digits):
        negative = digits.startswith("-") and COUNT.fullmatch(digits[1:])
        reason = "negative count" if negative else "count is not ASCII digits"
        return errors.MalformedLine(lineno, line, reason)
    # Fields, sex and count are valid, so the name length is what fails.
    return errors.MalformedLine(lineno, line, "name length outside 2..15")
