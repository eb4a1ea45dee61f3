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

``merge_rows`` first splits the whole file into fields and checks them in
bulk, each rule one pass in C over all rows, with no regular expression.
Only a file that fails a check, or holds a blank line or a count with a
leading zero, is read line by line against ``GRAMMAR``; that loop alone
names bad lines and counts skipped rows. Either way a row is kept as the
int id of its name, from one ``name -> id`` dict that every year of an
ingest shares, and its count.
"""
from __future__ import annotations

import json
import re
from itertools import compress, filterfalse
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

# Every byte but "," and "\n", deleted to leave a file's line structure.
_NOT_SEPARATORS = bytes(set(range(256)) - set(b",\n"))
_NAME_LENGTHS = frozenset(range(2, 16))
_SEXES = frozenset("FM")
# One selector byte per row, 1 where the row is of that sex, for ``compress``.
_IS_FEMALE = bytes.maketrans(b"FM", b"\x01\x00")
_IS_MALE = bytes.maketrans(b"FM", b"\x00\x01")

FLOOR = 5
MAX_COUNT = 2**32 - 1

# One sex's rows of a year file: the id of each row's name, and its count.
SexRows = tuple[list[int], list[int]]


def merge_rows(
    content: str, strict: bool, ids: dict[str, int]
) -> tuple[tuple[SexRows, SexRows], int]:
    """Parse one year file into ``((female, male), skipped)``.

    ``female`` and ``male`` are each ``(row ids, counts)``, in file order:
    the id of the name of each row of that sex, and its count. ``ids`` maps
    each name to its id; a name not in it gets the next id, ``len(ids)``, when
    its first row is kept, so ids run in order of first sight and ``ids``
    grows only from kept rows. A file of rows without a blank line is checked
    and converted in bulk, with no per-row Python loop (``_split``); any
    other file is read line by line to name the first bad line (strict) or
    to skip and count the bad rows (lenient). Both give the same result or
    error for any text, and leave ``ids`` the same.
    """
    by_sex = _split(content, strict, ids)
    if by_sex is not None:
        return by_sex, 0
    return _merge_lines(content, strict, ids)


def _split(content: str, strict: bool, ids: dict[str, int]) -> Optional[tuple[SexRows, SexRows]]:
    """The per-sex rows of a file of valid rows and no blank line.

    None, with ``ids`` as it was, if any line is not a row (``GRAMMAR``'s
    rules, checked field by field over the whole file; a name's length only
    where ``ids`` does not hold it yet), or a rule beyond the grammar fails (a
    duplicate row, the floor in strict mode, a count above 32 bits); the
    line loop then finds the line.
    """
    if "\r" in content:  # the \r of a CRLF ending, or of the last line, is in no field
        content = content.replace("\r\n", "\n").removesuffix("\r")
    content = content.removesuffix("\n")
    # Exactly two commas on every line, so each line splits into three
    # fields. Neither byte occurs inside a multi-byte UTF-8 character, and
    # "surrogatepass" keeps a lone surrogate, which a name may hold.
    shape = content.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if shape != b",,\n" * (len(shape) // 3) + b",,":
        return None
    fields = content.replace(",", "\n").split("\n")
    names, sexes, digits = fields[0::3], fields[1::3], fields[2::3]
    if not set(sexes) <= _SEXES:
        return None
    joined = "".join(digits)
    if not (joined.isascii() and joined.encode().isdigit()):
        return None
    try:  # JSON reads the counts in C, faster than int(), and refuses an
        # empty field, a leading zero and more digits than int() converts
        counts = json.loads(f"[{','.join(digits)}]")
    except ValueError:
        return None
    if max(counts) > MAX_COUNT or strict and min(counts) < FLOOR:
        return None
    new = dict.fromkeys(filterfalse(ids.__contains__, names))  # in order of first sight
    if not set(map(len, new)) <= _NAME_LENGTHS:
        return None
    ids.update(zip(new, range(len(ids), len(ids) + len(new))))
    row_ids = list(map(ids.__getitem__, names))
    sexes = "".join(sexes).encode()
    is_female, is_male = sexes.translate(_IS_FEMALE), sexes.translate(_IS_MALE)
    female = list(compress(row_ids, is_female)), list(compress(counts, is_female))
    male = list(compress(row_ids, is_male)), list(compress(counts, is_male))
    if len(set(female[0])) + len(set(male[0])) != len(row_ids):  # a name twice for one sex
        for name in new:  # the line loop adds the names of the rows it keeps
            del ids[name]
        return None
    return female, male


def _merge_lines(
    content: str, strict: bool, ids: dict[str, int]
) -> tuple[tuple[SexRows, SexRows], int]:
    female: dict[int, int] = {}  # row id -> count, in file order
    male: dict[int, int] = {}
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
        name, sex, count_text = row.split(",")
        # int() refuses more than 4,300 digits, leading zeros included; a
        # count of more than 10 significant digits is above MAX_COUNT anyway.
        digits = count_text.lstrip("0")
        count = int(digits or "0") if len(digits) <= 10 else MAX_COUNT + 1
        if strict and count < FLOOR:
            raise errors.FloorViolation(lineno, name, count)
        cells = female if sex == "F" else male
        i = ids.get(name)
        if i in cells:
            if strict:
                raise errors.DuplicateRow(lineno, name, sex)
            skipped += 1
            continue
        if count > MAX_COUNT:
            raise errors.TemponymError(
                f"line {lineno}: {name} has a count above {MAX_COUNT}, "
                "the largest the index stores"
            )
        if i is None:
            i = ids[name] = len(ids)
        cells[i] = count
    return ((list(female), list(female.values())), (list(male), list(male.values()))), skipped


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
