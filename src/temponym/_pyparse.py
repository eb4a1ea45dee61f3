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
"""
from __future__ import annotations

import re
from itertools import compress
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

# One selector byte per row, 1 where the row is of that sex, for ``compress``.
_IS_FEMALE = bytes.maketrans(b"FM", b"\x01\x00")
_IS_MALE = bytes.maketrans(b"FM", b"\x00\x01")

FLOOR = 5
MAX_COUNT = 2**32 - 1

SexCounts = tuple[dict[str, int], dict[str, int]]


def merge_rows(
    content: str, strict: bool, canon: Optional[dict[str, str]] = None
) -> tuple[SexCounts, int]:
    """Parse one year file into ``((female, male), skipped)``.

    ``female`` and ``male`` map each name to its count for that sex. When
    ``canon`` is given, every name is stored as the string ``canon`` holds
    for it (added on first sight), so one string object serves all years.
    A file the grammar accepts is split and converted without a per-row
    Python loop; any other file is read line by line to name the first bad
    line (strict) or to skip and count the bad rows (lenient).
    """
    if canon is None:
        canon = {}
    if GRAMMAR.fullmatch(content):
        by_sex = _split(content, strict, canon)
        if by_sex is not None:
            return by_sex, 0
    return _merge_lines(content, strict, canon)


def _split(content: str, strict: bool, canon: dict[str, str]) -> Optional[SexCounts]:
    """The per-sex counts of a file that matches the grammar.

    None if a rule the grammar cannot express fails (a duplicate row, the
    floor in strict mode, a count above 32 bits); the line loop then finds
    the line.
    """
    if "\r" in content:  # after a match, only a line's optional trailing \r
        content = content.replace("\r\n", "\n").removesuffix("\r")
    fields = content.replace(",", "\n").split("\n")
    if "\n\n" in content or content.startswith("\n"):
        fields = list(filter(None, fields))  # no field of a row is empty
    elif not fields[-1]:
        del fields[-1]
    names = list(map(canon.setdefault, fields[0::3], fields[0::3]))
    counts = list(map(int, fields[2::3]))
    sexes = "".join(fields[1::3]).encode()
    is_female, is_male = sexes.translate(_IS_FEMALE), sexes.translate(_IS_MALE)
    female = dict(zip(compress(names, is_female), compress(counts, is_female)))
    male = dict(zip(compress(names, is_male), compress(counts, is_male)))
    if len(female) + len(male) != len(names):
        return None
    if counts and (max(counts) > MAX_COUNT or strict and min(counts) < FLOOR):
        return None
    return female, male


def _merge_lines(content: str, strict: bool, canon: dict[str, str]) -> tuple[SexCounts, int]:
    female: dict[str, int] = {}
    male: dict[str, int] = {}
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
        count = int(count_text)
        if strict and count < FLOOR:
            raise errors.FloorViolation(lineno, name, count)
        cells = female if sex == "F" else male
        if name in cells:
            if strict:
                raise errors.DuplicateRow(lineno, name, sex)
            skipped += 1
            continue
        if count > MAX_COUNT:
            raise errors.TemponymError(
                f"line {lineno}: {name} has a count above {MAX_COUNT}, "
                "the largest the index stores"
            )
        cells[canon.setdefault(name, name)] = count
    return (female, male), skipped


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
