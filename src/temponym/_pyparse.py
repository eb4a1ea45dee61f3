"""The SSA row parser: validates ``Name,Sex,Count`` rows and merges F/M rows."""
from __future__ import annotations

from . import errors

_F_SEEN = 1
_M_SEEN = 2


def merge_rows(content: str, strict: bool) -> tuple[dict[str, tuple[int, int]], int]:
    """Parse ``Name,Sex,Count`` lines and merge F/M rows per name.

    Returns (entries, skipped) where entries maps name -> (female, male).
    In strict mode any invalid row raises; in lenient mode it is skipped
    and counted.
    """
    counts: dict[str, list[int]] = {}
    seen: dict[str, int] = {}
    skipped = 0

    for lineno, line in enumerate(content.split("\n"), start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            if strict:
                raise errors.MalformedLine(lineno, line, "expected 3 fields")
            skipped += 1
            continue
        name, sex, count_text = fields
        if sex not in ("F", "M"):
            if strict:
                raise errors.InvalidSex(lineno, sex)
            skipped += 1
            continue
        try:
            count = int(count_text)
        except ValueError:
            if strict:
                raise errors.MalformedLine(lineno, line, "count is not an integer")
            skipped += 1
            continue
        if count < 0:
            if strict:
                raise errors.MalformedLine(lineno, line, "negative count")
            skipped += 1
            continue
        if not 2 <= len(name) <= 15:
            if strict:
                raise errors.MalformedLine(lineno, line, "name length outside 2..15")
            skipped += 1
            continue
        if strict and count < 5:
            raise errors.FloorViolation(lineno, name, count)

        bit = _F_SEEN if sex == "F" else _M_SEEN
        mask = seen.get(name, 0)
        if mask & bit:
            if strict:
                raise errors.DuplicateRow(lineno, name, sex)
            skipped += 1
            continue
        seen[name] = mask | bit
        entry = counts.setdefault(name, [0, 0])
        entry[0 if sex == "F" else 1] = count

    return {name: (fm[0], fm[1]) for name, fm in counts.items()}, skipped
