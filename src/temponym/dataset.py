"""Parse SSA yearly name files into an immutable, queryable dataset.

File format is the SSA national distribution: one ``Name,Sex,Count`` record
per line, no header, one file per year of birth (``yob1925.txt``); the exact
row grammar is in ``_pyparse``.

In memory a :class:`Dataset` is columnar and name-major: one sorted name
table and two ``array('I')`` columns of female and male counts. Each name
owns one contiguous span of positions in ``years_loaded`` and its cells sit
next to each other in the columns, from its offset on; a year inside a span
in which the name has no data holds zeros. A zero count (lenient mode keeps
rows below the publication floor) is no data: a span starts and ends at
non-zero cells. Positions rather than calendar years keep sparse year sets
compact, a single-year lookup is one index into each column, and a windowed
or pooled lookup sums one slice of each. Building a Dataset, from raw files
or from an index, does no per-name work in Python code.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
import unicodedata
import zlib
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, count, repeat
from operator import add, lt
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import errors
from ._pyparse import merge_rows

MIN_YEAR = 1880
# Latest accepted year of birth. A fixed bound, not today's date, so that
# whether a file parses never depends on the clock: the SSA archive starts
# in 1880 and publishes one year at a time, and 2100 still rejects a
# mistyped year such as yob9125.txt.
MAX_YEAR = 2100

_YOB_RE = re.compile(r"yob([0-9]{4})\.txt")  # the whole file name

INDEX_MAGIC = b"TMPNIDX\n"
INDEX_VERSION = 3

_NO_DATA = (0, 0)


def strip_diacritics(text: str) -> str:
    if text.isascii():  # NFKD leaves ASCII unchanged and adds no combining marks
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _folded_keys(names: Sequence[str]) -> list[str]:
    """The folded key of each name: its casefold, stripped of diacritics.

    Stored names hold no ``\n``, so one casefold of the joined table gives
    every key; only non-ASCII keys can lose diacritics.
    """
    folded = "\n".join(names).casefold()
    keys = folded.split("\n") if names else []
    if folded.isascii():
        return keys
    return [key if key.isascii() else strip_diacritics(key) for key in keys]


class Record:
    """Base of an immutable class that checks its values when it is built.

    It stands in for a frozen dataclass: importing ``dataclasses`` and
    building each class with it costs a cold command several milliseconds.
    A subclass names its attributes in ``__slots__``, sets them in
    ``__init__`` through ``_init``, and names in ``_compared`` the ones its
    equality, hash and repr use. Copies and pickles restore the attributes
    through ``__setstate__``.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        _, slots = state  # no __dict__, so the state is (None, {slot: value})
        self._init(**slots)


class Dataset(Record):
    """Immutable name-major count columns over ``years_loaded``.

    Name ``names[i]`` has ``lengths[i]`` cells, for the positions
    ``starts[i]`` onwards in ``years_loaded``; they are the cells from
    ``_offsets[i]`` on in ``female`` and ``male``, right after those of
    ``names[i - 1]``. The four columns are given as ``array('I')`` or
    ``'I'`` memoryviews and kept as read-only memoryviews over them, so the
    dataset can be shared by concurrent readers. ``skipped`` holds the rows
    skipped per year and takes no part in equality.
    """

    __slots__ = ("years_loaded", "names", "starts", "lengths", "female", "male", "skipped",
                 # Per name, the index in the count columns of its first cell,
                 # plus the total cell count at the end: the running sum of
                 # ``lengths``.
                 "_offsets", "_positions", "_ids",
                 # Whether every stored name folds only to itself, so an exact
                 # name needs no fold map; None until the first exact hit in
                 # _candidates computes it. _groups is built by _fold_groups on
                 # first need.
                 "_distinct", "_groups")
    _compared = ("years_loaded", "names", "starts", "lengths", "female", "male")

    def __init__(self, years_loaded: tuple[int, ...], names: tuple[str, ...], starts, lengths,
                 female, male, skipped: tuple[int, ...] = ()):
        lengths = memoryview(lengths).toreadonly()
        self._init(
            years_loaded=years_loaded,
            names=names,
            starts=memoryview(starts).toreadonly(),
            lengths=lengths,
            female=memoryview(female).toreadonly(),
            male=memoryview(male).toreadonly(),
            skipped=skipped,
            _offsets=array("Q", accumulate(lengths, initial=0)),
            _positions={year: pos for pos, year in enumerate(years_loaded)},
            _ids=dict(zip(names, range(len(names)))),
            _distinct=None,
            _groups=None,
        )

    def _fold_groups(self) -> dict[str, list[int]]:
        """Folded key -> the ascending indices of the stored names that share it."""
        # Two threads may both build it; each gets a complete, equal map, so
        # whichever is kept gives the same answers.
        groups = self._groups
        if groups is None:
            groups = {}
            for i, key in enumerate(_folded_keys(self.names)):
                groups.setdefault(key, []).append(i)
            object.__setattr__(self, "_groups", groups)
        return groups

    def _candidates(self, name: str, fold_diacritics: bool) -> Sequence[int]:
        """Indices of the stored names that may answer for ``name``, in order.

        The exact name, then the names equal to it under casefolding, then
        (only with ``fold_diacritics``) the rest of its folded-key group.
        """
        exact = self._ids.get(name)
        if exact is not None:
            # Two threads may both compute it; they compute equal values.
            distinct = self._distinct
            if distinct is None:
                keys = _folded_keys(self.names)
                distinct = len(set(keys)) == len(keys)
                object.__setattr__(self, "_distinct", distinct)
            if distinct:
                return (exact,)
        # A query holding "\n" gets a key holding "\n", which no group has.
        group = self._fold_groups().get("\n".join(_folded_keys((name,))))
        if group is None:
            return ()
        key = name.casefold()
        ids = [] if exact is None else [exact]
        ids += [i for i in group if self.names[i].casefold() == key]
        if fold_diacritics:
            ids += group
        return list(dict.fromkeys(ids)) if len(ids) > 1 else ids

    def has_year(self, year: int) -> bool:
        return year in self._positions

    def _position(self, year: int) -> int:
        pos = self._positions.get(year)
        if pos is None:
            raise errors.YearNotLoaded(year)
        return pos

    def _first_cell(self, ids: Sequence[int], pos: int) -> Optional[tuple[int, int]]:
        """Counts of the first name in ``ids`` with data at ``pos``."""
        for i in ids:
            offset = pos - self.starts[i]
            if 0 <= offset < self.lengths[i]:
                cell = self._offsets[i] + offset
                female, male = self.female[cell], self.male[cell]
                if female or male:
                    return female, male
        return None

    def _first_cells(self, ids: Sequence[int], positions: Iterable[int]) -> tuple[list, list]:
        """Female and male counts of ``_first_cell`` at each position; 0 for no data."""
        cells = [self._first_cell(ids, pos) or _NO_DATA for pos in positions]
        return [f for f, _ in cells], [m for _, m in cells]

    def lookup(
        self, name: str, year: int, fold_diacritics: bool = False
    ) -> Optional[tuple[int, int]]:
        """(female, male) for a name in one year, or None without data.

        The first of the name's ``_candidates`` with data in that year answers.
        """
        pos = self._position(year)
        return self._first_cell(self._candidates(name, fold_diacritics), pos)

    def name_counts(
        self, name: str, years: Sequence[int], fold_diacritics: bool = False
    ) -> tuple[list[int], list[int]]:
        """A name's female and male counts in each of ``years``, resolving the name once.

        Position k holds ``lookup(name, years[k], fold_diacritics)``, with 0
        for a year without data and for a year that is not loaded. When one
        stored name answers and the years are consecutive loaded years, the
        counts are one slice of each column, padded with zeros where the
        name's span starts or ends inside them.
        """
        n = len(years)
        ids = self._candidates(name, fold_diacritics)
        first = self._positions.get(years[0]) if n else None
        if len(ids) == 1 and first is not None and (
                self.years_loaded[first:first + n] == tuple(years)):
            i = ids[0]
            start = self.starts[i]
            lo, hi = max(first, start), min(first + n, start + self.lengths[i])
            if lo >= hi:
                return [0] * n, [0] * n
            head, tail = [0] * (lo - first), [0] * (first + n - hi)
            base = self._offsets[i] - start
            return (head + self.female[base + lo:base + hi].tolist() + tail,
                    head + self.male[base + lo:base + hi].tolist() + tail)
        # -1, the position of a year not loaded, is in no name's span
        return self._first_cells(ids, [self._positions.get(year, -1) for year in years])

    def year_pair_cells(self, y1: int, y2: int) -> list[tuple[str, int, int, int, int]]:
        """``(name, f1, m1, f2, m2)`` for every name with data in both years, in name order."""
        p1, p2 = self._position(y1), self._position(y2)
        lo, hi = min(p1, p2), max(p1, p2)
        female, male = self.female, self.male
        rows = []
        for name, start, length, offset in zip(
                self.names, self.starts, self.lengths, self._offsets):
            if start <= lo and hi < start + length:
                base = offset - start
                f1, m1 = female[base + p1], male[base + p1]
                f2, m2 = female[base + p2], male[base + p2]
                if (f1 or m1) and (f2 or m2):
                    rows.append((name, f1, m1, f2, m2))
        return rows

    def totals(
        self, name: str, first_year: int, last_year: int, fold_diacritics: bool = False
    ) -> tuple[int, int]:
        """(female, male) summed over the loaded years in [first_year, last_year]."""
        lo = bisect_left(self.years_loaded, first_year)
        hi = bisect_right(self.years_loaded, last_year)
        ids = self._candidates(name, fold_diacritics)
        if not ids:
            return _NO_DATA
        if len(ids) == 1:  # one stored name answers every year: sum its slices
            i = ids[0]
            start = self.starts[i]
            base = self._offsets[i] - start
            lo, hi = base + max(lo, start), base + min(hi, start + self.lengths[i])
            if lo >= hi:
                return _NO_DATA
            return sum(self.female[lo:hi]), sum(self.male[lo:hi])
        female, male = self._first_cells(ids, range(lo, hi))
        return sum(female), sum(male)

    def year_cells(self, year: int) -> dict[str, tuple[int, int]]:
        """Every name with data in one year, in name order, with its counts."""
        return {name: (f, m) for name, f, m, _, _ in self.year_pair_cells(year, year)}


def parse_year_file(content: str, year: int, strict: bool = True) -> Dataset:
    """Parse one SSA yearly file into a one-year Dataset (see ``load_dataset``)."""
    return load_dataset([(year, content)], strict)


def _columns(seen: Sequence[str], rows: dict[int, tuple[array, array, int]]) -> Dataset:
    """Name-major columns from per-year rows gathered as the years were parsed.

    ``rows`` maps each year to its female counts, its male counts and its
    skipped-row count; the counts follow the order of ``seen`` and stop at
    the names seen so far when the year was parsed. Padded with zeros and
    stacked in year order they form a year-major grid, in which each name's
    cells are one strided slice. A name's span runs from the first to the
    last year in which either count is non-zero.
    """
    years = sorted(rows)
    width = len(seen)
    grid_f, grid_m = array("I"), array("I")
    skipped = []
    for year in years:
        row_f, row_m, lost = rows.pop(year)  # popped, so each row is freed once copied
        pad = bytes(4 * (width - len(row_f)))
        grid_f += row_f
        grid_f.frombytes(pad)
        grid_m += row_m
        grid_m.frombytes(pad)
        skipped.append(lost)
    names, starts, lengths = [], array("I"), array("I")
    female, male = array("I"), array("I")
    for name, i in sorted(zip(seen, count())):
        cells_f, cells_m = grid_f[i::width], grid_m[i::width]
        raw_f, raw_m = cells_f.tobytes(), cells_m.tobytes()
        zero_head = min(len(raw_f) - len(raw_f.lstrip(b"\0")),
                        len(raw_m) - len(raw_m.lstrip(b"\0")))
        data_end = max(len(raw_f.rstrip(b"\0")), len(raw_m.rstrip(b"\0")))
        start, stop = zero_head // 4, (data_end + 3) // 4  # bytes to cells
        if start < stop:
            names.append(name)
            starts.append(start)
            lengths.append(stop - start)
            female += cells_f[start:stop]
            male += cells_m[start:stop]
    return Dataset(
        years_loaded=tuple(years),
        names=tuple(names),
        starts=starts,
        lengths=lengths,
        female=female,
        male=male,
        skipped=tuple(skipped),
    )


def load_dataset(sources: Iterable[tuple[int, str]], strict: bool = True) -> Dataset:
    """Build a Dataset from (year, content) pairs.

    The result is order-independent: sources may arrive in any order. Each
    content is parsed as it arrives and only its counts are kept, so an
    iterator that reads files lazily holds one file's text at a time. A
    parse error keeps its type (``InvalidSex``, ``FloorViolation``, ...)
    and its ``lineno``; its message gains the year: ``year Y: line N: ...``.
    """
    canon: dict[str, str] = {}  # one string per distinct name, in order of first sight
    rows: dict[int, tuple[array, array, int]] = {}
    zeros = repeat(0)
    for year, content in sources:
        if year in rows:
            raise errors.DuplicateYear(year)
        try:
            if not MIN_YEAR <= year <= MAX_YEAR:
                raise errors.TemponymError(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]")
            (female, male), skipped = merge_rows(content, strict, canon)
        except errors.TemponymError as exc:
            exc.args = (f"year {year}: {exc}",)
            raise
        rows[year] = (array("I", map(female.get, canon, zeros)),
                      array("I", map(male.get, canon, zeros)), skipped)
    return _columns(list(canon), rows)


def load_directory(
    directory: Path | str,
    years: Optional[Sequence[int]] = None,
    strict: bool = True,
) -> Dataset:
    """Load every yobYYYY.txt file in a directory, optionally filtered.

    Files are read as UTF-8, one at a time, in year order, as they are parsed.
    A directory with no such file (of the wanted years) is a data error.
    """
    directory = Path(directory)
    wanted = set(years) if years is not None else None
    found = []
    for path in directory.iterdir():
        match = _YOB_RE.fullmatch(path.name)
        if not match:
            continue
        year = int(match.group(1))
        if wanted is None or year in wanted:
            found.append((year, path))
    if not found:
        where = "" if wanted is None else (
            f" for years {min(wanted)}..{max(wanted)}" if wanted else " for no year")
        raise errors.TemponymError(f"{directory}: no yobYYYY.txt file{where}")
    found.sort()
    return load_dataset(((year, read_text(path)) for year, path in found), strict=strict)


def read_text(path: Path | str, newline: Optional[str] = None) -> str:
    """A file's text, decoded as UTF-8; ``newline`` is as for ``open``.

    One leading byte-order mark is dropped. A file that cannot be read or
    decoded is a data error naming it.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise errors.TemponymError(f"{path}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be read ({exc.strerror or exc})") from None


def read_csv(path: Path | str, columns: Sequence[str], what: str) -> Iterator[tuple[int, dict]]:
    """``(line number, row)`` for each record of a UTF-8 CSV file with a header.

    A header without one of ``columns``, or a record that stops before one
    of them, is a ``ConfigError`` naming the file as a ``what`` CSV.
    """
    reader = csv.DictReader(io.StringIO(read_text(path, newline=""), newline=""))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise errors.ConfigError(f"{path}: {what} CSV has no {', '.join(missing)} column")
    for row in reader:
        if any(row[column] is None for column in columns):
            raise errors.ConfigError(
                f"{path}: line {reader.line_num} has fewer than {len(columns)} fields"
            )
        yield reader.line_num, row


def bundled_sample_dir() -> Path:
    """Directory holding the packaged SSA-format sample archive."""
    return Path(__file__).resolve().parent / "data" / "ssa_sample"


# --- persisted index -------------------------------------------------------
#
# Layout: magic line, one JSON header line, then a zlib-compressed payload.
# The header holds the format version, the SHA-256 of the uncompressed
# payload, the years, the byte length of each payload section, in order:
#
#   names    the name table, UTF-8, joined by "\n"
#   starts   per name, the position in ``years`` of its first cell
#   lengths  per name, the number of cells in its span
#   female   the female count column, name-major
#   male     the male count column
#
# and the width, 1 to 4 bytes, of each section after ``names``. Those
# sections are unsigned 32-bit little-endian columns, stored byte-plane
# shuffled (all first bytes, then all second bytes, ...) and cut after the
# highest plane that holds a non-zero byte: counts below 2^16 keep two
# planes, so their section holds two bytes per value. Loading is decompress,
# checksum and unshuffle into zeroed 32-bit words, which the Dataset reads in
# place: no row parsing. The Dataset derives its offsets from ``lengths``;
# stored, they would need three planes and grow the file.

_SECTIONS = ("names", "starts", "lengths", "female", "male")
_U32_SECTIONS = _SECTIONS[1:]


# The byte offset, in a native 32-bit word, of each byte plane, least
# significant first.
_PLANE_OFFSETS = (0, 1, 2, 3) if sys.byteorder == "little" else (3, 2, 1, 0)


def _shuffle(column: memoryview) -> tuple[bytes, int]:
    """The column's byte planes up to its highest non-zero one, and their count."""
    raw = column.tobytes()
    planes = [raw[offset::4] for offset in _PLANE_OFFSETS]
    del raw  # before the join: a dense ingest peaked ~3 MB higher with it kept
    width = 4
    while width > 1 and planes[width - 1].count(0) == len(planes[width - 1]):
        width -= 1
    return b"".join(planes[:width]), width


def _unshuffle(data: memoryview, width: int) -> memoryview:
    """The 32-bit column whose first ``width`` byte planes are ``data``."""
    n = len(data) // width
    raw = bytearray(4 * n)
    for plane in range(width):
        raw[_PLANE_OFFSETS[plane]::4] = data[plane * n:(plane + 1) * n]
    return memoryview(raw).cast("I")


def save_index(dataset: Dataset, path: Path | str) -> None:
    """Write ``dataset`` to ``path``; a file that cannot be written is a data error."""
    columns = {key: _shuffle(getattr(dataset, key)) for key in _U32_SECTIONS}
    sections = ["\n".join(dataset.names).encode(), *(data for data, _ in columns.values())]
    payload = b"".join(sections)
    header = {
        "format": "temponym-index",
        "version": INDEX_VERSION,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "years": list(dataset.years_loaded),
        "sections": {key: len(data) for key, data in zip(_SECTIONS, sections)},
        "widths": {key: width for key, (_, width) in columns.items()},
    }
    try:
        with open(path, "wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(zlib.compress(payload, 6))
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be written ({exc.strerror or exc})") from None


def _read_header(path, line: bytes) -> dict:
    def bad(reason: str):
        return errors.IndexFormatError(f"{path}: {reason}")

    try:
        header = json.loads(line)
    except ValueError as exc:
        raise bad(f"header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise bad("header is not a JSON object")
    version = header.get("version")
    if version in (1, 2):
        raise bad(f"index format version {version} is no longer read; re-run `temponym ingest`")
    if version != INDEX_VERSION:
        raise bad(f"unsupported index version {version!r}")
    sha, years, sections = header.get("sha256"), header.get("years"), header.get("sections")
    if not isinstance(sha, str):
        raise bad("header has no sha256")
    if not (isinstance(years, list) and all(type(y) is int for y in years)
            and all(a < b for a, b in zip(years, years[1:]))):
        raise bad("header years are not increasing integers")
    if not (isinstance(sections, dict) and list(sections) == list(_SECTIONS)
            and all(type(n) is int and n >= 0 for n in sections.values())):
        raise bad(f"header sections must be byte lengths of {', '.join(_SECTIONS)}")
    widths = header.get("widths")
    if not (isinstance(widths, dict) and list(widths) == list(_U32_SECTIONS)
            and all(type(w) is int and 1 <= w <= 4 for w in widths.values())):
        raise bad(f"header widths must be byte widths 1 to 4 of {', '.join(_U32_SECTIONS)}")
    if any(sections[key] % widths[key] for key in _U32_SECTIONS):
        raise bad("a column section is not a whole number of values of its width")
    return header


def load_index(path: Path | str) -> Dataset:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be read ({exc.strerror or exc})") from None
    with fh:
        if fh.read(len(INDEX_MAGIC)) != INDEX_MAGIC:
            raise errors.IndexFormatError(f"{path}: not a temponym index")
        header = _read_header(path, fh.readline())
        compressed = fh.read()
    try:
        payload = zlib.decompress(compressed)
    except zlib.error as exc:
        raise errors.IndexFormatError(f"{path}: corrupt payload ({exc})") from None
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise errors.IndexFormatError(f"{path}: checksum mismatch")

    sizes = header["sections"]
    if sum(sizes.values()) != len(payload):
        raise errors.IndexFormatError(
            f"{path}: section lengths add up to {sum(sizes.values())} bytes, "
            f"the payload has {len(payload)}"
        )
    view = memoryview(payload)
    parts = {}
    for key, end in zip(_SECTIONS, accumulate(sizes[key] for key in _SECTIONS)):
        parts[key] = view[end - sizes[key]:end]
    try:
        text = str(parts.pop("names"), "utf-8")
    except UnicodeDecodeError as exc:
        raise errors.IndexFormatError(f"{path}: name table is not UTF-8 ({exc})") from None
    names = tuple(text.split("\n")) if text else ()
    if not all(map(lt, names, names[1:])):
        raise errors.IndexFormatError(f"{path}: name table is not sorted and unique")
    widths = header["widths"]
    columns = {key: _unshuffle(data, widths[key]) for key, data in parts.items()}
    starts, lengths = columns["starts"], columns["lengths"]
    n_years = len(header["years"])
    if not (len(starts) == len(lengths) == len(names)
            and len(columns["female"]) == len(columns["male"]) == sum(lengths)
            and max(map(add, starts, lengths), default=0) <= n_years):
        raise errors.IndexFormatError(f"{path}: name spans point outside the columns")
    return Dataset(years_loaded=tuple(header["years"]), names=names, **columns)
