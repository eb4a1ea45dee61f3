"""Parse SSA yearly name files into an immutable, queryable dataset.

File format is the SSA national distribution: one ``Name,Sex,Count`` record
per line, no header, one file per year of birth (``yob1925.txt``); the exact
row grammar is in ``_pyparse``.

In memory a :class:`Dataset` is columnar and name-major: one sorted name
table and two unsigned columns of female and male counts. Each name
owns one contiguous span of positions in ``years_loaded`` and its cells sit
next to each other in the columns, from its offset on; a year inside a span
in which the name has no data holds zeros. A zero count (lenient mode keeps
rows below the publication floor) is no data: a span starts and ends at
non-zero cells. Positions rather than calendar years keep sparse year sets
compact, a single-year lookup is one index into each column, and a windowed
or pooled lookup sums one slice of each. Loading a Dataset from an index
does no per-name work in Python code. Building one from raw files costs, per
row, one lookup of its ``name,sex`` key's id and one store into its year's
row of counts, both in C; per key, one Python step splits it into name and
sex and one cuts its cells out of a block of the year rows; per name, one
copies them into the columns. Each count is held once, at the width of its
year's row, until the columns hold it; no years x keys grid is built.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate, repeat
from operator import add, lt, mul, setitem
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence
from unicodedata import combining, normalize

from . import errors
from ._pyparse import KeyIds, merge_rows

# The hash of the index digests, from the builtin module (hashlib.blake2b is
# this same function), as random.py takes _sha512: importing hashlib maps
# OpenSSL's libcrypto into the process.
from _blake2 import blake2b

MIN_YEAR = 1880
# Latest accepted year of birth. A fixed bound, not today's date, so that
# whether a file parses never depends on the clock: the SSA archive starts
# in 1880 and publishes one year at a time, and 2100 still rejects a
# mistyped year such as yob9125.txt.
MAX_YEAR = 2100

_YOB_RE = re.compile(r"yob([0-9]{4})\.txt")  # the whole file name

INDEX_MAGIC = b"TMPNIDX\n"
INDEX_VERSION = 9

_NO_DATA = (0, 0)


def strip_diacritics(text: str) -> str:
    if text.isascii():  # NFKD leaves ASCII unchanged and adds no combining marks
        return text
    return "".join([ch for ch in normalize("NFKD", text) if not combining(ch)])


def _folded_keys(names: Sequence[str]) -> list[str]:
    """The folded key of each name: its casefold, stripped of diacritics.

    One casefold of the joined table gives every key. An index stores the
    table joined by ``\n`` as UTF-8, so a name holding ``\n`` (it splits
    into two keys) or a lone surrogate (which UTF-8 cannot encode) is
    refused here; only a non-ASCII table can hold a surrogate or lose
    diacritics.
    """
    folded = "\n".join(names).casefold()
    keys = folded.split("\n") if names else []
    if len(keys) != len(names):
        raise errors.TemponymError("a name holds a line break")
    if folded.isascii():
        return keys
    try:
        folded.encode()
    except UnicodeEncodeError:
        raise errors.TemponymError("a name holds a lone surrogate, not UTF-8 text") from None
    return [key if key.isascii() else strip_diacritics(key) for key in keys]


def _checked_offsets(names: tuple, starts, lengths, positions: int, cells: int) -> array:
    """Per name, the index of its first cell, plus the cell count at the end:
    the running sum of ``lengths``. The names must be sorted, unique and not
    empty, and each span must lie inside ``positions`` loaded years and the
    ``cells`` cells of each count column; else the TemponymError of the rule
    broken."""
    if not all(map(lt, names, names[1:])):
        raise errors.TemponymError("name table is not sorted and unique")
    if names and not names[0]:  # sorted, so an empty name comes first
        raise errors.TemponymError("a name is empty")
    offsets = array("Q", accumulate(lengths, initial=0))
    if not (len(starts) == len(lengths) == len(names) and offsets[-1] == cells
            and max(map(add, starts, lengths), default=0) <= positions):
        raise errors.TemponymError("name spans point outside the columns")
    return offsets


class Record:
    """Base of an immutable class that checks its values when it is built.

    It stands in for a frozen dataclass: importing ``dataclasses`` and
    building each class with it costs a cold command several milliseconds.
    A subclass names its attributes in ``__slots__``, sets them in
    ``__init__`` through ``_init``, and names in ``_compared`` the ones its
    equality, hash and repr use. A subclass whose compared values cannot all
    be hashed sets ``__hash__ = None``, as ``Dataset`` does. Copies restore
    the attributes through ``__setstate__``. So do pickles of
    ``CohortModel``, ``ClassificationPolicy`` and ``ServiceConfig``; a
    ``Dataset`` does not pickle, since its columns are memoryviews.
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
    ``names[i - 1]``. The four columns are unsigned arrays or memoryviews
    of format ``'B'``, ``'H'`` or ``'I'``, kept as read-only memoryviews
    over them, so the dataset can be shared by concurrent readers.
    ``load_index`` keeps each at its stored width (real SSA counts, some
    above 2^16, load as ``'I'``), and ``_columns`` gives each the width a
    load of its index would. ``skipped`` holds the rows skipped per year, or
    nothing. ``births`` is the sum of every count: a table ``load_dataset``
    built carries the sum it took from the parse, and any other sums its
    columns when asked. Neither takes part in equality.

    ``__init__`` checks the rules of a valid table (years increasing ints
    in ``MIN_YEAR..MAX_YEAR``, names sorted, unique and not empty, spans
    inside ``years_loaded`` and the columns, those three column formats,
    ``skipped`` empty or one count per year, and names that pass
    ``_folded_keys``) and raises a ``TemponymError`` naming the one broken,
    so every table it accepts, years and names kept as tuples, saves to an
    index that loads back equal. ``load_index`` builds its table through
    ``_loaded``, which checks the same rules but the last (its names, UTF-8
    text split on ``\n``, need no ``_folded_keys`` check), and reports a
    broken rule as an ``IndexFormatError``.

    ``lookup`` and ``resolve`` resolve a name once per call. Whether
    any two names fold to one key is fixed when the dataset is built. If
    none do, a stored name answers alone: its cells are read in place. Any
    other name goes through ``_candidates``, the one resolver of folded
    keys, and the first candidate with data in a year answers for it
    (``_first_cell``). ``_candidates`` reads the fold map: per folded key
    the int index of the one stored name with that key, or, only for a key
    that two or more names share, the ascending tuple of their indices.
    ``_loaded`` takes the fact its index stores, and the map waits for the
    first lookup that needs it; ``__init__`` folds every table it builds,
    keeps the map and reads the fact from it.

    ``resolve`` gives the stored names that answer for a name, and ``sums``
    reads and sums their counts in a range of positions, weighted or not:
    one slice of each column for one name, a ``_first_cell`` per position
    for several. Windowed and pooled p(F), ``temporal_p_female`` (a call per
    run of consecutive loaded years) and each record of the audit read
    through it; ``lookup`` reads one year.

    A Dataset compares by its columns but is not hashable.
    """

    __slots__ = ("years_loaded", "names", "starts", "lengths", "female", "male", "skipped",
                 # Per name, the index in the count columns of its first cell,
                 # plus the total cell count at the end: the running sum of
                 # ``lengths``.
                 "_offsets", "_positions", "_ids",
                 # Whether every stored name folds only to itself, so an exact
                 # name needs no fold map. _groups, the fold map built by
                 # _fold_groups, in __init__ or on first need: folded key ->
                 # an int index, or a tuple of the indices of the names that
                 # share the key.
                 "_distinct", "_groups",
                 # The sum of every count, when ``load_dataset`` summed it from
                 # the parse; else None, and ``births`` sums the columns.
                 "_births")
    _compared = ("years_loaded", "names", "starts", "lengths", "female", "male")

    def __init__(self, years_loaded: Sequence[int], names: Sequence[str], starts, lengths,
                 female, male, skipped: Sequence[int] = ()):
        self._set_table(years_loaded, names, starts, lengths, female, male, skipped)
        # not read from an index: fold the names once, keeping the map
        self._init(_distinct=len(self._fold_groups()) == len(self.names))

    @classmethod
    def _loaded(cls, distinct: bool, *table) -> "Dataset":
        """The table of an index, or of some of its names, with the fold fact
        of those names: its names, UTF-8 text split on ``\n``, need no
        ``_folded_keys`` check, and the fold map waits for the first lookup
        that needs it."""
        dataset = cls.__new__(cls)
        dataset._set_table(*table)
        dataset._init(_distinct=distinct)
        return dataset

    def _set_table(self, years_loaded, names, starts, lengths, female, male, skipped=()):
        """Check the rules of a valid table and set its attributes."""
        years_loaded, names, skipped = tuple(years_loaded), tuple(names), tuple(skipped)
        if not (all(type(year) is int for year in years_loaded)
                and all(map(lt, years_loaded, years_loaded[1:]))):
            raise errors.TemponymError("years are not increasing integers")
        if years_loaded and not MIN_YEAR <= years_loaded[0] <= years_loaded[-1] <= MAX_YEAR:
            raise errors.TemponymError(f"years must lie in {MIN_YEAR}..{MAX_YEAR}")
        starts, lengths = memoryview(starts).toreadonly(), memoryview(lengths).toreadonly()
        female, male = memoryview(female).toreadonly(), memoryview(male).toreadonly()
        for key, column in zip(_U32_SECTIONS, (starts, lengths, female, male)):
            if column.format not in _TYPECODES.values():
                raise errors.TemponymError(
                    f"column {key} has format {column.format!r}, not 'B', 'H' or 'I'")
        offsets = _checked_offsets(names, starts, lengths, len(years_loaded),
                                   len(female) if len(female) == len(male) else -1)
        if skipped and len(skipped) != len(years_loaded):
            raise errors.TemponymError("skipped does not hold one count per year")
        self._init(
            years_loaded=years_loaded,
            names=names,
            starts=starts,
            lengths=lengths,
            female=female,
            male=male,
            skipped=skipped,
            _offsets=offsets,
            _positions={year: pos for pos, year in enumerate(years_loaded)},
            _ids=dict(zip(names, range(len(names)))),
            _groups=None,
            _births=None,
        )

    @property
    def births(self) -> int:
        """Every female and male count summed."""
        if self._births is None:
            return sum(self.female) + sum(self.male)
        return self._births

    # Unhashable, as a mutable sequence would be: CPython hashes a memoryview
    # only of format 'B', 'b' or 'c', and a column may be 'H' or 'I'.
    __hash__ = None

    def __repr__(self):  # the columns may hold millions of cells
        years = self.years_loaded
        span = f"{years[0]}..{years[-1]}" if years else "none"
        return (f"Dataset(years {span}, {len(years)} loaded; {len(self.names)} names; "
                f"{len(self.female)} cells)")

    def _fold_groups(self) -> dict[str, int | tuple[int, ...]]:
        """Folded key -> the index of the one stored name that has it, or the
        ascending tuple of indices of the names that share it."""
        # Two threads may both build it; each gets a complete, equal map, so
        # whichever is kept gives the same answers.
        groups = self._groups
        if groups is None:
            keys = _folded_keys(self.names)
            # Built in C from the index ints ``_ids`` holds, in name order. A
            # key that several names share is left with the last index it
            # has, so ``groups[key] == i`` only there.
            groups = dict(zip(keys, self._ids.values()))
            if len(groups) < len(keys):  # some names share a key
                shared: dict[str, list[int]] = {}
                for i, key in enumerate(keys):
                    if groups[key] != i or key in shared:
                        shared.setdefault(key, []).append(i)
                groups.update((key, tuple(group)) for key, group in shared.items())
            object.__setattr__(self, "_groups", groups)
        return groups

    def _candidates(self, name: str, fold_diacritics: bool) -> Sequence[int]:
        """Indices of the stored names that may answer for ``name``, in order.

        The exact name, then the names equal to it under casefolding, then
        (only with ``fold_diacritics``) the rest of its folded-key group.
        """
        key = name.casefold()
        # A query holding "\n" gets a key holding "\n", which no group has.
        group = (self._groups or self._fold_groups()).get(
            key if key.isascii() else strip_diacritics(key))
        if group is None:
            return ()
        if isinstance(group, int):  # the exact name, if stored, is this one
            return (group,) if fold_diacritics or self.names[group].casefold() == key else ()
        ids = [self._ids[name]] if name in self._ids else []
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

    def lookup(
        self, name: str, year: int, fold_diacritics: bool = False
    ) -> Optional[tuple[int, int]]:
        """(female, male) for a name in one year, or None without data.

        The first of the name's ``_candidates`` with data in that year answers.
        """
        pos = self._positions.get(year)
        if pos is None:
            raise errors.YearNotLoaded(year)
        i = self._ids.get(name)
        if i is None or not self._distinct:
            return self._first_cell(self._candidates(name, fold_diacritics), pos)
        offset = pos - self.starts[i]
        if 0 <= offset < self.lengths[i]:
            cell = self._offsets[i] + offset
            female, male = self.female[cell], self.male[cell]
            if female or male:
                return female, male
        return None

    def resolve(self, name: str, fold_diacritics: bool = False) -> Sequence[int]:
        """The stored names that answer for ``name``, in order: itself alone
        when it is stored in a table where no two names fold alike, else its
        ``_candidates``."""
        i = self._ids.get(name)
        return (i,) if i is not None and self._distinct else self._candidates(
            name, fold_diacritics)

    def sums(self, ids: Sequence[int], lo: int, hi: int,
             weights: Optional[Sequence] = None) -> tuple:
        """``(Σ w·f, Σ w·(f + m), Σ f, Σ m)`` over the counts of the names
        ``ids`` (``resolve``) at the loaded positions ``lo`` to ``hi - 1``, with
        ``weights[k]`` the weight of position ``lo + k``, or 1 for each.

        One name's counts are one slice of each column, where its span and the
        positions overlap, and the weights from the slice's first position on
        apply. Several names' are read position by position, each from the
        first name with data there (``_first_cell``).
        """
        if len(ids) == 1:
            i = ids[0]
            start = self.starts[i]
            stop, base = start + self.lengths[i], self._offsets[i] - start
            first = lo if lo > start else start
            last = hi if hi < stop else stop
            cut = slice(base + first, base + (last if last > first else first))
            skip, female, male = first - lo, self.female[cut], self.male[cut]
        else:
            hi = min(hi, len(self.years_loaded)) if ids else lo  # no name: no cells
            cells = [self._first_cell(ids, pos) or _NO_DATA for pos in range(lo, hi)]
            skip, female, male = 0, [f for f, _ in cells], [m for _, m in cells]
        if weights is None:
            female, male = sum(female), sum(male)
            return female, female + male, female, male
        # lists: each count is read twice, and a memoryview makes its int at each read
        female, male, weights = list(female), list(male), weights[skip:]
        num = sum(map(mul, weights, female))
        return num, num + sum(map(mul, weights, male)), sum(female), sum(male)

    def year_span(self, first_year: int, last_year: int) -> tuple[int, int]:
        """``(lo, hi)``: the loaded positions of the years in a range that holds one."""
        if first_year > last_year:
            raise errors.TemponymError(f"pooled years {(first_year, last_year)!r} hold no year")
        years = self.years_loaded
        return bisect_left(years, first_year), bisect_right(years, last_year)

    def year_pair_cells(self, y1: int, y2: int) -> Iterator[tuple[str, int, int, int, int]]:
        """``(name, f1, m1, f2, m2)`` for every name with data in both years, in
        name order, one row at a time; a year not loaded is refused at the call."""
        p1, p2 = self._position(y1), self._position(y2)
        lo, hi = min(p1, p2), max(p1, p2)
        female, male = self.female, self.male

        def rows():
            for name, start, length, offset in zip(
                    self.names, self.starts, self.lengths, self._offsets):
                if start <= lo and hi < start + length:
                    base = offset - start
                    f1, m1 = female[base + p1], male[base + p1]
                    f2, m2 = female[base + p2], male[base + p2]
                    if (f1 or m1) and (f2 or m2):
                        yield name, f1, m1, f2, m2
        return rows()

    def year_cells(self, year: int) -> dict[str, tuple[int, int]]:
        """Every name with data in one year, in name order, with its counts."""
        return {name: (f, m) for name, f, m, _, _ in self.year_pair_cells(year, year)}


def parse_year_file(content: str, year: int, strict: bool = True) -> Dataset:
    """Parse one SSA yearly file into a one-year Dataset (see ``load_dataset``)."""
    return load_dataset([(year, content)], strict)


# Keys per block of the table build: ``_columns`` stacks one block of each
# year's row at a time, never the whole years x keys grid.
_BLOCK = 2048


def _columns(ids: dict[str, int], rows: dict[int, tuple[array, int]]) -> Dataset:
    """Name-major columns from per-year rows gathered as the years were parsed.

    ``ids`` maps each ``name,sex`` key to its row id and ``rows`` each year
    to its counts and its skipped-row count; both are emptied as they are
    read. A key's count sits at its row id, and a row stops at the keys seen
    so far when its year was parsed. A row is an unsigned array, each at its
    own width. The keys are cut in blocks of ``_BLOCK`` ids. A block's slice
    of every row, widened to the widest row's type and padded with zeros, is
    stacked in year order into a small year-major grid, in which each key's
    cells are one strided slice. The blocks go from the highest ids down, so
    each row can then lose that slice off its end: the rows shrink as the
    cells gathered grow. Of each key only its cells from its first to its
    last non-zero one are kept, one after another in one store. Each key is
    then split into its name and sex once, and each name's female and male
    cells are copied from the store, padded with zeros to the name's span:
    from the first to the last year in which either count is non-zero. The
    count columns are built at the widest row's type and narrowed, if at
    all, by the rule of an index save and load, and the span columns, which
    hold positions among at most 221 loaded years, are built one byte wide,
    so the table holds the widths its index would load with.
    """
    n_keys = len(ids)
    years = sorted(rows)
    year_rows, skipped = [], []
    for year in years:
        row, lost = rows.pop(year)
        year_rows.append(row)
        skipped.append(lost)
    n = len(years)
    typecode = _TYPECODES[max((row.itemsize for row in year_rows), default=1)]
    size = array(typecode).itemsize
    # Per row id, the first and past-the-last position of its key's cells in
    # ``store`` and the byte offset of the first; row id ``n_keys``, with no
    # cells, stands for the key of a sex a name has no row of.
    first = array("I", [n]) * (n_keys + 1)
    last = array("I", [0]) * (n_keys + 1)
    at = array("Q", [0]) * (n_keys + 1)
    store = bytearray()
    for lo in reversed(range(0, n_keys, _BLOCK)):
        width = min(_BLOCK, n_keys - lo)
        grid = array(typecode, [0]) * (n * width)
        with memoryview(grid).cast("B") as view:
            for y, row in enumerate(year_rows):
                if len(row) > lo:  # else the row ends before this block
                    piece = _resized(row[lo:].tobytes(), row.itemsize, size)
                    view[y * width * size:y * width * size + len(piece)] = piece
                    del row[lo:]
        for j in range(width):
            raw = grid[j::width].tobytes()
            data = raw.lstrip(b"\0")
            if data:
                head = len(raw) - len(data)
                start, stop = head // size, (head + len(data.rstrip(b"\0")) + size - 1) // size
                first[lo + j], last[lo + j], at[lo + j] = start, stop, len(store)
                store += raw[start * size:stop * size]
        del grid
    del year_rows
    by_sex = {"F": {}, "M": {}}  # per sex, name -> the row id of its key
    for key, i in ids.items():  # "name,sex": the sex is the last character
        by_sex[key[-1]][key[:-2]] = i
    ids.clear()
    female_ids, male_ids = by_sex["F"], by_sex["M"]
    zeros, cells = memoryview(bytes(n * size)), memoryview(store)
    names, starts, lengths = [], array("B"), array("B")
    female, male = array(typecode), array(typecode)
    for name in sorted(female_ids.keys() | male_ids.keys()):
        f, m = female_ids.get(name, n_keys), male_ids.get(name, n_keys)
        start, stop = min(first[f], first[m]), max(last[f], last[m])
        if start >= stop:  # only zero counts: no data
            continue
        names.append(name)
        starts.append(start)
        lengths.append(stop - start)
        for column, i in ((female, f), (male, m)):
            a, b = first[i], last[i]
            if a >= b:  # no cells in this sex: its whole span is zeros
                a = b = stop
            column.frombytes(zeros[:(a - start) * size])
            column.frombytes(cells[at[i]:at[i] + (b - a) * size])
            column.frombytes(zeros[:(stop - b) * size])
    del cells, store, by_sex, female_ids, male_ids
    # one at a time, so that the wide female column goes before the male one is copied
    female = _narrowest(female)
    male = _narrowest(male)
    return Dataset(years, names, starts, lengths, female, male, skipped=skipped)


def load_dataset(sources: Iterable[tuple[int, str]], strict: bool = True) -> Dataset:
    """Build a Dataset from (year, content) pairs.

    The result is order-independent: sources may arrive in any order. Each
    content is parsed as it arrives and only its counts are kept, each year's
    in one row at the narrowest of ``'B'``, ``'H'`` and ``'I'`` that holds
    them, so an iterator that reads files lazily holds one file's text at a
    time. The kept counts are summed as they arrive, and the Dataset carries
    the sum as its ``births``. A parse error keeps its type (``InvalidSex``,
    ``FloorViolation``, ...) and its ``lineno``; its message gains the year:
    ``year Y: line N: ...``.
    """
    ids = KeyIds()  # each distinct name,sex key's row id, in order of first sight
    rows: dict[int, tuple[array, int]] = {}
    births = 0
    for year, content in sources:
        if year in rows:
            raise errors.DuplicateYear(year)
        try:
            if not MIN_YEAR <= year <= MAX_YEAR:
                raise errors.TemponymError(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]")
            (row_ids, counts), skipped = merge_rows(content, strict, ids)
        except errors.TemponymError as exc:
            exc.args = (f"year {year}: {exc}",)
            raise
        # Each count stored at its row id in a zeroed row, in C: one store per
        # row. Repeating one zero allocates no temporary. An 'I' row takes
        # the stores; one into 'H' converts each count through PyArg_Parse
        # and costs about half as much again.
        row = array("I", [0]) * len(ids)
        deque(map(setitem, repeat(row), row_ids, counts), 0)
        rows[year] = _narrowest(row), skipped
        births += sum(counts)
        del row, row_ids, counts  # before the next file is parsed
    dataset = _columns(ids, rows)
    dataset._init(_births=births)
    return dataset


def load_directory(
    directory: Path | str,
    years: Optional[Sequence[int]] = None,
    strict: bool = True,
) -> Dataset:
    """Load every yobYYYY.txt file in a directory, or only those of ascending ``years``.

    Files are read as UTF-8, one at a time, in year order, as they are parsed,
    with their line endings as stored: a lone ``\\r`` breaks no line.
    A directory with no such file (of the wanted years) is a data error.
    """
    directory = Path(directory)
    try:
        paths = list(directory.iterdir())
    except OSError as exc:
        raise errors.TemponymError(
            f"{directory}: cannot be read ({exc.strerror or exc})") from None
    found = []
    for path in paths:
        match = _YOB_RE.fullmatch(path.name)
        if not match:
            continue
        year = int(match.group(1))
        if years is None or year in years:  # no copy: a range of any width answers at once
            found.append((year, path))
    if not found:
        where = "" if years is None else (
            f" for years {years[0]}..{years[-1]}" if years else " for no year")
        raise errors.TemponymError(f"{directory}: no yobYYYY.txt file{where}")
    found.sort()
    return load_dataset(((year, read_text(path)) for year, path in found), strict=strict)


def read_text(path: Path | str) -> str:
    """A file's text, decoded as UTF-8, with its line endings as stored.

    One leading byte-order mark is dropped. A file that cannot be read or
    decoded is a data error naming it. The bytes are decoded in one call,
    with no text-mode file, so no line ending is translated.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read().decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise errors.TemponymError(f"{path}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be read ({exc.strerror or exc})") from None


def read_csv(path: Path | str, columns: Sequence[str], what: str) -> Iterator[tuple[int, dict]]:
    """``(line number, row)`` for each record of a UTF-8 CSV file with a header.

    A row maps each header field to the record's value in that column, as a
    ``csv.DictReader`` row does: a field the header names twice takes its
    last column, a field past the end of a short record is None, and a blank
    line holds no record. A header without one of ``columns``, or a
    record that stops before one of them, is a ``ConfigError`` naming the
    file as a ``what`` CSV. A line the ``csv`` module refuses (a field over
    its size limit, or a NUL before Python 3.11), the header's too, is a
    ``ConfigError`` naming the file and the line.
    """
    import csv  # here, not at the top: no ingest, query or shift reads a CSV

    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise errors.ConfigError(f"{path}: {what} CSV has no {', '.join(missing)} column")
        # a record holds each of ``columns`` when it reaches the last field so named
        width = max((len(header) - header[::-1].index(c) for c in columns), default=0)
        for fields in reader:
            if not fields:  # a blank line
                continue
            if len(fields) < width:
                raise errors.ConfigError(
                    f"{path}: line {reader.line_num} has fewer than {len(columns)} fields"
                )
            row = dict(zip(header, fields))
            if len(fields) < len(header):
                row.update(dict.fromkeys(header[len(fields):]))
            yield reader.line_num, row
    except csv.Error as exc:
        raise errors.ConfigError(f"{path}: line {reader.line_num}: {exc}") from None


def bundled_sample_dir() -> Path:
    """Directory holding the packaged SSA-format sample archive."""
    return Path(__file__).resolve().parent / "data" / "ssa_sample"


# --- persisted index -------------------------------------------------------
#
# Layout: magic line, one JSON header line, then the payload sections, in
# order:
#
#   names    the name table, UTF-8, joined by "\n"
#   starts   per name, the position in ``years`` of its first cell
#   lengths  per name, the number of cells in its span
#   female   the female count column, name-major
#   male     the male count column
#
# The header holds the format version, the years, the byte length of each
# section (``sections``) and of its streams as stored (``stored``), the
# width, 1 to 4 bytes, of each section after ``names``, whether no two names
# fold to one key (``distinct_keys``), the rows skipped per year, or ``[]``
# when none was (``skipped``), the 16-byte BLAKE2b of each stored stream, in
# file order (``digests``), and last the BLAKE2b-256 of the header itself
# (``digest``, ``_header_digest``), which so covers the stream digests. The
# sections after ``names`` are unsigned 32-bit little-endian columns, stored
# byte-plane shuffled (all first bytes, then all second bytes, ...) and cut
# after the highest plane that holds a non-zero byte: counts below 2^16 keep
# two planes, so their section holds two bytes per value. The name table is
# one zlib stream, deflated with the default strategy, and ``stored`` gives
# its length. Each column is stored as blocks: each byte plane, cut in
# pieces of ``_CHUNK`` values, each piece deflated as a zlib stream of its
# own, plane by plane and piece by piece, and ``stored`` gives the list of
# their lengths. Blocks are deflated as runs only (``zlib.Z_RLE``): count
# bytes hardly ever repeat at a distance, so searching for matches costs
# time and saves almost nothing. At ``memLevel`` 9 a block holds half as
# many Huffman code tables as at the default 8. A block that runs do not
# make smaller than its plane, such as one of random low bytes, is stored
# (level 0), so it inflates as a copy (``_block``). Each stream also checks
# its own inflated bytes with its Adler-32 trailer. Nothing may follow the
# last stream. Loading matches the header's digest, then checks the stored
# lengths against the file's size, then reads only the streams it uses, each
# once (``_Streams``), and matches each one's digest before it is inflated:
# the name table, ``starts`` and ``lengths``, and, of the count columns,
# every block or only the blocks that hold the cells of the names asked for
# (the others are not read). Each block's plane is written into a column of
# the narrowest native unsigned type that holds its width, which the
# Dataset reads in place: no row parsing. A column grows only as its first
# plane's blocks inflate, so no buffer is sized from the header.
# Saving reads a column by its own item size, so a loaded Dataset saves to
# the same bytes. The Dataset derives its offsets from ``lengths``; stored,
# they would need three planes and grow the file.

_SECTIONS = ("names", "starts", "lengths", "female", "male")
_U32_SECTIONS = _SECTIONS[1:]

# The array type code of a column stored ``width`` bytes wide, by width: the
# formats a Dataset column may have.
_TYPECODES = {1: "B", 2: "H", 3: "I", 4: "I"}


def _plane_offsets(itemsize: int) -> range:
    """The byte offset, in a native word of ``itemsize`` bytes, of each byte
    plane, least significant first."""
    return range(itemsize) if sys.byteorder == "little" else range(itemsize - 1, -1, -1)


# Values per piece in which ``_pieces`` copies a column, and per block of an
# index column.
_CHUNK = 1 << 16


def _pieces(values) -> Iterator[bytes]:
    """The bytes of an unsigned array or memoryview, copied ``_CHUNK`` values
    at a time."""
    view = memoryview(values)
    for lo in range(0, len(view), _CHUNK):
        yield view[lo:lo + _CHUNK].tobytes()


def _width(values) -> int:
    """The bytes per value an index stores ``values`` in: up to the highest
    byte plane that holds a non-zero byte, and at least one."""
    size = values.itemsize
    offsets = _plane_offsets(size)
    width = size
    while width > 1 and all(piece[offsets[width - 1]::size].count(0) == len(piece) // size
                            for piece in _pieces(values)):
        width -= 1
    return width


def _resized(cells: bytes, size: int, to: int) -> bytes | bytearray:
    """Unsigned values of ``size`` bytes each, given as their bytes, as
    values of ``to`` bytes each, copied byte plane by byte plane.

    Only the planes both sizes have are copied: a narrower size keeps each
    value's low bytes, and a wider one gets zeros in its high planes.
    """
    if size == to:
        return cells
    out = bytearray(len(cells) // size * to)
    for dst, src in zip(_plane_offsets(to), _plane_offsets(size)):
        out[dst::to] = cells[src::size]
    return out


def _narrowest(values: array) -> array:
    """``values``, or, when a narrower type holds them all (``_width``), their
    copy in it, made ``_CHUNK`` values at a time."""
    typecode = _TYPECODES[_width(values)]
    if typecode == values.typecode:
        return values
    out = array(typecode, [0]) * len(values)
    with memoryview(out).cast("B") as view:
        for lo, piece in zip(range(0, len(view), _CHUNK * out.itemsize), _pieces(values)):
            cells = _resized(piece, values.itemsize, out.itemsize)
            view[lo:lo + len(cells)] = cells
    return out


def _stream_digest(stream: bytes) -> str:
    """A stored stream's entry in the header's ``digests``: its 16-byte
    BLAKE2b, in hex."""
    return blake2b(stream, digest_size=16).hexdigest()


def _header_digest(header: dict) -> str:
    """The header's ``digest``: the BLAKE2b-256, in hex, of the header as
    JSON, its ``digest`` field null."""
    return blake2b(json.dumps({**header, "digest": None}).encode(), digest_size=32).hexdigest()


def _deflated(data: bytes, level: int = 6, **options) -> bytes:
    deflate = zlib.compressobj(level, **options)
    return deflate.compress(data) + deflate.flush()


def _block(plane: bytes) -> bytes:
    """A column block: its plane deflated as runs, or stored, if that is smaller."""
    return min(_deflated(plane, memLevel=9, strategy=zlib.Z_RLE), _deflated(plane, 0), key=len)


def save_index(dataset: Dataset, path: Path | str) -> None:
    """Write ``dataset`` to ``path``; a file that cannot be written is a data error.

    Each column's byte planes are cut from pieces of it (``_pieces``), one
    block at a time, so no whole copy of a column is made. The index is
    written to a new file beside ``path`` and renamed over it, so a write
    that fails leaves what ``path`` held, and no stray file.
    """
    names = "\n".join(dataset.names).encode()
    streams = [_deflated(names)]
    sizes, stored, widths = {"names": len(names)}, {"names": len(streams[0])}, {}
    del names
    for key in _U32_SECTIONS:
        column = getattr(dataset, key)
        size, width = column.itemsize, _width(column)
        blocks = [_block(piece[offset::size])
                  for offset in _plane_offsets(size)[:width] for piece in _pieces(column)]
        streams += blocks
        sizes[key], stored[key], widths[key] = width * len(column), list(map(len, blocks)), width
    header = {
        "format": "temponym-index",
        "version": INDEX_VERSION,
        "years": list(dataset.years_loaded),
        "sections": sizes,
        "stored": stored,
        "widths": widths,
        "distinct_keys": dataset._distinct,
        "skipped": list(dataset.skipped) if any(dataset.skipped) else [],
        "digests": list(map(_stream_digest, streams)),
    }
    header["digest"] = _header_digest(header)
    # "x": a name another writer took is refused, never written over
    temp, stray = Path(path).parent / f".temponym-{os.urandom(8).hex()}.tmp", None
    try:
        with open(temp, "xb") as fh:
            stray = temp
            fh.write(INDEX_MAGIC)
            fh.write(json.dumps(header).encode() + b"\n")
            fh.writelines(streams)
        os.replace(temp, path)
        stray = None
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be written ({exc.strerror or exc})") from None
    finally:
        if stray is not None:
            with contextlib.suppress(OSError):
                os.remove(stray)


def _blocks(values: int, width: int) -> int:
    """How many blocks a column of ``values`` values ``width`` bytes wide is stored in."""
    return width * -(-values // _CHUNK)


def _is_length(n) -> bool:
    # A length below sys.maxsize leaves room for the one byte an inflate may overrun.
    return type(n) is int and 0 <= n < sys.maxsize


def _read_header(path, line: bytes) -> dict:
    def bad(reason: str):
        return errors.IndexFormatError(f"{path}: {reason}")

    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise bad(f"header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise bad("header is not a JSON object")
    if header.get("format") != "temponym-index":
        raise bad(f"header format {header.get('format')!r} is not 'temponym-index'")
    version = header.get("version")
    # JSON's 7.0 and true compare equal to 7 and 1, but are not versions.
    if type(version) is not int or not 1 <= version <= INDEX_VERSION:
        raise bad(f"unsupported index version {version!r}")
    if version != INDEX_VERSION:
        raise bad(f"index format version {version} is no longer read; re-run `temponym ingest`")
    digest, years = header.get("digest"), header.get("years")
    if not isinstance(digest, str):
        raise bad("header has no digest")
    if not isinstance(years, list):  # the Dataset checks its items
        raise bad("header years are not a list")
    sections, stored = header.get("sections"), header.get("stored")
    if not (isinstance(sections, dict) and list(sections) == list(_SECTIONS)
            and all(map(_is_length, sections.values()))):
        raise bad(f"header sections must be byte lengths of {', '.join(_SECTIONS)}")
    if not (isinstance(stored, dict) and list(stored) == list(_SECTIONS)
            and _is_length(stored["names"])):
        raise bad(f"header stored must be byte lengths of {', '.join(_SECTIONS)}")
    widths = header.get("widths")
    if not (isinstance(widths, dict) and list(widths) == list(_U32_SECTIONS)
            and all(type(w) is int and 1 <= w <= 4 for w in widths.values())):
        raise bad(f"header widths must be byte widths 1 to 4 of {', '.join(_U32_SECTIONS)}")
    streams = 1
    for key in _U32_SECTIONS:
        if sections[key] % widths[key]:
            raise bad("a column section is not a whole number of values of its width")
        count = _blocks(sections[key] // widths[key], widths[key])
        if not (isinstance(stored[key], list) and len(stored[key]) == count
                and all(map(_is_length, stored[key]))):
            raise bad(f"header stored {key} must list the byte lengths of its {count} blocks")
        streams += count
    if type(header.get("distinct_keys")) is not bool:
        raise bad("header distinct_keys must be true or false")
    skipped = header.get("skipped")
    if not (isinstance(skipped, list) and len(skipped) in (0, len(years))
            and all(type(n) is int and n >= 0 for n in skipped)):
        raise bad("header skipped must be empty or one row count per year")
    digests = header.get("digests")
    if not (isinstance(digests, list) and len(digests) == streams
            and all(isinstance(d, str) for d in digests)):
        raise bad(f"header digests must list the digests of its {streams} streams")
    if _header_digest(header) != digest:
        raise bad("checksum mismatch in the header")
    return header


def _inflate(path, stream: bytes, size: int, what: str) -> bytes:
    """The bytes inflated from the stored ``stream`` of ``what``, a section or
    block; their length must be ``size``, what the header gives.

    One call inflates at most one byte past ``size``, so a false size
    inflates no more, and zlib grows its output only as the stream fills it:
    no buffer is sized from the header."""
    inflate = zlib.decompressobj()
    try:
        data = inflate.decompress(stream, size + 1)
    except zlib.error as exc:
        raise errors.IndexFormatError(f"{path}: corrupt {what} stream ({exc})") from None
    if len(data) <= size and not inflate.eof:
        raise errors.IndexFormatError(f"{path}: the {what} stream is truncated")
    if len(data) != size:
        held = "more" if len(data) > size else len(data)
        raise errors.IndexFormatError(
            f"{path}: section lengths give {size} bytes for the {what} stream, it holds {held}")
    if inflate.unused_data:
        raise errors.IndexFormatError(
            f"{path}: {len(inflate.unused_data)} byte(s) after the end of the {what} stream")
    return data


class _Streams:
    """The stored streams of an open index, past its header, each read only
    when asked for and matched against its digest before it is given.

    Their stored lengths are checked against the file's size before any is
    read, so no read asks for more bytes than the file holds; a pipe is read
    whole first, to learn its size. Called with a stream's name (``names``
    or ``<column> block <j>``), it seeks to that stream and gives its bytes.
    """

    def __init__(self, path, fh, header: dict):
        if not fh.seekable():  # a pipe, whose size is known only once it is read
            fh = io.BytesIO(fh.read())
        stored = header["stored"]
        lengths = [("names", stored["names"])] + [
            (f"{key} block {j}", n) for key in _U32_SECTIONS for j, n in enumerate(stored[key])]
        self.path, self.fh, self.streams = path, fh, {}
        end, size = fh.tell(), fh.seek(0, io.SEEK_END)
        for (what, n), digest in zip(lengths, header["digests"]):
            self.streams[what] = end, n, digest
            end += n
            if end > size:
                raise errors.IndexFormatError(f"{path}: the {what} stream is truncated")
        if end != size:
            raise errors.IndexFormatError(f"{path}: {size - end} byte(s) after the last stream")

    def __call__(self, what: str) -> bytes:
        at, n, digest = self.streams[what]
        self.fh.seek(at)
        data = self.fh.read(n)
        if len(data) < n:  # the file was cut after its size was read
            raise errors.IndexFormatError(f"{self.path}: the {what} stream is truncated")
        if _stream_digest(data) != digest:
            raise errors.IndexFormatError(f"{self.path}: checksum mismatch in the {what} stream")
        return data


def _column(path, key: str, read: _Streams, width: int, values: int,
            spans: Optional[Sequence[tuple[int, int]]] = None) -> memoryview:
    """The ``values`` values of column ``key``, or only those of the value
    ranges ``spans`` (ascending, each a first and past-the-last index), one
    range after another, in the narrowest native unsigned type that holds
    ``width`` bytes.

    ``read`` gives the column's stored blocks (see the layout above). Only
    those that hold a value asked for are inflated, each once, and each
    block's plane is written into the column as it is inflated. The column
    grows only by the values its first plane's blocks have inflated, so no
    buffer is sized from the header.
    """
    if spans is None:
        spans = ((0, values),)
    typecode = _TYPECODES[width]
    size = array(typecode).itemsize
    per_plane = _blocks(values, 1)
    raw = bytearray()
    for plane, offset in zip(range(width), _plane_offsets(size)):
        at, held = offset, -1
        for lo, hi in spans:
            while lo < hi:
                if lo // _CHUNK != held:
                    held = lo // _CHUNK
                    base, what = held * _CHUNK, f"{key} block {plane * per_plane + held}"
                    data = memoryview(_inflate(path, read(what), min(_CHUNK, values - base), what))
                cut = min(hi, base + _CHUNK)
                if not plane:
                    raw += bytes((cut - lo) * size)
                raw[at:at + (cut - lo) * size:size] = data[lo - base:cut - base]
                at, lo = at + (cut - lo) * size, cut
    return memoryview(raw).cast(typecode)


def _selected(table: tuple, wanted: Sequence[str], distinct: bool) -> tuple[list[int], bool]:
    """The indices, ascending, of the names in ``table`` that fold to the key of
    a name in ``wanted``, and whether no two of them share a key.

    In a table where no two names fold alike, a name stored exactly as asked
    folds only to itself: it is found by bisection and no name is folded."""
    ids = [bisect_left(table, name) for name in wanted]
    if distinct and all(i < len(table) and table[i] == name for i, name in zip(ids, wanted)):
        return sorted(set(ids)), True
    keys = _folded_keys(table)
    asked = {key if key.isascii() else strip_diacritics(key)
             for key in (name.casefold() for name in wanted)}
    ids = [i for i, key in enumerate(keys) if key in asked]
    return ids, len({keys[i] for i in ids}) == len(ids)


def _table(path, header: dict, read: _Streams, names: Optional[Iterable[str]]) -> Dataset:
    """The table of an index, or of the stored names that fold to the key of
    one of ``names``, built from its streams as ``read`` gives them."""
    sizes, widths = header["sections"], header["widths"]
    values = {key: sizes[key] // widths[key] for key in _U32_SECTIONS}
    table = _inflate(path, read("names"), sizes["names"], "names")
    try:
        text = str(table, "utf-8")
    except UnicodeDecodeError as exc:
        raise errors.IndexFormatError(f"{path}: name table is not UTF-8 ({exc})") from None
    del table
    table = tuple(text.split("\n")) if text else ()
    del text
    starts, lengths = (_column(path, key, read, widths[key], values[key])
                       for key in ("starts", "lengths"))
    distinct, spans = header["distinct_keys"], None
    if names is not None:
        cells = values["female"] if values["female"] == values["male"] else -1
        offsets = _checked_offsets(table, starts, lengths, len(header["years"]), cells)
        ids, distinct = _selected(table, list(names), distinct)
        spans = [(offsets[i], offsets[i + 1]) for i in ids]
        table = tuple(table[i] for i in ids)
        starts, lengths = (array(column.format, [column[i] for i in ids])
                           for column in (starts, lengths))
    female, male = (_column(path, key, read, widths[key], values[key], spans)
                    for key in ("female", "male"))
    return Dataset._loaded(distinct, header["years"], table, starts, lengths, female, male,
                           header["skipped"])


def load_index(path: Path | str, names: Optional[Iterable[str]] = None) -> Dataset:
    """The Dataset an index file holds; a file that breaks its layout or a
    table rule is an ``IndexFormatError``.

    The header's digest is matched first. Then each stream the load uses is
    read once, and its digest matched before it is inflated: a stream whose
    digest does not match is refused as a "checksum mismatch" naming it,
    whatever else is wrong with it. Given ``names``, only the stored names
    that fold to the key of one of them are loaded, over every year, and only
    the count blocks that hold their cells are read: the table answers every
    question about those names as the whole one does. The name table,
    ``starts`` and ``lengths`` are read and checked in full either way.
    """
    if isinstance(names, str):  # else each of its letters would be a name asked for
        raise TypeError("load_index takes an iterable of names, not one str")
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise errors.TemponymError(f"{path}: cannot be read ({exc.strerror or exc})") from None
    with fh:
        if fh.read(len(INDEX_MAGIC)) != INDEX_MAGIC:
            raise errors.IndexFormatError(f"{path}: not a temponym index")
        header = _read_header(path, fh.readline())
        try:
            return _table(path, header, _Streams(path, fh, header), names)
        except errors.IndexFormatError:
            raise
        except errors.TemponymError as exc:  # a table rule broken
            raise errors.IndexFormatError(f"{path}: {exc}") from None
