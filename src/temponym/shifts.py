"""Per-name gender shifts between two years, ranked and summarized.

The shift for a name is (p(F) in the later year minus p(F) in the earlier
year) scaled by 100: positive means the name moved toward female use,
negative toward male use. Rankings come unweighted (by shift magnitude
alone) or weighted by how heavily the name was used in the two years: the
weight is the mean of the two years' supports.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Iterator, NamedTuple

from . import errors
from .dataset import Dataset

DEFAULT_MIN_SUPPORT = 50
DEFAULT_TOP = 50
DEFAULT_MIN_ABS_DELTA = 20.0
DEFAULT_YEAR_PAIR = (1925, 2000)


class ShiftEntry(NamedTuple):
    name: str
    y1: int
    y2: int
    p1: float
    p2: float
    delta_scaled: float
    support_y1: int
    support_y2: int
    weight: float
    weighted_shift: float


class ShiftStatistics(NamedTuple):
    n_total: int
    n_positive: int
    n_negative: int
    median: float
    mean: float
    net_direction: str  # female | male | neutral


def _rows(cells: Iterable[tuple], y1: int, y2: int, min_support: int) -> Iterator[tuple]:
    """The ``ShiftEntry`` fields, in field order, of each name with enough support.

    ``cells`` holds ``(name, f1, m1, f2, m2)``: a name's female and male
    counts in ``y1`` and ``y2``. A name with fewer than ``min_support``
    births in either year is left out. The rows are plain tuples, made one
    at a time in this one loop, because a year pair walks every name of the
    dataset.
    """
    for name, f1, m1, f2, m2 in cells:
        s1, s2 = f1 + m1, f2 + m2
        if s1 >= min_support and s2 >= min_support:
            p1, p2 = f1 / s1, f2 / s2  # the ratio model.p_female computes
            delta = (p2 - p1) * 100
            weight = (s1 + s2) / 2
            yield name, y1, y2, p1, p2, delta, s1, s2, weight, delta * weight


def rank_shifts(
    dataset: Dataset,
    y1: int,
    y2: int,
    min_support_each_year: int = DEFAULT_MIN_SUPPORT,
    top_k: int = DEFAULT_TOP,
    weighted: bool = False,
) -> list[ShiftEntry]:
    """Top-k shifts, deterministically ordered.

    Sorted descending by |shift| (or |weighted shift|); ties broken by
    larger combined support, then by name.
    """
    return ranked_and_qualifying(dataset, y1, y2, min_support_each_year, top_k, weighted, 0)[0]


def ranked_and_qualifying(
    dataset: Dataset,
    y1: int,
    y2: int,
    min_support_each_year: int = DEFAULT_MIN_SUPPORT,
    top_k: int = DEFAULT_TOP,
    weighted: bool = False,
    min_abs_delta: float = DEFAULT_MIN_ABS_DELTA,
) -> tuple[list[ShiftEntry], int]:
    """``rank_shifts``, and the number of ``qualifying_names``, from one walk of the year pair.

    Only the top ``top_k`` rows are kept, and only the listed entries are
    built: the sort key ends in the name, which no two rows share, so
    ``nsmallest`` gives what a sort cut at ``top_k`` would.
    """
    qualifying = 0

    def counted(rows):
        nonlocal qualifying
        for row in rows:
            qualifying += abs(row[5]) >= min_abs_delta
            yield row

    rows = counted(_rows(dataset.year_pair_cells(y1, y2), y1, y2, min_support_each_year))
    field = 9 if weighted else 5  # weighted_shift or delta_scaled
    top = heapq.nsmallest(max(top_k, 0), rows,
                          key=lambda r: (-abs(r[field]), -(r[6] + r[7]), r[0]))
    for _ in rows:  # nsmallest of no rows reads none, but every row is counted
        pass
    return [ShiftEntry._make(row) for row in top], qualifying


def shift_statistics(
    entries: Iterable[ShiftEntry],
    use_weighted: bool = False,
) -> ShiftStatistics:
    """Counts, median, and mean over a shift population."""
    import statistics  # here, not at the top: only `shift` needs it

    values = [
        entry.weighted_shift if use_weighted else entry.delta_scaled
        for entry in entries
    ]
    if not values:
        raise errors.EmptyInput("no shift entries")
    median = statistics.median(values)
    if median > 0:
        direction = "female"
    elif median < 0:
        direction = "male"
    else:
        direction = "neutral"
    return ShiftStatistics(
        n_total=len(values),
        n_positive=sum(1 for v in values if v > 0),
        n_negative=sum(1 for v in values if v < 0),
        median=median,
        mean=statistics.fmean(values),
        net_direction=direction,
    )


def qualifying_names(
    dataset: Dataset,
    y1: int,
    y2: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
    min_abs_delta: float = DEFAULT_MIN_ABS_DELTA,
) -> set[str]:
    """Names whose shift magnitude and support clear the thresholds.

    The paper counts ~300 names with a measurable shift between 1925 and
    1975. The bundled sample is calibrated at ``DEFAULT_YEAR_PAIR``
    (1925-2000) instead: there the defaults give 300 names, and at
    1925-1975 they give 1.
    """
    return {
        row[0] for row in _rows(dataset.year_pair_cells(y1, y2), y1, y2, min_support)
        if abs(row[5]) >= min_abs_delta
    }
