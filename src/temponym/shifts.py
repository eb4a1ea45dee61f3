"""Per-name gender shifts between two years, ranked and summarized.

The shift for a name is (p(F) in the later year minus p(F) in the earlier
year) scaled by 100: positive means the name moved toward female use,
negative toward male use. Rankings come unweighted (by shift magnitude
alone) or weighted by how heavily the name was used in the two years: the
weight is the mean of the two years' supports.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from . import errors
from .dataset import Dataset
from .model import p_female

DEFAULT_MIN_SUPPORT = 50
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


def gender_shift(dataset: Dataset, name: str, y1: int, y2: int) -> ShiftEntry:
    """Shift entry for one name; requires data at both endpoint years."""
    prob1 = p_female(dataset, name, y1)
    prob2 = p_female(dataset, name, y2)
    row = _row(name, prob1.female_count, prob1.male_count,
               prob2.female_count, prob2.male_count)
    return _entry(row, y1, y2)


def _row(name, f1, m1, f2, m2):
    """``(name, support_y1, support_y2, p1, p2, delta_scaled)`` from endpoint counts."""
    s1, s2 = f1 + m1, f2 + m2
    p1, p2 = f1 / s1, f2 / s2  # the ratio model.p_female computes
    return name, s1, s2, p1, p2, (p2 - p1) * 100


def _entry(row, y1, y2) -> ShiftEntry:
    name, s1, s2, p1, p2, delta = row
    weight = (s1 + s2) / 2
    return ShiftEntry(
        name=name,
        y1=y1,
        y2=y2,
        p1=p1,
        p2=p2,
        delta_scaled=delta,
        support_y1=s1,
        support_y2=s2,
        weight=weight,
        weighted_shift=delta * weight,
    )


def _rows(dataset: Dataset, y1: int, y2: int, min_support: int) -> list[tuple]:
    """A ``_row`` per name with at least ``min_support`` births in each year."""
    return [
        _row(*cells) for cells in dataset.year_pair_cells(y1, y2)
        if cells[1] + cells[2] >= min_support and cells[3] + cells[4] >= min_support
    ]


def rank_shifts(
    dataset: Dataset,
    y1: int,
    y2: int,
    min_support_each_year: int = DEFAULT_MIN_SUPPORT,
    top_k: int = 50,
    weighted: bool = False,
) -> list[ShiftEntry]:
    """Top-k shifts, deterministically ordered.

    Sorted descending by |shift| (or |weighted shift|); ties broken by
    larger combined support, then by name.
    """
    rows = _rows(dataset, y1, y2, min_support_each_year)
    # |weighted_shift| or |delta_scaled| of the entry _entry would build
    magnitude = (
        (lambda r: abs(r[5] * ((r[1] + r[2]) / 2))) if weighted else (lambda r: abs(r[5]))
    )
    rows.sort(key=lambda r: (-magnitude(r), -(r[1] + r[2]), r[0]))
    return [_entry(row, y1, y2) for row in rows[: max(top_k, 0)]]


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
        row[0] for row in _rows(dataset, y1, y2, min_support)
        if abs(row[5]) >= min_abs_delta
    }
