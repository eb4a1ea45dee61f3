"""Audit corpora of (name, activity-year) records for temporal gender bias.

For every record, two predictors are compared: a birth-cohort-aware
temporal predictor (activity year mapped to a distribution over birth
years) and an atemporal predictor that pools counts over a wide year range
the way commercial gender APIs do. The difference in expected female mass
is the historical over-count introduced by the atemporal shortcut.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import fsum, inf
from operator import lt, mul
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from . import errors
from ._pyparse import NUMBER
from .dataset import MAX_YEAR, MIN_YEAR, Dataset, Record, read_csv
from .model import GenderProbability, _probability, classify

DEFAULT_COHORT_OFFSET = 35  # approximate mid-career age at publication
DEFAULT_ATEMPORAL_RANGE = (1880, 2020)

KNOWN_P_FEMALE = {"F": 0.95, "M": 0.05, "U": 0.5}


class CohortModel(Record):
    """Maps an activity year to a distribution over plausible birth years."""

    # _weights: the integer weight of each year of the window, earliest first
    __slots__ = ("kind", "offset_years", "half_width", "_weights")
    _compared = ("kind", "offset_years", "half_width")

    def __init__(self, kind: str = "fixed-offset", offset_years: int = DEFAULT_COHORT_OFFSET,
                 half_width: int = 0):
        if kind not in ("fixed-offset", "uniform-window", "triangular-window"):
            raise errors.ConfigError(f"unknown cohort model kind {kind!r}")
        if offset_years < 0:
            raise errors.ConfigError("offset_years must be >= 0")
        if not 0 <= half_width <= MAX_YEAR - MIN_YEAR:
            raise errors.ConfigError(f"half_width must be in 0..{MAX_YEAR - MIN_YEAR}")
        if kind == "fixed-offset" and half_width:
            raise errors.ConfigError("a fixed-offset cohort takes no half-width")
        self._init(kind=kind, offset_years=offset_years, half_width=half_width, _weights=(
            (*range(1, half_width + 1), *range(half_width + 1, 0, -1))
            if kind == "triangular-window" else (1,) * (2 * half_width + 1)))

    @classmethod
    def parse(cls, text: str) -> "CohortModel":
        """Parse CLI syntax: ``fixed:35``, ``uniform:35:10``, ``triangular:35:10``."""
        parts = text.split(":")
        kinds = {"fixed": "fixed-offset", "uniform": "uniform-window",
                 "triangular": "triangular-window"}
        if parts[0] not in kinds or len(parts) > 3:
            raise errors.ConfigError(f"unknown cohort spec {text!r}")
        if not all(map(NUMBER.fullmatch, parts[1:])):
            raise errors.ConfigError(
                f"cohort spec {text!r}: offset and half-width must be 1 to 9 ASCII digits")
        # the fields' defaults fill the rest
        return cls(kinds[parts[0]], *map(int, parts[1:]))

    def __str__(self) -> str:
        """``KIND:OFFSET[:HALF]``, e.g. ``fixed-offset:35`` or ``triangular-window:35:10``."""
        return f"{self.kind}:{self.offset_years}" + (
            f":{self.half_width}" if self.half_width else "")


class CorpusRecord(NamedTuple):
    record_id: str
    given_name: str
    activity_year: int
    known_gender: Optional[str] = None  # F, M, U or None for unlabeled

    @property
    def author_id(self) -> str:
        """Author part of "author:paper" record ids; whole id otherwise."""
        return self.record_id.split(":", 1)[0]


class DecadeRow(NamedTuple):
    period: int  # decade start, e.g. 1970
    n_records: int
    n_unresolved: int
    expected_female_temporal: float
    expected_female_atemporal: float

    @property
    def overcount(self) -> float:
        return self.expected_female_atemporal - self.expected_female_temporal


def _cohort_window(activity_year: int, cohort_model: CohortModel,
                   loaded: Sequence[int]) -> tuple[int, Sequence[int], Sequence[int]]:
    """``(first, years, weights)``: the loaded years inside the cohort window
    of an activity year, the position in ``loaded`` of the first of them, and
    the weight of each; the years are empty when none is loaded.

    Loaded years sit at consecutive positions, so the weights line up with
    the positions from ``first`` on, also where a year inside the window is
    not loaded.
    """
    low = activity_year - cohort_model.offset_years - cohort_model.half_width
    weights = cohort_model._weights
    first = bisect_left(loaded, low)
    years = loaded[first:bisect_left(loaded, low + len(weights))]
    if years and years[-1] - years[0] == len(years) - 1:  # consecutive: one slice of the weights
        return first, years, weights[years[0] - low:years[-1] - low + 1]
    return first, years, tuple(weights[year - low] for year in years)


_BAD_WEIGHTS = "bad birth-year weights: negative, not finite or overflowing"


class BirthDistribution(Record):
    """An immutable sequence of ``(birth year, weight)`` pairs, held as two tuples.

    ``BirthDistribution(pairs)`` reads ``pairs``, any iterable, once and
    refuses with a ``TemponymError`` a distribution that holds no pair, a
    pair that is not an int year and an int or float weight (neither a
    bool), years that do not increase, and weights that are negative, NaN,
    infinite or whose sum overflows. Such a distribution is the one
    ``temporal_p_female`` reads without checking it again.

    Length, iteration and indexing act as on the list of its pairs, and it
    equals that list; like a list it is not hashable.
    """

    __slots__ = ("years", "weights")
    _compared = ("years", "weights")
    __hash__ = None

    def __init__(self, pairs: Iterable[tuple[int, int | float]]):
        years, weights = [], []
        for pair in pairs:
            year, weight = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, 0)
            if type(year) is not int or type(weight) is bool or not isinstance(weight, (int, float)):
                raise errors.TemponymError(f"birth-year pair {pair!r} is not an int year and "
                                           "an int or float weight, neither a bool")
            years.append(year)
            weights.append(weight)
        if not years:
            raise errors.TemponymError("the birth distribution holds no year")
        if not all(map(lt, years, years[1:])):
            raise errors.TemponymError("years are not increasing")
        if not (min(weights) >= 0 and sum(weights) < inf):  # a NaN fails both
            raise errors.TemponymError(_BAD_WEIGHTS)
        self._init(years=tuple(years), weights=tuple(weights))

    @classmethod
    def _trusted(cls, years: tuple, weights: tuple) -> "BirthDistribution":
        """The distribution of pairs that are valid by construction: no check."""
        dist = object.__new__(cls)
        # not _init: this runs on every cohort lookup, and _init's keywords double its cost
        object.__setattr__(dist, "years", years)
        object.__setattr__(dist, "weights", weights)
        return dist

    def __len__(self):
        return len(self.years)

    def __iter__(self):
        return zip(self.years, self.weights)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.years[index], self.weights[index]))
        return self.years[index], self.weights[index]

    def __eq__(self, other):
        if isinstance(other, list):
            return list(self) == other
        return super().__eq__(other)


def infer_birth_distribution(activity_year: int, cohort_model: CohortModel,
                             dataset: Dataset) -> BirthDistribution:
    """``(birth year, weight)`` for the loaded years in the cohort window of an activity year.

    The weights are relative integers, since only their ratios matter: 1
    each, or ``h + 1 - |year - center|`` in a triangular window.
    """
    _, years, weights = _cohort_window(activity_year, cohort_model, dataset.years_loaded)
    if not years:
        raise errors.EmptySupport(
            f"no loaded year receives cohort weight for activity year {activity_year}")
    return BirthDistribution._trusted(years, weights)


def _weighted_sums(weights: Sequence, female: Iterable[int], male: Iterable[int]) -> tuple:
    """``(Σ w·f, Σ w·(f + m))`` over aligned weights and counts, each pair cut
    at the shorter: a cohort mixture's p(F) is their ratio, exact and
    correctly rounded for integer weights."""
    num = sum(map(mul, weights, female))
    return num, num + sum(map(mul, weights, male))


def _mixture(dataset: Dataset, ids: Sequence[int], first: int, weights: Sequence) -> tuple:
    """``(Σ w·f, Σ w·(f + m), Σ f, Σ m)`` of the names ``ids`` (``Dataset.resolve``)
    over the loaded positions from ``first`` on, one weight per position.

    The one kernel of a cohort mixture: ``temporal_p_female`` and the audit
    both read a window of consecutive loaded years through it, one
    ``Dataset.cells``.
    """
    skip, female, male = dataset.cells(ids, first, first + len(weights))
    # lists: each count is read twice, and a memoryview makes its int at each read
    female, male = list(female), list(male)
    num, den = _weighted_sums(weights[skip:] if skip else weights, female, male)
    return num, den, sum(female), sum(male)


def temporal_p_female(
    dataset: Dataset,
    name: str,
    birth_distribution: Iterable[tuple[int, int | float]],
) -> GenderProbability:
    """Mixture of per-year p(F), weighted by cohort weight x yearly usage.

    A person is more likely born in a year when the name was common, so
    p(F) = sum(w * f) / sum(w * (f + m)) over the birth years, exact and
    correctly rounded for integer weights. A year without data, loaded or
    not, takes no part.

    A ``BirthDistribution``, as ``infer_birth_distribution`` gives, is read
    as it is; any other iterable of pairs is checked once, by
    ``BirthDistribution(pairs)``. Float weights so large that the sums
    overflow are refused too. Years at consecutive loaded positions, as
    ``infer_birth_distribution`` gives them, are read as the audit reads
    them, through ``_mixture``; any other years through
    ``Dataset.name_counts``.
    """
    if type(birth_distribution) is not BirthDistribution:
        birth_distribution = BirthDistribution(birth_distribution)
    years, weights = birth_distribution.years, birth_distribution.weights
    loaded, n = dataset.years_loaded, len(years)
    first = bisect_left(loaded, years[0])
    if loaded[first:first + n] == years:
        num, den, female, male = _mixture(dataset, dataset.resolve(name), first, weights)
    else:
        female, male = dataset.name_counts(name, years)
        num, den = _weighted_sums(weights, female, male)
        female, male = sum(female), sum(male)
    if not den < inf:  # float weights whose products overflow
        raise errors.TemponymError(_BAD_WEIGHTS)
    if not den:  # no year with data has weight
        raise errors.NoData(name, f"birth years {years[0]}..{years[-1]}")
    return _probability((name, f"cohort mixture over birth years {years[0]}..{years[-1]}",
                         num / den, female, male))


def _predictions(records, dataset, cohort_model, atemporal_range):
    """``(record, pair)`` for each record, in input order, in one pass.

    ``pair`` holds the temporal and the atemporal ``(p(F), female, male)``,
    the counts that ``classify`` reads; it is None where either predictor
    lacks data for the record. A reversed ``atemporal_range`` is refused as
    the pass starts.

    The cohort window is built once per activity year, as its first loaded
    position and a weight per position from there on. Each distinct name is
    resolved once, by ``Dataset.resolve``, and its pooled counts are the
    sums of its ``Dataset.cells`` over the atemporal range. A record then
    costs one ``_mixture`` over the window, the kernel ``temporal_p_female``
    reads consecutive years through, and a division.
    """
    first_year, last_year = atemporal_range
    if first_year > last_year:
        raise errors.TemponymError(f"pooled years {atemporal_range!r} hold no year")
    loaded = dataset.years_loaded
    lo, hi = bisect_left(loaded, first_year), bisect_right(loaded, last_year)
    windows: dict = {}  # activity year -> (first position, weights), or None
    names: dict = {}  # name -> (its Dataset.resolve, its atemporal triple or None)
    for record in records:
        year, name = record.activity_year, record.given_name
        if year not in windows:
            first, years, weights = _cohort_window(year, cohort_model, loaded)
            windows[year] = (first, weights) if years else None
        window = windows[year]
        if window is None:
            yield record, None
            continue
        if name not in names:
            ids = dataset.resolve(name)
            _, female, male = dataset.cells(ids, lo, hi)
            female, male = sum(female), sum(male)
            names[name] = ids, (female / (female + male), female, male) if female or male else None
        ids, pooled = names[name]
        num, den, female, male = _mixture(dataset, ids, *window)
        yield record, ((num / den, female, male), pooled) if den and pooled else None


def audit_corpus(
    records: Iterable[CorpusRecord],
    dataset: Dataset,
    cohort_model: CohortModel = CohortModel(),
    atemporal_range: tuple[int, int] = DEFAULT_ATEMPORAL_RANGE,
) -> tuple[DecadeRow, ...]:
    """Decade-by-decade expected-female comparison of the two predictors.

    One row per decade holding a record, in decade order. Records that
    fail either predictor are tallied as unresolved and excluded from both
    expectation sums. Each sum is the ``math.fsum`` of its records' p(F):
    exact, rounded once, so it does not depend on the records' order.
    """
    decades: dict[int, list] = {}  # decade -> [unresolved, temporal p(F)s, atemporal p(F)s]
    for record, pair in _predictions(records, dataset, cohort_model, atemporal_range):
        decade = decades.setdefault(record.activity_year // 10 * 10, [0, [], []])
        if pair is None:
            decade[0] += 1
        else:
            decade[1].append(pair[0][0])
            decade[2].append(pair[1][0])
    return tuple(DecadeRow(key, len(temporal), unresolved, fsum(temporal), fsum(atemporal))
                 for key, (unresolved, temporal, atemporal) in sorted(decades.items()))


def evaluate_known(
    records: Iterable[CorpusRecord],
    dataset: Dataset,
    cohort_model: CohortModel = CohortModel(),
) -> dict:
    """Score both predictors against records with known gender labels.

    The atemporal predictor pools ``DEFAULT_ATEMPORAL_RANGE``, and each
    prediction is labeled by ``classify``'s majority policy. Returns
    per-predictor confusion matrices plus per-gender paper counts, author
    counts, and median activity years.
    """
    import statistics  # here, not at the top: only evaluate_known needs it

    confusion = {"temporal": {}, "atemporal": {}}
    years_by_gender: dict[str, list[int]] = {}
    authors_by_gender: dict[str, set] = {}
    labeled = (r for r in records if r.known_gender is not None)
    for record, pair in _predictions(labeled, dataset, cohort_model, DEFAULT_ATEMPORAL_RANGE):
        gender = record.known_gender
        years_by_gender.setdefault(gender, []).append(record.activity_year)
        authors_by_gender.setdefault(gender, set()).add(record.author_id)
        for which, counts in zip(confusion, pair or (None, None)):
            key = (gender, "U" if counts is None else classify(
                GenderProbability(record.given_name, which, *counts)).value)
            confusion[which][key] = confusion[which].get(key, 0) + 1
    if not years_by_gender:
        raise errors.EmptyInput("no labeled records")

    return {
        "confusion": confusion,
        "record_counts": {g: len(v) for g, v in years_by_gender.items()},
        "author_counts": {g: len(v) for g, v in authors_by_gender.items()},
        "median_activity_year": {
            g: statistics.median(v) for g, v in years_by_gender.items()
        },
    }


CORPUS_COLUMNS = ("record_id", "given_name", "activity_year")


def load_corpus_csv(path: Optional[Path | str] = None) -> list[CorpusRecord]:
    """Read a corpus CSV: record_id,given_name,activity_year[,known_gender].

    Defaults to the bundled 478-paper Leslie publication corpus (1970-2020).
    """
    if path is None:
        path = Path(__file__).resolve().parent / "data" / "fixtures" / "leslie_corpus.csv"
    records = []
    for _, row in read_csv(path, CORPUS_COLUMNS, "corpus"):
        record_id = row["record_id"]
        gender = (row.get("known_gender") or "").strip() or None
        if gender is not None and gender not in KNOWN_P_FEMALE:
            raise errors.ConfigError(
                f"record {record_id}: known_gender must be F, M, U or empty"
            )
        year = row["activity_year"]
        if not NUMBER.fullmatch(year):
            raise errors.ConfigError(f"record {record_id}: activity_year {year!r} is not a year")
        records.append(CorpusRecord(record_id, row["given_name"], int(year), gender))
    return records

