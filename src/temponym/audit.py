"""Audit corpora of (name, activity-year) records for temporal gender bias.

For every record, two predictors are compared: a birth-cohort-aware
temporal predictor (activity year mapped to a distribution over birth
years) and an atemporal predictor that pools counts over a wide year range
the way commercial gender APIs do. The difference in expected female mass
is the historical over-count introduced by the atemporal shortcut.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from operator import add, mul, truediv
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from . import errors
from .dataset import Dataset, Record, read_csv
from .model import (
    ClassificationPolicy,
    GenderProbability,
    MAJORITY,
    classify,
    p_female_pooled,
)

DEFAULT_COHORT_OFFSET = 35  # approximate mid-career age at publication
DEFAULT_ATEMPORAL_RANGE = (1880, 2020)

KNOWN_P_FEMALE = {"F": 0.95, "M": 0.05, "U": 0.5}


class CohortModel(Record):
    """Maps an activity year to a distribution over plausible birth years."""

    __slots__ = _compared = ("kind", "offset_years", "half_width")

    def __init__(self, kind: str = "fixed-offset", offset_years: int = DEFAULT_COHORT_OFFSET,
                 half_width: int = 0):
        if kind not in ("fixed-offset", "uniform-window", "triangular-window"):
            raise errors.ConfigError(f"unknown cohort model kind {kind!r}")
        if offset_years < 0:
            raise errors.ConfigError("offset_years must be >= 0")
        if half_width < 0:
            raise errors.ConfigError("half_width must be >= 0")
        if kind == "fixed-offset" and half_width:
            raise errors.ConfigError("a fixed-offset cohort takes no half-width")
        self._init(kind=kind, offset_years=offset_years, half_width=half_width)

    @classmethod
    def parse(cls, text: str) -> "CohortModel":
        """Parse CLI syntax: ``fixed:35``, ``uniform:35:10``, ``triangular:35:10``."""
        parts = text.split(":")
        kinds = {"fixed": "fixed-offset", "uniform": "uniform-window",
                 "triangular": "triangular-window"}
        if parts[0] not in kinds or len(parts) > 3:
            raise errors.ConfigError(f"unknown cohort spec {text!r}")
        try:
            numbers = [int(part) for part in parts[1:]]  # the fields' defaults fill the rest
        except ValueError:
            raise errors.ConfigError(
                f"cohort spec {text!r}: offset and half-width must be integers"
            ) from None
        return cls(kinds[parts[0]], *numbers)


class CorpusRecord(NamedTuple):
    record_id: str
    given_name: str
    activity_year: int
    known_gender: Optional[str] = None  # F, M, U or None for unlabeled

    @property
    def author_id(self) -> str:
        """Author part of "author:paper" record ids; whole id otherwise."""
        return self.record_id.split(":", 1)[0]

    @property
    def known_p_female(self) -> Optional[float]:
        if self.known_gender is None:
            return None
        return KNOWN_P_FEMALE[self.known_gender]


class DecadeRow(NamedTuple):
    period: int  # decade start, e.g. 1970
    n_records: int
    n_unresolved: int
    expected_female_temporal: float
    expected_female_atemporal: float

    @property
    def overcount(self) -> float:
        return self.expected_female_atemporal - self.expected_female_temporal


class AuditReport(Record):
    """The decade rows of an audit and the settings that made them (not compared)."""

    __slots__ = ("rows", "config")
    _compared = ("rows",)

    def __init__(self, rows: tuple[DecadeRow, ...], config: dict):
        self._init(rows=rows, config=config)

    @property
    def total_records(self) -> int:
        return sum(row.n_records for row in self.rows)

    @property
    def total_unresolved(self) -> int:
        return sum(row.n_unresolved for row in self.rows)

    @property
    def total_overcount(self) -> float:
        return sum(row.overcount for row in self.rows)


def infer_birth_distribution(
    activity_year: int,
    cohort_model: CohortModel,
    dataset: Optional[Dataset] = None,
) -> list[tuple[int, float]]:
    """Distribution over birth years for someone active in a given year.

    If a dataset is supplied the distribution is restricted to loaded
    years and renormalized.
    """
    center = activity_year - cohort_model.offset_years
    h = cohort_model.half_width
    if dataset is None:
        years = range(center - h, center + h + 1)
    else:
        loaded = dataset.years_loaded
        years = loaded[bisect_left(loaded, center - h):bisect_right(loaded, center + h)]
    if cohort_model.kind == "triangular-window":
        weights = [float(h + 1 - abs(year - center)) for year in years]
    else:
        weights = [1.0] * len(years)
    total = sum(weights)
    if total == 0:
        raise errors.EmptySupport(
            f"no loaded year receives cohort weight for activity year {activity_year}"
        )
    return [(year, w / total) for year, w in zip(years, weights)]


def temporal_p_female(
    dataset: Dataset,
    name: str,
    birth_distribution: Sequence[tuple[int, float]],
) -> GenderProbability:
    """Mixture of per-year p(F), weighted by cohort weight x yearly usage.

    A person active in a given year is more likely born in a year when the
    name was common, so within the cohort window the mixture weights are
    proportional to the name's total count that year. A birth year without
    data, loaded or not, takes no part.
    """
    years, weights = zip(*birth_distribution)
    female, male = dataset.name_counts(name, years)
    supports = list(map(add, female, male))
    masses = list(map(mul, compress(weights, supports), compress(supports, supports)))
    if not masses:
        span = f"{birth_distribution[0][0]}..{birth_distribution[-1][0]}"
        raise errors.NoData(name, f"birth years {span}")
    ratios = map(truediv, compress(female, supports), compress(supports, supports))
    mixture = sum(map(mul, masses, ratios)) / sum(masses)
    return GenderProbability(name, f"cohort mixture over {len(masses)} birth years",
                             mixture, sum(female), sum(male))


def _predictions(records, dataset, cohort_model, atemporal_range):
    """``(record, (temporal, atemporal))`` for each record, in input order.

    The pair is None where either predictor lacks data for the record. The
    records of a corpus share few activity years and repeat names, so the
    birth distribution is kept per activity year and the atemporal
    prediction per name, each as None where it has no data.
    """
    births: dict[int, Optional[list]] = {}
    pooled: dict[str, Optional[GenderProbability]] = {}
    for record in records:
        year, name = record.activity_year, record.given_name
        if year not in births:
            try:
                births[year] = infer_birth_distribution(year, cohort_model, dataset)
            except errors.EmptySupport:
                births[year] = None
        temporal = None
        if births[year] is not None:
            try:
                temporal = temporal_p_female(dataset, name, births[year])
            except errors.NoData:
                pass
        if temporal is not None and name not in pooled:
            try:
                pooled[name] = p_female_pooled(dataset, name, atemporal_range)
            except errors.NoData:
                pooled[name] = None
        resolved = temporal is not None and pooled[name] is not None
        yield record, (temporal, pooled[name]) if resolved else None


def audit_corpus(
    records: Iterable[CorpusRecord],
    dataset: Dataset,
    cohort_model: CohortModel = CohortModel(),
    atemporal_range: tuple[int, int] = DEFAULT_ATEMPORAL_RANGE,
) -> AuditReport:
    """Decade-by-decade expected-female comparison of the two predictors.

    Records that fail either predictor are tallied as unresolved and
    excluded from both expectation sums.
    """
    sums: dict[int, list] = {}  # decade -> [resolved, unresolved, temporal, atemporal]
    for record, pair in _predictions(records, dataset, cohort_model, atemporal_range):
        decade = sums.setdefault(record.activity_year // 10 * 10, [0, 0, 0.0, 0.0])
        if pair is None:
            decade[1] += 1
        else:
            decade[0] += 1
            decade[2] += pair[0].p_female
            decade[3] += pair[1].p_female
    config = {
        "cohort_model": f"{cohort_model.kind}:{cohort_model.offset_years}"
        + (f":{cohort_model.half_width}" if cohort_model.half_width else ""),
        "atemporal_range": f"{atemporal_range[0]}..{atemporal_range[1]}",
    }
    rows = tuple(DecadeRow(decade, *sums[decade]) for decade in sorted(sums))
    return AuditReport(rows=rows, config=config)


def evaluate_known(
    records: Iterable[CorpusRecord],
    dataset: Dataset,
    cohort_model: CohortModel = CohortModel(),
    atemporal_range: tuple[int, int] = DEFAULT_ATEMPORAL_RANGE,
    policy: ClassificationPolicy = MAJORITY,
) -> dict:
    """Score both predictors against records with known gender labels.

    Returns per-predictor confusion matrices plus per-gender paper counts,
    author counts, and median activity years.
    """
    import statistics  # here, not at the top: only evaluate_known needs it

    confusion = {"temporal": {}, "atemporal": {}}
    years_by_gender: dict[str, list[int]] = {}
    authors_by_gender: dict[str, set] = {}
    labeled = (r for r in records if r.known_gender is not None)
    for record, pair in _predictions(labeled, dataset, cohort_model, atemporal_range):
        gender = record.known_gender
        years_by_gender.setdefault(gender, []).append(record.activity_year)
        authors_by_gender.setdefault(gender, set()).add(record.author_id)
        for which, prob in zip(confusion, pair or (None, None)):
            key = (gender, "U" if prob is None else classify(prob, policy).value)
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
        try:
            activity_year = int(row["activity_year"])
        except ValueError:
            raise errors.ConfigError(
                f"record {record_id}: activity_year {row['activity_year']!r} is not a year"
            ) from None
        records.append(
            CorpusRecord(
                record_id=record_id,
                given_name=row["given_name"],
                activity_year=activity_year,
                known_gender=gender,
            )
        )
    return records

