"""Plot-data emission: trajectory and bubble series as plain data.

Output is data (year/value/size tuples), not rendered images; any plotting
tool can consume the CSV or JSON forms the CLI writes.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from . import errors
from .audit import KNOWN_P_FEMALE, CorpusRecord
from .dataset import Dataset
from .model import p_female


class PlotSeries(NamedTuple):
    series_id: str
    points: tuple[tuple[int, float, Optional[float]], ...]  # (year, y, size)


def emit_trajectories(
    dataset: Dataset,
    names: Iterable[str],
    years: Sequence[int],
) -> list[PlotSeries]:
    """One p(F)-over-time series per name; missing years are skipped."""
    ordered_years = sorted(years)
    series = []
    for name in names:
        points = []
        for year in ordered_years:
            try:
                points.append((year, p_female(dataset, name, year).p_female, None))
            except errors.NoData:
                continue
        series.append(PlotSeries(series_id=name, points=tuple(points)))
    return series


def emit_bubble_series(
    records: Iterable[CorpusRecord],
    reference_value: Optional[float] = None,
) -> list[PlotSeries]:
    """Bubble series for a labeled corpus: one stratum per known gender.

    Each stratum sits at its conventional p(F) level (male 0.05, unknown
    0.5, female 0.95); bubble size is the paper count that year. An
    optional constant reference series spans the same year range.
    """
    records = list(records)
    labeled = [r for r in records if r.known_gender is not None]
    if not labeled:
        raise errors.EmptyInput("no labeled records")

    counts: dict[str, dict[int, int]] = {"M": {}, "U": {}, "F": {}}
    for record in labeled:
        per_year = counts[record.known_gender]
        per_year[record.activity_year] = per_year.get(record.activity_year, 0) + 1

    stratum_names = {"M": "male", "U": "unknown", "F": "female"}
    series = [
        PlotSeries(
            series_id=stratum_names[gender],
            points=tuple(
                (year, KNOWN_P_FEMALE[gender], float(n))
                for year, n in sorted(counts[gender].items())
            ),
        )
        for gender in ("M", "U", "F")
    ]
    if reference_value is not None:
        lo = min(r.activity_year for r in labeled)
        hi = max(r.activity_year for r in labeled)
        series.append(
            PlotSeries(
                series_id="reference",
                points=tuple((year, reference_value, None) for year in (lo, hi)),
            )
        )
    return series
