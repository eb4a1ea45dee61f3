"""Plot-data emission: trajectory and bubble series as plain data.

Output is data (year/value/size tuples), not rendered images; any plotting
tool can consume the CSV or JSON forms the CLI writes.
"""
from __future__ import annotations

from collections import Counter
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
    """One p(F)-over-time series per name.

    A year without data for a name is left out of its series; a year the
    dataset does not hold raises ``YearNotLoaded``.
    """
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
    counts = Counter((r.known_gender, r.activity_year) for r in records
                     if r.known_gender is not None)
    if not counts:
        raise errors.EmptyInput("no labeled records")

    stratum_names = {"M": "male", "U": "unknown", "F": "female"}
    series = [
        PlotSeries(
            series_id=stratum_names[gender],
            points=tuple(
                (year, KNOWN_P_FEMALE[gender], float(n))
                for (stratum, year), n in sorted(counts.items()) if stratum == gender
            ),
        )
        for gender in ("M", "U", "F")
    ]
    if reference_value is not None:
        years = [year for _, year in counts]
        series.append(
            PlotSeries(
                series_id="reference",
                points=tuple((year, reference_value, None) for year in (min(years), max(years))),
            )
        )
    return series
