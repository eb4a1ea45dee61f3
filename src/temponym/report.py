"""Plot-data emission: trajectory and bubble series as plain data.

Output is data (year/value/size tuples), not rendered images; any plotting
tool can consume the CSV or JSON forms the CLI writes.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

from . import errors
from .dataset import Dataset


class PlotSeries(NamedTuple):
    series_id: str
    points: tuple[tuple[int, float, Optional[float]], ...]  # (year, y, size)


def emit_trajectories(
    dataset: Dataset,
    names: Iterable[str],
    years: Sequence[int],
) -> list[PlotSeries]:
    """One p(F)-over-time series per name, over the distinct ``years`` in order.

    A year without data for a name is left out of its series. A year the
    dataset does not hold raises ``YearNotLoaded`` for the first such year,
    before any name is looked at, so also when ``names`` is empty.
    """
    ordered_years = sorted(set(years))
    for year in ordered_years:
        if not dataset.has_year(year):
            raise errors.YearNotLoaded(year)
    series = []
    for name in names:
        cells = ((year, dataset.lookup(name, year)) for year in ordered_years)
        points = tuple((year, cell[0] / (cell[0] + cell[1]), None)  # model.p_female's ratio
                       for year, cell in cells if cell)
        series.append(PlotSeries(series_id=name, points=points))
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
    from .audit import KNOWN_P_FEMALE  # here, not at the top: plot trajectories needs no audit

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
