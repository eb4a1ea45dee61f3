import pytest

from temponym import audit, errors, model, report


def test_trajectories_quarter_years(sample_dataset):
    names = ["Leslie", "Shelby", "Sydney"]
    series = report.emit_trajectories(sample_dataset, names, [1925, 1950, 1975, 2000])
    assert [s.series_id for s in series] == names
    leslie = series[0]
    assert [x for x, _, _ in leslie.points] == [1925, 1950, 1975, 2000]
    assert all(0.0 <= y <= 1.0 for _, y, _ in leslie.points)


def test_trajectories_skip_missing_years(sample_dataset):
    (series,) = report.emit_trajectories(sample_dataset, ["Ethan"], [1925, 2000])
    assert [x for x, _, _ in series.points] == [2000]


def test_trajectories_empty_names(sample_dataset):
    assert report.emit_trajectories(sample_dataset, [], [1925]) == []


def test_trajectories_single_point(sample_dataset):
    for years in ([1925], [1925, 1925]):  # a repeated year is one point
        (series,) = report.emit_trajectories(sample_dataset, ["Leslie"], years)
        assert len(series.points) == 1


def _p_female_points(data, name, years):
    """The points of ``name``'s series, one ``model.p_female`` per year."""
    points = []
    for year in sorted(set(years)):
        try:
            points.append((year, model.p_female(data, name, year).p_female, None))
        except errors.NoData:
            continue
    return tuple(points)


def test_trajectories_equal_a_per_year_lookup(sparse_dataset):
    # stored, case variants, diacritic spellings, names sharing a folded key
    # (Lee, LEE, lee) and unknown names
    names = ["Ann", "ann", "Bo", "Zoë", "ZOË", "Zoe", "Lee", "LEE", "lee", "lEE",
             "Renée", "Renee", "RENEE", "Zzyzx"]
    years_cases = [
        [1922, 1923, 1924, 1926, 1927, 1928],  # consecutive loaded years
        [1908, 1910, 1911],
        [1950, 1951],
        [1900, 1912, 1930, 1951, 1960],  # scattered
        [1935, 1900, 1935],  # unordered, with a repeat
    ]
    for years in years_cases:
        series = report.emit_trajectories(sparse_dataset, names, years)
        assert [s.series_id for s in series] == names
        for name, s in zip(names, series):
            assert s.points == _p_female_points(sparse_dataset, name, years), (name, years)


def test_bubble_series_totals():
    series = report.emit_bubble_series(audit.load_corpus_csv())
    by_id = {s.series_id: s for s in series}
    assert sum(size for _, _, size in by_id["male"].points) == 242
    assert sum(size for _, _, size in by_id["female"].points) == 220
    assert sum(size for _, _, size in by_id["unknown"].points) == 16
    assert all(y == 0.05 for _, y, _ in by_id["male"].points)
    assert all(y == 0.95 for _, y, _ in by_id["female"].points)
    assert all(y == 0.5 for _, y, _ in by_id["unknown"].points)


def test_bubble_single_unlabeled_stratum():
    records = [audit.CorpusRecord("r1", "Pat", 1980, "U")]
    series = report.emit_bubble_series(records)
    by_id = {s.series_id: s for s in series}
    assert by_id["unknown"].points == ((1980, 0.5, 1.0),)


def test_bubble_reference_series():
    series = report.emit_bubble_series(
        audit.load_corpus_csv(), reference_value=model.NAMSOR_LESLIE_REFERENCE
    )
    reference = next(s for s in series if s.series_id == "reference")
    assert all(y == 0.874 for _, y, _ in reference.points)
    xs = [x for x, _, _ in reference.points]
    assert min(xs) == 1970 and max(xs) == 2020


def test_bubble_requires_labels():
    with pytest.raises(errors.EmptyInput):
        report.emit_bubble_series([audit.CorpusRecord("r1", "Pat", 1980, None)])


def test_points_sorted_by_year():
    records = [
        audit.CorpusRecord("a", "Pat", 1990, "F"),
        audit.CorpusRecord("b", "Pat", 1970, "F"),
        audit.CorpusRecord("c", "Pat", 1980, "F"),
    ]
    series = report.emit_bubble_series(records)
    female = next(s for s in series if s.series_id == "female")
    xs = [x for x, _, _ in female.points]
    assert xs == sorted(xs)
