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
    (series,) = report.emit_trajectories(sample_dataset, ["Leslie"], [1925])
    assert len(series.points) == 1


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
