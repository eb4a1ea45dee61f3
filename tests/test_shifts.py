import random

import pytest

from temponym import errors, model, shifts
from temponym import dataset as ds


def test_shelby_shift(sample_dataset):
    entry = shifts.gender_shift(sample_dataset, "Shelby", 1925, 2000)
    assert entry.delta_scaled == pytest.approx(90.68, abs=1.5)
    assert entry.p1 == pytest.approx(0.0657, abs=0.001)
    assert entry.p2 == pytest.approx(0.9725, abs=0.001)


def test_zero_shift():
    data = ds.load_dataset([(1925, "Pat,F,30\nPat,M,70"), (2000, "Pat,F,60\nPat,M,140")])
    assert shifts.gender_shift(data, "Pat", 1925, 2000).delta_scaled == 0.0


def test_antisymmetry(sample_dataset):
    forward = shifts.gender_shift(sample_dataset, "Leslie", 1925, 2000)
    backward = shifts.gender_shift(sample_dataset, "Leslie", 2000, 1925)
    assert backward.delta_scaled == -forward.delta_scaled


def test_missing_endpoint_identified(sample_dataset):
    with pytest.raises(errors.NoData) as exc_info:
        shifts.gender_shift(sample_dataset, "Ethan", 1925, 2000)
    assert "1925" in str(exc_info.value)


def test_unweighted_top10_contains_benchmark_names(sample_dataset):
    top = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=10)
    names = {entry.name for entry in top}
    assert {"Shelby", "Leslie", "Aubrey", "Sydney"} <= names


def test_weighted_top10_contains_benchmark_names(sample_dataset):
    top = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=10, weighted=True)
    names = {entry.name for entry in top}
    assert {"Sydney", "Jean", "Allison", "Leslie"} <= names
    jean = next(entry for entry in top if entry.name == "Jean")
    assert jean.delta_scaled < 0


def test_top_k_zero(sample_dataset):
    assert shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=0) == []


def test_ranking_is_deterministic(sample_dataset):
    a = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=50)
    b = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=50)
    assert a == b


def test_tie_break_prefers_larger_support():
    content_1925 = "Aaa,F,30\nAaa,M,70\nBbb,F,300\nBbb,M,700"
    content_2000 = "Aaa,F,70\nAaa,M,30\nBbb,F,700\nBbb,M,300"
    data = ds.load_dataset([(1925, content_1925), (2000, content_2000)])
    ranked = shifts.rank_shifts(data, 1925, 2000, top_k=2)
    assert [entry.name for entry in ranked] == ["Bbb", "Aaa"]


def test_weight_monotonicity():
    # equal deltas, different supports: the bigger name must not rank lower
    content_1925 = "Big,F,100\nBig,M,900\nSmall,F,10\nSmall,M,90"
    content_2000 = "Big,F,900\nBig,M,100\nSmall,F,90\nSmall,M,10"
    data = ds.load_dataset([(1925, content_1925), (2000, content_2000)])
    ranked = shifts.rank_shifts(
        data, 1925, 2000, min_support_each_year=1, top_k=2, weighted=True
    )
    assert ranked[0].name == "Big"


def test_statistics_single_entry():
    entry = shifts.ShiftEntry("Pat", 1925, 2000, 0.1, 0.2, 10.0, 100, 100, 100.0, 1000.0)
    stats = shifts.shift_statistics([entry])
    assert stats.median == stats.mean == 10.0
    assert stats.net_direction == "female"


def test_statistics_balanced_pair():
    up = shifts.ShiftEntry("Up", 1925, 2000, 0.1, 0.2, 10.0, 100, 100, 100.0, 1000.0)
    down = shifts.ShiftEntry("Dn", 1925, 2000, 0.2, 0.1, -10.0, 100, 100, 100.0, -1000.0)
    stats = shifts.shift_statistics([up, down])
    assert stats.median == 0
    assert stats.net_direction == "neutral"
    assert stats.n_positive == stats.n_negative == 1


def test_statistics_empty_input():
    with pytest.raises(errors.EmptyInput):
        shifts.shift_statistics([])


def test_qualifying_infinite_support_empty(sample_dataset):
    assert shifts.qualifying_names(
        sample_dataset, 1925, 2000, min_support=float("inf"), min_abs_delta=0
    ) == set()


def test_qualifying_no_thresholds_gives_all_common_names(sample_dataset):
    names = shifts.qualifying_names(
        sample_dataset, 1925, 2000, min_support=1, min_abs_delta=0
    )
    cells_1925 = sample_dataset.year_cells(1925).keys()
    cells_2000 = sample_dataset.year_cells(2000).keys()
    assert names == set(cells_1925 & cells_2000)


def test_qualifying_defaults_contain_benchmark_names(sample_dataset):
    names = shifts.qualifying_names(sample_dataset, 1925, 2000)
    assert {"Shelby", "Leslie", "Sydney", "Jean", "Willie"} <= names
    # calibration target: population near the documented ~300
    assert 250 <= len(names) <= 350


def test_sign_census_top20(sample_dataset):
    top = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=20)
    negatives = {entry.name for entry in top if entry.delta_scaled < 0}
    assert len(negatives) <= 5
    assert "Jean" in negatives


def test_net_female_shift(sample_dataset):
    names = shifts.qualifying_names(sample_dataset, 1925, 2000)
    entries = [
        shifts.gender_shift(sample_dataset, name, 1925, 2000) for name in names
    ]
    stats = shifts.shift_statistics(entries)
    assert stats.n_positive > stats.n_negative
    assert stats.median > 0


def test_swapping_years_reverses_sign_census(sample_dataset):
    names = sorted(shifts.qualifying_names(sample_dataset, 1925, 2000))[:40]
    forward = [shifts.gender_shift(sample_dataset, n, 1925, 2000) for n in names]
    backward = [shifts.gender_shift(sample_dataset, n, 2000, 1925) for n in names]
    stats_f = shifts.shift_statistics(forward)
    stats_b = shifts.shift_statistics(backward)
    assert stats_f.n_positive == stats_b.n_negative
    assert stats_f.n_negative == stats_b.n_positive
    assert stats_b.median == -stats_f.median


def test_year_not_loaded(quarter_dataset):
    with pytest.raises(errors.YearNotLoaded):
        shifts.rank_shifts(quarter_dataset, 1925, 1999)


# --- the ranking against a brute-force reference ----------------------------

def _shift_dataset():
    """Three years of names drawn from a small palette of counts.

    The palette puts many supports exactly at 50, makes whole groups of
    names tie on shift and support, and leaves names out of one year.
    """
    rng = random.Random(4)
    palette = (0, 0, 5, 10, 20, 25, 30, 45, 50)
    years = {1925: [], 1950: [], 2000: []}
    for i in range(300):
        name = f"N{rng.randrange(10**6):06d}"
        for rows in years.values():
            for sex in "FM":
                count = rng.choice(palette)
                if count:
                    rows.append(f"{name},{sex},{count}")
    return ds.load_dataset([(year, "\n".join(rows)) for year, rows in years.items()])


def _reference_entries(data, y1, y2, min_support):
    """gender_shift for every stored name with data and support in both years."""
    entries = []
    for name in data.names:
        try:
            entry = shifts.gender_shift(data, name, y1, y2)
        except errors.NoData:
            continue
        prob1, prob2 = model.p_female(data, name, y1), model.p_female(data, name, y2)
        p1, p2 = prob1.p_female, prob2.p_female
        assert (entry.p1, entry.p2, entry.delta_scaled) == (p1, p2, (p2 - p1) * 100)
        assert (entry.support_y1, entry.support_y2) == (prob1.support, prob2.support)
        assert entry.weight == (entry.support_y1 + entry.support_y2) / 2
        assert entry.weighted_shift == entry.delta_scaled * entry.weight
        if entry.support_y1 >= min_support and entry.support_y2 >= min_support:
            entries.append(entry)
    return entries


@pytest.mark.parametrize("weighted", [False, True])
def test_rank_shifts_equals_reference(weighted):
    data = _shift_dataset()
    for y1, y2 in [(1925, 2000), (2000, 1925), (1950, 2000), (1925, 1925)]:
        for min_support in (1, 50, 51):
            entries = _reference_entries(data, y1, y2, min_support)
            entries.sort(key=lambda e: (
                -abs(e.weighted_shift if weighted else e.delta_scaled),
                -(e.support_y1 + e.support_y2), e.name))
            for top_k in (0, 1, 7, 10_000):
                ranked = shifts.rank_shifts(data, y1, y2, min_support, top_k, weighted)
                assert ranked == entries[:top_k]


def test_reference_cases_are_present():
    """The shift data holds the edge cases the reference comparison relies on."""
    data = _shift_dataset()
    entries = _reference_entries(data, 1925, 2000, 1)
    supports = {e.support_y1 for e in entries} | {e.support_y2 for e in entries}
    assert {45, 50, 55} <= supports  # either side of min_support=50 and 51
    keys = [(abs(e.delta_scaled), e.support_y1 + e.support_y2) for e in entries]
    assert len(set(keys)) < len(keys)  # ties broken by name
    assert len({k[0] for k in keys}) < len(set(keys))  # ties broken by support
    only_one_year = set(data.year_cells(1925)) ^ set(data.year_cells(2000))
    assert only_one_year


def test_qualifying_names_equals_reference():
    data = _shift_dataset()
    for y1, y2 in [(1925, 2000), (2000, 1950)]:
        for min_support in (1, 50, 51, 100):
            entries = _reference_entries(data, y1, y2, min_support)
            for min_abs_delta in (0, 20.0, 37.5):
                assert shifts.qualifying_names(data, y1, y2, min_support, min_abs_delta) == {
                    e.name for e in entries if abs(e.delta_scaled) >= min_abs_delta}


@pytest.mark.parametrize("weighted", [False, True])
def test_ranked_and_qualifying_equal_the_two_walks(weighted):
    data = _shift_dataset()
    for y1, y2 in [(1925, 2000), (2000, 1950), (1925, 1925)]:
        for min_support in (1, 50, 51):
            for top_k in (-1, 0, 1, 7, 10_000):
                for min_abs_delta in (0, 20.0, 37.5):
                    assert shifts.ranked_and_qualifying(
                        data, y1, y2, min_support, top_k, weighted, min_abs_delta) == (
                        shifts.rank_shifts(data, y1, y2, min_support, top_k, weighted),
                        len(shifts.qualifying_names(data, y1, y2, min_support, min_abs_delta)))


def test_qualifying_year_not_loaded(quarter_dataset):
    with pytest.raises(errors.YearNotLoaded):
        shifts.qualifying_names(quarter_dataset, 1999, 2000)
