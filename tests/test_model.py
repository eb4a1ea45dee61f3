from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temponym import errors
from temponym import dataset as ds
from temponym import model


def test_abigail_2000(sample_dataset):
    prob = model.p_female(sample_dataset, "Abigail", 2000)
    assert prob.female_count == 13088
    assert prob.male_count == 16
    assert prob.p_female == pytest.approx(0.9987, abs=0.0005)


def test_ethan_2000(sample_dataset):
    prob = model.p_female(sample_dataset, "Ethan", 2000)
    assert prob.p_female == pytest.approx(0.0013, abs=0.0005)


def test_leslie_1925(sample_dataset):
    assert model.p_female(sample_dataset, "Leslie", 1925).p_female == pytest.approx(
        0.0839, abs=0.0001
    )


def test_absent_name_raises_no_data(sample_dataset):
    with pytest.raises(errors.NoData):
        model.p_female(sample_dataset, "Zzyzx", 1925)


def test_unloaded_year_raises(quarter_dataset):
    with pytest.raises(errors.YearNotLoaded):
        model.p_female(quarter_dataset, "Leslie", 1926)


def test_window_zero_equals_single_year(sample_dataset):
    single = model.p_female(sample_dataset, "Leslie", 1925)
    windowed = model.p_female_windowed(sample_dataset, "Leslie", 1925, 0)
    assert windowed.p_female == single.p_female
    assert windowed.support == single.support


def test_window_matches_per_year_summation(sample_dataset):
    # independent oracle: sum the five yearly count pairs by hand
    female = male = 0
    for year in range(1923, 1928):
        f, m = sample_dataset.lookup("Leslie", year)
        female += f
        male += m
    windowed = model.p_female_windowed(sample_dataset, "Leslie", 1925, 2)
    assert windowed.female_count == female
    assert windowed.male_count == male
    assert windowed.p_female == pytest.approx(female / (female + male))


def test_pooled_single_year_equals_p_female(sample_dataset):
    single = model.p_female(sample_dataset, "Leslie", 1925)
    pooled = model.p_female_pooled(sample_dataset, "Leslie", (1925, 1925))
    assert pooled.p_female == single.p_female


def test_pooled_all_female_name_is_one():
    data = ds.load_dataset([(year, "Ann,F,100\n") for year in (1990, 1991, 1992)])
    assert model.p_female_pooled(data, "Ann", (1990, 1992)).p_female == 1.0


def test_pooled_leslie_between_historical_and_modern(sample_dataset):
    pooled = model.p_female_pooled(sample_dataset, "Leslie", (1880, 2020))
    early = model.p_female(sample_dataset, "Leslie", 1925).p_female
    modern = model.p_female(sample_dataset, "Leslie", 2020).p_female
    assert early < pooled.p_female < modern


def test_pooled_no_data(sample_dataset):
    with pytest.raises(errors.NoData):
        model.p_female_pooled(sample_dataset, "Zzyzx", (1880, 2020))


def test_pooled_rejects_stepped_range(sample_dataset):
    with pytest.raises(errors.TemponymError, match="step 1"):
        model.p_female_pooled(sample_dataset, "Leslie", range(1880, 2021, 10))


@pytest.mark.parametrize("years", [range(1925, 1925), (), (2020, 1880)])
def test_pooled_rejects_empty_span(sample_dataset, years):
    with pytest.raises(errors.TemponymError, match="hold no year"):
        model.p_female_pooled(sample_dataset, "Leslie", years)


def test_pooled_range_equals_pair(sample_dataset):
    by_range = model.p_female_pooled(sample_dataset, "Leslie", range(1900, 1951))
    assert by_range == model.p_female_pooled(sample_dataset, "Leslie", (1900, 1950))


def test_classify_jean_under_t95(sample_dataset):
    prob = model.p_female(sample_dataset, "Jean", 1925)
    assert model.classify(prob, model.T95) is model.GenderLabel.FEMALE


def test_classify_leslie_policies(sample_dataset):
    prob = model.p_female(sample_dataset, "Leslie", 1925)
    assert model.classify(prob, model.T95) is model.GenderLabel.UNKNOWN
    assert model.classify(prob, model.MAJORITY) is model.GenderLabel.MALE


def test_classify_exact_tie_is_unknown():
    prob = model.GenderProbability("Pat", "1950", 0.5, 50, 50)
    assert model.classify(prob, model.MAJORITY) is model.GenderLabel.UNKNOWN
    assert model.classify(prob, model.T95) is model.GenderLabel.UNKNOWN


def test_classify_min_support():
    prob = model.GenderProbability("Pat", "1950", 1.0, 10, 0)
    policy = model.ClassificationPolicy(kind="majority", min_support=20)
    assert model.classify(prob, policy) is model.GenderLabel.UNKNOWN


def test_policy_validation():
    with pytest.raises(errors.ConfigError):
        model.ClassificationPolicy(kind="symmetric-threshold", threshold=0.4)
    with pytest.raises(errors.ConfigError):
        model.ClassificationPolicy(kind="plurality")
    with pytest.raises(errors.ConfigError):
        model.ClassificationPolicy(min_support=0)


def test_pseudocount_smoothing(sample_dataset):
    raw = model.p_female(sample_dataset, "Abigail", 2000)
    smoothed = model.p_female(sample_dataset, "Abigail", 2000, pseudocount=1.0)
    assert smoothed.p_female < raw.p_female
    assert smoothed.female_count == raw.female_count


def test_ambiguous_share_quarter_years(quarter_dataset):
    assert model.ambiguous_name_share(quarter_dataset, 1900) == pytest.approx(0.55, abs=0.02)
    assert model.ambiguous_name_share(quarter_dataset, 2000) == pytest.approx(0.69, abs=0.02)
    for year in (1925, 1950, 1975):
        assert 0.81 <= model.ambiguous_name_share(quarter_dataset, year) <= 0.88


def test_ambiguous_share_single_sex_year():
    data = ds.load_dataset([(1950, "Ann,F,100\n")])
    assert model.ambiguous_name_share(data, 1950) == 0.0


def test_ambiguous_share_line_order_invariant():
    lines = ["Ann,F,100", "Pat,F,30", "Pat,M,70", "Sam,M,50"]
    a = ds.load_dataset([(1950, "\n".join(lines))])
    b = ds.load_dataset([(1950, "\n".join(reversed(lines)))])
    assert model.ambiguous_name_share(a, 1950) == model.ambiguous_name_share(b, 1950)


@settings(max_examples=300, deadline=None)
@given(st.integers(2**53 + 1, 2**90), st.integers(0, 2**90))
def test_ratio_is_correctly_rounded_above_53_bits(female, male):
    prob = model.from_counts("Pat", "test", female, male)
    assert prob.p_female == float(Fraction(female, female + male))
    swapped = model.from_counts("Pat", "test", male, female)
    assert swapped.p_female == float(Fraction(male, female + male))
