from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temponym import audit, errors, model
from temponym import dataset as ds


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


@pytest.mark.parametrize("years", [(1925, 1924), (2020, 1880)])
def test_pooled_rejects_empty_span(sample_dataset, years):
    with pytest.raises(errors.TemponymError, match="hold no year"):
        model.p_female_pooled(sample_dataset, "Leslie", years)


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
    policy = model.ClassificationPolicy(0.5, 20)
    assert model.classify(prob, policy) is model.GenderLabel.UNKNOWN


def reference_classify(prob, policy):
    """``classify`` as rational arithmetic on ``Fraction``s."""
    if prob.support < policy.min_support:
        return model.GenderLabel.UNKNOWN
    p = Fraction(prob.female_count, prob.support)
    if float(p) != prob.p_female:  # a smoothed probability or a mixture; fall back to it
        p = Fraction(prob.p_female)
    threshold = Fraction(policy.threshold)
    if p > threshold:
        return model.GenderLabel.FEMALE
    if p < 1 - threshold:
        return model.GenderLabel.MALE
    return model.GenderLabel.UNKNOWN


def threshold_policy(threshold):
    return model.ClassificationPolicy(threshold, 1)


def smoothed(female, male, pseudocount):
    """A probability smoothed by ``pseudocount`` beside the counts it smooths."""
    p = (female + pseudocount) / (female + male + 2 * pseudocount)
    return model.GenderProbability("Pat", "test", p, female, male)


BOUNDARY_POLICIES = [model.MAJORITY, model.T95, threshold_policy(0.75),
                     threshold_policy(1.0), threshold_policy(float.fromhex("0x1.0000000000001p-1"))]


@pytest.mark.parametrize("female, male, pseudocount, label", [
    (1, 1, 0.0, "U"), (50, 50, 0.0, "U"), (50, 50, 1.0, "U"),
    (19, 1, 0.0, "F"), (1, 19, 0.0, "M"),  # 19/20 lies above the float 0.95
    (18, 0, 1.0, "U"), (0, 18, 1.0, "M"),  # smoothed to the floats 0.95 and 0.05
    (3, 1, 0.0, "U"), (1, 3, 0.0, "U"), (19, 1, 0.5, "U"), (1000, 0, 1.0, "F"),
    (0, 1000, 1.0, "M"),
])
def test_classify_boundaries_equal_reference(female, male, pseudocount, label):
    prob = smoothed(female, male, pseudocount)
    assert model.classify(prob, model.T95).value == label
    for policy in BOUNDARY_POLICIES:
        for min_support in (1, female + male, female + male + 1):
            bounded = model.ClassificationPolicy(policy.threshold, min_support)
            assert model.classify(prob, bounded) is reference_classify(prob, bounded)


probabilities = st.one_of(
    st.builds(smoothed, st.integers(0, 10**6), st.integers(1, 10**6),
              st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.001, 100)),
    st.builds(model.from_counts, st.just("Pat"), st.just("test"),
              st.integers(2**53, 2**90), st.integers(2**53, 2**90)),
    # a mixture: any probability beside counts it is not the ratio of
    st.builds(model.GenderProbability, st.just("Pat"), st.just("test"),
              st.floats(0.0, 1.0), st.integers(0, 10**6), st.integers(1, 10**6)),
)
policies = st.builds(
    model.ClassificationPolicy,
    st.floats(0.5, 1.0) | st.sampled_from([0.5, 0.95, 0.75, 1.0]),
    st.integers(1, 50),
)


@settings(max_examples=1000, deadline=None)
@given(probabilities, policies)
def test_classify_equals_fraction_reference(prob, policy):
    assert model.classify(prob, policy) is reference_classify(prob, policy)


def test_classify_mixtures_equal_reference(sparse_dataset):
    cohort = audit.CohortModel("triangular-window", 35, 10)
    policies = [model.MAJORITY, model.T95, threshold_policy(0.6), threshold_policy(0.8)]
    mixtures = 0
    for activity_year in range(1935, 1996):
        dist = audit.infer_birth_distribution(activity_year, cohort, sparse_dataset)
        for name in ("Ann", "Bo", "Cy", "Dee", "Lee", "LEE", "Renee", "Zoë"):
            try:
                prob = audit.temporal_p_female(sparse_dataset, name, dist)
            except errors.NoData:
                continue
            mixtures += prob.p_female != prob.female_count / prob.support
            for policy in policies:
                assert model.classify(prob, policy) is reference_classify(prob, policy)
    assert mixtures > 100


def test_policy_validation():
    for threshold in (0.5, 1.0):
        assert model.ClassificationPolicy(threshold, 1).threshold == threshold
    for threshold in (0.4, 0.49, 1.01):
        with pytest.raises(errors.ConfigError):
            model.ClassificationPolicy(threshold, 1)
    with pytest.raises(errors.ConfigError):
        model.ClassificationPolicy(0.5, 0)


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
