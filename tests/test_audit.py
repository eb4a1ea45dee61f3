import collections
import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from temponym import audit, errors, model, services
from temponym import dataset as ds


def test_fixed_offset_point_mass(sample_dataset):
    dist = audit.infer_birth_distribution(
        1971, audit.CohortModel("fixed-offset", 35), sample_dataset
    )
    assert dist == [(1936, 1)] and type(dist[0][1]) is int


def test_uniform_window(sample_dataset):
    dist = audit.infer_birth_distribution(
        2000, audit.CohortModel("uniform-window", 35, 10), sample_dataset
    )
    assert dist == [(year, 1) for year in range(1955, 1976)]
    assert all(type(w) is int for _, w in dist)


def test_triangular_degenerate_equals_fixed(sample_dataset):
    tri = audit.infer_birth_distribution(
        1971, audit.CohortModel("triangular-window", 35, 0), sample_dataset
    )
    assert tri == [(1936, 1)] and type(tri[0][1]) is int


def test_triangular_weights_peak_at_center(sample_dataset):
    dist = audit.infer_birth_distribution(
        2000, audit.CohortModel("triangular-window", 35, 2), sample_dataset
    )
    assert dist == [(1963, 1), (1964, 2), (1965, 3), (1966, 2), (1967, 1)]
    assert all(type(w) is int for _, w in dist)


def test_empty_support_raises(quarter_dataset):
    with pytest.raises(errors.EmptySupport):
        audit.infer_birth_distribution(
            1930, audit.CohortModel("fixed-offset", 35), quarter_dataset
        )


def test_cohort_model_parse():
    assert audit.CohortModel.parse("fixed:35") == audit.CohortModel("fixed-offset", 35)
    assert audit.CohortModel.parse("uniform:35:10") == audit.CohortModel(
        "uniform-window", 35, 10
    )
    with pytest.raises(errors.ConfigError):
        audit.CohortModel.parse("gamma:2")
    # int() takes signs, underscores, spaces and non-ASCII digits; the spec does not
    for spec in ("triangular:+3_5: 1_0", "fixed:\u0663\u0665", "fixed:1" + "0" * 9):
        with pytest.raises(errors.ConfigError, match="must be 1 to 9 ASCII digits"):
            audit.CohortModel.parse(spec)
    with pytest.raises(errors.ConfigError):
        audit.CohortModel("bogus")


@pytest.mark.parametrize("value,attribute", [
    (audit.CohortModel("uniform-window", 35, 10), "half_width"),
    (model.ClassificationPolicy(0.95, 1), "threshold"),
    (services.ServiceConfig("genderize", "http://example.invalid"), "endpoint_url"),
])
def test_checked_records_are_immutable_values(value, attribute):
    before = getattr(value, attribute)
    with pytest.raises(AttributeError):
        setattr(value, attribute, 0)
    with pytest.raises(AttributeError):
        delattr(value, attribute)
    assert getattr(value, attribute) == before
    clone = pickle.loads(pickle.dumps(value))
    assert clone == value == copy.copy(value)
    assert hash(clone) == hash(value) == hash(value._key())
    assert repr(value).startswith(f"{type(value).__name__}(")
    assert f"{attribute}={before!r}" in repr(value)
    assert value != attribute and value.__eq__(attribute) is NotImplemented


def test_fields_outside_equality_do_not_compare():
    fixture = services.ServiceConfig("genderize", fixture_table={})
    assert fixture == services.ServiceConfig("genderize", fixture_table={"x": None})
    assert fixture != services.ServiceConfig("genderize", "http://example.invalid")


def test_cohort_half_width_spans_at_most_the_year_axis(sample_dataset):
    widest = audit.CohortModel("triangular-window", 35, ds.MAX_YEAR - ds.MIN_YEAR)
    dist = audit.infer_birth_distribution(2000, widest, sample_dataset)
    assert dist[0] == (1880, 221 - 85) and dist[-1] == (2020, 221 - 55)
    for kind in ("uniform-window", "triangular-window"):
        with pytest.raises(errors.ConfigError, match=r"half_width must be in 0\.\.220"):
            audit.CohortModel(kind, 35, ds.MAX_YEAR - ds.MIN_YEAR + 1)


def test_fixed_offset_cohort_takes_no_half_width():
    with pytest.raises(errors.ConfigError):
        audit.CohortModel("fixed-offset", 35, 10)
    assert audit.CohortModel.parse("fixed:35:0") == audit.CohortModel.parse("fixed:35")


def test_temporal_point_mass_reduces_to_single_year(sample_dataset):
    prob = audit.temporal_p_female(sample_dataset, "Leslie", [(1925, 1.0)])
    assert prob.p_female == model.p_female(sample_dataset, "Leslie", 1925).p_female


def test_temporal_all_female_is_one():
    data = ds.load_dataset([(1990, "Ann,F,100\n"), (1991, "Ann,F,50\n")])
    prob = audit.temporal_p_female(data, "Ann", [(1990, 0.3), (1991, 0.7)])
    assert prob.p_female == 1.0


def test_temporal_two_year_mixture_hand_computed():
    # oracle: usage-reweighted mixture computed by hand, exact, rounded once
    data = ds.load_dataset([
        (1990, "Pat,F,20\nPat,M,80"),   # p=0.2, support 100
        (1991, "Pat,F,90\nPat,M,210"),  # p=0.3, support 300
    ])
    w1, w2 = Fraction(1, 2) * 100, Fraction(1, 2) * 300
    expected = float((w1 * Fraction(2, 10) + w2 * Fraction(3, 10)) / (w1 + w2))
    for dist in ([(1990, 0.5), (1991, 0.5)], [(1990, 1), (1991, 1)]):
        prob = audit.temporal_p_female(data, "Pat", dist)
        assert prob.p_female == expected == 0.275
        assert (prob.female_count, prob.male_count) == (110, 290)


def test_temporal_mixture_bounds(sample_dataset):
    dist = audit.infer_birth_distribution(
        1990, audit.CohortModel("uniform-window", 35, 10), sample_dataset
    )
    mixed = audit.temporal_p_female(sample_dataset, "Leslie", dist)
    per_year = [
        model.p_female(sample_dataset, "Leslie", year).p_female
        for year, _ in dist
    ]
    assert min(per_year) <= mixed.p_female <= max(per_year)


def test_temporal_no_data(sample_dataset):
    with pytest.raises(errors.NoData):
        audit.temporal_p_female(sample_dataset, "Zzyzx", [(1925, 1.0)])


PAT = ds.load_dataset([(1990, "Pat,F,20\nPat,M,80"), (1991, "Pat,F,90\nPat,M,210"),
                       (1992, "Ann,F,9")])


BAD_WEIGHTS = "bad birth-year weights: negative, not finite or overflowing"


OVERFLOW = [(1990, 1e307), (1991, 1e307)]  # finite weights whose products with counts overflow
BAD_DISTRIBUTIONS = [
    pytest.param([], "the birth distribution holds no year", id="empty"),
    pytest.param([(1990, math.nan), (1991, 1)], BAD_WEIGHTS, id="nan"),
    pytest.param([(1990, 1), (1991, math.inf)], BAD_WEIGHTS, id="inf"),
    pytest.param([(1990, 1), (1991, 1), (1992, math.nan)], BAD_WEIGHTS,
                 id="nan-on-a-year-without-data"),
    pytest.param([(1990, -1), (1991, 2)], BAD_WEIGHTS, id="negative-int"),
    pytest.param([(1990, 1.0), (1991, -0.5)], BAD_WEIGHTS, id="negative-float"),
    pytest.param(OVERFLOW, BAD_WEIGHTS, id="products-overflow"),
    pytest.param([(1990, 1), (1990, 1), (1991, 1)], "years are not increasing",
                 id="a-year-repeated"),
    pytest.param([(1991, 1), (1990, 1)], "years are not increasing", id="years-out-of-order"),
    pytest.param([(1925, 1, 2)], "birth-year pair (1925, 1, 2) is not", id="three-items"),
    pytest.param([(1925,)], "birth-year pair (1925,) is not", id="one-item"),
    pytest.param([1925], "birth-year pair 1925 is not", id="not-a-pair"),
    pytest.param([(1925, "a")], "birth-year pair (1925, 'a') is not", id="str-weight"),
    pytest.param([(1925, None)], "birth-year pair (1925, None) is not", id="none-weight"),
    pytest.param([("1925", 1)], "birth-year pair ('1925', 1) is not", id="str-year"),
    pytest.param([(1925, 1), (1926, 1, 5)], "birth-year pair (1926, 1, 5) is not",
                 id="a-later-pair-of-three"),
    pytest.param([(1990, 1), (True, 1)], "birth-year pair (True, 1) is not", id="bool-year"),
    pytest.param([(1990, True), (1991, 1)], "birth-year pair (1990, True) is not",
                 id="bool-weight"),
]


@pytest.mark.parametrize("dist, rule", BAD_DISTRIBUTIONS)
def test_temporal_refuses_a_bad_distribution(dist, rule):
    # an exact name, and a spelling that resolves through the fold map; the
    # pairs as a list and as an iterator, which is read once
    for name in ("Pat", "pat"):
        for pairs in (dist, iter(dist)):
            with pytest.raises(errors.TemponymError, match=re.escape(rule)) as caught:
                audit.temporal_p_female(PAT, name, pairs)
            assert type(caught.value) is errors.TemponymError


@pytest.mark.parametrize("dist, rule", [
    case for case in BAD_DISTRIBUTIONS if case.values[0] is not OVERFLOW])
def test_birth_distribution_refuses_what_temporal_p_female_refuses(dist, rule):
    # all but OVERFLOW, whose refusal depends on the counts it meets
    for pairs in (dist, iter(dist)):
        with pytest.raises(errors.TemponymError, match=re.escape(rule)) as caught:
            audit.BirthDistribution(pairs)
        assert type(caught.value) is errors.TemponymError


def test_temporal_reads_an_iterator_of_pairs_once(sample_dataset):
    pairs = [(1925, 1)]
    expected = audit.temporal_p_female(sample_dataset, "Leslie", pairs)
    assert audit.temporal_p_female(sample_dataset, "Leslie", (p for p in pairs)) == expected
    assert expected.p_female == model.p_female(sample_dataset, "Leslie", 1925).p_female


def test_birth_distribution_is_an_immutable_list_of_pairs(sample_dataset):
    dist = audit.infer_birth_distribution(
        2000, audit.CohortModel("triangular-window", 35, 2), sample_dataset)
    pairs = [(1963, 1), (1964, 2), (1965, 3), (1966, 2), (1967, 1)]
    assert type(dist) is audit.BirthDistribution and not hasattr(dist, "__dict__")
    assert (dist.years, dist.weights) == ((1963, 1964, 1965, 1966, 1967), (1, 2, 3, 2, 1))
    assert dist == pairs and pairs == dist and not dist != pairs
    assert dist == audit.BirthDistribution(pairs) == audit.BirthDistribution(iter(pairs))
    assert audit.BirthDistribution(OVERFLOW) == OVERFLOW
    assert dist != pairs[:-1] and dist != tuple(pairs) and dist != audit.BirthDistribution(
        pairs[:-1])
    assert list(dist) == pairs and len(dist) == 5 and (1965, 3) in dist
    assert dist[0] == (1963, 1) and dist[-1] == (1967, 1) and dist[1:3] == pairs[1:3]
    with pytest.raises(IndexError):
        dist[5]
    for attribute in ("years", "weights"):
        with pytest.raises(AttributeError):
            setattr(dist, attribute, ())
        with pytest.raises(AttributeError):
            delattr(dist, attribute)
    assert dist == pairs
    with pytest.raises(TypeError):  # equal to a list, so unhashable as a list is
        hash(dist)
    assert pickle.loads(pickle.dumps(dist)) == dist == copy.copy(dist)
    assert repr(dist) == f"BirthDistribution(years={dist.years!r}, weights={dist.weights!r})"


@pytest.mark.parametrize("dist", [
    [(1990, 0), (1991, 0)], [(1990, 0.0), (1991, 0), (1992, 5)], [(1992, 3), (1993, 1)],
], ids=["all-zero", "weight-only-without-data", "no-year-with-data"])
def test_temporal_without_weight_on_a_year_with_data_has_no_data(dist):
    for name in ("Pat", "pat"):
        with pytest.raises(errors.NoData):
            audit.temporal_p_female(PAT, name, dist)


def test_audit_empty_corpus(sample_dataset):
    assert audit.audit_corpus([], sample_dataset) == ()


def test_audit_refuses_a_reversed_atemporal_range_before_any_record(sample_dataset):
    with pytest.raises(errors.TemponymError,
                       match=re.escape("pooled years (2020, 1880) hold no year")):
        audit.audit_corpus([], sample_dataset, atemporal_range=(2020, 1880))


def test_audit_single_record_overcount_is_two_call_arithmetic(sample_dataset):
    record = audit.CorpusRecord("r1", "Leslie", 1971)
    rows = audit.audit_corpus(
        [record], sample_dataset, audit.CohortModel("fixed-offset", 35), (1880, 2020)
    )
    single = model.p_female(sample_dataset, "Leslie", 1936).p_female
    pooled = model.p_female_pooled(sample_dataset, "Leslie", (1880, 2020)).p_female
    (row,) = rows
    assert row.overcount == pytest.approx(pooled - single)


def test_audit_conservation(sample_dataset):
    records = audit.load_corpus_csv()
    for row in audit.audit_corpus(records, sample_dataset):
        # expected female + expected male mass adds back to the record count
        assert 0 <= row.expected_female_temporal <= row.n_records
        assert 0 <= row.expected_female_atemporal <= row.n_records


def test_audit_unresolved_records_are_tallied(sample_dataset):
    records = [
        audit.CorpusRecord("r1", "Leslie", 1971),
        audit.CorpusRecord("r2", "Zzyzx", 1971),
    ]
    (row,) = audit.audit_corpus(records, sample_dataset)
    assert row.n_records == 1
    assert row.n_unresolved == 1


def test_leslie_fixture_integrity():
    records = audit.load_corpus_csv()
    assert len(records) == 478
    by_gender = {}
    for record in records:
        by_gender.setdefault(record.known_gender, []).append(record)
    assert len(by_gender["M"]) == 242
    assert len(by_gender["F"]) == 220
    assert len({r.author_id for r in by_gender["M"]}) == 37
    assert len({r.author_id for r in by_gender["F"]}) == 83
    assert len({r.author_id for r in by_gender["U"]}) == 13
    male_years = sorted(r.activity_year for r in by_gender["M"])
    assert sum(1 for y in male_years if y < 1995) == 121
    assert sum(1 for y in male_years if y > 1995) == 121
    female_years = [r.activity_year for r in by_gender["F"]]
    assert sum(1 for y in female_years if y <= 1995) == 23
    assert all(1970 <= r.activity_year <= 2020 for r in records)


def test_evaluate_known_on_fixture(sample_dataset):
    result = audit.evaluate_known(audit.load_corpus_csv(), sample_dataset)
    assert result["record_counts"] == {"M": 242, "F": 220, "U": 16}
    assert result["author_counts"] == {"M": 37, "F": 83, "U": 13}
    assert result["median_activity_year"]["M"] == 1995
    assert result["median_activity_year"]["F"] == 2008


def test_evaluate_known_all_correct_synthetic():
    data = ds.load_dataset([
        (1940, "Alan,F,5\nAlan,M,995\nAda,F,995\nAda,M,5"),
    ])
    records = [
        audit.CorpusRecord("a:1", "Alan", 1975, "M"),
        audit.CorpusRecord("b:1", "Ada", 1975, "F"),
    ]
    result = audit.evaluate_known(records, data, audit.CohortModel("fixed-offset", 35))
    for which in ("temporal", "atemporal"):
        matrix = result["confusion"][which]
        assert matrix == {("M", "M"): 1, ("F", "F"): 1}


def test_evaluate_known_empty(sample_dataset):
    with pytest.raises(errors.EmptyInput):
        audit.evaluate_known([], sample_dataset)


def test_corpus_csv_round_trip(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "record_id,given_name,activity_year,known_gender\n"
        "a:1,Leslie,1980,M\n"
        "b:1,Leslie,1990,\n"
    )
    records = audit.load_corpus_csv(path)
    assert records[0].known_gender == "M"
    assert records[1].known_gender is None


def test_corpus_csv_byte_order_mark_is_dropped(tmp_path):
    rows = b"record_id,given_name,activity_year,known_gender\r\na:1,Leslie,1980,M\r\n"
    (tmp_path / "plain.csv").write_bytes(rows)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + rows)
    records = audit.load_corpus_csv(tmp_path / "bom.csv")
    assert records == audit.load_corpus_csv(tmp_path / "plain.csv")
    assert records == [audit.CorpusRecord("a:1", "Leslie", 1980, "M")]


def test_corpus_csv_rejects_bad_gender(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("record_id,given_name,activity_year,known_gender\na,Leslie,1980,X\n")
    with pytest.raises(errors.ConfigError):
        audit.load_corpus_csv(path)


@pytest.mark.parametrize("year", [
    "1_990", "+1990", " 1990", "1990 ", "\u0661\u0669\u0669\u0660", "-1990", "1990.0", "19x0", "",
    "1" * 10,
], ids=["underscore", "plus", "leading-space", "trailing-space", "arabic-indic-digits",
        "minus", "decimal", "letter", "empty", "ten-digits"])
def test_corpus_csv_activity_year_is_ascii_digits(tmp_path, year):
    path = tmp_path / "corpus.csv"
    path.write_text(f"record_id,given_name,activity_year\na:1,Leslie,1980\nb:2,Jean,{year}\n",
                    encoding="utf-8")
    with pytest.raises(errors.ConfigError, match=re.escape(f"record b:2: activity_year {year!r}")):
        audit.load_corpus_csv(path)
    path.write_text("record_id,given_name,activity_year\na:1,Leslie,01980\nb:2,Jean,7\n")
    assert [r.activity_year for r in audit.load_corpus_csv(path)] == [1980, 7]


# --- audit_corpus and evaluate_known against the per-record loop ------------

def _audit_case():
    """A dataset with gaps and case-variant names, and a corpus that repeats
    names and years, varies case, names unknown names and has activity
    years whose cohort window holds no loaded year."""
    rng = random.Random(5)
    stems = ["Lee", "Pat", "Sam", "Jo", "Kim", "Ari", "Dale", "Robin"]
    years = [y for y in range(1900, 1961) if y % 3] + [1975]
    sources = []
    for year in years:
        rows = []
        for stem in stems + ["lee", "PAT"]:
            for sex in "FM":
                if rng.random() < 0.8:
                    rows.append(f"{stem},{sex},{rng.randrange(5, 400)}")
        sources.append((year, "\n".join(rows)))
    data = ds.load_dataset(sources)
    spellings = [str.lower, str.upper, str.title, lambda s: s]
    records = []
    for i in range(400):
        name = rng.choice(spellings)(rng.choice(stems + ["Zzyzx", "Renée"]))
        year = rng.choice([1925, 1940, 1948, 1960, 1971, 1985, 1995, 2010, 2090])
        gender = rng.choice(["F", "M", "U", None])
        records.append(audit.CorpusRecord(f"a{i % 37}:{i}", name, year, gender))
    return data, records


def _reference_pair(data, record, cohort, atemporal_range):
    """The per-record prediction, with the temporal mixture from per-year lookups."""
    try:
        dist = audit.infer_birth_distribution(record.activity_year, cohort, data)
    except errors.EmptySupport:
        return None
    temporal = _reference_temporal(data, record.given_name, dist)
    if temporal is None:
        return None
    assert audit.temporal_p_female(data, record.given_name, dist) == temporal
    try:
        atemporal = model.p_female_pooled(data, record.given_name, atemporal_range)
    except errors.NoData:
        return None
    return temporal, atemporal


AUDIT_SETTINGS = [
    (audit.CohortModel("fixed-offset", 35), (1880, 2020)),
    (audit.CohortModel("uniform-window", 35, 4), (1930, 1940)),
    (audit.CohortModel("triangular-window", 35, 10), (1880, 2020)),
    (audit.CohortModel("triangular-window", 60, 3), (1950, 1975)),
]


def _expected_rows(data, records, cohort, atemporal_range):
    """``audit_corpus``'s rows from the per-record reference: per decade, the
    ``fsum`` of the reference pairs' p(F)."""
    buckets = {}
    for record in records:
        buckets.setdefault(record.activity_year // 10 * 10, []).append(record)
    expected = []
    for decade in sorted(buckets):
        pairs = [_reference_pair(data, r, cohort, atemporal_range) for r in buckets[decade]]
        resolved = [pair for pair in pairs if pair is not None]
        expected.append(audit.DecadeRow(decade, len(resolved), len(pairs) - len(resolved),
                                        math.fsum(t.p_female for t, _ in resolved),
                                        math.fsum(a.p_female for _, a in resolved)))
    return tuple(expected)


def _expected_confusion(data, records, cohort, policy=model.MAJORITY):
    """``evaluate_known``'s confusion matrices from the per-record reference."""
    confusion = {"temporal": {}, "atemporal": {}}
    for record in records:
        if record.known_gender is None:
            continue
        pair = _reference_pair(data, record, cohort, audit.DEFAULT_ATEMPORAL_RANGE)
        for which, prob in zip(confusion, pair or (None, None)):
            label = model.classify(prob, policy).value if prob else "U"
            key = (record.known_gender, label)
            confusion[which][key] = confusion[which].get(key, 0) + 1
    return confusion


@pytest.mark.parametrize("cohort, atemporal_range", AUDIT_SETTINGS)
def test_audit_corpus_equals_per_record_loop(cohort, atemporal_range):
    data, records = _audit_case()
    rows = audit.audit_corpus(records, data, cohort, atemporal_range)
    assert rows == _expected_rows(data, records, cohort, atemporal_range)
    assert sum(row.n_unresolved for row in rows) > 0 and sum(row.n_records for row in rows) > 0


@pytest.mark.parametrize("policy", [model.MAJORITY])
@pytest.mark.parametrize("cohort, atemporal_range", AUDIT_SETTINGS)
def test_evaluate_known_equals_per_record_loop(cohort, atemporal_range, policy):
    # evaluate_known pools DEFAULT_ATEMPORAL_RANGE; ``atemporal_range`` is audit_corpus's
    data, records = _audit_case()
    labeled = [r for r in records if r.known_gender is not None]
    result = audit.evaluate_known(records, data, cohort)
    assert result["confusion"] == _expected_confusion(data, records, cohort, policy)
    assert result["record_counts"] == {
        g: sum(r.known_gender == g for r in labeled) for g in ("F", "M", "U")}


@pytest.mark.parametrize("cohort, atemporal_range", AUDIT_SETTINGS)
def test_audit_rows_do_not_depend_on_record_order(sample_dataset, cohort, atemporal_range):
    records = audit.load_corpus_csv()
    shuffled = records.copy()
    random.Random(1).shuffle(shuffled)
    assert shuffled != records
    rows = audit.audit_corpus(records, sample_dataset, cohort, atemporal_range)
    assert audit.audit_corpus(shuffled, sample_dataset, cohort, atemporal_range) == rows
    assert audit.audit_corpus(records[::-1], sample_dataset, cohort, atemporal_range) == rows


def test_audit_resolves_each_distinct_name_once(monkeypatch):
    data, records = _audit_case()
    records.append(audit.CorpusRecord("z:1", "Unwindowed", 2090, "F"))
    cohort = audit.CohortModel("triangular-window", 35, 10)

    def windowed(year):
        try:
            return bool(audit.infer_birth_distribution(year, cohort, data))
        except errors.EmptySupport:
            return False

    # a name is resolved once it has a record whose cohort window holds a loaded year
    names = {r.given_name for r in records if windowed(r.activity_year)}
    assert "Unwindowed" not in names and len(names) < len(records)
    calls = collections.Counter()
    resolve = ds.Dataset.resolve

    def counted(self, name, fold_diacritics=False):
        calls[name] += 1
        return resolve(self, name, fold_diacritics)

    monkeypatch.setattr(ds.Dataset, "resolve", counted)
    for run in (audit.audit_corpus, audit.evaluate_known):
        calls.clear()
        run(records, data, cohort)
        assert calls == dict.fromkeys(names, 1)


def test_audit_folds_each_shared_key_name_once(monkeypatch):
    # Lee and LEE share a folded key, so every spelling goes through the fold map
    data = ds.load_dataset([(1990, "Lee,F,30\nLEE,M,20\nAnn,F,9"), (1991, "Lee,M,5")])
    records = [audit.CorpusRecord(f"a{i}:{i}", name, 2025 + i % 2, "F")
               for i, name in enumerate(["lee", "Lee", "lee", "lee", "Lee", "lee"])]
    calls = collections.Counter()
    candidates = ds.Dataset._candidates

    def counted(self, name, fold_diacritics):
        calls[name] += 1
        return candidates(self, name, fold_diacritics)

    cohort = audit.CohortModel("fixed-offset", 35)
    (row,) = audit.audit_corpus(records, data, cohort)
    assert (row.n_records, row.n_unresolved) == (6, 0)  # every record has both predictions
    monkeypatch.setattr(ds.Dataset, "_candidates", counted)
    for run in (audit.audit_corpus, audit.evaluate_known):
        calls.clear()
        run(records, data, cohort)
        assert calls == {"lee": 1, "Lee": 1}


# --- the birth distribution and the mixture against per-year references ------

def _reference_distribution(activity_year, cohort, dataset):
    """Every year of the window with its integer weight, then the loaded ones kept."""
    center, h = activity_year - cohort.offset_years, cohort.half_width
    if cohort.kind == "fixed-offset" or h == 0:
        pairs = [(center, 1)]
    elif cohort.kind == "uniform-window":
        pairs = [(year, 1) for year in range(center - h, center + h + 1)]
    else:
        pairs = [(center + d, h + 1 - abs(d)) for d in range(-h, h + 1)]
    if dataset is not None:
        pairs = [(year, w) for year, w in pairs if dataset.has_year(year)]
    if not pairs:
        raise errors.EmptySupport(activity_year)
    return pairs


def _reference_temporal(data, name, dist):
    """The mixture from per-year ``lookup`` over the loaded years of ``dist``:
    the exact ratio sum(w * f) / sum(w * (f + m)), rounded once."""
    num = den = female_sum = male_sum = 0
    for year, weight in dist:
        f, m = data.has_year(year) and data.lookup(name, year) or (0, 0)
        num += Fraction(weight) * f
        den += Fraction(weight) * (f + m)
        female_sum += f
        male_sum += m
    if not den:
        return None
    return model.GenderProbability(
        name, f"cohort mixture over birth years {dist[0][0]}..{dist[-1][0]}",
        float(num / den), female_sum, male_sum)


COHORTS = [
    audit.CohortModel("fixed-offset", 35),
    audit.CohortModel("uniform-window", 35, 0), audit.CohortModel("uniform-window", 35, 4),
    audit.CohortModel("triangular-window", 35, 0), audit.CohortModel("triangular-window", 35, 10),
    audit.CohortModel("triangular-window", 20, 3),
]


def cohort_id(cohort):
    return f"{cohort.kind}:{cohort.offset_years}:{cohort.half_width}"


@pytest.mark.parametrize("cohort", COHORTS, ids=cohort_id)
def test_birth_distribution_equals_filter_then_normalise(sparse_dataset, cohort):
    empty = 0
    for activity_year in range(1890, 2011):
        try:
            expected = _reference_distribution(activity_year, cohort, sparse_dataset)
        except errors.EmptySupport:
            empty += 1
            with pytest.raises(errors.EmptySupport):
                audit.infer_birth_distribution(activity_year, cohort, sparse_dataset)
            continue
        dist = audit.infer_birth_distribution(activity_year, cohort, sparse_dataset)
        assert dist == expected and all(type(w) is int for _, w in dist)
    assert empty > 0  # windows that hold no loaded year


@pytest.mark.parametrize("cohort", COHORTS, ids=cohort_id)
def test_temporal_p_female_equals_per_year_reference(sparse_dataset, cohort):
    names = ("Ann", "bo", "Cy", "Dee", "Lee", "lee", "LEE", "lEe", "Renee", "Zoë", "Zzyzx")
    resolved = 0
    for activity_year in range(1930, 2000):
        # restricted to loaded years (as the audit does), and over every year
        dists = [_reference_distribution(activity_year, cohort, None)]
        try:
            dists.append(audit.infer_birth_distribution(activity_year, cohort, sparse_dataset))
        except errors.EmptySupport:
            pass
        for dist in dists:
            for name in names:
                expected = _reference_temporal(sparse_dataset, name, dist)
                if expected is None:
                    with pytest.raises(errors.NoData):
                        audit.temporal_p_female(sparse_dataset, name, dist)
                    continue
                resolved += 1
                assert audit.temporal_p_female(sparse_dataset, name, dist) == expected
    assert resolved > 0


@pytest.mark.parametrize("cohort", COHORTS, ids=cohort_id)
def test_audit_of_spans_inside_windows_equals_per_record_loop(sparse_dataset, cohort):
    """Names whose spans start and end inside cohort windows, windows across
    unloaded years, and names that several stored names answer for."""
    names = ("Ann", "bo", "Cy", "Dee", "Lee", "lee", "Renee", "Zoë", "Zoe", "Zzyzx")
    pairs = [(name, year) for year in range(1925, 2000, 2) for name in names]
    records = [audit.CorpusRecord(f"a{i % 9}:{i}", name, year, "FMU"[i % 3])
               for i, (name, year) in enumerate(pairs)]
    for atemporal_range in ((1880, 2020), (1905, 1925), (1941, 1949)):
        rows = audit.audit_corpus(records, sparse_dataset, cohort, atemporal_range)
        assert rows == _expected_rows(sparse_dataset, records, cohort, atemporal_range)
    assert audit.evaluate_known(records, sparse_dataset, cohort)["confusion"] == (
        _expected_confusion(sparse_dataset, records, cohort))
