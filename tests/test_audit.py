import copy
import pickle
import random

import pytest

from temponym import audit, errors, model, services
from temponym import dataset as ds


def test_fixed_offset_point_mass():
    dist = audit.infer_birth_distribution(1971, audit.CohortModel("fixed-offset", 35))
    assert dist == [(1936, 1.0)]


def test_uniform_window():
    dist = audit.infer_birth_distribution(
        2000, audit.CohortModel("uniform-window", 35, 10)
    )
    years = [year for year, _ in dist]
    assert years == list(range(1955, 1976))
    assert all(w == pytest.approx(1 / 21) for _, w in dist)


def test_triangular_degenerate_equals_fixed():
    tri = audit.infer_birth_distribution(1971, audit.CohortModel("triangular-window", 35, 0))
    assert tri == [(1936, 1.0)]


def test_triangular_weights_peak_at_center():
    dist = audit.infer_birth_distribution(
        2000, audit.CohortModel("triangular-window", 35, 2)
    )
    weights = dict(dist)
    assert weights[1965] > weights[1964] > weights[1963]
    assert sum(weights.values()) == pytest.approx(1.0)


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


@pytest.mark.parametrize("value,attribute", [
    (audit.CohortModel("uniform-window", 35, 10), "half_width"),
    (model.ClassificationPolicy(0.95, 1), "threshold"),
    (services.ServiceConfig("genderize", "http://example.invalid"), "rate_limit"),
    (audit.AuditReport((), {"atemporal_range": "1880..2020"}), "rows"),
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
    assert hash(clone) == hash(value)


def test_fields_outside_equality_do_not_compare():
    assert audit.AuditReport((), {"a": 1}) == audit.AuditReport((), {"b": 2})
    fixture = services.ServiceConfig("genderize", fixture_table={})
    assert fixture == services.ServiceConfig("genderize", fixture_table={"x": None})
    assert fixture != services.ServiceConfig("genderize", "http://example.invalid")


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
    # oracle: usage-reweighted mixture computed by hand
    data = ds.load_dataset([
        (1990, "Pat,F,20\nPat,M,80"),   # p=0.2, support 100
        (1991, "Pat,F,90\nPat,M,210"),  # p=0.3, support 300
    ])
    dist = [(1990, 0.5), (1991, 0.5)]
    w1, w2 = 0.5 * 100, 0.5 * 300
    expected = (w1 * 0.2 + w2 * 0.3) / (w1 + w2)
    prob = audit.temporal_p_female(data, "Pat", dist)
    assert prob.p_female == pytest.approx(expected)


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


def test_audit_empty_corpus(sample_dataset):
    report = audit.audit_corpus([], sample_dataset)
    assert report.rows == ()
    assert report.total_records == 0


def test_audit_single_record_overcount_is_two_call_arithmetic(sample_dataset):
    record = audit.CorpusRecord("r1", "Leslie", 1971)
    report = audit.audit_corpus(
        [record], sample_dataset, audit.CohortModel("fixed-offset", 35), (1880, 2020)
    )
    single = model.p_female(sample_dataset, "Leslie", 1936).p_female
    pooled = model.p_female_pooled(sample_dataset, "Leslie", (1880, 2020)).p_female
    (row,) = report.rows
    assert row.overcount == pytest.approx(pooled - single)


def test_audit_conservation(sample_dataset):
    records = audit.load_corpus_csv()
    report = audit.audit_corpus(records, sample_dataset)
    for row in report.rows:
        # expected female + expected male mass adds back to the record count
        assert 0 <= row.expected_female_temporal <= row.n_records
        assert 0 <= row.expected_female_atemporal <= row.n_records


def test_audit_unresolved_records_are_tallied(sample_dataset):
    records = [
        audit.CorpusRecord("r1", "Leslie", 1971),
        audit.CorpusRecord("r2", "Zzyzx", 1971),
    ]
    report = audit.audit_corpus(records, sample_dataset)
    (row,) = report.rows
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
    result = audit.evaluate_known(
        records, data, audit.CohortModel("fixed-offset", 35), (1940, 1940)
    )
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
    assert records[0].known_p_female == 0.05
    assert records[1].known_gender is None
    assert records[1].known_p_female is None


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


@pytest.mark.parametrize("cohort, atemporal_range", AUDIT_SETTINGS)
def test_audit_corpus_equals_per_record_loop(cohort, atemporal_range):
    data, records = _audit_case()
    buckets = {}
    for record in records:
        buckets.setdefault(record.activity_year // 10 * 10, []).append(record)
    expected = []
    for decade in sorted(buckets):
        pairs = [_reference_pair(data, r, cohort, atemporal_range) for r in buckets[decade]]
        resolved = [pair for pair in pairs if pair is not None]
        temporal = atemporal = 0.0
        for t, a in resolved:
            temporal += t.p_female
            atemporal += a.p_female
        expected.append(audit.DecadeRow(decade, len(resolved), len(pairs) - len(resolved),
                                        temporal, atemporal))
    report = audit.audit_corpus(records, data, cohort, atemporal_range)
    assert report.rows == tuple(expected)
    assert report.total_unresolved > 0 and report.total_records > 0


@pytest.mark.parametrize("policy", [model.MAJORITY, model.T95])
@pytest.mark.parametrize("cohort, atemporal_range", AUDIT_SETTINGS)
def test_evaluate_known_equals_per_record_loop(cohort, atemporal_range, policy):
    data, records = _audit_case()
    labeled = [r for r in records if r.known_gender is not None]
    confusion = {"temporal": {}, "atemporal": {}}
    for record in labeled:
        pair = _reference_pair(data, record, cohort, atemporal_range)
        for which, prob in zip(confusion, pair or (None, None)):
            label = model.classify(prob, policy).value if prob else "U"
            key = (record.known_gender, label)
            confusion[which][key] = confusion[which].get(key, 0) + 1
    result = audit.evaluate_known(records, data, cohort, atemporal_range, policy)
    assert result["confusion"] == confusion
    assert result["record_counts"] == {
        g: sum(r.known_gender == g for r in labeled) for g in ("F", "M", "U")}


# --- the birth distribution and the mixture against per-year references ------

def _reference_distribution(activity_year, cohort, dataset):
    """Every year of the window, then the loaded ones kept and renormalized."""
    center, h = activity_year - cohort.offset_years, cohort.half_width
    if cohort.kind == "fixed-offset" or h == 0:
        pairs = [(center, 1.0)]
    elif cohort.kind == "uniform-window":
        pairs = [(year, 1.0) for year in range(center - h, center + h + 1)]
    else:
        pairs = [(center + d, float(h + 1 - abs(d))) for d in range(-h, h + 1)]
    if dataset is not None:
        pairs = [(year, w) for year, w in pairs if dataset.has_year(year)]
    total = sum(w for _, w in pairs)
    if total == 0:
        raise errors.EmptySupport(activity_year)
    return [(year, w / total) for year, w in pairs]


def _reference_temporal(data, name, dist):
    """The mixture from per-year ``lookup`` over the loaded years of ``dist``."""
    terms, female_sum, male_sum = [], 0, 0
    for year, weight in dist:
        counts = data.lookup(name, year) if data.has_year(year) else None
        if counts:
            terms.append((weight * sum(counts), counts[0] / sum(counts)))
            female_sum += counts[0]
            male_sum += counts[1]
    if not terms:
        return None
    return model.GenderProbability(
        name, f"cohort mixture over {len(terms)} birth years",
        sum(w * p for w, p in terms) / sum(w for w, _ in terms), female_sum, male_sum)


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
        for data in (sparse_dataset, None):
            try:
                expected = _reference_distribution(activity_year, cohort, data)
            except errors.EmptySupport:
                empty += 1
                with pytest.raises(errors.EmptySupport):
                    audit.infer_birth_distribution(activity_year, cohort, data)
                continue
            assert audit.infer_birth_distribution(activity_year, cohort, data) == expected
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
