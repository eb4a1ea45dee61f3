"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria that need the historical archive run against the bundled
SSA-format sample, which is calibrated to the documented historical
values (this environment has no route to the live SSA download).
"""
import random
import subprocess
import sys
import time

import pytest

from temponym import audit, model, services, shifts
from temponym import dataset as ds

TABLE1_P1925 = {
    "Sydney": 0.1623, "Jean": 0.9745, "Allison": 0.2093, "Leslie": 0.0839,
    "Shelby": 0.0657, "Courtney": 0.2063, "Willie": 0.3565, "Haley": 0.5833,
    "Bailey": 0.1667, "Kelly": 0.1168,
}


@pytest.fixture(autouse=True)
def report_line(request, capsys):
    yield
    outcome = getattr(request.node, "outcome_call", None)
    status = "PASS" if outcome is not None and outcome.passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {status}: {request.node.name}")


def test_criterion_01_table1_ground_truth_and_query_speed(sample_dataset):
    for name, expected in TABLE1_P1925.items():
        prob = model.p_female(sample_dataset, name, 1925)
        assert prob.p_female == pytest.approx(expected, abs=0.01), name
    start = time.perf_counter()
    for name in TABLE1_P1925:
        model.p_female(sample_dataset, name, 1925)
    per_query = (time.perf_counter() - start) / len(TABLE1_P1925)
    assert per_query < 0.001


def test_criterion_02_abigail_ethan_2000(sample_dataset):
    abigail = model.p_female(sample_dataset, "Abigail", 2000).p_female
    ethan = model.p_female(sample_dataset, "Ethan", 2000).p_female
    assert abigail == pytest.approx(0.9987, abs=0.0005)
    assert ethan == pytest.approx(0.0013, abs=0.0005)


def test_criterion_03_ambiguous_child_shares(quarter_dataset):
    assert model.ambiguous_name_share(quarter_dataset, 1900) == pytest.approx(0.55, abs=0.02)
    for year in (1925, 1950, 1975):
        assert 0.81 <= model.ambiguous_name_share(quarter_dataset, year) <= 0.88
    assert model.ambiguous_name_share(quarter_dataset, 2000) == pytest.approx(0.69, abs=0.02)


def test_criterion_04_shift_rankings(sample_dataset):
    unweighted = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=10)
    assert {"Shelby", "Leslie", "Aubrey", "Sydney"} <= {e.name for e in unweighted}
    shelby = shifts.gender_shift(sample_dataset, "Shelby", 1925, 2000)
    assert shelby.delta_scaled == pytest.approx(90.7, abs=1.5)

    weighted = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=10, weighted=True)
    assert {"Sydney", "Jean", "Allison", "Leslie"} <= {e.name for e in weighted}
    jean = next(e for e in weighted if e.name == "Jean")
    assert jean.delta_scaled < 0


def test_criterion_05_net_female_shift(sample_dataset):
    names = shifts.qualifying_names(sample_dataset, 1925, 2000)
    entries = [shifts.gender_shift(sample_dataset, n, 1925, 2000) for n in names]
    stats = shifts.shift_statistics(entries)
    assert stats.n_positive > stats.n_negative
    assert stats.median > 0
    top20 = shifts.rank_shifts(sample_dataset, 1925, 2000, top_k=20)
    negatives = {e.name for e in top20 if e.delta_scaled < 0}
    assert len(negatives) <= 5
    assert "Jean" in negatives
    # calibration targets, reported but not gated
    print(f"qualifying population: {len(names)}, median shift: {stats.median:+.2f}")


def test_criterion_06_table1_fixture_report(sample_dataset):
    fixture = services.load_fixture_table()
    configs = services.fixture_configs()
    rows = services.comparison_table(
        list(TABLE1_P1925), sample_dataset, 1925, configs
    )
    for row in rows:
        for service_id, prediction in row.predictions.items():
            assert prediction == fixture[service_id][row.name.casefold()]
    by_name = {row.name: row for row in rows}
    assert by_name["Jean"].divergence("genderize") == pytest.approx(0.9245, abs=0.0005)
    assert by_name["Leslie"].divergence("namsor") == pytest.approx(0.786, abs=0.005)


def test_criterion_07_leslie_audit(sample_dataset):
    pooled = model.p_female_pooled(sample_dataset, "Leslie", (1880, 2020))
    assert model.classify(pooled, model.MAJORITY) is model.GenderLabel.FEMALE
    # the vendor-quoted atemporal figure (0.874) classifies the same way
    vendor = model.GenderProbability("Leslie", "vendor snapshot", 0.874, 874, 126)
    assert model.classify(vendor, model.MAJORITY) is model.GenderLabel.FEMALE

    cohort = audit.CohortModel("fixed-offset", 35)
    for activity_year in range(1970, 1981):
        dist = audit.infer_birth_distribution(activity_year, cohort, sample_dataset)
        temporal = audit.temporal_p_female(sample_dataset, "Leslie", dist)
        assert temporal.p_female < 0.5, activity_year

    rows = audit.audit_corpus(audit.load_corpus_csv(), sample_dataset, cohort)
    overcount = {row.period: row.overcount for row in rows}
    for decade in (1970, 1980, 1990):
        assert overcount[decade] > 0, decade


def test_criterion_08_leslie_fixture_integrity(sample_dataset):
    records = audit.load_corpus_csv()
    assert len(records) == 478
    result = audit.evaluate_known(records, sample_dataset)
    assert result["record_counts"] == {"M": 242, "F": 220, "U": 16}
    assert result["author_counts"] == {"M": 37, "F": 83, "U": 13}
    assert result["median_activity_year"] == {"M": 1995, "F": 2008, "U": 1995.5}
    male_years = sorted(r.activity_year for r in records if r.known_gender == "M")
    assert sum(1 for y in male_years if y < 1995) == 121
    assert sum(1 for y in male_years if y > 1995) == 121
    female_years = [r.activity_year for r in records if r.known_gender == "F"]
    assert sum(1 for y in female_years if y <= 1995) == 23


def test_criterion_09_property_suites():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q",
         "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_criterion_10_ingest_performance():
    # ~2.1M rows across 141 synthetic files, the size of the real archive
    rng = random.Random(99)
    names = [f"Name{i:05d}" for i in range(7500)]
    sources = []
    for year in range(1880, 2021):
        lines = []
        for name in names:
            lines.append(f"{name},F,{rng.randint(5, 20000)}")
            lines.append(f"{name},M,{rng.randint(5, 20000)}")
        sources.append((year, "\n".join(lines)))
    n_rows = sum(source.count("\n") + 1 for _, source in sources)
    assert n_rows >= 2_100_000

    start = time.perf_counter()
    data = ds.load_dataset(sources, strict=True)
    elapsed = time.perf_counter() - start
    assert len(data.years_loaded) == 141
    assert elapsed < 10.0, f"ingest took {elapsed:.2f}s"
    print(f"ingested {n_rows} rows in {elapsed:.2f}s")
