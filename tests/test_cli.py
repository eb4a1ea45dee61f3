import contextlib
import datetime
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import temponym
from temponym import dataset as ds
from temponym import errors, shifts
from temponym.cli import main

from test_installed_package import FRESH_COMMANDS
from test_services import fake_urlopen


class Result(NamedTuple):
    exit_code: int
    exception: Optional[BaseException]  # None when the exit code is 0
    output: str  # stdout, then stderr
    stderr: str


class Runner:
    """Runs ``main(args)`` in this process, as a shell would run ``temponym ARGS``."""

    def invoke(self, command, args) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        exception = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                command(args, prog_name="temponym")
                exit_code = 0
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
                exception = exc if exit_code else None
            except Exception as exc:  # noqa: BLE001 - a crash is a result to assert on
                exit_code, exception = 1, exc
        return Result(exit_code, exception, stdout.getvalue() + stderr.getvalue(),
                      stderr.getvalue())


@pytest.fixture
def runner():
    return Runner()


def test_no_args_shows_usage(runner):
    result = runner.invoke(main, [])
    assert result.exit_code in (0, 2)
    assert "Usage" in result.output or "Usage" in (result.stderr or "")


def test_unknown_flag_is_usage_error(runner):
    result = runner.invoke(main, ["query", "--frobnicate"])
    assert result.exit_code == 2


def test_query_leslie_1925(runner):
    result = runner.invoke(main, ["query", "--name", "Leslie", "--year", "1925"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["p_female"] == pytest.approx(0.0839, abs=0.0001)
    assert payload["label"] == "M"


def test_query_missing_name_is_data_error(runner):
    result = runner.invoke(main, ["query", "--name", "Zzyzx", "--year", "1925"])
    assert result.exit_code == 3


def test_query_window(runner):
    result = runner.invoke(main, ["query", "--name", "Leslie", "--year", "1925",
                                  "--window", "5"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["context"] == "1920..1930 (window around 1925)"
    assert payload["p_female"] == pytest.approx(0.083543, abs=1e-6)


def test_query_requires_context(runner):
    result = runner.invoke(main, ["query", "--name", "Leslie"])
    assert result.exit_code == 2


def test_query_pooled_and_policy(runner):
    result = runner.invoke(main, [
        "query", "--name", "Leslie", "--pooled", "1880..2020", "--policy", "t95",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["label"] == "U"
    assert 0.0839 < payload["p_female"] < 0.97


def test_query_json_round_trips(runner):
    args = ["query", "--name", "Leslie", "--year", "1925"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second
    payload = json.loads(first)
    assert json.dumps(payload, indent=2, sort_keys=True) == first.rstrip("\n")


def test_shift_same_year_all_zero(runner):
    result = runner.invoke(main, [
        "shift", "--y1", "1925", "--y2", "1925", "--top", "5", "--format", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert all(entry["delta_scaled"] == 0.0 for entry in payload["entries"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_shift_walks_the_year_pair_once(runner, monkeypatch, fmt):
    calls = []
    walk = ds.Dataset.year_pair_cells

    def counted(self, y1, y2):
        calls.append((y1, y2))
        return walk(self, y1, y2)

    monkeypatch.setattr(ds.Dataset, "year_pair_cells", counted)
    result = runner.invoke(main, ["shift", "--format", fmt])
    assert result.exit_code == 0, result.output
    assert calls == [shifts.DEFAULT_YEAR_PAIR]


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory, sample_dataset):
    """The bundled sample saved as an index, so each command skips the parse."""
    path = tmp_path_factory.mktemp("shift") / "sample.idx"
    ds.save_index(sample_dataset, path)
    return path


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("min_delta", [0, 20, 50])
def test_shift_counts_the_qualifying_names_of_its_ranking(runner, sample_dataset, sample_index,
                                                          weighted, min_delta):
    data = sample_dataset
    qualifying = shifts.qualifying_names(data, 1925, 2000, min_abs_delta=min_delta)
    n_rows = len(shifts.rank_shifts(data, 1925, 2000, top_k=len(data.names)))
    for top in (0, 5, n_rows + 1):
        result = runner.invoke(main, ["shift", "--index", str(sample_index), "--format", "json",
                                      "--min-delta", str(min_delta), "--top", str(top)]
                               + ["--weighted"] * weighted)
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["meta"]["qualifying_count"] == len(qualifying), top
        entries = shifts.rank_shifts(data, 1925, 2000, top_k=top, weighted=weighted)
        assert payload["entries"] == [entry._asdict() for entry in entries]
        assert len(entries) == min(top, n_rows)


def test_shift_csv_columns(runner):
    result = runner.invoke(main, ["shift", "--top", "3"])
    assert result.exit_code == 0
    header = result.output.splitlines()[0]
    assert header == ("rank,name,p1,p2,delta_scaled,support_y1,support_y2,"
                      "weight,weighted_shift")
    assert result.output.splitlines()[1].startswith("1,Shelby")


def test_ambiguity_of_a_year_without_births(runner, tmp_path):
    (tmp_path / "yob1990.txt").write_text("")
    (tmp_path / "yob1991.txt").write_text("Pat,F,10\n")
    result = runner.invoke(main, ["ambiguity", "--dir", str(tmp_path), "--year", "1990"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"ambiguous_share": 0.0, "year": 1990}


def test_ambiguity(runner):
    result = runner.invoke(main, ["ambiguity", "--year", "1900"])
    assert result.exit_code == 0
    assert json.loads(result.output)["ambiguous_share"] == pytest.approx(0.55, abs=0.02)


@pytest.mark.parametrize("args", [
    [*command, *years, *weighted, "--format", fmt]
    for command, years in [*((["shift"], pair) for pair in (
        ["--y1", "1925", "--y2", "2000"], ["--y1", "2000", "--y2", "1925"],
        ["--y1", "1925", "--y2", "1925"], ["--y1", "2000", "--y2", "2021"])),
        *((["ambiguity"], ["--year", year]) for year in ("1900", "2000", "2021"))]
    for weighted in ([[], ["--weighted"]] if command == ["shift"] else [[]])
    for fmt in ("csv", "json")
], ids=" ".join)
def test_shift_and_ambiguity_answer_alike_from_an_index_and_a_directory(runner, sample_index,
                                                                        args):
    """``shift`` and ``ambiguity`` print the same stdout and stderr, and exit
    with the same status, from the bundled sample's index as from its files:
    with ``--y1`` after, before or equal to ``--y2``, and a year not loaded."""
    from_index = runner.invoke(main, [*args, "--index", str(sample_index)])
    from_dir = runner.invoke(main, [*args, "--dir", str(ds.bundled_sample_dir())])
    assert from_index.exit_code in (0, 3), from_index.output
    assert ((from_index.exit_code, from_index.output, from_index.stderr)
            == (from_dir.exit_code, from_dir.output, from_dir.stderr))


def test_ingest_then_query_via_index(runner, tmp_path):
    out = tmp_path / "sample.idx"
    result = runner.invoke(main, [
        "ingest", "--dir", str(ds.bundled_sample_dir()),
        "--years", "1925..1925", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "query", "--index", str(out), "--name", "Leslie", "--year", "1925",
    ])
    assert result.exit_code == 0
    assert json.loads(result.output)["p_female"] == pytest.approx(0.0839, abs=0.0001)


@pytest.mark.parametrize("files,mode,kept", [
    ({"yob1990.txt": "Pat,F,10\nPat,M,7\nSam,M,12\n", "yob1991.txt": "Sam,F,5\r\nAnn,F,300\r\n",
      "yob1992.txt": "Pat,M,65536"}, [], [10, 7, 12, 5, 300, 65536]),
    # A zero count is kept; the second Pat,F row and the Sam,Q row are skipped.
    ({"yob1990.txt": "Pat,F,10\nPat,F,11\nSam,M,0\nSam,Q,9\n",
      "yob1991.txt": "Ann,F,4\nAnn,M,70000"}, ["--lenient"], [10, 0, 4, 70000]),
], ids=["strict", "lenient"])
def test_ingest_prints_the_births_of_every_kept_row(runner, tmp_path, files, mode, kept):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "x.idx"
    result = runner.invoke(main, ["ingest", "--dir", str(tmp_path), "--out", str(out), *mode])
    assert result.exit_code == 0, result.output
    births = int(result.output.split(" births, ")[0].rsplit(" ", 1)[1])
    loaded = ds.load_index(out)
    assert births == sum(kept) == sum(loaded.female) + sum(loaded.male)


def test_bad_index_is_data_error(runner, bad_index):
    path, message = bad_index
    result = runner.invoke(main, ["query", "--index", str(path),
                                  "--name", "Pat", "--year", "1990"])
    assert result.exit_code == 3
    assert message in result.output


def test_bad_index_is_data_error_in_a_whole_load(runner, bad_index):
    """``plot trajectories --top-shifts`` and ``shift`` load the whole table,
    where ``query`` loads one name: each gives the same error."""
    path, message = bad_index
    for command in (["plot", "trajectories", "--top-shifts", "1", "--y1", "1990", "--y2", "1990"],
                    ["shift", "--y1", "1990", "--y2", "1990"]):
        result = runner.invoke(main, [*command, "--index", str(path)])
        assert result.exit_code == 3, command
        assert message in result.output, command


def test_a_command_of_named_names_reads_only_their_blocks(runner, corrupt_block_index,
                                                          blocked_table, tmp_path):
    """``query``, ``compare``, ``plot trajectories --names`` and ``audit`` load
    only the named names' blocks from an index, so a corrupt block they do
    not read leaves their answer as it was; one they read, or a load of
    every name, exits 3."""
    index = ["--index", str(corrupt_block_index)]
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("record_id,given_name,activity_year\nr1,Name0000,1950\nr2,name0001,1960\n")
    intact = tmp_path / "intact.idx"
    ds.save_index(blocked_table, intact)
    audits = [runner.invoke(main, ["audit", "--index", str(path), "--corpus", str(corpus)])
              for path in (corrupt_block_index, intact)]
    assert [result.exit_code for result in audits] == [0, 0], audits[0].output
    assert audits[0].output == audits[1].output
    corpus.write_text("record_id,given_name,activity_year\nr1,Name0000,1950\nr2,Name0599,1960\n")
    result = runner.invoke(main, ["audit", *index, "--corpus", str(corpus)])
    assert result.exit_code == 3 and "corrupt female block 1 stream" in result.output
    result = runner.invoke(main, ["query", *index, "--name", "Name0000", "--year", "1900"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["female_count"] == blocked_table.lookup("Name0000", 1900)[0]
    result = runner.invoke(main, ["compare", *index, "--names", "Name0000,name0001",
                                  "--ssa-year", "1900"])
    assert result.exit_code == 4  # no service predicts these names
    female, male = blocked_table.lookup("Name0001", 1900)
    assert result.output.splitlines()[2] == f"name0001,{female / (female + male):.4f}"
    result = runner.invoke(main, ["plot", "trajectories", *index, "--names", "Name0000",
                                  "--years", "1900..1910", "--format", "csv"])
    assert result.exit_code == 0 and len(result.output.splitlines()) == 12
    for args in (["query", "--name", "Name0599", "--year", "1900"],
                 ["query", "--name", "name0599", "--pooled", "1900..1910"],
                 ["compare", "--names", "Name0000,Name0599", "--ssa-year", "1900"],
                 ["shift"], ["ambiguity", "--year", "1900"],
                 ["plot", "trajectories", "--top-shifts", "1"]):
        result = runner.invoke(main, [*args, *index])
        assert result.exit_code == 3, args
        assert "corrupt female block 1 stream" in result.output, args


def test_ingest_bad_dir_is_data_error(runner, tmp_path):
    (tmp_path / "yob1925.txt").write_text("garbage\n")
    result = runner.invoke(main, [
        "ingest", "--dir", str(tmp_path), "--out", str(tmp_path / "x.idx"),
    ])
    assert result.exit_code == 3


def test_ingest_undecodable_file_is_data_error(runner, tmp_path):
    (tmp_path / "yob1990.txt").write_bytes(b"Ren\xe9e,F,10\n")
    result = runner.invoke(main, [
        "ingest", "--dir", str(tmp_path), "--out", str(tmp_path / "x.idx"),
    ])
    assert result.exit_code == 3
    assert "yob1990.txt" in result.output and "not UTF-8" in result.output
    assert not (tmp_path / "x.idx").exists()


def test_ingest_unreadable_entry_is_data_error(runner, tmp_path):
    (tmp_path / "yob1989.txt").write_text("Pat,F,10\n")
    (tmp_path / "yob1990.txt").mkdir()
    result = runner.invoke(main, [
        "ingest", "--dir", str(tmp_path), "--out", str(tmp_path / "x.idx"),
    ])
    assert result.exit_code == 3
    assert "yob1990.txt" in result.output and "cannot be read" in result.output
    assert not (tmp_path / "x.idx").exists()


@pytest.mark.parametrize("command", [["ingest", "--out", "{tmp}/x.idx"],
                                     ["query", "--name", "Leslie", "--year", "1925"]])
def test_dir_that_cannot_be_listed_is_data_error(runner, monkeypatch, tmp_path, command):
    def iterdir(self):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    monkeypatch.setattr(Path, "iterdir", iterdir)
    args = [arg.format(tmp=tmp_path) for arg in command]
    result = runner.invoke(main, [*args, "--dir", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert f"{tmp_path}: cannot be read (Permission denied)" in result.output


def test_audit_default_fixture(runner):
    result = runner.invoke(main, ["audit", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    overcount = {row["period"]: row["overcount"] for row in payload["rows"]}
    assert overcount[1970] > 0 and overcount[1980] > 0 and overcount[1990] > 0


def test_audit_without_atemporal_data_is_unresolved(runner, tmp_path):
    (tmp_path / "yob1900.txt").write_text("Kim,F,10\n")
    (tmp_path / "yob1945.txt").write_text("Pat,F,10\nPat,M,5\n")
    (tmp_path / "c.csv").write_bytes(CORPUS_HEADER + b"a,Pat,1980,F\n")
    result = runner.invoke(main, ["audit", "--dir", str(tmp_path), "--corpus",
                                  str(tmp_path / "c.csv"), "--atemporal", "1900..1900",
                                  "--format", "json"])
    assert result.exit_code == 4, result.output
    assert json.loads(result.output)["totals"] == {"overcount": 0.0, "records": 0,
                                                   "unresolved": 1}


def test_audit_partial_exit_code(runner, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "record_id,given_name,activity_year,known_gender\n"
        "a,Leslie,1980,M\nb,Zzyzx,1980,\n"
    )
    result = runner.invoke(main, ["audit", "--corpus", str(corpus)])
    assert result.exit_code == 4


def test_an_empty_corpus_audits_to_a_float_overcount(runner, tmp_path):
    """No record gives no row, and the totals' overcount is the float 0.0 that
    every other audit prints, not the int 0."""
    corpus = tmp_path / "empty.csv"
    corpus.write_bytes(CORPUS_HEADER)
    result = runner.invoke(main, ["audit", "--corpus", str(corpus), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert '"rows": [],' in result.output and '"overcount": 0.0,' in result.output


def test_audit_reads_its_corpus_before_its_index(runner, tmp_path):
    """``audit`` reads the corpus first, to load only the names it holds: with
    a bad corpus and a bad index, the corpus's error is the one reported,
    and both are data errors. Two sources are still a usage error first."""
    bad_corpus, corpus, index = tmp_path / "bad.csv", tmp_path / "c.csv", tmp_path / "bad.idx"
    bad_corpus.write_text("a,b\n1,2\n")
    corpus.write_bytes(CORPUS_HEADER + b"a,Pat,1980,F\n")
    index.write_bytes(b"not an index\n")
    result = runner.invoke(main, ["audit", "--index", str(index), "--corpus", str(bad_corpus)])
    assert result.exit_code == 3
    assert "corpus CSV has no record_id" in result.output
    assert "not a temponym index" not in result.output
    result = runner.invoke(main, ["audit", "--index", str(index), "--corpus", str(corpus)])
    assert result.exit_code == 3 and "not a temponym index" in result.output
    result = runner.invoke(main, ["audit", "--index", str(index), "--dir", str(tmp_path),
                                  "--corpus", str(bad_corpus)])
    assert result.exit_code == 2 and "mutually exclusive" in result.output


def test_compare_fixtures(runner):
    result = runner.invoke(main, [
        "compare", "--names", "Jean,Leslie", "--ssa-year", "1925", "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    jean = next(row for row in payload["rows"] if row["name"] == "Jean")
    assert jean["services"]["genderize"]["divergence"] == pytest.approx(0.9245, abs=0.0005)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_divergence_without_both_sides_is_empty(runner, tmp_path, fmt):
    fixture = tmp_path / "f.csv"
    fixture.write_bytes(FIXTURE_HEADER + b"genderize,Jean,F,,\ngenderize,Zzyzx,F,0.5,\n")
    result = runner.invoke(main, ["compare", "--names", "Jean,Zzyzx", "--fixture-file",
                                  str(fixture), "--format", fmt])
    assert result.exit_code == 4, result.output  # no SSA data for Zzyzx
    if fmt == "json":
        rows = json.loads(result.output)["rows"]
        assert [row["services"]["genderize"]["divergence"] for row in rows] == [None, None]
    else:
        assert result.output.splitlines()[1:] == ["Jean,0.9745,F,,", "Zzyzx,,F,0.5000,"]


def _stub_get(monkeypatch, answer):
    """``urlopen`` records each query and answers every call with ``answer``,
    an exception or a ``(status, body)``."""
    urlopen = fake_urlopen(itertools.repeat(answer))
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return urlopen.sent


LIVE_LESLIE = ["compare", "--names", "Leslie", "--services",
               "genderize-live:http://example.invalid", "--format", "json"]


def test_compare_live_probability_not_a_number_is_partial(runner, monkeypatch):
    _stub_get(monkeypatch, (200, b'{"gender": "female", "probability": "high"}'))
    result = runner.invoke(main, LIVE_LESLIE)
    assert result.exit_code == 4, result.output
    [row] = json.loads(result.output)["rows"]
    assert "is not a number in [0, 1]" in row["errors"]["genderize"]


# (id, HTTP status or None for a refused connection, body, error class, its
# message as a cell error).
LIVE_FAILURES = [
    ("unauthorized", 401, b"", "AuthError", "genderize: authentication failed"),
    ("unavailable", 503, b"", "NetworkError", "genderize: HTTP 503"),
    ("gender-null", 200, b'{"gender": null, "probability": 0.0, "count": 0}',
     "ServiceUnknownName", "genderize has no prediction for 'Leslie'"),
    ("connection-refused", None, b"", "NetworkError", "connection refused"),
    ("count-negative", 200, b'{"gender": "female", "probability": 0.5, "count": -1}',
     "NetworkError", "genderize: count -1 is not an integer >= 0"),
]


@pytest.mark.parametrize("status,body,error,message", [case[1:] for case in LIVE_FAILURES],
                         ids=[case[0] for case in LIVE_FAILURES])
def test_compare_live_failure_is_a_cell_error(runner, monkeypatch, status, body, error,
                                              message):
    from temponym import errors, services

    refused = urllib.error.URLError(message)
    _stub_get(monkeypatch, refused if status is None else (status, body))
    result = runner.invoke(main, LIVE_LESLIE)
    assert result.exit_code == 4, result.output
    [row] = json.loads(result.output)["rows"]
    assert row["errors"] == {"genderize": message}
    config = services.ServiceConfig("genderize", endpoint_url="http://example.invalid")
    with pytest.raises(getattr(errors, error), match=message):
        services.fetch_prediction(config, "Leslie")


def test_compare_live_sends_the_api_key_from_the_environment(runner, monkeypatch):
    monkeypatch.setenv("TEMPONYM_GENDERIZE_KEY", "sekrit")
    sent = _stub_get(monkeypatch, (200, b'{"gender": "male", "probability": 0.9}'))
    result = runner.invoke(main, LIVE_LESLIE)
    assert result.exit_code == 0, result.output
    assert sent == [{"name": "Leslie", "apikey": "sekrit"}]
    [row] = json.loads(result.output)["rows"]
    assert row["services"]["genderize"]["p_female"] == pytest.approx(0.1)


CACHED = {"service_id": "genderize", "name": "Leslie", "predicted_label": "F",
          "p_female": 0.5, "sample_count": 3, "source": "live", "fetched_at": "2024-01-01"}


def _cached(**changes):
    """A cache entry with some fields of ``CACHED`` changed; a None value drops the field."""
    entry = {**CACHED, **changes}
    return json.dumps({key: value for key, value in entry.items() if value is not None}).encode()


def _stub_live_compare(monkeypatch, tmp_path):
    """Stub genderize to answer p(F) 0.75; return the path of Leslie's cache entry."""
    from temponym import services

    _stub_get(monkeypatch, (200, b'{"gender": "female", "probability": 0.75}'))
    today = datetime.date.today().isoformat()
    return services.PredictionCache(tmp_path)._path("genderize", "Leslie", today)


LIVE_COMPARE = ["compare", "--names", "Leslie", "--services",
                "genderize-live:http://example.invalid", "--format", "json", "--cache-dir"]


@pytest.mark.parametrize("entry", [
    b"{not json", b'{"a": 1}', b"[1]",
    _cached(p_female="x"), _cached(p_female=1.5), _cached(p_female=True),
    _cached(predicted_label="Q"), _cached(sample_count=2.5), _cached(sample_count=True),
    _cached(sample_count="3"), _cached(sample_count=-3), _cached(source=None),
    _cached(extra="field"),
])
def test_compare_refetches_an_unreadable_cache_entry(runner, monkeypatch, tmp_path, entry):
    path = _stub_live_compare(monkeypatch, tmp_path)
    path.parent.mkdir(parents=True)
    path.write_bytes(entry)
    result = runner.invoke(main, [*LIVE_COMPARE, str(tmp_path)])
    assert result.exit_code == 0, result.output
    [row] = json.loads(result.output)["rows"]
    assert row["services"]["genderize"]["p_female"] == 0.75
    assert json.loads(path.read_text())["p_female"] == 0.75


def test_compare_reports_a_cache_entry_that_cannot_be_written(runner, monkeypatch, tmp_path):
    path = _stub_live_compare(monkeypatch, tmp_path)
    path.mkdir(parents=True)  # the entry's path is taken by a directory
    result = runner.invoke(main, [*LIVE_COMPARE, str(tmp_path)])
    assert result.exit_code == 4, result.output
    [row] = json.loads(result.output)["rows"]
    assert row["errors"]["genderize"].startswith(f"{path}: cannot be written")
    assert list(path.parent.glob("*.tmp")) == []


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_compare_names_file(runner, tmp_path, bom):
    names = tmp_path / "names.txt"
    names.write_bytes(bom + b"Jean\n\nLeslie\n")
    result = runner.invoke(main, ["compare", "--names-file", str(names), "--format", "csv"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["Jean", "0.9745"],
                                                           ["Leslie", "0.0839"]]


def test_compare_requires_names(runner):
    result = runner.invoke(main, ["compare"])
    assert result.exit_code == 2


def test_plot_trajectories(runner):
    result = runner.invoke(main, [
        "plot", "trajectories", "--names", "Leslie",
        "--years", "1925,1950,1975,2000", "--format", "json",
    ])
    assert result.exit_code == 0
    (series,) = json.loads(result.output)
    assert series["series_id"] == "Leslie"
    assert all(0.0 <= point["y"] <= 1.0 for point in series["points"])


def test_plot_top24_weighted_trajectories(runner):
    result = runner.invoke(main, [
        "plot", "trajectories", "--top-shifts", "24",
        "--years", "1925,1950,1975,2000", "--format", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload) == 24
    assert all(len(series["points"]) <= 4 for series in payload)


def test_plot_bubbles(runner):
    result = runner.invoke(main, ["plot", "bubbles", "--reference", "0.874"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    by_id = {series["series_id"]: series for series in payload}
    assert sum(p["size"] for p in by_id["male"]["points"]) == 242
    assert by_id["reference"]["points"][0]["y"] == 0.874


def test_config_file_supplies_defaults(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"query": {"name": "Leslie", "year": 1925}}))
    result = runner.invoke(main, ["--config", str(config), "query"])
    assert result.exit_code == 0
    assert json.loads(result.output)["name"] == "Leslie"


# (id, arguments with {tmp} for a scratch directory, the option with the bad value).
BAD_OPTION_VALUES = [
    ("ingest-years", ["ingest", "--dir", "{tmp}", "--years", "1..x", "--out", "{tmp}/x.idx"],
     "--years"),
    ("query-pooled", ["query", "--name", "Leslie", "--pooled", "2020..1880"], "--pooled"),
    ("audit-atemporal", ["audit", "--atemporal", "x"], "--atemporal"),
    ("trajectories-years", ["plot", "trajectories", "--names", "Leslie", "--years", "abc"],
     "--years"),
    ("audit-cohort", ["audit", "--cohort", "fixed:abc"], "--cohort"),
    ("query-year", ["query", "--name", "Leslie", "--year", "abc"], "--year"),
    # int() would take each of these; an integer value is ASCII digits with an optional -
    ("query-year-underscore", ["query", "--name", "Leslie", "--year", "1_925"], "--year"),
    ("query-year-plus", ["query", "--name", "Leslie", "--year", "+1925"], "--year"),
    ("query-year-space", ["query", "--name", "Leslie", "--year", " 1925"], "--year"),
    ("query-year-arabic-indic-digits",
     ["query", "--name", "Leslie", "--year", "\u0661\u0669\u0662\u0665"], "--year"),
    ("query-window-plus", ["query", "--name", "Leslie", "--year", "1925", "--window", "+3"],
     "--window"),
    ("shift-top-underscore", ["shift", "--top", "1_0"], "--top"),
    ("query-pooled-underscore", ["query", "--name", "Leslie", "--pooled", "1_880..2020"],
     "--pooled"),
    ("audit-atemporal-space", ["audit", "--atemporal", "1880.. 2020"], "--atemporal"),
    ("trajectories-years-plus",
     ["plot", "trajectories", "--names", "Leslie", "--years", "1925,+1950"], "--years"),
    ("trajectories-years-range-underscore",
     ["plot", "trajectories", "--names", "Leslie", "--years", "1_925..1950"], "--years"),
    ("bubbles-reference", ["plot", "bubbles", "--reference", "abc"], "--reference"),
    ("bubbles-reference-nan", ["plot", "bubbles", "--reference", "nan"], "--reference"),
    ("bubbles-reference-above-one", ["plot", "bubbles", "--reference", "1.5"], "--reference"),
    ("bubbles-reference-negative", ["plot", "bubbles", "--reference", "-0.5"], "--reference"),
]


@pytest.mark.parametrize("args,option", [case[1:] for case in BAD_OPTION_VALUES],
                         ids=[case[0] for case in BAD_OPTION_VALUES])
def test_bad_option_value_names_its_option(runner, tmp_path, args, option):
    result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in args])
    assert result.exit_code == 2, result.output
    assert f"'{option}'" in result.output


def test_audit_bad_cohort_is_usage_error(runner):
    result = runner.invoke(main, ["audit", "--cohort", "fixed:abc"])
    assert result.exit_code == 2
    assert "fixed:abc" in result.output


def test_corpus_bad_activity_year_is_data_error(runner, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("record_id,given_name,activity_year,known_gender\n"
                      "a,Leslie,1980,M\nb,Jean,19x0,F\n")
    result = runner.invoke(main, ["audit", "--corpus", str(corpus)])
    assert result.exit_code == 3
    assert "record b" in result.output and "19x0" in result.output


@pytest.mark.parametrize("year", ["1_990", "+1990", " 1990", "\u0661\u0669\u0669\u0660"])
def test_corpus_activity_year_int_would_read_is_data_error(runner, tmp_path, year):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("record_id,given_name,activity_year,known_gender\n"
                      f"a,Leslie,1980,M\nb,Jean,{year},F\n", encoding="utf-8")
    result = runner.invoke(main, ["audit", "--corpus", str(corpus)])
    assert result.exit_code == 3
    assert f"record b: activity_year {year!r} is not a year" in result.output


def test_corpus_missing_column_is_data_error(runner, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("record_id,given_name,known_gender\na,Leslie,M\n")
    result = runner.invoke(main, ["audit", "--corpus", str(corpus)])
    assert result.exit_code == 3
    assert "activity_year" in result.output


def test_config_byte_order_mark_is_dropped(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"query": {"name": "Leslie",
                                                               "year": 1925}}).encode())
    result = runner.invoke(main, ["--config", str(config), "query"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["name"] == "Leslie"


def test_config_that_is_not_json_is_usage_error(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{query: {name: Leslie}")
    result = runner.invoke(main, ["--config", str(config), "query"])
    assert result.exit_code == 2
    assert "--config" in result.output


@pytest.mark.parametrize("other", ["--year", "--window"])
def test_pooled_with_year_or_window_names_both_options(runner, other):
    result = runner.invoke(main, ["query", "--name", "Leslie", "--pooled", "1880..2020",
                                  other, "1925"])
    assert result.exit_code == 2, result.output
    assert "'--pooled'" in result.output and f"'{other}'" in result.output


# (id, --config JSON, arguments, exit code, text the output must hold).
CONFIG_CASES = [
    ("nested-section", {"plot": {"trajectories": {"names": "Leslie", "years": "1925..1926",
                                                  "format": "csv"}}},
     ["plot", "trajectories"], 0, "series_id,x,y,size\r\nLeslie,1925,"),
    ("command-line-wins", {"query": {"name": "Zzyzx", "year": 1925}},
     ["query", "--name", "Leslie"], 0, '"name": "Leslie"'),
    ("flag", {"shift": {"weighted": True, "top": 1, "format": "json"}}, ["shift"], 0,
     '"weighted": true'),
    ("unknown-key-refused", {"query": {"name": "Leslie", "year": 1925, "colour": "red"}},
     ["query"], 2, "Invalid value for '--config': section 'query' has no option 'colour'"),
    ("parameter-name-key-refused", {"query": {"name": "Leslie", "year": 1925, "fmt": "csv"}},
     ["query"], 2, "section 'query' has no option 'fmt'"),
    ("unknown-key-in-nested-section", {"plot": {"bubbles": {"fmt": "csv"}}},
     ["plot", "bubbles"], 2, "section 'plot.bubbles' has no option 'fmt'"),
    ("unknown-key-of-a-command-not-run",
     {"query": {"name": "Leslie", "year": 1925}, "shift": {"min_support": 5}}, ["query"], 2,
     "section 'shift' has no option 'min_support'"),
    ("unknown-section", {"querry": {"name": "Leslie"}},
     ["query", "--name", "Leslie", "--year", "1925"], 2, "section 'querry' names no command"),
    ("format-key", {"query": {"name": "Leslie", "year": 1925, "format": "csv"}}, ["query"], 0,
     "name,context,p_female,female_count,male_count,label\r\nLeslie,1925,"),
    ("dashed-key", {"shift": {"min-support": 100000, "format": "json"}}, ["shift"], 0,
     '"qualifying_count": 0'),
    ("index-key", {"query": {"name": "Leslie", "year": 1925, "index": "no/such.idx"}}, ["query"],
     2, "Invalid value for '--index'"),
    ("dir-key", {"query": {"name": "Leslie", "year": 1925, "dir": "no/such/dir"}}, ["query"], 2,
     "Invalid value for '--dir'"),
    ("corpus-key", {"audit": {"corpus": "no/such.csv"}}, ["audit"], 2,
     "Invalid value for '--corpus'"),
    ("services-key", {"compare": {"names": "Jean", "services": "bogus"}}, ["compare"], 3,
     "unknown services spec 'bogus'"),
    ("checked-count", {"query": {"name": "Leslie", "year": 1925, "window": -3}}, ["query"], 2,
     "Invalid value for '--window': -3 is not in the range x>=0."),
    ("checked-choice", {"query": {"name": "Leslie", "year": 1925, "format": "xml"}}, ["query"], 2,
     "Invalid value for '--format'"),
    ("checked-range", {"audit": {"atemporal": "2020..1880"}}, ["audit"], 2,
     "Invalid value for '--atemporal': '2020..1880' ends before it starts"),
    ("checked-flag", {"shift": {"weighted": "yes"}}, ["shift"], 2,
     "Invalid value for '--weighted'"),
    ("required-still-missing", {"query": {"year": 1925}}, ["query"], 2,
     "Missing option '--name'."),
    ("not-an-object", [{"query": {"name": "Leslie"}}], ["query"], 2,
     "Invalid value for '--config': must hold a JSON object"),
    # str() would turn these into the names "['Leslie'" and "'Jean']", and "True"
    ("array-value", {"compare": {"names": ["Leslie", "Jean"]}}, ["compare"], 2,
     "Invalid value for '--config': section 'compare' key 'names' takes a string or a number, "
     "not a JSON array"),
    ("object-value", {"plot": {"trajectories": {"names": {"Leslie": 1}}}},
     ["plot", "trajectories"], 2,
     "section 'plot.trajectories' key 'names' takes a string or a number, not a JSON object"),
    ("true-for-a-value", {"query": {"name": True, "year": 1925}}, ["query"], 2,
     "section 'query' key 'name' takes a string or a number, not true"),
    ("false-for-a-value", {"shift": {"top": False}}, ["shift"], 2,
     "section 'shift' key 'top' takes a string or a number, not false"),
    ("null-section-ignored", {"query": None}, ["query", "--name", "Leslie", "--year", "1925"],
     0, '"name": "Leslie"'),
    ("null-value-ignored", {"shift": {"top": None, "format": "csv"}}, ["shift"], 0,
     "\r\n50,"),
]


@pytest.mark.parametrize("config,args,code,text", [case[1:] for case in CONFIG_CASES],
                         ids=[case[0] for case in CONFIG_CASES])
def test_config_value_is_checked_like_a_command_line_value(runner, tmp_path, config, args,
                                                           code, text):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, ["--config", str(path), *args])
    assert result.exit_code == code, result.output
    assert text in result.output


def test_config_flag_pair_sets_lenient(runner, tmp_path):
    (tmp_path / "yob1925.txt").write_text("Pat,F,10\nPat,Q,10\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ingest": {"strict": False}}))
    result = runner.invoke(main, ["--config", str(config), "ingest", "--dir", str(tmp_path),
                                  "--out", str(tmp_path / "x.idx")])
    assert result.exit_code == 0, result.output
    assert result.output == "indexed 1 years, 10 births, 1 names, 1 rows skipped\n"


@pytest.mark.parametrize("flags", [{"strict": False}, {"lenient": True}])
def test_config_sets_ingest_by_option_names(runner, tmp_path, flags):
    (tmp_path / "yob1925.txt").write_text("Pat,F,10\nPat,Q,10\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ingest": {"dir": str(tmp_path), "out": str(tmp_path / "x.idx"),
                                             **flags}}))
    result = runner.invoke(main, ["--config", str(config), "ingest"])
    assert result.exit_code == 0, result.output
    assert result.output == "indexed 1 years, 10 births, 1 names, 1 rows skipped\n"
    assert (tmp_path / "x.idx").exists()


@pytest.mark.parametrize("mode", [[], ["--lenient"]], ids=["strict", "lenient"])
def test_ingest_reads_a_count_padded_with_thousands_of_zeros(runner, tmp_path, mode):
    for name, count in (("padded", "0" * 5000 + "5"), ("plain", "5")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "yob1990.txt").write_text(f"Pat,F,{count}\n")
        result = runner.invoke(main, ["ingest", "--dir", str(tmp_path / name),
                                      "--out", str(tmp_path / f"{name}.idx"), *mode])
        assert result.exit_code == 0, result.output
        assert result.output == "indexed 1 years, 5 births, 1 names\n"
    assert (tmp_path / "padded.idx").read_bytes() == (tmp_path / "plain.idx").read_bytes()


HELP_PAGES = Path(__file__).resolve().parent / "help_pages"


@pytest.mark.parametrize("page", ["main", "ingest", "query", "shift", "ambiguity", "audit",
                                  "compare", "plot", "plot-trajectories", "plot-bubbles"])
def test_help_page_is_unchanged(runner, monkeypatch, page):
    """Each help page, byte for byte, as the CLI printed it at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    args = [] if page == "main" else page.split("-")
    result = runner.invoke(main, [*args, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output == (HELP_PAGES / f"{page}.txt").read_text(encoding="utf-8")


def test_help_process_starts_and_prints_usage():
    """The start-up probe of the benchmark: ``temponym --help`` exits 0 with Usage on stdout."""
    src = str(Path(temponym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "temponym.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Usage" in done.stdout


CORPUS_HEADER = b"record_id,given_name,activity_year,known_gender\n"
FIXTURE_HEADER = b"service_id,name,label,p_female,sample_count\n"

# (id, arguments with {tmp} for a scratch directory, files written into it, exit code).
# Each input that once ended in a traceback, then one data error per command.
CLI_ERRORS = [
    ("audit-corpus-not-utf8", ["audit", "--corpus", "{tmp}/c.csv"],
     {"c.csv": CORPUS_HEADER + b"a,Ren\xe9e,1980,F\n"}, 3),
    ("bubbles-corpus-not-utf8", ["plot", "bubbles", "--corpus", "{tmp}/c.csv"],
     {"c.csv": CORPUS_HEADER + b"a,Ren\xe9e,1980,F\n"}, 3),
    ("names-file-not-utf8", ["compare", "--names-file", "{tmp}/n.txt"],
     {"n.txt": b"Ren\xe9e\nLeslie\n"}, 3),
    ("fixture-p-female-not-a-number",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,high,\n"}, 3),
    ("fixture-sample-count-not-a-number",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,0.5,many\n"}, 3),
    ("fixture-sample-count-negative",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,0.5,-3\n"}, 3),
    ("fixture-without-label", ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": b"service_id,name,p_female\ngenderize,Jean,0.5\n"}, 3),
    ("fixture-short-row", ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean\n"}, 3),
    ("fixture-label-not-f-m-or-u",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,X,0.5,\n"}, 3),
    ("fixture-p-female-nan", ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,nan,\n"}, 3),
    ("fixture-p-female-infinite",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,inf,\n"}, 3),
    ("fixture-p-female-above-one",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,1.7,\n"}, 3),
    ("fixture-name-repeated-under-casefolding",
     ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean,F,0.9,\ngenderize,jean,M,0.1,\n"}, 3),
    ("trajectories-years-not-years",
     ["plot", "trajectories", "--names", "Leslie", "--years", "abc"], {}, 2),
    ("config-section-not-an-object", ["--config", "{tmp}/c.json", "query"],
     {"c.json": b'{"query": 5}'}, 2),
    ("config-subsection-not-an-object", ["--config", "{tmp}/c.json", "plot", "bubbles"],
     {"c.json": b'{"plot": {"bubbles": [1]}}'}, 2),
    ("query-negative-window",
     ["query", "--name", "Leslie", "--year", "1925", "--window", "-3"], {}, 2),
    ("index-is-a-directory", ["query", "--index", "{tmp}", "--name", "Pat", "--year", "1990"],
     {}, 3),
    ("config-is-a-directory", ["--config", "{tmp}", "query"], {}, 2),
    ("config-nested-too-deep", ["--config", "{tmp}/c.json", "query"],
     {"c.json": b'{"query": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"}, 2),
    ("corpus-is-a-directory", ["audit", "--corpus", "{tmp}"], {}, 3),
    ("ingest-bad-row", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"],
     {"yob1925.txt": b"Pat,Q,10\n"}, 3),
    ("ingest-lone-carriage-return", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"],
     {"yob1925.txt": b"Ann,F,5\rBo,M,6\n"}, 3),
    ("ingest-out-directory-missing", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/no/x.idx"],
     {"yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-out-is-a-directory", ["ingest", "--dir", "{tmp}", "--out", "{tmp}"],
     {"yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-no-files", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"], {}, 3),
    # more digits than int() converts, in both modes
    ("ingest-count-of-5000-digits", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"],
     {"yob1990.txt": b"Pat,F," + b"1" * 5000 + b"\n"}, 3),
    ("ingest-lenient-count-of-5000-digits",
     ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx", "--lenient"],
     {"yob1990.txt": b"Pat,F," + b"1" * 5000 + b"\n"}, 3),
    ("ingest-no-yob-file", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"],
     {"old_yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-no-files-in-years",
     ["ingest", "--dir", "{tmp}", "--years", "1880..1890", "--out", "{tmp}/x.idx"],
     {"yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-reversed-years",
     ["ingest", "--dir", "{tmp}", "--years", "2020..1880", "--out", "{tmp}/x.idx"],
     {"yob1925.txt": b"Pat,F,10\n"}, 2),
    ("query-reversed-pooled", ["query", "--name", "Leslie", "--pooled", "2020..1880"], {}, 2),
    ("query-pooled-with-year",
     ["query", "--name", "Leslie", "--year", "1925", "--pooled", "1880..2020"], {}, 2),
    ("query-pooled-with-window",
     ["query", "--name", "Leslie", "--pooled", "1880..2020", "--window", "5"], {}, 2),
    ("audit-reversed-atemporal", ["audit", "--atemporal", "2020..1880"], {}, 2),
    ("trajectories-reversed-years",
     ["plot", "trajectories", "--names", "Leslie", "--years", "2000..1990"], {}, 2),
    ("audit-fixed-cohort-with-half-width", ["audit", "--cohort", "fixed:35:10"], {}, 2),
    ("audit-negative-cohort-offset", ["audit", "--cohort", "uniform:-500:3"], {}, 2),
    ("audit-negative-cohort-half-width", ["audit", "--cohort", "uniform:35:-1"], {}, 2),
    ("audit-cohort-wider-than-the-year-axis", ["audit", "--cohort", "triangular:35:221"], {}, 2),
    ("audit-cohort-signs-and-underscores", ["audit", "--cohort", "triangular:+3_5: 1_0"], {}, 2),
    ("audit-cohort-arabic-indic-digits", ["audit", "--cohort", "fixed:\u0663\u0665"], {}, 2),
    ("query-index-with-dir",
     ["query", "--index", "{tmp}/x.idx", "--dir", "{tmp}", "--name", "Pat", "--year", "1990"],
     {"x.idx": b""}, 2),
    ("query-dir-is-a-file",
     ["query", "--dir", "{tmp}/yob1990.txt", "--name", "Pat", "--year", "1990"],
     {"yob1990.txt": b"Pat,F,10\n"}, 2),
    ("trajectories-without-names", ["plot", "trajectories"], {}, 2),
    ("trajectories-names-with-top-shifts",
     ["plot", "trajectories", "--names", "Leslie", "--top-shifts", "3"], {}, 2),
    ("compare-names-with-names-file",
     ["compare", "--names", "Jean", "--names-file", "{tmp}/n.txt"], {"n.txt": b"Leslie\n"}, 2),
    # a names file with no non-blank line names nobody, like an empty --names
    ("compare-names-file-all-blank",
     ["compare", "--names-file", "{tmp}/n.txt"], {"n.txt": b"\n  \r\n\t\n"}, 2),
    ("shift-negative-top", ["shift", "--top", "-3"], {}, 2),
    ("shift-nan-min-delta", ["shift", "--min-delta", "nan"], {}, 2),
    ("shift-infinite-min-delta", ["shift", "--min-delta", "inf"], {}, 2),
    ("shift-negative-min-delta", ["shift", "--min-delta", "-1"], {}, 2),
    ("shift-negative-min-support", ["shift", "--min-support", "-1"], {}, 2),
    # rejected before the two-million-year list is built
    ("trajectories-years-out-of-bounds",
     ["plot", "trajectories", "--names", "Leslie", "--years", "0..2000000"], {}, 2),
    ("trajectories-listed-year-out-of-bounds",
     ["plot", "trajectories", "--names", "Leslie", "--years", "1925,9999"], {}, 2),
    ("trajectories-negative-top-shifts", ["plot", "trajectories", "--top-shifts", "-1"], {}, 2),
    ("query-no-data", ["query", "--name", "Zzyzx", "--year", "1925"], {}, 3),
    ("shift-year-not-loaded", ["shift", "--y1", "1776"], {}, 3),
    ("ambiguity-year-not-loaded", ["ambiguity", "--year", "1776"], {}, 3),
    ("audit-partial", ["audit", "--corpus", "{tmp}/c.csv"],
     {"c.csv": CORPUS_HEADER + b"a,Leslie,1980,M\nb,Zzyzx,1980,\n"}, 4),
    ("compare-year-not-loaded", ["compare", "--names", "Jean", "--ssa-year", "1776"], {}, 3),
    ("compare-unknown-services", ["compare", "--names", "Jean", "--services", "bogus"], {}, 3),
    ("compare-live-without-url",
     ["compare", "--names", "Jean", "--services", "genderize-live:"], {}, 3),
    ("trajectories-year-not-loaded",
     ["plot", "trajectories", "--top-shifts", "3", "--y1", "1776"], {}, 3),
    ("trajectories-no-names-year-not-loaded",
     ["plot", "trajectories", "--top-shifts", "0", "--years", "2050"], {}, 3),
    ("bubbles-corpus-without-activity-year", ["plot", "bubbles", "--corpus", "{tmp}/c.csv"],
     {"c.csv": b"record_id,given_name\na,Leslie\n"}, 3),
]


@pytest.mark.parametrize("args,files,code", [case[1:] for case in CLI_ERRORS],
                         ids=[case[0] for case in CLI_ERRORS])
def test_bad_input_ends_in_a_documented_exit(runner, tmp_path, args, files, code):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in args])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    if code != 4:
        assert any(line.startswith(("error:", "Error:")) for line in result.output.splitlines())
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


# A field one character over the csv module's default size limit (131,072).
OVERSIZED_FIELD = b"x" * 131_073


@pytest.mark.parametrize("command,header", [
    (["audit", "--corpus"], CORPUS_HEADER),
    (["compare", "--names", "Jean", "--fixture-file"], FIXTURE_HEADER),
], ids=["audit-corpus", "compare-fixture-file"])
def test_a_csv_field_over_the_size_limit_is_a_data_error(runner, tmp_path, command, header):
    """In the header or in a record, the error names the file and the line."""
    path = tmp_path / "t.csv"
    for text, line in ((OVERSIZED_FIELD + b"," + header, 1),
                       (header + b"\r\n" + OVERSIZED_FIELD + b",1980\n", 3)):
        path.write_bytes(text)
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.stderr == (
            f"error: {path}: line {line}: field larger than field limit (131072)\n")


# What a failed lookup prints, word for word: the lookup errors build their
# message only when it is read, so this pins the text that reading builds.
LOOKUP_ERRORS = [
    (["--name", "Zzyzx", "--year", "1925"], "no data for 'Zzyzx' in 1925"),
    (["--name", "Leslie", "--year", "1850"], "year 1850 is not loaded"),
    (["--name", "Zzyzx", "--year", "1925", "--window", "3"],
     "no data for 'Zzyzx' in 1922..1928 (window around 1925)"),
    (["--name", "Zzyzx", "--pooled", "1900..1950"], "no data for 'Zzyzx' in pooled 1900..1950"),
]


def test_lookup_error_text_is_pinned(runner):
    for args, message in LOOKUP_ERRORS:
        result = runner.invoke(main, ["query", *args])
        assert (result.exit_code, result.stderr) == (3, f"error: {message}\n"), args
    missing = errors.NoData("Zzyzx", "1925")
    assert (str(missing), missing.name, missing.context) == (
        "no data for 'Zzyzx' in 1925", "Zzyzx", "1925")
    unloaded = errors.YearNotLoaded(1850)
    assert (str(unloaded), unloaded.year) == ("year 1850 is not loaded", 1850)
    result = runner.invoke(main, ["compare", "--names", "Zzyzx,Leslie", "--format", "json"])
    assert result.exit_code == 4
    rows = json.loads(result.output[:len(result.output) - len(result.stderr)])["rows"]
    assert rows[0]["errors"]["ssa"] == "no data for 'Zzyzx' in 1925"
    assert "ssa" not in rows[1]["errors"]


# Each command imports the modules it uses and no others: every temponym
# module a fresh command loads is in its row of FRESH_COMMANDS. Every other
# module it loads must come with the standard library: no third-party package
# (no CLI framework, no HTTP client) is paid for at start-up. No command loads
# ``dataclasses`` or the ``inspect`` it imports, and ``--help`` loads neither
# ``json`` nor ``csv``.
LOADED_MODULES = """
import sys
before = set(sys.modules)
from temponym.cli import main
try:
    main(sys.argv[1:], prog_name="temponym")
finally:
    formats = [m for m in ("json", "csv") if m in sys.modules]
    import json
    temponym = sorted(m for m in sys.modules if m.split(".")[0] == "temponym")
    third_party = sorted(m for m in set(sys.modules) - before
                         if m.split(".")[0] not in {"temponym", *sys.stdlib_module_names})
    unwanted = [m for m in ("dataclasses", "inspect") if m in sys.modules]
    print(json.dumps([temponym, third_party, unwanted, "json" in before, formats]),
          file=sys.stderr)
"""


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_a_command_imports_only_what_it_uses(command, sample_index, tmp_path):
    args, modules, _ = FRESH_COMMANDS[command]
    args = [str(arg).format(index=sample_index) for arg in args]
    src = str(Path(temponym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, *args], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    assert loaded[:4] == [modules, [], [], False]
    if command == "--help":  # nothing is written as JSON or CSV
        assert loaded[4] == []


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# Each command that writes JSON, on the bundled sample.
JSON_COMMANDS = [
    ("query-year", ["query", "--name", "Leslie", "--year", "1925"]),
    ("query-window", ["query", "--name", "Leslie", "--year", "1925", "--window", "5"]),
    ("query-pooled", ["query", "--name", "Leslie", "--pooled", "1880..2020"]),
    ("shift", ["shift", "--format", "json"]),
    ("ambiguity", ["ambiguity", "--year", "1925"]),
    ("audit", ["audit", "--format", "json"]),
    ("compare", ["compare", "--names", "Jean,Leslie,Sydney", "--format", "json"]),
    ("trajectories", ["plot", "trajectories", "--names", "Leslie,Jean"]),
    ("bubbles", ["plot", "bubbles", "--reference", "0.874"]),
]


@pytest.mark.parametrize("args", [case[1] for case in JSON_COMMANDS],
                         ids=[case[0] for case in JSON_COMMANDS])
def test_json_output_is_strict_json(runner, args):
    """No ``NaN`` or ``Infinity``, which ``json.dumps`` writes but JSON does not have."""
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    json.loads(result.output, parse_constant=_no_constant)


@pytest.mark.parametrize("weighted", [False, True])
def test_shift_statistics_cover_the_listed_entries(runner, weighted):
    """``statistics`` summarize the ``--top`` entries listed, not every qualifying name."""
    result = runner.invoke(main, ["shift", "--format", "json", "--top", "20"]
                           + ["--weighted"] * weighted)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    entries = [shifts.ShiftEntry(**entry) for entry in payload["entries"]]
    assert len(entries) == 20 < payload["meta"]["qualifying_count"]
    expected = shifts.shift_statistics(entries, use_weighted=weighted)
    assert payload["statistics"] == expected._asdict()
