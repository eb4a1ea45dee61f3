import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import temponym
from temponym import dataset as ds
from temponym.cli import main


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


def test_shift_csv_columns(runner):
    result = runner.invoke(main, ["shift", "--top", "3"])
    assert result.exit_code == 0
    header = result.output.splitlines()[0]
    assert header == ("rank,name,p1,p2,delta_scaled,support_y1,support_y2,"
                      "weight,weighted_shift")
    assert result.output.splitlines()[1].startswith("1,Shelby")


def test_ambiguity(runner):
    result = runner.invoke(main, ["ambiguity", "--year", "1900"])
    assert result.exit_code == 0
    assert json.loads(result.output)["ambiguous_share"] == pytest.approx(0.55, abs=0.02)


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


def test_bad_index_is_data_error(runner, bad_index):
    path, message = bad_index
    result = runner.invoke(main, ["query", "--index", str(path),
                                  "--name", "Pat", "--year", "1990"])
    assert result.exit_code == 3
    assert message in result.output


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


def test_audit_default_fixture(runner):
    result = runner.invoke(main, ["audit", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    overcount = {row["period"]: row["overcount"] for row in payload["rows"]}
    assert overcount[1970] > 0 and overcount[1980] > 0 and overcount[1990] > 0


def test_audit_partial_exit_code(runner, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "record_id,given_name,activity_year,known_gender\n"
        "a,Leslie,1980,M\nb,Zzyzx,1980,\n"
    )
    result = runner.invoke(main, ["audit", "--corpus", str(corpus)])
    assert result.exit_code == 4


def test_compare_fixtures(runner):
    result = runner.invoke(main, [
        "compare", "--names", "Jean,Leslie", "--ssa-year", "1925", "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    jean = next(row for row in payload["rows"] if row["name"] == "Jean")
    assert jean["services"]["genderize"]["divergence"] == pytest.approx(0.9245, abs=0.0005)


def _stub_get(monkeypatch, answer):
    """``requests.get`` records its params and returns or raises ``answer``."""
    import requests

    sent = []

    def get(url, params, timeout):
        sent.append(params)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(requests, "get", get)
    return sent


def _response(status, body):
    import requests

    response = requests.Response()
    response.status_code = status
    response._content = body
    return response


LIVE_LESLIE = ["compare", "--names", "Leslie", "--services",
               "genderize-live:http://example.invalid", "--format", "json"]


def test_compare_live_probability_not_a_number_is_partial(runner, monkeypatch):
    _stub_get(monkeypatch, _response(200, b'{"gender": "female", "probability": "high"}'))
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
]


@pytest.mark.parametrize("status,body,error,message", [case[1:] for case in LIVE_FAILURES],
                         ids=[case[0] for case in LIVE_FAILURES])
def test_compare_live_failure_is_a_cell_error(runner, monkeypatch, status, body, error,
                                              message):
    import requests

    from temponym import errors, services

    refused = requests.ConnectionError(message)
    _stub_get(monkeypatch, refused if status is None else _response(status, body))
    result = runner.invoke(main, LIVE_LESLIE)
    assert result.exit_code == 4, result.output
    [row] = json.loads(result.output)["rows"]
    assert row["errors"] == {"genderize": message}
    config = services.ServiceConfig("genderize", endpoint_url="http://example.invalid")
    with pytest.raises(getattr(errors, error), match=message):
        services.fetch_prediction(config, "Leslie")


def test_compare_live_sends_the_api_key_from_the_environment(runner, monkeypatch):
    monkeypatch.setenv("TEMPONYM_GENDERIZE_KEY", "sekrit")
    sent = _stub_get(monkeypatch, _response(200, b'{"gender": "male", "probability": 0.9}'))
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

    _stub_get(monkeypatch, _response(200, b'{"gender": "female", "probability": 0.75}'))
    today = datetime.date.today().isoformat()
    return services.PredictionCache(tmp_path)._path("genderize", "Leslie", today)


LIVE_COMPARE = ["compare", "--names", "Leslie", "--services",
                "genderize-live:http://example.invalid", "--format", "json", "--cache-dir"]


@pytest.mark.parametrize("entry", [
    b"{not json", b'{"a": 1}', b"[1]",
    _cached(p_female="x"), _cached(p_female=1.5), _cached(p_female=True),
    _cached(predicted_label="Q"), _cached(sample_count=2.5), _cached(sample_count=True),
    _cached(sample_count="3"), _cached(source=None), _cached(extra="field"),
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
    ("fixture-without-label", ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": b"service_id,name,p_female\ngenderize,Jean,0.5\n"}, 3),
    ("fixture-short-row", ["compare", "--names", "Jean", "--fixture-file", "{tmp}/f.csv"],
     {"f.csv": FIXTURE_HEADER + b"genderize,Jean\n"}, 3),
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
    ("corpus-is-a-directory", ["audit", "--corpus", "{tmp}"], {}, 3),
    ("ingest-bad-row", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"],
     {"yob1925.txt": b"Pat,Q,10\n"}, 3),
    ("ingest-out-directory-missing", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/no/x.idx"],
     {"yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-out-is-a-directory", ["ingest", "--dir", "{tmp}", "--out", "{tmp}"],
     {"yob1925.txt": b"Pat,F,10\n"}, 3),
    ("ingest-no-files", ["ingest", "--dir", "{tmp}", "--out", "{tmp}/x.idx"], {}, 3),
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
    ("query-index-with-dir",
     ["query", "--index", "{tmp}/x.idx", "--dir", "{tmp}", "--name", "Pat", "--year", "1990"],
     {"x.idx": b""}, 2),
    ("query-dir-is-a-file",
     ["query", "--dir", "{tmp}/yob1990.txt", "--name", "Pat", "--year", "1990"],
     {"yob1990.txt": b"Pat,F,10\n"}, 2),
    ("trajectories-without-names", ["plot", "trajectories"], {}, 2),
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


# Each command imports the modules it uses and no others: these are all the
# temponym modules a command may load, and whether it loads ``statistics``.
# Every other module it loads must come with the standard library: no
# third-party package (no CLI framework, no HTTP client) is paid for at start-up.
# No command loads ``dataclasses`` or the ``inspect`` it imports, and ``--help``
# loads neither ``json`` nor ``csv``.
HELP_MODULES = ["temponym", "temponym.cli", "temponym.errors"]
COMMON_MODULES = sorted(HELP_MODULES + ["temponym._pyparse", "temponym.dataset",
                                        "temponym.model"])
COMMAND_MODULES = [
    (["--help"], HELP_MODULES, False),
    (["query", "--name", "Leslie", "--year", "1925"], COMMON_MODULES, False),
    (["shift", "--top", "3"], sorted(COMMON_MODULES + ["temponym.shifts"]), True),
    (["audit"], sorted(COMMON_MODULES + ["temponym.audit"]), False),
]
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
    print(json.dumps([temponym, "statistics" in sys.modules, third_party, unwanted,
                      "json" in before, formats]), file=sys.stderr)
"""


@pytest.mark.parametrize("args,modules,statistics", COMMAND_MODULES,
                         ids=[case[0][0] for case in COMMAND_MODULES])
def test_a_command_imports_only_what_it_uses(args, modules, statistics):
    src = str(Path(temponym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    assert loaded[:5] == [modules, statistics, [], [], False]
    if args == ["--help"]:  # nothing is written as JSON or CSV
        assert loaded[5] == []
