"""Checks of the package as a user imports it, with no name from the checkout.

Tier-1 runs them against ``src/``. CI runs this file again outside the
checkout, against the installed package with every warning an error, so a
package-data glob that misses a bundled file or an API rename that leaves
README behind fails there too.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import temponym
from temponym import audit, dataset, errors, services
from temponym.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_bundled_data_is_present():
    assert sorted(dataset.bundled_sample_dir().glob("yob*.txt"))
    assert audit.load_corpus_csv()
    assert services.fixture_configs()


def _run(*args) -> int:
    """The exit code of one command line."""
    with pytest.raises(SystemExit) as caught:
        main(list(map(str, args)))
    return caught.value.code


def _formats(table) -> list:
    return [getattr(table, key).format for key in ("starts", "lengths", "female", "male")]


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory):
    """The bundled sample, ingested."""
    path = tmp_path_factory.mktemp("index") / "sample.idx"
    assert _run("ingest", "--dir", dataset.bundled_sample_dir(), "--out", path) == 0
    return path


def test_year_files_and_their_index_give_one_table(sample_index):
    built = dataset.load_directory(dataset.bundled_sample_dir())
    loaded = dataset.load_index(sample_index)
    assert _formats(built) == _formats(loaded), (_formats(built), _formats(loaded))
    assert built == loaded


def test_a_loaded_index_saves_to_the_same_file(sample_index, tmp_path):
    # A loaded index keeps each column at its stored width; saved again, it
    # must give the same file, every zlib stream included.
    dataset.save_index(dataset.load_index(sample_index), tmp_path / "resaved.idx")
    assert (tmp_path / "resaved.idx").read_bytes() == sample_index.read_bytes()


def test_rows_of_three_widths_stack_into_the_table_their_index_loads(tmp_path):
    """Years whose largest counts need one, two and three bytes give rows of
    three widths, stacked into one table: it equals the table its index
    loads, column formats included, and the loaded index saves again to the
    same file."""
    years = tmp_path / "widths"
    years.mkdir()
    (years / "yob1990.txt").write_bytes(b"Ann,F,200\nBo,M,9\n")
    (years / "yob1991.txt").write_bytes(b"Ann,F,40000\nBo,M,255\n")
    (years / "yob1992.txt").write_bytes(b"Ann,F,70000\nCy,M,60\nCy,F,5\n")
    index = tmp_path / "widths.idx"
    assert _run("ingest", "--dir", years, "--out", index) == 0
    built = dataset.load_directory(years)
    loaded = dataset.load_index(index)
    assert _formats(built) == _formats(loaded) == ["B", "B", "I", "B"], _formats(loaded)
    assert built == loaded
    dataset.save_index(loaded, tmp_path / "widths-resaved.idx")
    assert (tmp_path / "widths-resaved.idx").read_bytes() == index.read_bytes()


def test_an_index_whose_last_year_is_moved_is_refused(sample_index, tmp_path):
    """The checksum covers the header: an index whose last year is moved from
    2020 to 2025 is a data error (exit 3), not 2020's counts."""
    magic, header, payload = sample_index.read_bytes().split(b"\n", 2)
    assert header.count(b", 2020]") == 1
    moved = tmp_path / "moved.idx"
    moved.write_bytes(b"\n".join([magic, header.replace(b", 2020]", b", 2025]"), payload]))
    with pytest.raises(errors.IndexFormatError, match="checksum mismatch"):
        dataset.load_index(moved)
    assert _run("query", "--index", moved, "--name", "Leslie", "--year", "1925") == 3


# A command that loads one name from an index, and one that loads every name.
ONE_NAME_AND_WHOLE_LOADS = pytest.mark.parametrize(
    "command", [["query", "--name", "Leslie", "--year", "1925"], ["shift"]],
    ids=["query", "shift"])


@ONE_NAME_AND_WHOLE_LOADS
def test_an_index_with_one_byte_appended_is_refused(sample_index, tmp_path, command):
    """Nothing may follow the last stream: an index with one byte appended is
    a data error (exit 3)."""
    appended = tmp_path / "appended.idx"
    appended.write_bytes(sample_index.read_bytes() + b"x")
    assert _run(command[0], "--index", appended, *command[1:]) == 3


@ONE_NAME_AND_WHOLE_LOADS
def test_an_index_cut_short_by_one_byte_is_refused(sample_index, tmp_path, command):
    """The last stream must be whole: an index cut short by one byte is a
    data error (exit 3)."""
    cut = tmp_path / "cut.idx"
    cut.write_bytes(sample_index.read_bytes()[:-1])
    assert _run(command[0], "--index", cut, *command[1:]) == 3


def _fresh_python(script: str, *args, cwd) -> None:
    """Run ``script`` in a fresh interpreter that imports the package these
    tests import; it must exit 0."""
    root = str(Path(temponym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# Each command as a fresh process runs it, every temponym module it loads,
# and which of ``csv`` and ``statistics`` it loads. ``tests/test_cli.py``
# reads this table too.
CSV, STATISTICS = "csv", "statistics"
HELP_MODULES = ["temponym", "temponym.cli", "temponym.errors"]
DATA_MODULES = sorted(HELP_MODULES + ["temponym._pyparse", "temponym.dataset"])
COMMON_MODULES = sorted(DATA_MODULES + ["temponym.model"])
FRESH_COMMANDS = {
    "--help": (["--help"], HELP_MODULES, set()),
    "ingest": (["ingest", "--dir", dataset.bundled_sample_dir(), "--out", "fresh.idx"],
               DATA_MODULES, set()),
    "query": (["query", "--index", "{index}", "--name", "Leslie", "--year", "1925"],
              COMMON_MODULES, set()),
    "query-pooled": (["query", "--index", "{index}", "--name", "Leslie",
                      "--pooled", "1880..2020"], COMMON_MODULES, set()),
    "shift": (["shift", "--index", "{index}", "--format", "json"],
              sorted(DATA_MODULES + ["temponym.shifts"]), {STATISTICS}),
    "audit": (["audit", "--index", "{index}"], sorted(COMMON_MODULES + ["temponym.audit"]),
              {CSV}),
    "ambiguity": (["ambiguity", "--index", "{index}", "--year", "1925"], COMMON_MODULES, set()),
    "plot-trajectories": (["plot", "trajectories", "--index", "{index}", "--top-shifts", "5"],
                          sorted(DATA_MODULES + ["temponym.report", "temponym.shifts"]), set()),
    "compare": (["compare", "--index", "{index}", "--names", "Jean,Leslie,Sydney"],
                sorted(COMMON_MODULES + ["temponym.services"]), {CSV}),
}

# Runs a command line, then writes the exit code and which of these modules
# the process loaded to the file named first.
_MODULES_AFTER = """
import json, sys
report, sys.argv = sys.argv[1], ["temponym", *sys.argv[2:]]
from temponym.cli import main
try:
    main()
except SystemExit as exc:
    code = exc.code
with open(report, "w") as fh:
    json.dump([code, sorted({"_hashlib", "ssl", "csv", "statistics"} & set(sys.modules))], fh)
"""


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_a_command_loads_no_openssl(sample_index, tmp_path, command):
    """The index digests' hash comes from the builtin ``_blake2`` module,
    so no command maps OpenSSL in through ``hashlib`` (``_hashlib``) or
    ``ssl``; each loads ``csv`` and ``statistics`` only where its row of
    ``FRESH_COMMANDS`` says."""
    args, _, optional = FRESH_COMMANDS[command]
    args = [str(arg).format(index=sample_index) for arg in args]
    _fresh_python(_MODULES_AFTER, tmp_path / "modules.json", *args, cwd=tmp_path)
    code, loaded = json.loads((tmp_path / "modules.json").read_text())
    assert code == 0
    assert loaded == sorted(optional)


def _stdout(capsys, *args) -> str:
    """What one command line prints; it must exit 0."""
    capsys.readouterr()
    assert _run(*args) == 0, args
    return capsys.readouterr().out


def test_an_integer_option_takes_ascii_digits_only():
    """int() reads "1_925" as 1925; the option refuses it as a usage error (exit 2)."""
    assert _run("query", "--name", "Leslie", "--year", "1_925") == 2


def test_ingest_prints_the_births_of_every_row(capsys, tmp_path):
    """The births total ingest prints is the sum of every row's count."""
    sample = dataset.bundled_sample_dir()
    line = _stdout(capsys, "ingest", "--dir", sample, "--out", tmp_path / "sample.idx")
    births = sum(int(row.split(",")[2]) for path in sample.glob("yob*.txt")
                 for row in path.read_text().splitlines() if row)
    assert f" {births} births, " in line, (births, line)


def test_a_query_of_an_ingested_index_answers_a_case_variant(capsys, sample_index):
    _stdout(capsys, "query", "--index", sample_index, "--name", "leslie", "--year", "1925")


def test_a_lone_carriage_return_is_a_data_error_on_line_1(capsys, tmp_path):
    """A year file is read as stored: a lone \\r between two rows breaks no
    line, so line 1 is malformed and ingest is a data error (exit 3)."""
    (tmp_path / "lone-cr").mkdir()
    (tmp_path / "lone-cr" / "yob1990.txt").write_bytes(b"Ann,F,5\rBo,M,6\n")
    capsys.readouterr()
    assert _run("ingest", "--dir", tmp_path / "lone-cr", "--out", tmp_path / "lone-cr.idx") == 3
    assert "line 1" in capsys.readouterr().err


def test_a_config_value_that_is_a_json_list_is_a_usage_error(tmp_path):
    """A --config value that is a JSON list is a usage error (exit 2), not
    the names its str() would give."""
    config = tmp_path / "list.json"
    config.write_bytes(b'{"compare": {"names": ["Leslie", "Jean"]}}')
    assert _run("--config", config, "compare") == 2


def test_an_ingest_of_a_ten_digit_year_range_indexes_the_sample(capsys, tmp_path):
    """Ingest only asks a year range whether it holds each year, so a range
    this wide costs no memory."""
    out = _stdout(capsys, "ingest", "--dir", dataset.bundled_sample_dir(),
                  "--years", "1..9999999999", "--out", tmp_path / "wide.idx")
    assert any(line.startswith("indexed 141 years, ") for line in out.splitlines()), out


@pytest.mark.parametrize("command", [
    "query --name Leslie --year 1925", "ambiguity --year 1925", "shift", "audit",
    "audit --cohort triangular:35:10", "compare --names Jean,Leslie,Sydney",
    "plot trajectories --top-shifts 5", "plot bubbles"])
def test_json_output_holds_no_nan_or_infinity(capsys, command):
    def refuse(name):
        raise ValueError(name + " is not JSON")
    json.loads(_stdout(capsys, *command.split(), "--format", "json"), parse_constant=refuse)


def test_an_audit_of_the_corpus_reversed_is_the_same(capsys, tmp_path):
    """Each decade sum is the fsum of its records' p(F), so the bundled
    corpus with its records reversed gives the same audit, byte for byte."""
    corpus = Path(audit.__file__).parent / "data" / "fixtures" / "leslie_corpus.csv"
    header, *records = corpus.read_bytes().splitlines(keepends=True)
    reversed_corpus = tmp_path / "reversed.csv"
    reversed_corpus.write_bytes(header + b"".join(reversed(records)))
    assert _stdout(capsys, "audit", "--format", "json") == _stdout(
        capsys, "audit", "--corpus", reversed_corpus, "--format", "json")


def test_temporal_p_female_gives_one_answer_for_three_input_forms():
    # temporal_p_female reads infer_birth_distribution's result unchecked
    # and checks any other input: both paths give one answer.
    data = dataset.load_directory(dataset.bundled_sample_dir())
    dist = audit.infer_birth_distribution(
        1975, audit.CohortModel("triangular-window", 35, 10), data)
    probs = [audit.temporal_p_female(data, "Leslie", d) for d in (dist, list(dist), iter(dist))]
    assert probs[0] == probs[1] == probs[2], probs


def test_readme_library_block_gives_the_results_its_comments_state():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Library\n+```python\n(.*?)\n```\n", readme, re.S).group(1)
    assert "# 0.0839" in block and "# GenderLabel.MALE" in block, block
    example = {}
    exec(compile(block, "README.md", "exec"), example)
    model, prob = example["model"], example["prob"]
    assert round(prob.p_female, 4) == 0.0839, prob
    assert model.classify(prob, model.MAJORITY) is model.GenderLabel.MALE


# Serves genderize answers on 127.0.0.1 and fetches each through the live
# path, with ``requests`` unimportable. Every warning is an error, and the
# unraisable hook records the ResourceWarning of a socket left open.
_LOOPBACK = r"""
import gc, http.server, os, socket, sys, threading, warnings
sys.modules["requests"] = None
os.environ["no_proxy"] = "*"  # no proxy of the environment may take 127.0.0.1
warnings.simplefilter("error")
unraisable = []
sys.unraisablehook = unraisable.append
from temponym import errors, services

ANSWERS = {  # path: (status, headers, body)
    "/ok": (200, {}, b'{"gender": "male", "probability": 0.75, "count": 12}'),
    "/unauthorized": (401, {}, b'{"error": "Invalid API key"}'),
    "/limited": (429, {"Retry-After": "7"}, b'{"error": "Request limit reached"}'),
    "/unavailable": (503, {}, b"<html>down</html>"),
    "/not-json": (200, {}, b"<html>busy</html>"),
}
asked = []


class Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        asked.append(self.path)
        status, headers, body = ANSWERS[self.path.partition("?")[0]]
        self.send_response(status)
        for key, value in {**headers, "Content-Length": str(len(body))}.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def fetch(url):
    try:
        return services.fetch_prediction(services.ServiceConfig("genderize", url), "Leslie")
    except errors.TemponymError as exc:
        return exc


with http.server.HTTPServer(("127.0.0.1", 0), Handler) as server:
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        ok = fetch(base + "/ok?k=v")
        got = {path: fetch(base + path) for path in ANSWERS if path != "/ok"}
    finally:
        server.shutdown()
        thread.join()
with socket.socket() as closed:
    closed.bind(("127.0.0.1", 0))
    refused = fetch(f"http://127.0.0.1:{closed.getsockname()[1]}/")

assert asked[0] == "/ok?k=v&name=Leslie", asked
assert (ok.predicted_label, ok.p_female, ok.sample_count) == ("M", 0.25, 12), ok
assert type(got["/unauthorized"]) is errors.AuthError, got
assert str(got["/unauthorized"]) == "genderize: authentication failed", got
assert type(got["/limited"]) is errors.RateLimited and got["/limited"].retry_after == 7, got
assert type(got["/unavailable"]) is errors.NetworkError, got
assert str(got["/unavailable"]) == "genderize: HTTP 503", got
assert type(got["/not-json"]) is errors.NetworkError, got
assert str(got["/not-json"]).startswith("genderize: response is not JSON ("), got
assert type(refused) is errors.NetworkError, refused
assert "connection refused" in str(refused).casefold(), refused
del ok, got, refused
gc.collect()
assert not unraisable, [hook.exc_value for hook in unraisable]
"""


def test_a_live_call_over_loopback_runs_on_the_standard_library(tmp_path):
    """The live path against a real HTTP server on 127.0.0.1, in a fresh
    interpreter that cannot import ``requests``: a 200 answer to an endpoint
    whose own query is kept, 401, 429 with its Retry-After, 503, a body that
    is not JSON and a closed port each end as the stubbed tests expect."""
    _fresh_python(_LOOPBACK, cwd=tmp_path)
