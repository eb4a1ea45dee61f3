#!/usr/bin/env python3
"""The temponym benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload ingest|cli|lookup --seed N --seconds S --trace 0|1

Run from the repository root; it needs nothing but ``src/`` and the stdlib.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones in BENCHMARK.json; with ``--trace 1`` the program
processes run under perfbench/tracer.py and the metrics are the per-layer
ones. Lines before it give the workload's detailed metrics, the machine
and the inputs. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import pickle
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
TIMEOUT_S = 150
# `--help` runs at each of the points of a run where start-up is sampled:
# before the first and after every ingest or cli round. A burst in which
# other tenants slow the machine lasts seconds, so back-to-back samples
# would all fall into the same one.
HELP_RUNS = 3
LOOKUP_WORKERS = 3
# Fewest samples in an untraced run: one ingest takes 10-16 s and one cli
# round 15-30 s on a 2-core machine, so these set the length of a run. The
# rescaled CPU time of one ingest still varies by about 7% between runs (its
# thread pool hands the GIL round), so a run takes the median of three.
INGESTS = 3
CLI_ROUNDS = 1

sys.path[:0] = [str(HERE), str(SRC)]
import archives  # noqa: E402
import tracer  # noqa: E402
from archives import YEARS  # noqa: E402


class Child(NamedTuple):
    """One finished program process."""

    wall: float  # seconds
    cpu: float  # user + system seconds
    rescaled: float  # cpu at the reference speed of perfbench/probe.py
    curve: list  # [cpu, rescaled] pairs as the process went
    rc: int
    out: str
    err: str
    rss_mb: float  # peak RSS

    def rescale(self, cpu: float) -> float:
        """The rescaled seconds in which the process had used ``cpu`` seconds."""
        k = min(bisect.bisect(self.curve, [cpu]), len(self.curve) - 1)
        (c0, r0), (c1, r1) = self.curve[max(k - 1, 0)], self.curve[k]
        return r0 + (r1 - r0) * (cpu - c0) / (c1 - c0) if c1 > c0 else r1


class Run:
    """Operations attempted and failed, program processes, and the work dir."""

    def __init__(self, args):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.work = WORK / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.span_files: list[Path] = []
        self.lines: list[str] = []
        self.startup_times: list[float] = []
        self.spawner = subprocess.Popen(
            [sys.executable, HERE / "spawner.py"], cwd=ROOT, env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)
        return ok

    def report(self, name: str, value: float, unit: str) -> None:
        self.lines.append(f"{name} = {value:.6g} {unit}")

    def spawn(self, argv: list) -> Child:
        """Run ``python argv`` to completion."""
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": [sys.executable, *map(str, argv)], "stdout": str(out),
                   "stderr": str(err), "timeout": TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return Child(reply["wall"], reply["cpu"], reply["rescaled"], reply["curve"], reply["rc"],
                     out.read_text(), err.read_text(), reply["max_rss_kb"] / 1024)

    def close(self, interrupted: bool) -> None:
        """Stop the spawner (and, if interrupted, its child) and wait for it."""
        if interrupted:
            self.spawner.terminate()
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def spans_file(self) -> Path:
        """A new file for the spans of one traced program process."""
        path = self.work / f"spans-{len(self.span_files)}.json"
        self.span_files.append(path)
        return path

    def cli(self, args: list, traced: bool = False):
        if traced:
            return self.traced_program("cli", *args)
        return self.spawn(["-m", "temponym.cli", *args])

    def traced_program(self, mode: str, *args):
        return self.spawn([HERE / "program.py", mode, self.spans_file(), *args])

    def startup(self) -> None:
        """Time ``HELP_RUNS`` more runs of ``temponym --help`` (rescaled CPU): start-up."""
        for _ in range(HELP_RUNS):
            child = self.cli(["--help"])
            self.check(child.rc == 0 and "Usage" in child.out,
                       f"--help: exit {child.rc} {child.err[-200:]}")
            self.startup_times.append(child.rescaled)

    def startup_s(self) -> float:
        return statistics.median(self.startup_times)

    def timed_loop(self, min_samples: int):
        """Yield sample numbers until --seconds have passed and ``min_samples`` are taken.

        A traced run alternates untraced (even) and traced (odd) samples and
        takes at least one of each.
        """
        start = time.perf_counter()
        k = 0
        need = 2 if self.trace else min_samples
        while k < need or time.perf_counter() - start < self.seconds:
            yield k
            k += 1


def files_hash(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def cached(path: Path, build) -> Path:
    """``path``, unless it exists written by ``build(tmp)`` and renamed into place."""
    if not path.exists():
        WORK.mkdir(exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        build(tmp)
        os.replace(tmp, path)
    return path


def _pickle(obj, path: Path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)


def dense_inputs(run: Run, with_index: bool) -> tuple[archives.DenseArchive, Path, Path]:
    """The dense archive, its files and its index, each built once per version.

    The archive is keyed by the generator's source, the index also by the
    program's.
    """
    key = files_hash([HERE / "archives.py"])
    counts = cached(WORK / f"dense-{key}.pickle",
                    lambda tmp: _pickle(archives.DenseArchive(), tmp))
    with open(counts, "rb") as fh:
        archive = pickle.load(fh)  # written by this benchmark, just above
    files = cached(WORK / f"dense-{key}", archive.write)
    if not with_index:
        return archive, files, None

    def ingest(out: Path) -> None:
        child = run.cli(["ingest", "--dir", files, "--out", out])
        if child.rc != 0:
            sys.exit(f"perfbench: building the dense index failed: {child.err[-500:]}")

    index = cached(WORK / f"dense-{key}-{files_hash(SRC.rglob('*.py'))}.idx", ingest)
    return archive, files, index


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    return (statistics.median(traced) / statistics.median(untraced) - 1) * 100


def layer_metrics(run: Run, archive, index: Path, overhead: float) -> dict:
    """The per-layer metrics from the span files of this run (0 where unused)."""
    prof = tracer.Profile(run.span_files)
    builds = ("dataset.parse_year_file", "index.load_index")
    folds = prof.per_process(lambda p: sum(
        s[tracer.FOLDS] for s in p["spans"] if s[tracer.NAME] in builds))

    def per_call(name: str, *kinds) -> tuple:
        """Median of one call under the given lookup op kinds (None: a CLI command)."""
        return prof.median_us(name, kinds), "us"

    return {
        "dataset.read_s": (prof.self_s("dataset.load_directory"), "s"),
        "dataset.merge_rows_s": (prof.total_s("dataset.merge_rows"), "s"),
        "dataset.build_s": (prof.self_s("dataset.parse_year_file"), "s"),
        "dataset.fold_calls": (folds, "count"),
        "dataset.distinct_names": (len(archive.names), "count"),
        "dataset.rows": (archive.rows, "count"),
        "dataset.skipped_rows": (prof.total("dataset.merge_rows", tracer.EXTRA), "count"),
        "index.save_s": (prof.total_s("index.save_index"), "s"),
        "index.load_s": (prof.total_s("index.load_index"), "s"),
        "index.load_peak_mb": (prof.total("index.load_index", tracer.EXTRA) / 1024, "MB"),
        "index.bytes": (index.stat().st_size, "B"),
        "cli.startup_s": (run.startup_s(), "s"),
        "cli.import_s": (prof.extra("import_s"), "s"),
        "model.p_female_us": per_call("model.p_female", None, "exact"),
        "model.fold_lookup_us": per_call("model.p_female", "fold"),
        "model.windowed_us": per_call("model.p_female_windowed", None, "windowed"),
        "model.pooled_us": per_call("model.p_female_pooled", None, "pooled"),
        "model.classify_us": per_call("model.classify", None, "classify"),
        "model.miss_us": per_call("model.p_female", "miss"),
        "audit.temporal_p_female_us": per_call("audit.temporal_p_female", None, "temporal"),
        "audit.audit_corpus_s": (prof.total_s("audit.audit_corpus"), "s"),
        "audit.evaluate_known_s": (prof.total_s("audit.evaluate_known"), "s"),
        "shifts.rank_shifts_s": (prof.total_s("shifts.rank_shifts"), "s"),
        "shifts.qualifying_names_s": (prof.total_s("shifts.qualifying_names"), "s"),
        "trace.overhead_pct": (overhead, "%"),
    }


def check_index(run: Run, path: Path, archive) -> None:
    """load_index on an ingest output gives back every generated year and count."""
    from temponym import dataset
    data = dataset.load_index(path)
    run.check(tuple(data.years_loaded) == tuple(YEARS),
              f"load_index: years {data.years_loaded[:3]}..")
    lookup = data.lookup
    for i, name in enumerate(archive.names):
        for year in YEARS:
            got = lookup(name, year) or (0, 0)
            if tuple(got) != archive.counts(i, year):
                run.check(False, f"load_index: {name} {year} {got}")
                return
    run.check(True, "")


# --- workloads ---------------------------------------------------------------

def ingest(run: Run) -> dict:
    archive, files, _ = dense_inputs(run, with_index=False)
    births = sum(sum(f) + sum(m) for f, m in zip(archive.female, archive.male))
    summary = (f"{len(YEARS)} years", f"{births} births", f"{len(archive.names)} names")
    run.startup()
    out = run.work / "out.idx"
    times, walls, traced_times, rss = [], [], [], 0.0
    for k in run.timed_loop(INGESTS):
        traced = run.trace and k % 2 == 1
        child = run.cli(["ingest", "--dir", files, "--out", out], traced)
        run.check(child.rc == 0 and all(part in child.out for part in summary),
                  f"ingest: exit {child.rc}: {child.out[-200:]} {child.err[-300:]}")
        (traced_times if traced else times).append(child.rescaled)
        if not traced:
            walls.append(child.wall)
        rss = max(rss, child.rss_mb)
        run.startup()
    check_index(run, out, archive)
    run.report("ingest_rows_per_s", archive.rows / min(walls), "rows/s")
    if run.trace:
        child = run.traced_program("load", out)
        run.check(child.rc == 0, f"load probe: exit {child.rc} {child.err[-300:]}")
        return layer_metrics(run, archive, out, overhead_pct(times, traced_times))
    return {
        "setup_s": (run.startup_s(), "s"),
        "op_ms": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "index_bytes_per_row": (out.stat().st_size / archive.rows, "B/row"),
    }


def _query(archive, rng, index, pooled: bool):
    i = rng.randrange(len(archive.names))
    name = archive.names[i]
    if pooled:
        f, m = archive.summed(i, YEARS[0], YEARS[-1])
        args, context = ["--pooled", f"{YEARS[0]}..{YEARS[-1]}"], f"pooled {YEARS[0]}..{YEARS[-1]}"
    else:
        year = rng.choice(YEARS)
        f, m = archive.counts(i, year)
        args, context = ["--year", year], str(year)
    p = Fraction(f, f + m)
    expected = {"name": name, "context": context, "p_female": round(float(p), 6),
                "female_count": f, "male_count": m, "support": f + m,
                "label": archives.label(p, f + m, "majority")}

    def check(out):
        return all(out.get(key) == value for key, value in expected.items())

    return ["query", "--index", index, "--name", name, *args, "--format", "json"], check


def _shift(archive, rng, index, top=20):
    y1 = rng.choice(YEARS[:-1])
    y2 = rng.choice(YEARS[YEARS.index(y1) + 1:])
    ranked, low, high = archives.shift_ranking(archive, y1, y2)
    ranked = ranked[:top]
    values = [float(e[6]) for e in ranked]

    def check(out):
        entries = out["entries"]
        stats = out["statistics"]
        return (
            [e["name"] for e in entries] == [e[0] for e in ranked]
            and all(
                (e["p1"], e["p2"], e["support_y1"], e["support_y2"])
                == (float(x[1]), float(x[2]), x[4], x[5])
                and math.isclose(e["weighted_shift"], x[6], rel_tol=1e-9)
                for e, x in zip(entries, ranked))
            and low <= out["meta"]["qualifying_count"] <= high
            and stats["n_total"] == len(values)
            and stats["n_positive"] == sum(v > 0 for v in values)
            and stats["n_negative"] == sum(v < 0 for v in values)
            and math.isclose(stats["median"], statistics.median(values), rel_tol=1e-9)
            and math.isclose(stats["mean"], statistics.fmean(values), rel_tol=1e-9)
        )

    return ["shift", "--index", index, "--y1", y1, "--y2", y2, "--weighted",
            "--top", top, "--format", "json"], check


def _audit(archive, run, index):
    corpus = run.work / "corpus.csv"
    records = archives.write_corpus(corpus, archive, run.seed)
    rows = archives.audit_rows(archive, records)

    def check(out):
        got = {row["period"]: row for row in out["rows"]}
        return (
            out["totals"]["records"] == len(records)
            and out["totals"]["unresolved"] == 0
            and sorted(got) == sorted(rows)
            and all(
                got[d]["n_records"] == n
                and math.isclose(got[d]["expected_female_temporal"], t, rel_tol=1e-9)
                and math.isclose(got[d]["expected_female_atemporal"], a, rel_tol=1e-9)
                for d, (n, t, a) in rows.items())
        )

    args = ["audit", "--index", index, "--corpus", corpus,
            "--cohort", f"triangular:{archives.COHORT_OFFSET}:{archives.COHORT_HALF}",
            "--format", "json"]
    return args, check, corpus


def cli(run: Run) -> dict:
    archive, _, index = dense_inputs(run, with_index=True)
    rng = random.Random(run.seed)
    audit_args, audit_check, corpus = _audit(archive, run, index)
    run.startup()
    commands = ("query", "pooled", "shift", "audit")
    times = {c: [] for c in commands}
    walls = {c: [] for c in commands}
    traced_rounds, untraced_rounds, rss = [], [], 0.0
    for k in run.timed_loop(CLI_ROUNDS):
        traced = run.trace and k % 2 == 1
        round_s = 0.0
        for command in commands:
            if command == "audit":
                args, check = audit_args, audit_check
            elif command == "shift":
                args, check = _shift(archive, rng, index)
            else:
                args, check = _query(archive, rng, index, pooled=command == "pooled")
            child = run.cli(args, traced)
            err = child.err
            try:
                ok = child.rc == 0 and check(json.loads(child.out))
            except (ValueError, KeyError, TypeError) as exc:
                ok, err = False, f"{err} {exc!r}"
            run.check(ok, f"{command}: exit {child.rc}: {child.out[-300:]} {err[-300:]}")
            round_s += child.rescaled
            rss = max(rss, child.rss_mb)
            if not traced:
                times[command].append(child.rescaled)
                walls[command].append(child.wall)
        (traced_rounds if traced else untraced_rounds).append(round_s)
        run.startup()
    for command in commands:
        values = sorted(walls[command])
        run.report(f"cli.{command}_s", statistics.median(values), "s")
        run.report(f"cli.{command}_s.p90", archives.percentile(values, 90), "s")
    round_s = sum(statistics.median(times[c]) for c in commands)
    if run.trace:
        child = run.traced_program("load", index, corpus)
        run.check(child.rc == 0, f"evaluate_known probe: exit {child.rc} {child.err[-300:]}")
        return layer_metrics(run, archive, index, overhead_pct(untraced_rounds, traced_rounds))
    return {
        "setup_s": (run.startup_s(), "s"),
        "op_ms": (round_s * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "index_bytes_per_row": (index.stat().st_size / archive.rows, "B/row"),
    }


def lookup(run: Run) -> dict:
    archive = archives.SsaShapeArchive(run.seed)
    files, index = run.work / "ssa", run.work / "ssa.idx"
    archive.write(files)
    if run.trace:
        run.startup()
    child = run.cli(["ingest", "--dir", files, "--out", index], run.trace)
    run.check(child.rc == 0, f"ssa-shape ingest: exit {child.rc} {child.err[-300:]}")
    shutil.rmtree(files)
    ops_path = run.work / "ops.json"
    ops_path.write_text(json.dumps(archives.lookup_ops(archive, run.seed)))

    workers = [False, True] if run.trace else [False] * LOOKUP_WORKERS
    setups, rss, results = [], 0.0, []
    for traced in workers:
        spans = run.spans_file() if traced else "-"
        child = run.spawn([HERE / "program.py", "lookup", ops_path, index,
                           run.seconds / len(workers), spans])
        if not run.check(child.rc == 0, f"lookup worker: exit {child.rc} {child.err[-500:]}"):
            continue
        result = json.loads(child.out.splitlines()[-1])
        run.attempted += result["ops"] - 1
        run.failed += result["failed"]
        run.errors += result["errors"]
        before, after = result["setup_cpu"]
        setups.append(child.rescale(after) - child.rescale(before))
        rss = max(rss, child.rss_mb)
        results.append(result)
    if len(results) < len(workers):
        sys.exit(f"perfbench: a lookup worker failed: {run.errors}")

    def op_cost(group) -> tuple[dict, float]:
        """Per-op rescaled CPU seconds of each kind, and their geometric mean.

        A chunk's cost is the median over the workers of ``group`` of its
        median repetition in each.
        """
        per_kind = {}
        for kind, n in group[0]["ops_per_kind"].items():
            chunks = zip(*(r["chunk_ns"][kind] for r in group))
            per_kind[kind] = sum(statistics.median(ns) for ns in chunks) / n / 1e9
        return per_kind, statistics.geometric_mean(per_kind.values())

    untraced = results[:1] if run.trace else results
    lat = sorted(x for r in untraced for x in r["latencies"])
    run.report("lookup.ops_per_s", 1 / statistics.fmean(lat), "1/s")
    run.report("lookup.p50_us", statistics.median(lat) * 1e6, "us")
    run.report("lookup.p99_us", archives.percentile(lat, 99) * 1e6, "us")
    per_kind, mean_s = op_cost(untraced)
    for kind, cost in per_kind.items():
        run.report(f"lookup.{kind}_us", cost * 1e6, "us")
    run.report("lookup.passes", statistics.median(r["passes"] for r in untraced), "count")
    if run.trace:
        traced_s = op_cost(results[1:])[1]
        return layer_metrics(run, archive, index, overhead_pct([mean_s], [traced_s]))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms": (mean_s * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "index_bytes_per_row": (index.stat().st_size / archive.rows, "B/row"),
    }


WORKLOADS = {"ingest": ingest, "cli": cli, "lookup": lookup}
SHAPES = {
    "ingest": "dense: Random(99), 7,500 names x 141 years, 2,115,000 rows",
    "cli": "dense index, 5,000-record corpus",
    "lookup": "ssa-shape at 0.4 scale: 40k names, ~0.8M rows, Zipf popularity",
}


def revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer.check_program()

    run = Run(args)
    interrupted = True
    try:
        metrics = WORKLOADS[args.workload](run)
        interrupted = False
    finally:
        run.close(interrupted)
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"revision={revision()} seed={args.seed} workload={args.workload} "
          f"({SHAPES[args.workload]})")
    for line in run.lines:
        print(line)
    print(f"failed_ratio = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed}/{run.attempted})")
    for error in run.errors:
        print(f"# failed: {error}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
