#!/usr/bin/env python3
"""Cold CLI commands of a parent revision and of this checkout, side by side.

    python3 scripts/cold_commands.py --parent REV [--rounds N]

The parent's ``src/`` (``git archive REV``) and this checkout's ``src/``, as
it stands, uncommitted edits too, are copied into two directories whose
paths have the same length, ``parent`` and ``change`` under one temporary
directory, so that neither side's paths cost it more memory. The dense
benchmark archive (7,500 names x 141 years, ``perfbench/archives.py``, read
only) and a 5,000-record corpus are written there, and each side ingests
its own index. Then each round runs every command once on each side, the
side that goes first alternating by round, each command a fresh
``python -m temponym.cli`` process.

For each command it prints each side's median CPU time (user + system) and
median peak RSS (``ru_maxrss``), both from ``os.wait4``, the rounds the
change won on each (lower; a tie counts for neither), and whether the two
sides printed the same standard output and standard error with the same
exit status in every round. It exits 1, naming the command on standard
error, if a command exits non-zero on either side or the two sides' output,
error output or exit status differ.
"""
from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import archives  # noqa: E402

CORPUS_SEED = 7
INDEX, CORPUS = "{index}", "{corpus}"  # filled in per side
COMMANDS = {
    "query --year": ["query", "--index", INDEX, "--name", "Name03750", "--year", "1990",
                     "--format", "json"],
    "query --pooled": ["query", "--index", INDEX, "--name", "Name03750",
                       "--pooled", "1880..2020", "--format", "json"],
    "shift --weighted --top 20": ["shift", "--index", INDEX, "--y1", "1925", "--y2", "2000",
                                  "--weighted", "--top", "20", "--format", "json"],
    "audit triangular": ["audit", "--index", INDEX, "--corpus", CORPUS, "--cohort",
                         f"triangular:{archives.COHORT_OFFSET}:{archives.COHORT_HALF}",
                         "--format", "json"],
    "ambiguity": ["ambiguity", "--index", INDEX, "--year", "1990", "--format", "json"],
}


def parent_tree(rev: str, dest: Path) -> None:
    """``src/`` of revision ``rev``, written under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.11.4 and 3.10.12 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def write_inputs(work: Path) -> None:
    """The dense archive's year files in ``work/dense`` and the corpus in ``work/corpus.csv``."""
    archive = archives.DenseArchive()
    archive.write(work / "dense")
    archives.write_corpus(work / "corpus.csv", archive, CORPUS_SEED)


# Starts each command and reports on it, in a process of its own that imports
# next to nothing: Linux carries a parent's peak RSS into the ru_maxrss of a
# child that execs, so the commands' parent must stay smaller than they are.
# perfbench/spawner.py is not small enough: a ``python -S -c pass`` child
# reads about 18.6 MB peak from it and about 8.4 MB from this one, so a cold
# ``query`` (about 17 MB) would show that spawner's peak, not its own.
# Reads one JSON [argv, env, stdout path, stderr path] per line; answers with
# one JSON [CPU seconds, peak RSS in kB, exit status] per line.
SPAWNER = """
import json, os, sys
for line in sys.stdin:
    argv, env, out, err = json.loads(line)
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        for fd, path in ((1, out), (2, err))])
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps([usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      os.waitstatus_to_exitcode(status)]), flush=True)
"""


class Spawner:
    """The ``SPAWNER`` process: ``run`` gives one command's CPU seconds, peak
    RSS in MB, exit status, stdout and stderr."""

    def __init__(self, work: Path):
        self.out, self.err = work / "stdout", work / "stderr"
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, tree: Path, args: list) -> tuple[float, float, int, bytes, bytes]:
        argv = [sys.executable, "-m", "temponym.cli", *map(str, args)]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        self.proc.stdin.write(json.dumps([argv, env, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        cpu, rss_kb, status = json.loads(self.proc.stdout.readline())
        return cpu, rss_kb / 1024, status, self.out.read_bytes(), self.err.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the git revision to compare this checkout against")
    parser.add_argument("--rounds", type=int, default=10, metavar="N",
                        help="rounds of every command on both sides (default: %(default)s)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="temponym-cold-") as tmp:
        work = Path(tmp)
        trees = {"parent": work / "parent", "change": work / "change"}
        parent_tree(args.parent, trees["parent"])
        shutil.copytree(ROOT / "src", trees["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        # In a process of its own: Linux carries a parent's peak RSS into the
        # ru_maxrss of a child that execs, so the process that starts the
        # commands must never hold the archive.
        writer = multiprocessing.get_context("spawn").Process(target=write_inputs, args=(work,))
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            print(f"writing the dense archive failed: exit {writer.exitcode}", file=sys.stderr)
            return 1
        corpus = work / "corpus.csv"
        spawner = Spawner(work)
        try:
            for side, tree in trees.items():
                ingest = spawner.run(tree, ["ingest", "--dir", work / "dense",
                                            "--out", tree / "dense.idx"])
                if ingest[2] != 0:
                    print(f"{side}: ingest exited {ingest[2]}", file=sys.stderr)
                    return 1
            runs = {command: {side: [] for side in trees} for command in COMMANDS}
            for k in range(args.rounds):
                for command, template in COMMANDS.items():
                    for side in sorted(trees, reverse=k % 2 == 1):
                        tree = trees[side]
                        argv = [arg.format(index=tree / "dense.idx", corpus=corpus)
                                for arg in template]
                        runs[command][side].append(spawner.run(tree, argv))
        finally:
            spawner.close()

    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"parent={args.parent} rounds={args.rounds} corpus seed={CORPUS_SEED}")
    print(f"{'command':<26} {'CPU ms parent':>13} {'change':>7} {'won':>5}   "
          f"{'RSS MB parent':>13} {'change':>7} {'won':>5}   same output")
    failed = False
    for command, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        row = [f"{command:<26}"]
        for field, scale, width in ((0, 1000, 13), (1, 1, 13)):
            p, c = ([run[field] * scale for run in side] for side in (parent, change))
            won = sum(b < a for a, b in zip(p, c))
            row.append(f"{statistics.median(p):>{width}.2f} {statistics.median(c):>7.2f} "
                       f"{won:>2}/{len(p):<2}")
        same = all(a[2:] == b[2:] for a, b in zip(parent, change))
        row.append("yes" if same else "NO")
        print("   ".join(row))
        codes = {run[2] for run in parent + change}
        if codes != {0}:
            print(f"# {command}: exit statuses {sorted(codes)}", file=sys.stderr)
            failed = True
        if not same:
            print(f"# {command}: the two sides printed different output, error output "
                  "or exit statuses", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
