"""Program processes the benchmark starts, besides plain ``python -m temponym.cli``.

    program.py cli SPANS ARGS...           the CLI with spans (traced runs only)
    program.py load SPANS INDEX [CORPUS]   load_index, then evaluate_known on CORPUS
    program.py lookup OPS INDEX SECONDS SPANS|-
                                           import + load_index, then the op list:
                                           one pass timing each op, then chunks
                                           of one kind each for SECONDS

Run with ``PYTHONPATH=src`` from the repository root. A lookup process prints
one JSON object: its process CPU time before and after set-up, the ops it
ran and the ones that failed, each op's latency in the first pass and the
median over repetitions of each chunk's rescaled CPU time.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402


def cohort_model(audit):
    from archives import COHORT_HALF, COHORT_OFFSET
    return audit.CohortModel("triangular-window", COHORT_OFFSET, COHORT_HALF)


def traced(spans_path: str):
    if spans_path == "-":
        return None
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def cli(spans_path, args):
    import temponym.cli
    import_s = time.perf_counter() - T_START
    tracer = traced(spans_path)
    try:
        temponym.cli.main(args, prog_name="temponym")
    finally:
        tracer.dump(spans_path, import_s=import_s)


def load(spans_path, index_path, corpus_path=None):
    from temponym import audit, dataset
    tracer = traced(spans_path)
    data = dataset.load_index(index_path)
    if corpus_path:
        records = audit.load_corpus_csv(corpus_path)
        audit.evaluate_known(records, data, cohort_model(audit))
    tracer.dump(spans_path)


def _calls(ops, data, model, audit):
    """One zero-argument callable per op, bound before the timed loop."""
    cohort = cohort_model(audit)
    p_female, classify, t95 = model.p_female, model.classify, model.T95
    calls = []
    for kind, name, year, expected in ops:
        if kind in ("exact", "miss"):
            call = (lambda n=name, y=year: p_female(data, n, y))
        elif kind == "fold":
            call = (lambda n=name, y=year, d=expected[3]: p_female(data, n, y, fold_diacritics=d))
        elif kind == "classify":
            call = (lambda n=name, y=year: classify(p_female(data, n, y), t95))
        elif kind == "windowed":
            call = (lambda n=name, y=year: model.p_female_windowed(data, n, y, 5))
        elif kind == "pooled":
            call = (lambda n=name: model.p_female_pooled(data, n, (1880, 2020)))
        else:
            call = (lambda n=name, y=year: audit.temporal_p_female(
                data, n, audit.infer_birth_distribution(y, cohort, data)))
        calls.append(call)
    return calls


def _wrong(kind, expected, outcome, no_data) -> bool:
    if kind == "miss":
        return not isinstance(outcome, no_data)
    if isinstance(outcome, Exception):
        return True
    if kind == "classify":
        return outcome.value != expected
    f, m, p = expected[:3]
    if (outcome.female_count, outcome.male_count) != (f, m):
        return True
    if kind == "temporal":  # a float mixture: summation order may differ
        return abs(outcome.p_female - p) > 1e-9 * max(p, 1e-300)
    return outcome.p_female != p  # f/(f+m) is correctly rounded either way


# Ops per timed chunk. A chunk takes 0.1-4 ms, far shorter than a phase in
# which the shared host runs the core at one speed, so the mean of the probes
# just before and just after it (perfbench/probe.py) rescales it.
CHUNK = 20


def lookup(ops_path, index_path, seconds, spans_path):
    setup_cpu = [time.process_time()]
    from temponym import audit, dataset, errors, model
    tracer = traced(spans_path)
    data = dataset.load_index(index_path)
    setup_cpu.append(time.process_time())
    with open(ops_path) as fh:  # after the load, so it adds nothing to the peak RSS
        ops = json.load(fh)

    calls = _calls(ops, data, model, audit)
    done = failed = 0
    messages = []

    def run(indices):
        outcomes = []
        for i in indices:
            try:
                outcomes.append(calls[i]())
            except Exception as exc:  # noqa: BLE001 - checked below
                outcomes.append(exc)
        return outcomes

    def check(indices, outcomes):
        nonlocal done, failed
        for i, outcome in zip(indices, outcomes):
            done += 1
            kind, _, _, expected = ops[i]
            if _wrong(kind, expected, outcome, errors.NoData):
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{ops[i]!r}: {outcome!r}")

    def tag(kind):
        if tracer:
            tracer.tag = kind

    # One pass in a seeded mixed order, timing each op: the latency lines.
    clock = time.perf_counter
    latencies = []
    for i in random.Random(len(ops)).sample(range(len(ops)), len(ops)):
        tag(ops[i][0])
        start = clock()
        outcome = run((i,))
        latencies.append(clock() - start)
        check((i,), outcome)

    # Then the chunks of each kind in turn, until ``seconds`` have passed.
    by_kind = {}
    for i, op in enumerate(ops):
        by_kind.setdefault(op[0], []).append(i)
    chunks = [(kind, indices[k:k + CHUNK])
              for kind, indices in by_kind.items() for k in range(0, len(indices), CHUNK)]
    costs = [[] for _ in chunks]
    cpu_ns = time.thread_time_ns
    deadline = clock() + float(seconds)
    passes = 0
    while passes == 0 or clock() < deadline:
        for c, (kind, indices) in enumerate(chunks):
            tag(kind)
            before = probe.cost_ns()
            start = cpu_ns()
            outcomes = run(indices)
            took = cpu_ns() - start
            costs[c].append(probe.rescale(took, (before + probe.cost_ns()) / 2))
            check(indices, outcomes)
        passes += 1

    chunk_ns = {kind: [] for kind in by_kind}
    for (kind, _), values in zip(chunks, costs):
        chunk_ns[kind].append(statistics.median(values))
    if tracer:
        tracer.dump(spans_path)
    print(json.dumps({"setup_cpu": setup_cpu, "ops": done, "failed": failed, "errors": messages,
                      "passes": passes, "latencies": latencies,
                      "ops_per_kind": {kind: len(v) for kind, v in by_kind.items()},
                      "chunk_ns": chunk_ns}))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "cli":
        cli(rest[0], rest[1:])
    elif mode == "load":
        load(*rest)
    elif mode == "lookup":
        lookup(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
