"""In-memory spans around the program's public functions.

A traced program process wraps module attributes (``temponym.dataset.
load_index`` and so on) so that every call through them records a span:
its name, the name of the span that caused it, the op tag the caller set,
wall start and end, and the thread CPU time spent inside. Nothing is written
until ``dump``. Durations are thread CPU time, because ingest parses files on
a thread pool that holds the GIL: summed wall spans there would count the
time each thread waited for the lock.
"""
from __future__ import annotations

import importlib
import json
import resource
import statistics
import threading
import time

# (module, attribute, span name). Attributes are replaced on the module, so
# only calls that look the name up on that module are seen: cli.py calls
# dataset_mod.load_index, but shifts.py's own ``p_female`` binding is not
# wrapped, which keeps 15k per-name spans out of rank_shifts.
SPANS = [
    ("temponym.dataset", "load_directory", "dataset.load_directory"),
    ("temponym.dataset", "load_dataset", "dataset.load_dataset"),
    ("temponym.dataset", "parse_year_file", "dataset.parse_year_file"),
    ("temponym.dataset", "merge_rows", "dataset.merge_rows"),
    ("temponym.dataset", "save_index", "index.save_index"),
    ("temponym.dataset", "load_index", "index.load_index"),
    ("temponym.model", "p_female", "model.p_female"),
    ("temponym.model", "p_female_windowed", "model.p_female_windowed"),
    ("temponym.model", "p_female_pooled", "model.p_female_pooled"),
    ("temponym.model", "classify", "model.classify"),
    ("temponym.audit", "temporal_p_female", "audit.temporal_p_female"),
    ("temponym.audit", "audit_corpus", "audit.audit_corpus"),
    ("temponym.audit", "evaluate_known", "audit.evaluate_known"),
    ("temponym.shifts", "rank_shifts", "shifts.rank_shifts"),
    ("temponym.shifts", "qualifying_names", "shifts.qualifying_names"),
]
# Called about once per name per year: counted into the enclosing span
# instead of getting spans of their own.
COUNTED = [("temponym.dataset", "strip_diacritics", "fold_calls")]

NAME, PARENT, TAG, START, END, CPU, CHILD_CPU, FOLDS, EXTRA = range(9)


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# What a span keeps in its EXTRA field besides its times: rows skipped by the
# parser, and how far load_index raised the process's peak RSS (kB). The peak
# is not taken with tracemalloc, which slowed one load of a full-size
# ssa-shape index from 10 s to 96 s.
BEFORE = {"index.load_index": _max_rss_kb}
AFTER = {
    "dataset.merge_rows": lambda before, result: result[1],
    "index.load_index": lambda before, result: _max_rss_kb() - before,
}


class MissingFunction(SystemExit):
    """A function the benchmark times is gone from the program."""

    def __init__(self, qualname: str):
        super().__init__(f"perfbench: cannot time {qualname}: "
                         "it is missing from the program under src/")


def resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingFunction(f"{module_name} ({exc})") from None
    if not callable(getattr(module, attr, None)):
        raise MissingFunction(f"{module_name}.{attr}")
    return module, getattr(module, attr)


def check_program() -> None:
    """Fail with the missing name before any work if the API has moved."""
    for module_name, attr, _ in SPANS + COUNTED:
        resolve(module_name, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.tag = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            module, fn = resolve(module_name, attr)
            setattr(module, attr, self._span(fn, name))
        for module_name, attr, _ in COUNTED:
            module, fn = resolve(module_name, attr)
            setattr(module, attr, self._count(fn))

    def _span(self, fn, name):
        spans, stack_of = self.spans, self._stack
        wall, cpu = time.perf_counter_ns, time.thread_time_ns
        before, after = BEFORE.get(name, lambda: None), AFTER.get(name)

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            record = [name, parent[NAME] if parent else None, self.tag,
                      wall(), 0, cpu(), 0, 0, before()]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
                if after:
                    record[EXTRA] = after(record[EXTRA], result)
                return result
            finally:
                record[CPU] = cpu() - record[CPU]
                record[END] = wall()
                stack.pop()
                if parent:
                    parent[CHILD_CPU] += record[CPU]
                spans.append(record)

        return wrapper

    def _count(self, fn):
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                stack[-1][FOLDS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


class Profile:
    """Per-layer numbers from the span files of one traced run."""

    def __init__(self, files):
        self.processes = []
        for path in files:
            with open(path) as fh:
                self.processes.append(json.load(fh))

    def per_process(self, value) -> float:
        """Median over the processes where ``value(process)`` is non-zero."""
        values = [v for v in (value(p) for p in self.processes) if v]
        return statistics.median(values) if values else 0.0

    def total(self, name: str, field: int) -> float:
        return self.per_process(lambda p: sum(
            s[field] for s in p["spans"] if s[NAME] == name))

    def total_s(self, name: str) -> float:
        """CPU seconds per process in spans ``name``, children included."""
        return self.total(name, CPU) / 1e9

    def self_s(self, name: str) -> float:
        """CPU seconds per process in spans ``name`` minus their wrapped children."""
        return self.per_process(lambda p: sum(
            s[CPU] - s[CHILD_CPU] for s in p["spans"] if s[NAME] == name)) / 1e9

    def median_us(self, name: str, tags) -> float:
        """Median CPU microseconds of one call to ``name`` under the given op tags."""
        values = [s[CPU] / 1e3 for p in self.processes for s in p["spans"]
                  if s[NAME] == name and s[TAG] in tags]
        return statistics.median(values) if values else 0.0

    def extra(self, key: str) -> float:
        return self.per_process(lambda p: p.get(key, 0))
