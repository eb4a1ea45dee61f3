"""CPU time rescaled to a reference machine speed.

The cores of a shared host run one program at speeds up to 1.8x apart,
switching within a second as other tenants come and go; one speed can also
hold for minutes. CPU time alone therefore moves by up to 40% between runs
of the same program. A probe that does a fixed unit of pure-Python work
shows the current speed. The unit has two halves, because other tenants
slow the program's two kinds of work by different amounts: it fills a small
dict with string keys, like parsing and table builds, and it reads at random
places in a 4 MB array, like lookups in tables larger than the caches. CPU
time the program spends next to a probe is rescaled by ``REF_NS / cost``,
where ``cost`` is what the unit took: the result is the CPU time the program
would have used at the speed at which the unit takes ``REF_NS``. The
benchmark reports these rescaled times.
"""
import random
import time
from array import array

# About the unit's cost on one core of a 2-core x86-64 VM under Python 3.11,
# so that rescaled times read close to CPU seconds there.
REF_NS = 400_000
# Time between two probes of a running program process: far shorter than a
# phase of one speed.
EVERY_NS = 20_000_000

_KEYS = range(1000)
_TABLE = array("q", [0]) * (512 << 10)
_PLACES = random.Random(0).choices(range(len(_TABLE)), k=2000)


def cost_ns() -> int:
    """Thread CPU time of one unit of probe work."""
    table = _TABLE
    start = time.thread_time_ns()
    keys = {}
    for i in _KEYS:
        keys[str(i)] = i
    total = 0
    for i in _PLACES:
        total += table[i]
    return time.thread_time_ns() - start


def rescale(cpu_ns: float, unit_ns: float) -> float:
    return cpu_ns * REF_NS / unit_ns
