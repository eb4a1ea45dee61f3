"""Seeded benchmark inputs and the exact answers they imply.

Every generator here is a pure function of its seed. The program under test
only ever sees the files written from these objects; the counts kept in
memory are the oracle its outputs are checked against.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import math
import random
from array import array
from fractions import Fraction
from pathlib import Path

YEARS = range(1880, 2021)
COHORT_OFFSET, COHORT_HALF = 35, 10  # the triangular:35:10 cohort model
T95 = Fraction(0.95)  # the threshold the program compares against, as a float


class Archive:
    """Per-name counts over a contiguous span of birth years.

    ``female[i][k]`` and ``male[i][k]`` are the counts of name ``i`` in year
    ``first[i] + k``; a zero means the row is absent from that year's file.
    """

    def __init__(self, names, first, female, male):
        self.names = names
        self.first = first
        self.female = female
        self.male = male
        self.index = {name: i for i, name in enumerate(names)}
        self.rows = sum(len(c) - c.count(0) for c in itertools.chain(female, male))

    def counts(self, i: int, year: int) -> tuple[int, int]:
        k = year - self.first[i]
        if 0 <= k < len(self.female[i]):
            return self.female[i][k], self.male[i][k]
        return 0, 0

    def summed(self, i: int, lo: int, hi: int) -> tuple[int, int]:
        """Female and male totals of name ``i`` over years ``lo..hi``."""
        a = max(lo - self.first[i], 0)
        b = min(hi - self.first[i] + 1, len(self.female[i]))
        if a >= b:
            return 0, 0
        return sum(self.female[i][a:b]), sum(self.male[i][a:b])

    def cohort(self, i: int, activity_year: int) -> tuple[Fraction, int, int]:
        """Exact triangular-cohort p(F), with the female and male count sums.

        The program's mixture sum(w*s * f/s) / sum(w*s) reduces to
        sum(w*f) / sum(w*s); the normalisation of w cancels.
        """
        center = activity_year - COHORT_OFFSET
        num = den = fsum = msum = 0
        for d in range(-COHORT_HALF, COHORT_HALF + 1):
            year = center + d
            if year not in YEARS:
                continue
            f, m = self.counts(i, year)
            w = COHORT_HALF + 1 - abs(d)
            num += w * f
            den += w * (f + m)
            fsum += f
            msum += m
        return Fraction(num, den), fsum, msum

    def write(self, directory: Path) -> None:
        """One ``yobYYYY.txt`` per year: F rows, then M rows, in name rank order."""
        directory.mkdir(parents=True, exist_ok=True)
        per_year = {year: ([], []) for year in YEARS}
        for name, first, fs, ms in zip(self.names, self.first, self.female, self.male):
            for year, f, m in zip(itertools.count(first), fs, ms):
                rows = per_year[year]
                if f:
                    rows[0].append(f"{name},F,{f}")
                if m:
                    rows[1].append(f"{name},M,{m}")
        for year, (frows, mrows) in per_year.items():
            (directory / f"yob{year}.txt").write_text("\n".join(frows + mrows) + "\n")


class DenseArchive(Archive):
    """The ROADMAP trajectory archive: the rows of ``test_criterion_10``.

    ``Random(99)``, ``Name00000``..``Name07499``, an F and an M row for every
    name in every year 1880-2020: 2,115,000 rows. It ignores the run seed so
    that numbers stay comparable with the ROADMAP baseline.
    """

    def __init__(self):
        rng = random.Random(99)
        names = [f"Name{i:05d}" for i in range(7500)]
        span = len(YEARS)
        female = [array("I", bytes(4 * span)) for _ in names]
        male = [array("I", bytes(4 * span)) for _ in names]
        randint = rng.randint
        for k in range(span):
            for i in range(len(names)):
                female[i][k] = randint(5, 20000)
                male[i][k] = randint(5, 20000)
        super().__init__(names, [YEARS[0]] * len(names), female, male)

    def write(self, directory: Path) -> None:
        """Byte-identical to the sources ``test_criterion_10`` builds."""
        directory.mkdir(parents=True, exist_ok=True)
        for k, year in enumerate(YEARS):
            lines = []
            for name, fs, ms in zip(self.names, self.female, self.male):
                lines.append(f"{name},F,{fs[k]}")
                lines.append(f"{name},M,{ms[k]}")
            (directory / f"yob{year}.txt").write_text("\n".join(lines))


_ONSETS = "b c d f g h j k l m n p r s t v w y z br ch cl dr fl gr jh kr sh st th tr".split()
_VOWELS = "a e i o u y ai ea ee ie oa ou".split()


def _name(rng: random.Random) -> str:
    """An ASCII name of 2..15 letters built from onset+vowel syllables."""
    target = min(15, max(2, round(rng.triangular(2, 15, 6))))
    text = ""
    while len(text) < target:
        text += rng.choice(_ONSETS) + rng.choice(_VOWELS)
    return text[:target].capitalize()


class SsaShapeArchive(Archive):
    """A sparse archive shaped like the real SSA data, at ``SCALE`` of its size.

    At scale 1 it has about 100k distinct names and 2.0M rows, and rows per
    year rise from ~2,000 in 1880 to ~31,000 in 2020. Name popularity follows
    a Zipf curve, each name is used over one contiguous span of years, and
    about 88% of names (so most name-years) are used for one sex only.
    """

    SCALE = 0.4
    N_NAMES = int(100_000 * SCALE)
    N_ALWAYS = int(1_800 * SCALE)  # names in use in every year

    def __init__(self, seed: int):
        rng = random.Random(seed)
        seen: set[str] = set()
        names: list[str] = []
        while len(names) < self.N_NAMES:
            name = _name(rng)
            if name.casefold() not in seen:
                seen.add(name.casefold())
                names.append(name)
        # Span starts follow the rising number of names in use per year.
        start_weights = list(itertools.accumulate(
            (1 + 14 * ((y - YEARS[0]) / 140) ** 1.3) for y in YEARS
        ))
        first, female, male = [], [], []
        for rank in range(self.N_NAMES):
            level = 60_000 / (rank + 1) ** 0.85
            if rank < self.N_ALWAYS:
                start, length = YEARS[0], len(YEARS)
            else:
                start = YEARS[0] + bisect.bisect(start_weights, rng.random() * start_weights[-1])
                length = min(1 + int(rng.expovariate(1 / 24)), YEARS[-1] - start + 1)
            if rng.random() < 0.88:
                p0 = p1 = float(rng.random() < 0.55)
            else:
                p0, p1 = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
            fs, ms = array("I"), array("I")
            for k in range(length):
                year = start + k
                growth = 0.35 + 0.65 * (year - YEARS[0]) / 140
                count = max(5, round(level * growth * rng.uniform(0.7, 1.3)))
                p = p0 + (p1 - p0) * k / max(length - 1, 1)
                f = round(count * p)
                m = count - f
                f, m = (f if f >= 5 else 0), (m if m >= 5 else 0)
                if not f and not m:
                    f, m = (count, 0) if p >= 0.5 else (0, count)
                fs.append(f)
                ms.append(m)
            first.append(start)
            female.append(fs)
            male.append(ms)
        super().__init__(names, first, female, male)
        self.seen = seen


def write_corpus(path: Path, archive: Archive, seed: int, n: int = 5000) -> list[tuple[str, int]]:
    """A corpus CSV of ``n`` records active 1970-2020; returns (name, year) per record."""
    rng = random.Random(seed * 7919 + 1)
    records = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "given_name", "activity_year", "known_gender"])
        for k in range(n):
            name = rng.choice(archive.names)
            year = rng.randint(1970, 2020)
            writer.writerow([f"a{rng.randrange(n // 4)}:{k}", name, year, rng.choice("FMU")])
            records.append((name, year))
    return records


def audit_rows(archive: Archive, records) -> dict[int, list]:
    """Per decade: [records, expected female (temporal), expected female (pooled)]."""
    rows: dict[int, list] = {}
    for name, year in records:
        i = archive.index[name]
        temporal = archive.cohort(i, year)[0]
        f, m = archive.summed(i, YEARS[0], YEARS[-1])
        row = rows.setdefault(year // 10 * 10, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += float(temporal)
        row[2] += f / (f + m)
    return rows


def shift_ranking(archive: Archive, y1: int, y2: int, min_support: int = 50,
                  min_delta: int = 20) -> tuple[list, int, int]:
    """Exact weighted shifts, ranked as ``rank_shifts`` documents.

    Returns the ranked (name, p1, p2, delta, s1, s2, weighted) tuples and the
    lowest and highest count of names with |delta| >= min_delta that float
    rounding allows.
    """
    ranked = []
    for i, name in enumerate(archive.names):
        f1, m1 = archive.counts(i, y1)
        f2, m2 = archive.counts(i, y2)
        s1, s2 = f1 + m1, f2 + m2
        if s1 < min_support or s2 < min_support:
            continue
        p1, p2 = Fraction(f1, s1), Fraction(f2, s2)
        delta = (p2 - p1) * 100
        ranked.append((name, p1, p2, delta, s1, s2, delta * Fraction(s1 + s2, 2)))
    ranked.sort(key=lambda e: (-abs(e[6]), -(e[4] + e[5]), e[0]))
    slack = Fraction(1, 10**9)
    low = sum(1 for e in ranked if abs(e[3]) > min_delta + slack)
    high = sum(1 for e in ranked if abs(e[3]) >= min_delta - slack)
    return ranked, low, high


def label(p: Fraction, support: int, policy: str) -> str:
    """The label a policy gives an exact p(F) (README: majority and t95)."""
    if policy == "majority":
        if support < 20:
            return "U"
        return "F" if p > Fraction(1, 2) else "M" if p < Fraction(1, 2) else "U"
    return "F" if p > T95 else "M" if p < 1 - T95 else "U"


# --- the lookup op list ------------------------------------------------------
#
# Each op is [kind, name, year, expected]. Every kind gets the same number of
# ops: the lookup workload times each kind on its own and reports the
# geometric mean of their costs, so no mix of kinds is assumed.
OP_KINDS = ("exact", "fold", "classify", "miss", "windowed", "temporal", "pooled")
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú"}


def _variant(name: str, rng: random.Random) -> tuple[str, bool]:
    """A case variant, or (half the time) an accented one needing fold_diacritics."""
    if rng.random() < 0.5:
        for k, ch in enumerate(name):
            if ch in _ACCENTS:
                return name[:k] + _ACCENTS[ch] + name[k + 1:], True
    return rng.choice((name.upper(), name.lower(), name.swapcase())), False


def lookup_ops(archive: SsaShapeArchive, seed: int, per_kind: int = 400) -> list[list]:
    """``per_kind`` Zipf-skewed ops of each kind, grouped by kind, with exact results."""
    rng = random.Random(seed * 104729 + 3)
    zipf = list(itertools.accumulate(1 / (r + 1) ** 1.1 for r in range(len(archive.names))))
    ops = []
    for kind in (kind for kind in OP_KINDS for _ in range(per_kind)):
        if kind == "miss":
            while (name := _name(rng)).casefold() in archive.seen:
                pass
            ops.append([kind, name, rng.choice(YEARS), None])
            continue
        i = bisect.bisect(zipf, rng.random() * zipf[-1])
        name = archive.names[i]
        year = archive.first[i] + rng.randrange(len(archive.female[i]))
        if kind == "pooled":
            f, m = archive.summed(i, YEARS[0], YEARS[-1])
        elif kind == "windowed":
            f, m = archive.summed(i, year - 5, year + 5)
        elif kind == "temporal":
            year += COHORT_OFFSET
            p, f, m = archive.cohort(i, year)
            ops.append([kind, name, year, [f, m, float(p)]])
            continue
        else:
            f, m = archive.counts(i, year)
        p = Fraction(f, f + m)
        if kind == "fold":
            variant, diacritics = _variant(name, rng)
            ops.append([kind, variant, year, [f, m, float(p), diacritics]])
        elif kind == "classify":
            ops.append([kind, name, year, label(p, f + m, "t95")])
        else:
            ops.append([kind, name, year, [f, m, float(p)]])
    return ops


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]
