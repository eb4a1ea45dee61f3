"""Property suites over randomized inputs (1,000 cases per property unless noted)."""
import contextlib
import datetime
import email.utils
import hashlib
import io
import json
import math
import os
import random
import sys
import urllib.request
import zlib
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from temponym import _pyparse, audit, errors, model, services, shifts
from temponym import dataset as ds
from temponym.cli import main

from test_services import fake_urlopen

THOROUGH = settings(max_examples=1000, deadline=None)

counts = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(
    lambda fm: fm[0] + fm[1] > 0
)


def _pooled_counts(data, name, first_year, last_year, fold_diacritics=False):
    """``name``'s (female, male) summed over the loaded years in
    ``first_year..last_year``, as pooled p(F) sums them."""
    return data.sums(data.resolve(name, fold_diacritics),
                     *data.year_span(first_year, last_year))[2:]


def _cell_list(data, ids):
    """The female and male counts ``sums`` reads for ``ids`` at each loaded
    position, one one-position ``sums`` each."""
    cells = [data.sums(ids, pos, pos + 1)[2:] for pos in range(len(data.years_loaded))]
    return [f for f, _ in cells], [m for _, m in cells]


def build_prob(female, male):
    data = ds.load_dataset([(1950, f"Pat,F,{female}\nPat,M,{male}\n")], strict=False)
    return model.p_female(data, "Pat", 1950)


@THOROUGH
@given(counts)
def test_probability_normalization(fm):
    female, male = fm
    prob = build_prob(female, male)
    support = female + male
    assert 0.0 <= prob.p_female <= 1.0
    assert abs(prob.p_female * support - female) <= math.ulp(float(max(female, 1)))


@THOROUGH
@given(st.lists(st.tuples(st.integers(0, 10**5), st.integers(0, 10**5)), min_size=1, max_size=5))
def test_pooling_equals_count_weighted_mean(yearly):
    sources = [
        (1950 + i, f"Pat,F,{f}\nPat,M,{m}\n") for i, (f, m) in enumerate(yearly)
    ]
    data = ds.load_dataset(sources, strict=False)
    total = sum(f + m for f, m in yearly)
    if total == 0:
        return
    # independent oracle: weighted mean of per-year ratios
    expected = sum(
        (f + m) / total * (f / (f + m)) for f, m in yearly if f + m > 0
    )
    pooled = model.p_female_pooled(data, "Pat", (1950, 1950 + len(yearly)))
    assert pooled.p_female == pytest.approx(expected, abs=1e-12)


def test_pooling_consistency_on_sample_names(sample_dataset):
    """Brute-force oracle over >=100 random real names from the archive."""
    rng = random.Random(42)
    tables = {year: sample_dataset.year_cells(year) for year in sample_dataset.years_loaded}
    all_names = sorted(set().union(*tables.values()))
    names = rng.sample(all_names, 120)
    lo, hi = 1880, 2020
    for name in names:
        female = male = 0
        for year in range(lo, hi + 1):
            hit = tables[year].get(name) if year in tables else None
            if hit:
                female += hit[0]
                male += hit[1]
        if female + male == 0:
            continue
        pooled = model.p_female_pooled(sample_dataset, name, (lo, hi))
        assert pooled.female_count == female and pooled.male_count == male
        assert pooled.p_female == pytest.approx(female / (female + male))


@THOROUGH
@given(counts, counts)
def test_shift_antisymmetry(fm1, fm2):
    sources = [
        (1925, f"Pat,F,{fm1[0]}\nPat,M,{fm1[1]}\n"),
        (2000, f"Pat,F,{fm2[0]}\nPat,M,{fm2[1]}\n"),
    ]
    data = ds.load_dataset(sources, strict=False)
    [forward] = [e for e in shifts.rank_shifts(data, 1925, 2000, min_support_each_year=0)
                 if e.name == "Pat"]
    [backward] = [e for e in shifts.rank_shifts(data, 2000, 1925, min_support_each_year=0)
                  if e.name == "Pat"]
    assert backward.delta_scaled == -forward.delta_scaled


@THOROUGH
@given(counts, st.floats(0.501, 0.999), st.floats(0.001, 0.499))
def test_threshold_monotonicity(fm, low_threshold, bump):
    high_threshold = min(1.0, low_threshold + bump * (1.0 - low_threshold))
    prob = build_prob(*fm)
    low = model.classify(prob, model.ClassificationPolicy(low_threshold, 1))
    high = model.classify(prob, model.ClassificationPolicy(high_threshold, 1))
    # raising the threshold can only coarsen labels toward Unknown
    if high is not model.GenderLabel.UNKNOWN:
        assert low is high


@THOROUGH
@given(counts, st.just(0.5) | st.floats(0.501, 0.999))
def test_label_complement_symmetry(fm, threshold):
    female, male = fm
    policy = model.ClassificationPolicy(threshold, 1)
    label = model.classify(build_prob(female, male), policy)
    swapped = model.classify(build_prob(male, female), policy)
    mirror = {
        model.GenderLabel.FEMALE: model.GenderLabel.MALE,
        model.GenderLabel.MALE: model.GenderLabel.FEMALE,
        model.GenderLabel.UNKNOWN: model.GenderLabel.UNKNOWN,
    }
    assert swapped is mirror[label]


EVERY_YEAR = ds.load_dataset([(year, "Pat,F,5") for year in range(ds.MIN_YEAR, ds.MAX_YEAR + 1)])


@THOROUGH
@given(
    st.integers(1900, 2020),
    st.sampled_from(["fixed-offset", "uniform-window", "triangular-window"]),
    st.integers(0, 60),
    st.integers(0, 15),
)
def test_cohort_weight_normalization(activity_year, kind, offset, half_width):
    cohort = audit.CohortModel(kind, offset, 0 if kind == "fixed-offset" else half_width)
    window_end = activity_year - offset + cohort.half_width
    if window_end < ds.MIN_YEAR:  # the whole window precedes every loadable year
        with pytest.raises(errors.EmptySupport):
            audit.infer_birth_distribution(activity_year, cohort, EVERY_YEAR)
        return
    dist = audit.infer_birth_distribution(activity_year, cohort, EVERY_YEAR)
    # relative integer weights, not normalised: each loaded year of the window
    center, h = activity_year - offset, cohort.half_width
    shape = (lambda d: h + 1 - abs(d)) if kind == "triangular-window" else (lambda d: 1)
    assert dist == [(year, shape(year - center))
                    for year in range(max(center - h, ds.MIN_YEAR), center + h + 1)]
    assert all(type(w) is int and w >= 1 for _, w in dist)


@THOROUGH
@given(
    st.lists(
        st.tuples(st.integers(0, 10**4), st.integers(0, 10**4), st.floats(0.01, 1.0)),
        min_size=1, max_size=6,
    ).filter(lambda rows: any(f + m > 0 for f, m, _ in rows))
)
def test_mixture_bounds(rows):
    sources = [
        (1950 + i, f"Pat,F,{f}\nPat,M,{m}\n") for i, (f, m, _) in enumerate(rows)
    ]
    data = ds.load_dataset(sources, strict=False)
    total_weight = sum(w for _, _, w in rows)
    dist = [(1950 + i, w / total_weight) for i, (_, _, w) in enumerate(rows)]
    mixed = audit.temporal_p_female(data, "Pat", dist)
    per_year = [f / (f + m) for f, m, _ in rows if f + m > 0]
    assert min(per_year) - 1e-12 <= mixed.p_female <= max(per_year) + 1e-12
    assert 0.0 <= mixed.p_female <= 1.0


@THOROUGH
@given(
    st.integers(0, 9),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
             min_size=1, max_size=10),
    st.integers(1985, 2004),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    st.sets(st.integers(0, 19), max_size=4),
    st.sampled_from(["Pat", "pat"]),
)
def test_integer_weights_give_the_exact_ratio_rounded_once(start, cells, first, weights,
                                                           dropped, name):
    """p(F) of a mixture with integer weights and counts up to 2^32 - 1 is
    float(Fraction(sum(w * f), sum(w * (f + m)))), whether the years are
    one run of loaded years (one slice of each column) or not."""
    cells = cells[:10 - start]
    data = ds.Dataset(range(1990, 2000), ("Pat",), array("I", [start]), array("I", [len(cells)]),
                      array("I", [f for f, _ in cells]), array("I", [m for _, m in cells]))
    dist = [(first + k, w) for k, w in enumerate(weights) if k not in dropped]
    assume(dist)
    counts = {1990 + start + k: cell for k, cell in enumerate(cells)}
    found = [(w, *counts.get(year, (0, 0))) for year, w in dist]
    num, den = sum(w * f for w, f, _ in found), sum(w * (f + m) for w, f, m in found)
    if not den:
        with pytest.raises(errors.NoData):
            audit.temporal_p_female(data, name, dist)
        return
    prob = audit.temporal_p_female(data, name, dist)
    assert prob.p_female == float(Fraction(num, den))
    assert (prob.female_count, prob.male_count) == (
        sum(f for _, f, _ in found), sum(m for _, _, m in found))


# Names distinct under casefolding and diacritic stripping, so every lookup
# resolves to exactly the name asked for.
POOL = ("Ann", "Bo", "Cy", "Dee", "Émile", "Zoë")
year_rows = st.dictionaries(
    st.sampled_from(POOL), st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    max_size=len(POOL),
)


# 250 cases: generating nested dictionaries costs Hypothesis ~6 ms a case.
@settings(max_examples=250, deadline=None)
@given(st.dictionaries(st.integers(1880, 1900), year_rows, max_size=8),
       st.integers(1875, 1905), st.integers(0, 30))
def test_columns_match_per_year_reference(tmp_path_factory, per_year, lo, width):
    """Lookups on the columns, built or loaded, equal the per-year dicts they were built from."""
    sources = [
        (year, "".join(f"{n},F,{f}\n{n},M,{m}\n" for n, (f, m) in rows.items()))
        for year, rows in per_year.items()
    ]
    built = ds.load_dataset(sources, strict=False)
    path = tmp_path_factory.getbasetemp() / "columns.idx"
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert loaded == built
    resaved = path.with_name("columns-resaved.idx")
    ds.save_index(loaded, resaved)  # from columns at their stored widths
    assert resaved.read_bytes() == path.read_bytes()
    for data in (built, loaded):
        assert data.years_loaded == tuple(sorted(per_year))
        for name in POOL:
            for year, rows in per_year.items():
                expected = rows.get(name, (0, 0))
                assert (data.lookup(name, year) or (0, 0)) == expected
            in_range = [rows.get(name, (0, 0)) for year, rows in per_year.items()
                        if lo <= year <= lo + width]
            assert _pooled_counts(data, name, lo, lo + width) == (
                sum(f for f, _ in in_range), sum(m for _, m in in_range))
            cells = [per_year[year].get(name, (0, 0)) for year in data.years_loaded]
            assert _cell_list(data, data.resolve(name)) == (
                [f for f, _ in cells], [m for _, m in cells])
        for y1, rows1 in per_year.items():
            for y2, rows2 in per_year.items():
                assert list(data.year_pair_cells(y1, y2)) == [
                    (name, *rows1[name], *rows2[name]) for name in sorted(POOL)
                    if any(rows1.get(name, ())) and any(rows2.get(name, ()))]


# The largest value of each column format a Dataset accepts.
COLUMN_MAX = {"B": 2**8 - 1, "H": 2**16 - 1, "I": 2**32 - 1}


@st.composite
def tables(draw):
    """Arguments the Dataset constructor accepts: increasing years in
    1880..2100, sorted non-empty names with no line break or lone surrogate,
    spans inside the years (empty ones too) and 'B', 'H' or 'I' columns
    holding any value of their format, as lists or tuples."""
    years = sorted(draw(st.sets(st.integers(ds.MIN_YEAR, ds.MAX_YEAR), max_size=6)))
    names = sorted(draw(st.sets(st.text(st.characters(
        blacklist_characters="\n", blacklist_categories=("Cs",)), min_size=1, max_size=4),
        max_size=5)))
    starts = [draw(st.integers(0, len(years))) for _ in names]
    lengths = [draw(st.integers(0, len(years) - start)) for start in starts]
    columns = {}
    for key, values in (("starts", starts), ("lengths", lengths),
                        ("female", None), ("male", None)):
        typecode = draw(st.sampled_from(sorted(COLUMN_MAX)))
        if values is None:
            values = draw(st.lists(st.integers(0, COLUMN_MAX[typecode]),
                                   min_size=sum(lengths), max_size=sum(lengths)))
        columns[key] = array(typecode, values)
    sequence = draw(st.sampled_from([list, tuple]))
    return sequence(years), sequence(names), columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_every_accepted_table_loads_back_from_its_index_equal(tmp_path_factory, table):
    years, names, columns = table
    built = ds.Dataset(years, names, **columns)
    assert (built.years_loaded, built.names) == (tuple(years), tuple(names))
    path = tmp_path_factory.getbasetemp() / "table.idx"
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert loaded == built
    assert loaded._distinct == built._distinct
    resaved = path.with_name("table-resaved.idx")
    ds.save_index(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


# --- the SSA row parser -----------------------------------------------------

# Any character but "," and "\n" may be part of a name; lone surrogates are
# left out because an index stores names as UTF-8.
NAME_CHARS = st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",))
row_names = st.text(NAME_CHARS, min_size=2, max_size=15)


def render(rows, eol, blanks, end):
    """A year file of ``(name, sex, count)`` rows, blank lines at ``blanks``."""
    lines = [f"{name},{sex},{count}" for name, sex, count in rows]
    for pos in sorted(blanks, reverse=True):
        lines.insert(pos, "")
    return eol.join(lines) + end


@st.composite
def year_files(draw, floor, names=row_names, max_blanks=3):
    """(name -> (female or None, male or None), file text); None is no row.

    Lines end in LF or CRLF; the file ends after its last row, after a line
    ending, or after a lone ``\r``.
    """
    count = st.none() | st.integers(floor, 2**32 - 1)
    cells = draw(st.dictionaries(
        names, st.tuples(count, count).filter(lambda fm: fm != (None, None)), max_size=6))
    rows = [(name, sex, c) for name, fm in cells.items()
            for sex, c in zip("FM", fm) if c is not None]
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=max_blanks))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return cells, render(rows, eol, blanks, draw(st.sampled_from(["", eol, "\r"])))


def dataset_of(per_year):
    """The Dataset the counts imply, built without the parser."""
    years = sorted(per_year)
    cells = {}
    for pos, year in enumerate(years):
        for name, fm in per_year[year].items():
            cells.setdefault(name, [(0, 0)] * len(years))[pos] = tuple(c or 0 for c in fm)
    names, starts, lengths, female, male = [], [], [], [], []
    for name in sorted(cells):
        data = [pos for pos, fm in enumerate(cells[name]) if any(fm)]
        if not data:  # only zero counts: no data
            continue
        span = cells[name][data[0]:data[-1] + 1]
        names.append(name)
        starts.append(data[0])
        lengths.append(len(span))
        female += [f for f, _ in span]
        male += [m for _, m in span]
    return ds.Dataset(
        years_loaded=tuple(years), names=tuple(names), starts=array("I", starts),
        lengths=array("I", lengths), female=array("I", female), male=array("I", male),
    )


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_valid_files_give_the_dataset_of_their_counts(strict, data):
    """Any row order, CRLF, blank lines, no final newline, zero counts (lenient)."""
    files = data.draw(st.dictionaries(
        st.integers(1880, 1890), year_files(5 if strict else 0), max_size=4))
    sources = data.draw(st.permutations([(year, text) for year, (_, text) in files.items()]))
    loaded = ds.load_dataset(sources, strict=strict)
    assert loaded == dataset_of({year: cells for year, (cells, _) in files.items()})
    assert loaded.skipped == (0,) * len(files)


# A few names, so that most of them recur across years, one sex or both.
FEW_NAMES = ("Ann", "Bo", "Cy", "Dee", "Eve")
few_cells = st.tuples(st.none() | st.integers(0, 9), st.none() | st.integers(0, 9)).filter(
    lambda fm: fm != (None, None))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1880, 1895), st.dictionaries(
           st.sampled_from(FEW_NAMES), few_cells, max_size=len(FEW_NAMES)), max_size=6),
       st.data())
def test_any_source_order_gives_one_dataset(per_year, data):
    """Row ids follow the order keys are first seen in, which the source
    order sets: names first seen in a later year, a name of one sex in one
    year and of the other in another, and zero counts (lenient), which never
    start or end a span, all give the Dataset of the counts."""
    sources = [(year, "\n".join(f"{name},{sex},{count}" for name, fm in cells.items()
                                for sex, count in zip("FM", fm) if count is not None))
               for year, cells in per_year.items()]
    first = ds.load_dataset(data.draw(st.permutations(sources)), strict=False)
    second = ds.load_dataset(data.draw(st.permutations(sources)), strict=False)
    assert first == second == dataset_of(per_year)
    for offset, length in zip(first._offsets, first.lengths):
        for cell in (offset, offset + length - 1):
            assert first.female[cell] or first.male[cell]


# --- the table build's edges ------------------------------------------------
#
# ``_columns`` cuts the keys in blocks of ``ds._BLOCK`` row ids, stacks each
# block of every year's row, each at its own width, into one grid at the
# widest row's width, and then narrows the columns. Each case below must give
# the per-name reference table (``dataset_of``), and the index it saves must
# load back equal, every column at the narrowest format that holds its
# values.


def source_files(per_year):
    """Year files of ``{year: {name: (female, male)}}``; None is no row."""
    return [(year, "\n".join(f"{name},{sex},{count}" for name, fm in cells.items()
                              for sex, count in zip("FM", fm) if count is not None))
            for year, cells in per_year.items()]


def column_formats(data):
    return [getattr(data, key).format for key in ("starts", "lengths", "female", "male")]


def check_build(path, per_year, sources=None):
    """The lenient build of ``per_year``'s files (or of ``sources``), checked
    against the reference, and against its index, formats included."""
    built = ds.load_dataset(source_files(per_year) if sources is None else sources, strict=False)
    assert built == dataset_of(per_year)
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert loaded == built
    narrowest = [next(code for code, top in COLUMN_MAX.items() if max(column, default=0) <= top)
                 for column in (built.starts, built.lengths, built.female, built.male)]
    assert column_formats(built) == column_formats(loaded) == narrowest
    return built


@pytest.mark.parametrize("n_keys", [ds._BLOCK - 1, ds._BLOCK, ds._BLOCK + 1, 2 * ds._BLOCK + 1])
def test_key_counts_around_the_block_size(tmp_path, n_keys):
    """Keys first seen in each year, so the rows end at different places,
    some inside the last block; names of one sex and of both."""
    rng = random.Random(n_keys)
    names = [f"N{i:05d}" for i in range((n_keys + 1) // 2)]
    per_year = {year: {} for year in (1880, 1881, 1882)}
    for i, name in enumerate(names):
        year = rng.choice(list(per_year))
        both = 2 * i + 1 < n_keys  # the last name of an odd count has one key
        per_year[year][name] = (rng.randrange(5, 300), rng.randrange(5, 300) if both else None)
        if year < 1882 and rng.random() < 0.5:
            per_year[1882][name] = (rng.randrange(5, 300), None)
    data = check_build(tmp_path / "block.idx", per_year)
    assert len(data.names) == len(names)


def test_a_name_whose_keys_fall_in_different_blocks(tmp_path):
    """Zed's F key gets row id 0 and its M key the last id, a block later."""
    fillers = {f"N{i:05d}": (7, None) for i in range(ds._BLOCK + 5)}
    per_year = {1880: {"Zed": (9, None), **fillers},
                1881: {"Zed": (None, 11)},
                1882: {"Zed": (13, 0), "N00000": (6, None)}}
    files = source_files(per_year)
    files[0] = (1880, files[0][1] + "\nZed,M,0")  # Zed,M last seen in 1880's file
    data = check_build(tmp_path / "split.idx", per_year, files)
    assert _cell_list(data, data.resolve("Zed")) == ([9, 0, 13], [0, 11, 0])


def test_years_of_one_two_and_three_byte_counts(tmp_path):
    """Rows of 'B', 'H' and 'I' counts stack into one 'I' grid; only the
    female column holds a count of three bytes, one above 65,535."""
    per_year = {1880: {"Ann": (200, None), "Bo": (None, 9)},
                1881: {"Ann": (40_000, 7), "Bo": (None, 255)},
                1882: {"Ann": (70_000, None), "Cy": (5, 60)}}
    data = check_build(tmp_path / "widths.idx", per_year)
    assert column_formats(data) == ["B", "B", "I", "B"]
    per_year[1881]["Bo"] = (None, 256)
    assert column_formats(check_build(tmp_path / "widths.idx", per_year)) == ["B", "B", "I", "H"]


def test_zero_count_rows_at_span_edges(tmp_path):
    """Lenient zero counts before, inside and after a name's data, and a name
    with zero counts only, which has no data."""
    per_year = {1880: {"Ann": (0, None), "Nil": (0, 0)},
                1881: {"Ann": (5, 0)},
                1882: {"Ann": (0, 0), "Nil": (None, 0)},
                1883: {"Ann": (None, 7)},
                1884: {"Ann": (0, 0), "Bo": (0, 6)}}
    data = check_build(tmp_path / "zeros.idx", per_year)
    assert data.names == ("Ann", "Bo")
    assert (data.starts[0], data.lengths[0]) == (1, 3)


@pytest.mark.parametrize("per_year", [
    {},
    {1880: {}},
    {1880: {}, 1881: {"Ann": (5, None)}, 1882: {}},
    {1880: {"Ann": (5, None)}, 1881: {}},
], ids=["no source", "one empty year", "empty first and last years", "empty last year"])
def test_no_source_and_years_that_keep_no_row(tmp_path, per_year):
    data = check_build(tmp_path / "empty.idx", per_year)
    assert data.years_loaded == tuple(sorted(per_year))


wide_counts = st.none() | st.sampled_from([0, 5, 255, 256, 65_535, 65_536, 2**24, 2**32 - 1])


# 200 cases: each saves and loads an index.
@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1880, 1890), st.dictionaries(
           st.sampled_from(FEW_NAMES), st.tuples(wide_counts, wide_counts).filter(
               lambda fm: fm != (None, None)), max_size=len(FEW_NAMES)), max_size=5),
       st.integers(1, 4), st.data())
def test_any_block_size_gives_the_table_of_the_counts(tmp_path_factory, per_year, block, data):
    """Blocks of one to four keys, so most keys share no block with their
    name's other key and most rows end inside a block, over counts of one
    to four bytes in any source order."""
    sources = data.draw(st.permutations(source_files(per_year)))
    with mock.patch.object(ds, "_BLOCK", block):
        check_build(tmp_path_factory.getbasetemp() / "blocks.idx", per_year, sources)


# Text near the grammar: pieces of rows, signs, spaces, separators, a
# non-ASCII digit, and lines of arbitrary text.
near_rows = st.text(st.sampled_from("PatZé,,FMQ0123456789-+_ \r\n\u0663"), max_size=24)


def parsed_or_error(parse, *args):
    try:
        return parse(*args)
    except errors.TemponymError as exc:
        return type(exc), str(exc)


def named(parse, text, strict):
    """``parse(text, strict, ids)`` from an empty ``KeyIds``, as ``((female,
    male), skipped, keys)``: each sex's rows as ``{name: count}``, and the
    ``name,sex`` keys in id order; or the error's type and message.

    The ids must run 0, 1, ... in ``ids``, name only keys of kept rows, and
    be unique among the rows.
    """
    ids = _pyparse.KeyIds()
    try:
        (row_ids, counts), skipped = parse(text, strict, ids)
    except errors.TemponymError as exc:
        return type(exc), str(exc)
    keys = list(ids)
    assert list(ids.values()) == list(range(len(keys)))
    assert set(row_ids) == set(ids.values())
    assert len(set(row_ids)) == len(row_ids) == len(counts)
    by_sex = {"F": {}, "M": {}}
    for i, count in zip(row_ids, counts):
        name, sex = keys[i].rsplit(",", 1)
        by_sex[sex][name] = count
    return (by_sex["F"], by_sex["M"]), skipped, keys


# A row whose count has thousands of digits, more than ``int()`` converts
# (4,300): above 32 bits, or zeros before a count of any size.
long_counts = st.builds(
    lambda row, zeros, count: row + "0" * zeros + count,
    st.sampled_from(["Pat,F,", "Sam,M,"]), st.integers(0, 6000),
    st.sampled_from(["", "4", "5", str(2**32 - 1), str(2**32), "1" * 4400]))


@settings(max_examples=500, deadline=None)
@given(st.lists(near_rows | st.text(max_size=20) | long_counts, max_size=8).map("\n".join),
       st.booleans())
def test_any_text_parses_or_raises_a_temponym_error(text, strict):
    """Never another exception; the bulk path agrees with the line loop."""
    bulk = named(_pyparse.merge_rows, text, strict)
    assert bulk == named(_pyparse._merge_lines, text, strict)
    parsed_or_error(ds.load_dataset, [(1990, text)], strict)


# Names holding what a field check could mistake for a separator, a sex or
# a count: non-ASCII letters, digits, spaces, the sex codes and "\r".
tricky_names = st.text(st.sampled_from("Fé7 \rM") | NAME_CHARS, min_size=2, max_size=15)


def no_line_loop(*args):
    raise AssertionError("the file was read line by line")


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_valid_files_without_a_blank_line_are_split_in_bulk(strict, data):
    """LF or CRLF, ending after the last row, a line ending or a lone \\r."""
    cells, text = data.draw(year_files(5 if strict else 0, tricky_names, max_blanks=0))
    assume(cells)  # a file without rows is one blank line
    with mock.patch.object(_pyparse, "_merge_lines", no_line_loop):
        (female, male), skipped, _ = named(_pyparse.merge_rows, text, strict)
    assert skipped == 0
    assert female == {name: f for name, (f, _) in cells.items() if f is not None}
    assert male == {name: m for name, (_, m) in cells.items() if m is not None}


# What turns a row into a line the grammar rejects, or into another row: a
# separator, a line ending, a sex, a digit or sign, a space, a lone
# surrogate, or nothing (an edit that only deletes).
EDITS = st.sampled_from([",", "\n", "\r", "\r\n", "F", "M", "Q", "7", "\u0663", "-", " ",
                         "Ab", "\ud800", ""])


@st.composite
def edited_files(draw):
    """A year file with up to three edits, each an ``EDITS`` piece put in
    place of zero to two characters."""
    _, text = draw(year_files(0, tricky_names))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(EDITS) + text[at + draw(st.integers(0, 2)):]
    return text


@THOROUGH
@given(edited_files(), st.booleans())
def test_the_bulk_path_accepts_only_what_the_grammar_accepts(text, strict):
    """Whenever the bulk checks pass, the whole file matches ``GRAMMAR`` and
    the line loop gives the same counts; either way ``merge_rows`` agrees
    with the line loop."""
    ids = _pyparse.KeyIds()
    rows = _pyparse._split(text, strict, ids)
    if rows is not None:
        assert _pyparse.GRAMMAR.fullmatch(text)
        loop_ids = _pyparse.KeyIds()
        assert _pyparse._merge_lines(text, strict, loop_ids) == (rows, 0)
        assert loop_ids == ids
    else:
        assert ids == {}  # a file the line loop must read adds no key
    bulk = named(_pyparse.merge_rows, text, strict)
    assert bulk == named(_pyparse._merge_lines, text, strict)


@settings(max_examples=300, deadline=None)
@given(edited_files(), st.booleans())
def test_a_year_file_is_read_as_stored(tmp_path_factory, text, strict):
    """A file's bytes give the table, or the error, that its text gives, but
    for one leading byte-order mark: reading it breaks no line at a lone \\r."""
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate: no UTF-8 file holds it
        assume(False)
    directory = tmp_path_factory.getbasetemp() / "read-as-stored"
    directory.mkdir(exist_ok=True)
    (directory / "yob1990.txt").write_bytes(data)
    expected = parsed_or_error(ds.load_dataset, [(1990, text.removeprefix("\ufeff"))], strict)
    assert parsed_or_error(ds.load_directory, directory, None, strict) == expected


def test_a_file_of_three_fields_per_row_but_not_per_line_is_read_line_by_line():
    """Split on both separators, these lines give the fields of two valid
    rows (Ab,F,12 and Cd,M,5); the line structure check refuses them."""
    text = "Ab,F,12,Cd\nM,5"
    assert _pyparse._split(text, True, _pyparse.KeyIds()) is None
    with pytest.raises(errors.MalformedLine, match="expected 3 fields") as caught:
        _pyparse.merge_rows(text, True, _pyparse.KeyIds())
    assert caught.value.lineno == 1
    assert named(_pyparse.merge_rows, text, False) == (({}, {}), 2, [])


# Files that fool a field check taken alone, each with the type and line of
# its first error: the fields line up as rows once joined or split on both
# separators, so only the check named fails.
NEAR_MISSES = [
    ("Ab,FM,12\nCd,M,5", errors.InvalidSex, 1),  # sex: the joined sexes "FMM" select 2 rows
    ("Ab,,12\nCd,FM,5", errors.InvalidSex, 1),  # sex: "" and "FM" join to two codes
    ("Ab,F,\nCd,M,5", errors.MalformedLine, 1),  # count: the joined digits are "5"
    ("Ab,F,12\nCd,M,", errors.MalformedLine, 2),
    ("Ab,F,12\nC,M,5", errors.MalformedLine, 2),  # name length
    ("Ab,F,12\r\r\nCd,M,5", errors.MalformedLine, 1),  # a second \r is no line ending
    ("Ab,F,12\n\rCd,M,5\n\n", None, None),  # a blank last line: valid, read line by line
    ("Ab,F,12\nCd,M,5\nAb,F,7", errors.DuplicateRow, 3),  # found after the ids are given
    ("Ab,F,12\nCd,m,5", errors.InvalidSex, 2),  # sex: only the last row's is bad
    ("Ab,F,12\nCd,F M,5", errors.InvalidSex, 2),
]


@pytest.mark.parametrize("text,error,lineno", NEAR_MISSES)
def test_near_misses_are_read_line_by_line(text, error, lineno):
    assert _pyparse._split(text, True, _pyparse.KeyIds()) is None
    assert named(_pyparse.merge_rows, text, False) == named(_pyparse._merge_lines, text, False)
    if error is None:
        assert named(_pyparse.merge_rows, text, True) == named(_pyparse._merge_lines, text, True)
        return
    with pytest.raises(error) as caught:
        _pyparse.merge_rows(text, True, _pyparse.KeyIds())
    assert caught.value.lineno == lineno


@pytest.mark.parametrize("text,error,lineno", NEAR_MISSES)
def test_a_file_the_bulk_path_refuses_adds_no_name(text, error, lineno):
    ids = _pyparse.KeyIds({"Zed,F": 0})
    assert _pyparse._split(text, False, ids) is None
    assert ids == {"Zed,F": 0}


def test_a_duplicate_row_takes_back_the_ids_of_the_new_keys():
    """The duplicate is found after the file's new keys got ids; refused,
    the map holds its keys and ids in their order, and the next new key
    gets the next id."""
    ids = _pyparse.KeyIds({"Zed,F": 0, "Ab,F": 1})
    text = "Cd,M,5\nAb,F,12\nEf,F,7\nAb,F,9"
    assert _pyparse._split(text, True, ids) is None
    assert list(ids.items()) == [("Zed,F", 0), ("Ab,F", 1)]
    assert _pyparse._split("Ef,F,7", True, ids) == ([2], [7])


# One bad line per rejection reason, with the error strict mode reports.
REJECTIONS = [
    ("Pat,F", errors.MalformedLine, "expected 3 fields"),
    ("Pat,F,10,1", errors.MalformedLine, "expected 3 fields"),
    ("Pat,Q,10", errors.InvalidSex, "sex code 'Q' is not F or M"),
    ("Pat,F,ten", errors.MalformedLine, "count is not ASCII digits"),
    ("Pat,F,-5", errors.MalformedLine, "negative count"),
    ("X,F,10", errors.MalformedLine, "name length outside 2..15"),
    ("Patricianna-Lee-Jo,F,10", errors.MalformedLine, "name length outside 2..15"),
    ("Pat,F,4", errors.FloorViolation, "count 4 below the publication floor of 5"),
    ("Dup,F,11", errors.DuplicateRow, "duplicate row for Dup,F"),  # line 1 is Dup,F,10
    # Counts int() takes but the grammar does not.
    ("Pat,F,+7", errors.MalformedLine, "count is not ASCII digits"),
    ("Pat,F, 7", errors.MalformedLine, "count is not ASCII digits"),
    ("Pat,F,1_000", errors.MalformedLine, "count is not ASCII digits"),
    ("Pat,F,\u0663\u0663", errors.MalformedLine, "count is not ASCII digits"),
]
other_names = row_names.filter(lambda name: name not in ("Dup", "Pat"))


@pytest.mark.parametrize("bad,error,reason", REJECTIONS, ids=[case[0] for case in REJECTIONS])
@settings(max_examples=25, deadline=None)
@given(year_files(5, other_names), st.data())
def test_each_rejection_names_its_line(bad, error, reason, year_file, data):
    _, text = year_file
    lines = ["Dup,F,10", *text.split("\n")]
    at = data.draw(st.integers(1, len(lines)))
    lines.insert(at, bad)
    with pytest.raises(error) as caught:
        _pyparse.merge_rows("\n".join(lines), True, _pyparse.KeyIds())
    assert caught.value.lineno == at + 1
    assert str(caught.value).startswith(f"line {at + 1}: ")
    assert reason in str(caught.value)
    # load_dataset keeps the type and the line, and names the year.
    with pytest.raises(error) as caught:
        ds.load_dataset([(1990, "\n".join(lines))])
    assert caught.value.lineno == at + 1
    assert str(caught.value).startswith(f"year 1990: line {at + 1}: ")
    # Lenient mode drops the line, but keeps a count below the floor.
    kept, skipped, _ = named(_pyparse.merge_rows, "\n".join(lines), False)
    del lines[at]
    (female, male), _, _ = named(_pyparse.merge_rows, "\n".join(lines), True)
    if error is errors.FloorViolation:
        assert (kept, skipped) == (({**female, "Pat": 4}, male), 0)
    else:
        assert (kept, skipped) == ((female, male), 1)


# SHA-256 of the index payload (names, spans, counts) of the bundled sample.
# The payload is hashed before compression, so the pin does not depend on
# the zlib build. It changed once, with index format 3, which drops byte
# planes that are all zero; the data did not change: the four-plane payload
# of format 2, rebuilt from a format-3 load, still hashes to the old pin,
# unchanged since the columnar index was introduced. Format 4 left the
# payload as it was; its header checksum covers the header too, so the test
# hashes the inflated payload itself. Format 5 deflates the name table and
# the columns as two streams; inflated and joined, they are the same payload.
# Format 6 deflates each section as a stream of its own, and its checksum
# covers the stored streams; the sections, inflated and joined, are still
# the same payload. Format 7 deflates each column's byte planes in blocks;
# inflated and joined in file order, they are still the same payload. Format
# 8 changes only the header's checksum, and format 9 only the header's
# digests.
SAMPLE_PAYLOAD_SHA256 = "b344f7805039d683d78b4c59ce06a0be355620b63073ede49f3c5b6a63e4dff1"
SAMPLE_V2_PAYLOAD_SHA256 = "7a0eaa025eeda934f513797abf5701b62cc1d6ec52a87a93e19deed826d63741"


def _v2_payload(data):
    """The format-2 payload: the name table, then each column in four byte planes."""
    sections = ["\n".join(data.names).encode()]
    for key in ("starts", "lengths", "female", "male"):
        column = array("I", getattr(data, key))
        if sys.byteorder == "big":
            column.byteswap()
        raw = column.tobytes()
        sections.append(b"".join(raw[plane::4] for plane in range(4)))
    return b"".join(sections)


def _stored_streams(raw):
    """(header, stored streams by section) of an index file's bytes: the names
    stream, then the blocks of each column."""
    header_line, payload = raw[len(ds.INDEX_MAGIC):].split(b"\n", 1)
    header, streams, at = json.loads(header_line), {}, 0
    for key, stored in header["stored"].items():
        streams[key] = []
        for length in [stored] if key == "names" else stored:
            streams[key].append(payload[at:at + length])
            at += length
    return header, streams


def test_sample_index_payload_is_pinned(tmp_path, sample_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(sample_dataset, path)
    header, streams = _stored_streams(path.read_bytes())
    payload = b"".join(zlib.decompress(block) for blocks in streams.values() for block in blocks)
    assert hashlib.sha256(payload).hexdigest() == SAMPLE_PAYLOAD_SHA256
    assert header["widths"] == {"starts": 1, "lengths": 1, "female": 3, "male": 2}
    loaded = ds.load_index(path)
    assert loaded == sample_dataset
    assert hashlib.sha256(_v2_payload(loaded)).hexdigest() == SAMPLE_V2_PAYLOAD_SHA256


# --- the index loader under damage ------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory, sample_dataset):
    """(header, stored streams by section, file bytes) of the bundled sample's index."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-sample.idx"
    ds.save_index(sample_dataset, path)
    raw = path.read_bytes()
    return (*_stored_streams(raw), raw)


def _edited(draw, data: bytes) -> bytes:
    """``data`` with one byte flipped, a run cut out, or bytes inserted."""
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["flip", "cut", "insert"] if at < len(data) else ["insert"]))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at] + data[at + draw(st.integers(1, 8)):]
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


def _resigned_header(draw, header):
    """``header`` with one field dropped or changed, to be signed again: an
    inner length, width or year near its own, or any JSON value."""
    header = json.loads(json.dumps(header))
    key = draw(st.sampled_from([key for key in header if key != "digest"] + ["extra"]))
    value = header.get(key)
    how = draw(st.sampled_from(["drop", "any", "near"]))
    if how == "drop":
        header.pop(key, None)
    elif how == "near" and isinstance(value, dict):
        inner = draw(st.sampled_from(list(value)))
        if isinstance(value[inner], list):  # a column's block lengths
            value, inner = value[inner], draw(st.integers(0, len(value[inner]) - 1))
        value[inner] = draw(st.integers(-1, 2 * value[inner] + 2))
    elif how == "near" and isinstance(value, list) and value:
        value[draw(st.integers(0, len(value) - 1))] = draw(st.integers(1870, 2110))
    else:
        header[key] = draw(json_values)
    return header


def _answers(table):
    """Ask ``table`` each kind of question, for a few of its names."""
    years = table.years_loaded
    for name in {*table.names[:2], *table.names[-2:], "Leslie", "leslie"}:
        _pooled_counts(table, name, ds.MIN_YEAR, ds.MAX_YEAR)
        table.sums(table.resolve(name), 0, 3, (1, 2, 3))
        _cell_list(table, table.resolve(name, fold_diacritics=True))
        for year in {*years[:1], *years[-1:]}:
            table.lookup(name, year)
            table.lookup(name, year, fold_diacritics=True)
    if years:
        list(table.year_pair_cells(years[0], years[-1]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["file", "header", "stream"]), st.data())
def test_a_damaged_index_is_refused_or_loads_a_table_that_answers(
        tmp_path_factory, sample_dataset, sample_index, where, data):
    """Bit flips, cuts and inserted bytes anywhere in the file either are
    refused or, in a whole load, load the sample itself; a re-signed edit of
    the header or of one stream, stored or inflated, is refused or loads a
    table that answers every kind of question. Nothing else is raised."""
    header, streams, raw = sample_index
    streams = {key: list(blocks) for key, blocks in streams.items()}
    if where == "file":
        raw = _edited(data.draw, raw)
    else:
        if where == "header":
            header = _resigned_header(data.draw, header)
        else:
            header = json.loads(json.dumps(header))
            key = data.draw(st.sampled_from(ds._SECTIONS))
            j = data.draw(st.integers(0, len(streams[key]) - 1))
            if data.draw(st.booleans()):  # the stored bytes themselves
                streams[key][j] = _edited(data.draw, streams[key][j])
            else:
                section = _edited(data.draw, zlib.decompress(streams[key][j]))
                streams[key][j] = zlib.compress(section)
                if data.draw(st.booleans()):
                    header["sections"][key] = len(section)
            if key == "names":
                header["stored"][key] = len(streams[key][0])
            else:
                header["stored"][key][j] = len(streams[key][j])
            header["digests"] = [ds._stream_digest(block)
                                 for blocks in streams.values() for block in blocks]
        header["digest"] = ds._header_digest(header)
        payload = b"".join(block for blocks in streams.values() for block in blocks)
        raw = ds.INDEX_MAGIC + json.dumps(header).encode() + b"\n" + payload
    path = tmp_path_factory.getbasetemp() / "fuzzed.idx"
    path.write_bytes(raw)
    # a whole load, and loads of one name, which inflate only the blocks
    # that hold its cells: each is refused or answers
    for names in (None, ["Leslie"], ["leslie"], [sample_dataset.names[-1]]):
        try:
            table = ds.load_index(path, names)
        except errors.IndexFormatError:
            continue
        if where == "file" and names is None:
            assert table == sample_dataset
        _answers(table)


# Spellings that share a casefold key (Lee/LEE, Straße/STRASSE), a
# diacritic-stripped key (Renée/Renee, Zoë/Zoe) or none (Ann, Bo).
SPELLINGS = ("Lee", "LEE", "lee", "Renée", "Renee", "RENÉE", "Zoë", "Zoe", "ZOË",
             "Straße", "STRASSE", "Ann", "Bo", "José")
FOLD_YEARS = (1990, 1991, 1993)


def _eager_order(names, name, fold):
    """The stored names that answer for ``name``, in the order the eager fold maps tried."""
    key = name.casefold()
    order = [name] if name in names else []
    order += [n for n in names if n.casefold() == key]
    if fold:
        stripped = ds.strip_diacritics(key)
        order += [n for n in names if ds.strip_diacritics(n.casefold()) == stripped]
    return list(dict.fromkeys(order))


def _eager_lookup(cells, names, name, year, fold):
    return next((cells[year][n] for n in _eager_order(names, name, fold) if n in cells[year]),
                None)


def _spelling_sources(stored, data):
    """One file per year of ``FOLD_YEARS``, each holding a random part of ``stored``'s rows."""
    return [(year, "\n".join(
        f"{name},{sex},{data.draw(st.integers(5, 99))}"
        for name in stored for sex in "FM" if data.draw(st.booleans()))) for year in FOLD_YEARS]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SPELLINGS), min_size=1, unique=True), st.data())
def test_folded_lookups_follow_the_eager_rule(stored, data):
    dataset = ds.load_dataset(_spelling_sources(stored, data))
    cells = {year: dataset.year_cells(year) for year in FOLD_YEARS}
    names = dataset.names
    for name in (*names, *SPELLINGS, "Zzyzx"):
        for fold in (False, True):
            expected = [_eager_lookup(cells, names, name, year, fold) or (0, 0)
                        for year in FOLD_YEARS]
            for year, cell in zip(FOLD_YEARS, expected):
                assert (dataset.lookup(name, year, fold_diacritics=fold) or (0, 0)) == cell
            assert dataset.years_loaded == FOLD_YEARS
            assert _cell_list(dataset, dataset.resolve(name, fold)) == (
                [f for f, _ in expected], [m for _, m in expected])
            assert _pooled_counts(dataset, name, 1990, 1993, fold_diacritics=fold) == (
                sum(f for f, _ in expected), sum(m for _, m in expected))


def _eager_probability(cells, names, name, years, fold, context):
    """The GenderProbability the eager rule gives over ``years``, or None without data."""
    found = [_eager_lookup(cells, names, name, year, fold) or (0, 0) for year in years]
    female, male = sum(f for f, _ in found), sum(m for _, m in found)
    if not female + male:
        return None
    return model.GenderProbability(name, context, female / (female + male), female, male)


def _eager_mixture(cells, names, name, dist):
    """``audit.temporal_p_female`` from the eager cells of each loaded year of
    ``dist``: the exact ratio sum(w * f) / sum(w * (f + m)), rounded once."""
    num = den = female = male = 0
    for year, weight in dist:
        f, m = year in cells and _eager_lookup(cells, names, name, year, False) or (0, 0)
        num, den = num + weight * f, den + weight * (f + m)
        female, male = female + f, male + m
    if not den:
        return None
    return model.GenderProbability(
        name, f"cohort mixture over birth years {dist[0][0]}..{dist[-1][0]}",
        float(Fraction(num, den)), female, male)


def _fraction_label(prob, policy):
    """The label of the exact count ratio, not of its rounded float: README's
    t95 labels 19 of 20 (and 95 of 100) births Female."""
    support = prob.female_count + prob.male_count
    if support < policy.min_support:
        return model.GenderLabel.UNKNOWN
    p = Fraction(prob.female_count, support)
    if p > Fraction(policy.threshold):
        return model.GenderLabel.FEMALE
    if p < 1 - Fraction(policy.threshold):
        return model.GenderLabel.MALE
    return model.GenderLabel.UNKNOWN


WINDOWS = [(1990, 0), (1991, 1), (1992, 0), (1992, 1), (1993, 2)]
POOLS = [(1990, 1993), (1991, 1991), (1992, 1992), (1880, 2020)]
DISTS = [[(1990, 1), (1991, 2), (1993, 1)], [(1991, 3), (1992, 7)], [(1993, 1)],
         [(1989, 2), (1990, 5), (1991, 1), (1992, 3)]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(SPELLINGS), min_size=1, unique=True), st.data())
def test_model_entry_points_follow_the_eager_rule(stored, data):
    """p(F), windowed, pooled, classify and the cohort mixture equal the eager cells' values.

    Each call runs once on a dataset whose fold map is not yet built, as a
    load leaves it, and once on one whose map is built; a context without
    eager data raises ``NoData``. The floats of the count ratios are
    compared exactly.
    """
    dataset = ds.load_dataset(_spelling_sources(stored, data))
    cells = {year: dataset.year_cells(year) for year in FOLD_YEARS}
    names = dataset.names

    def cold_then_warm():
        """Yield with no fold map, as a load leaves it, then with the map built."""
        object.__setattr__(dataset, "_groups", None)
        yield
        dataset._fold_groups()
        yield

    def check(expected, call, *args):
        for _ in cold_then_warm():
            if expected is None:
                with pytest.raises(errors.NoData):
                    call(dataset, *args)
            else:
                got = call(dataset, *args)
                assert got == expected and type(got) is model.GenderProbability

    for name in (*names, *SPELLINGS, "Zzyzx"):
        for fold in (False, True):
            for year in FOLD_YEARS:
                expected = _eager_probability(cells, names, name, [year], fold, str(year))
                check(expected, model.p_female, name, year, fold)
                for policy in (model.MAJORITY, model.T95):
                    label = None if expected is None else _fraction_label(expected, policy)
                    for _ in cold_then_warm():
                        if label is None:
                            with pytest.raises(errors.NoData):
                                model.classify(model.p_female(dataset, name, year, fold), policy)
                        else:
                            assert model.classify(
                                model.p_female(dataset, name, year, fold), policy) is label
            for center, half in WINDOWS:
                lo, hi = center - half, center + half
                years = [year for year in FOLD_YEARS if lo <= year <= hi]
                context = f"{lo}..{hi} (window around {center})"
                check(_eager_probability(cells, names, name, years, fold, context),
                      model.p_female_windowed, name, center, half, fold)
            for first, last in POOLS:
                years = [year for year in FOLD_YEARS if first <= year <= last]
                check(_eager_probability(cells, names, name, years, fold,
                                         f"pooled {first}..{last}"),
                      model.p_female_pooled, name, (first, last), fold)
        for dist in DISTS:
            check(_eager_mixture(cells, names, name, dist), audit.temporal_p_female, name, dist)


# --- loads of some names ---------------------------------------------------

@pytest.fixture(scope="module")
def subset_index(tmp_path_factory):
    """(table, its index, the names whose cells cross a block edge): the
    SPELLINGS, which share folded keys, and 436 other names over 200 of the
    years 1880..2100. Its count columns hold more than one block of 65,536
    values each, the female one three bytes wide; a span may be empty, and a
    cell inside a span or at its ends may hold no data."""
    rng = random.Random(42)
    years = sorted(rng.sample(range(1880, 2101), 200))
    names = sorted(SPELLINGS + tuple(f"N{i:03d}" for i in range(436)))
    starts = [rng.randrange(40) for _ in names]
    lengths = [0 if i % 50 == 7 else max(0, 200 - start - rng.randrange(40))
               for i, start in enumerate(starts)]
    cells = sum(lengths)
    empty = [rng.random() < 0.1 for _ in range(cells)]
    female = [0 if no or rng.random() < 0.2 else rng.randrange(1, 2**24) for no in empty]
    male = [0 if no or rng.random() < 0.2 else rng.randrange(1, 2**16) for no in empty]
    table = ds.Dataset(years, names, array("I", starts), array("I", lengths),
                       array("I", female), array("I", male))
    path = tmp_path_factory.mktemp("subset") / "subset.idx"
    ds.save_index(table, path)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header["widths"]["female"] == 3 and cells > 65536
    edge = tuple(name for name, first, last in zip(names, table._offsets, table._offsets[1:])
                 if first < 65536 < last)
    assert edge
    return table, path, edge


def _counts(table, name, year):
    """The stored ``name``'s own (female, male) in ``year``, read in place."""
    pos = table.years_loaded.index(year)
    return tuple(table.sums((table.names.index(name),), pos, pos + 1)[2:])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_load_of_some_names_answers_as_the_whole_table(subset_index, data):
    """Every ``lookup``, ``sums`` and ``year_pair_cells`` answer of a load of
    some names, for the names it keeps, is the whole table's, in every
    loaded year, and a year not loaded is refused as the whole table
    refuses it."""
    whole, path, edge = subset_index
    pool = (st.sampled_from(SPELLINGS + edge + ("n001", "RENEE", "zoe", "Zzyzx"))
            | st.sampled_from(whole.names))
    names = data.draw(st.lists(pool, max_size=6))
    table = ds.load_index(path, names)
    years = whole.years_loaded
    assert table.years_loaded == years
    unloaded = data.draw(st.lists(st.integers(1870, 2110).filter(lambda y: y not in years),
                                  max_size=2))
    keys = set(ds._folded_keys(names))
    stored = [name for name, key in zip(whole.names, ds._folded_keys(whole.names))
              if key in keys]
    assert table.names == tuple(stored)
    for name in names:
        for fold in (False, True):
            for year in years:
                assert table.lookup(name, year, fold) == whole.lookup(name, year, fold)
            for year in unloaded:
                with pytest.raises(errors.YearNotLoaded, match=f"year {year} "):
                    table.lookup(name, year, fold)
            ids, whole_ids = table.resolve(name, fold), whole.resolve(name, fold)
            weights = data.draw(st.lists(st.integers(0, 9), min_size=len(years),
                                         max_size=len(years)))
            expected = [0, 0, 0, 0]
            for pos, weight in enumerate(weights):
                one = whole.sums(whole_ids, pos, pos + 1)
                assert table.sums(ids, pos, pos + 1) == one
                f, m = one[2:]
                expected = [a + b for a, b in zip(expected, (weight * f, weight * (f + m), f, m))]
            assert list(table.sums(ids, 0, len(years), weights)) == expected
    # y1 == y2 and y1 > y2 among them, and a year not loaded on either side
    pairs = [(y1, y2) for y1 in years[:3] for y2 in years[:3]]
    pairs += [pair for y in unloaded for pair in ((y, y), (y, years[0]), (years[-1], y))]
    for y1, y2 in pairs:
        try:
            expected = [row for row in whole.year_pair_cells(y1, y2) if row[0] in stored]
        except errors.YearNotLoaded as refused:
            with pytest.raises(errors.YearNotLoaded, match=str(refused)):
                table.year_pair_cells(y1, y2)
            continue
        assert list(table.year_pair_cells(y1, y2)) == expected


def test_a_load_of_every_name_or_no_name(subset_index):
    whole, path, _ = subset_index
    assert ds.load_index(path, whole.names) == whole  # every name: as a whole load
    year = whole.years_loaded[5]
    none = ds.load_index(path, [])
    assert (none.names, none.years_loaded, len(none.female)) == ((), whole.years_loaded, 0)
    assert none.lookup("Lee", year) is None
    assert list(none.year_pair_cells(year, year)) == []


# Corpus names: stored spellings, case variants, names reachable only by
# folding diacritics (which the audit does not do) and an unknown name.
AUDIT_NAMES = SPELLINGS + ("renee", "ZOE", "Zzyzx")
COHORT_KINDS = ("triangular-window", "uniform-window", "fixed-offset")


@st.composite
def audit_cases(draw):
    """A table with year gaps, and a corpus over it with a cohort model and a
    pooled range; activity years reach windows before, across and past the
    loaded years."""
    years = draw(st.lists(st.integers(1900, 1911), min_size=1, max_size=10, unique=True))
    stored = draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, unique=True))
    # each name's years of use, so that spans start and end apart
    used = {name: sorted(draw(st.lists(st.integers(1900, 1911), min_size=2, max_size=2)))
            for name in stored}
    data = ds.load_dataset([(year, "\n".join(
        f"{name},{sex},{draw(st.integers(5, 99))}"
        for name in stored if used[name][0] <= year <= used[name][1]
        for sex in "FM" if draw(st.booleans()))) for year in years])
    kind = draw(st.sampled_from(COHORT_KINDS))
    half_width = 0 if kind == "fixed-offset" else draw(st.integers(0, 5))
    offset = draw(st.integers(0, 30))
    cohort = audit.CohortModel(kind, offset, half_width)
    first, last = sorted(draw(st.lists(st.integers(1895, 1915), min_size=2, max_size=2)))
    records = [audit.CorpusRecord(f"a{i % 5}:{i}", name, year, gender)
               for i, (name, year, gender) in enumerate(draw(st.lists(st.tuples(
                   st.sampled_from(stored) | st.sampled_from(AUDIT_NAMES),
                   st.integers(1896 + offset, 1915 + offset),
                   st.sampled_from(["F", "M", "U", None])), max_size=30)))]
    return data, records, cohort, (first, last)


@settings(max_examples=150, deadline=None)
@given(audit_cases())
def test_audit_and_evaluate_known_equal_the_per_record_reference(case):
    """``audit_corpus`` rows are the ``fsum`` of the per-record reference
    pairs (``_reference_pair``), decade by decade, and ``evaluate_known``
    labels each record as its reference pair does. 150 cases."""
    from test_audit import _expected_confusion, _expected_rows

    data, records, cohort, atemporal_range = case
    assert audit.audit_corpus(records, data, cohort, atemporal_range) == _expected_rows(
        data, records, cohort, atemporal_range)
    if all(r.known_gender is None for r in records):
        with pytest.raises(errors.EmptyInput):
            audit.evaluate_known(records, data, cohort)
    else:
        assert audit.evaluate_known(records, data, cohort)["confusion"] == (
            _expected_confusion(data, records, cohort))


@settings(max_examples=150, deadline=None)
@given(audit_cases())
def test_temporal_p_female_gives_one_answer_for_a_distribution_in_any_form(case):
    """``temporal_p_female`` of ``infer_birth_distribution``'s result, which it
    reads unchecked, of the same pairs as a list of lists and of an iterator
    over them: one ``GenderProbability``, its p(F) the same float bit for
    bit, or one ``NoData``. 150 cases."""
    data, records, cohort, _ = case
    for record in records:
        try:
            dist = audit.infer_birth_distribution(record.activity_year, cohort, data)
        except errors.EmptySupport:
            continue
        outcomes = []
        for pairs in (dist, [list(pair) for pair in dist], iter(dist)):
            try:
                prob = audit.temporal_p_female(data, record.given_name, pairs)
            except errors.NoData as caught:
                outcomes.append(("NoData", caught.args))
            else:
                assert type(prob) is model.GenderProbability
                outcomes.append((*prob, prob.p_female.hex()))
        assert outcomes[0] == outcomes[1] == outcomes[2], (record, dist)


# Each command's --config section path with its option keys. Only ingest
# writes a file, and it is never run.
CONFIG_SECTIONS = {
    ("ingest",): ("dir", "years", "strict", "lenient", "out"),
    ("query",): ("index", "dir", "name", "year", "window", "pooled", "policy",
                 "fold-diacritics", "format"),
    ("shift",): ("index", "dir", "y1", "y2", "weighted", "top", "min-support", "min-delta",
                 "format"),
    ("ambiguity",): ("index", "dir", "year", "format"),
    ("audit",): ("index", "dir", "corpus", "cohort", "atemporal", "format"),
    ("compare",): ("index", "dir", "names", "names-file", "ssa-year", "services",
                   "fixture-file", "cache-dir", "format"),
    ("plot", "trajectories"): ("index", "dir", "names", "top-shifts", "years", "y1", "y2",
                               "format"),
    ("plot", "bubbles"): ("corpus", "reference", "format"),
}
READ_ONLY_COMMANDS = sorted(path for path in CONFIG_SECTIONS if path != ("ingest",))
# The options that a command's own section always sets, so that it runs.
REQUIRED_KEYS = {("query",): ("name", "year"), ("ambiguity",): ("year",),
                 ("compare",): ("names",), ("plot", "trajectories"): ("names",)}
# Values of each option. Most are accepted; some name a missing file, a
# year not loaded or an unknown service. A run's own directory is its working
# directory and holds config.json and names.txt; no value a path option can
# get holds "/" or "..", so a path names a file there.
OPTION_VALUES = {
    "index": ["config.json", "missing.idx", ".", None], "dir": [".", "names.txt", None, None],
    "name": ["Leslie", "leslie", "LÉE", "Zzyzx"], "names": ["Leslie,Jean", "Zzyzx", " , "],
    "year": [1925, "1950", 1776], "y1": [1925, 1776], "y2": [2000, "1950"],
    "ssa-year": [1925, 1776], "window": [0, 3, 10**10], "pooled": ["1880..2020", "1925..1925"],
    "policy": ["majority", "t95"], "format": ["json", "csv"], "top": [0, 3, 10**10],
    "min-support": [0, 50], "min-delta": [0, 20.5], "top-shifts": [0, 3],
    "fold-diacritics": [True, False], "weighted": [True, False],
    "corpus": ["names.txt", "missing.csv"], "cohort": ["fixed:35", "triangular:35:10"],
    "atemporal": ["1880..2020", "1990..1990"], "names-file": ["names.txt", "config.json"],
    "services": ["fixtures", "bogus"], "fixture-file": ["names.txt", "missing.csv"],
    "cache-dir": ["cache"], "years": ["1925..1930", "1925,1950"], "reference": [0.5, 1],
    "strict": [True], "lenient": [False], "out": ["x.idx"],
}

# Any JSON value. No text holds "/" or ".", and none is long enough to
# start "genderize-live:", so compare calls no live service.
config_text = st.text(st.characters(blacklist_characters="/\\."), max_size=8)
config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**4, 10**10) | st.floats() | config_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(config_text, inner, max_size=3),
    max_leaves=6)


@st.composite
def config_runs(draw):
    """A read-only command, and a --config object with a section of accepted
    values for it and for up to three other commands, and up to two faults:
    a value of any JSON type, an unknown key, a section or the plot group
    that is not an object, or an unknown section."""
    command = draw(st.sampled_from(READ_ONLY_COMMANDS))
    paths = draw(st.lists(st.sampled_from(list(CONFIG_SECTIONS)), unique=True, max_size=3))
    sections = {}
    for path in dict.fromkeys([command, *paths]):
        required = REQUIRED_KEYS.get(path, ()) if path == command else ()
        values = {key: st.sampled_from(OPTION_VALUES[key]) for key in CONFIG_SECTIONS[path]}
        sections[path] = draw(st.fixed_dictionaries(
            {key: values.pop(key) for key in required}, optional=values))
    top = {}
    for fault in draw(st.lists(st.sampled_from(["value", "key", "section", "plot", "top"]),
                               max_size=2)):
        path = draw(st.sampled_from(list(sections)))
        section = sections[path] if isinstance(sections[path], dict) else {}
        if fault == "value":
            key = draw(st.sampled_from(CONFIG_SECTIONS[path]))
            sections[path] = {**section, key: draw(config_values)}
        elif fault == "key":
            sections[path] = {**section, draw(config_text): draw(config_values)}
        elif fault == "section":
            sections[path] = draw(config_values)
        elif fault == "plot":
            top["plot"] = draw(config_values)
        else:
            top[draw(config_text)] = draw(config_values)
    config = {}
    for path, section in sections.items():
        if len(path) == 1:
            config[path[0]] = section
        else:
            config.setdefault(path[0], {})[path[1]] = section
    return command, {**config, **top}


@settings(max_examples=150, deadline=None)
@given(config_runs())
def test_any_config_ends_in_a_documented_exit(tmp_path_factory, run):
    """A read-only command under any --config JSON object on the bundled sample.

    It exits 0, 2 (usage) or 3 (data), or 4 where audit and compare report a
    partial result; never with another exception. 150 cases.
    """
    command, config = run
    directory = tmp_path_factory.mktemp("config")
    (directory / "config.json").write_text(json.dumps(config))
    (directory / "names.txt").write_text("Leslie\nJean\n")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as ended:
            main(["--config", "config.json", *command], prog_name="temponym")
    finally:
        os.chdir(cwd)
    partial = {4} if command[0] in ("audit", "compare") else set()
    assert ended.value.code in {0, 2, 3} | partial


# --- live service responses -------------------------------------------------

LIVE = services.ServiceConfig("genderize", endpoint_url="http://example.invalid")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)
# Bodies near a genderize.io answer, any JSON value, or ValueError: a body
# whose ``.json()`` raises it.
live_bodies = st.fixed_dictionaries({}, optional={
    "gender": st.sampled_from(["female", "male"]) | json_values,
    "probability": st.none() | st.floats(0, 1) | json_values,
    "count": st.none() | st.integers(0, 10**6) | json_values,
}) | json_values | st.just(ValueError)
http_dates = st.datetimes().map(
    lambda when: email.utils.format_datetime(when.replace(tzinfo=datetime.timezone.utc),
                                             usegmt=True))
retry_afters = (st.none() | st.from_regex(r"[0-9]{1,6}", fullmatch=True) | http_dates
                | st.sampled_from(["0", "99", "10000", str(2**63), "9" * 30]).map(
                    "Mon, 1 Jan {} 00:00:00 GMT".format)
                | st.text(max_size=12) | st.just("9" * 5000))
live_responses = st.tuples(st.sampled_from([200, 200, 401, 404, 429, 429, 500])
                           | st.integers(100, 599), retry_afters, live_bodies)


def _http_answer(status, retry_after, body):
    """The ``http_answer`` arguments of a drawn response; a ``ValueError``
    body is one that is not JSON."""
    return (status, b"" if body is ValueError else json.dumps(body).encode(),
            {} if retry_after is None else {"Retry-After": retry_after})


@settings(max_examples=300, deadline=None)
@given(st.lists(live_responses, min_size=2, max_size=2), st.booleans(), st.booleans())
def test_any_live_response_ends_as_a_prediction_or_a_temponym_error(
        tmp_path_factory, responses, cached, limited):
    """A live ``fetch_prediction`` with ``urllib.request.urlopen`` faked: any status,
    Retry-After header and body, with and without a cache and a limiter whose
    sleeps are only recorded. 300 cases."""
    replies = fake_urlopen([_http_answer(*response) for response in responses])
    sleeps = []
    limiter = None
    if limited:
        limiter = services.RateLimiter(1.0, clock=lambda: 0.0, sleep=sleeps.append)
    cache = services.PredictionCache(tmp_path_factory.mktemp("cache")) if cached else None
    with mock.patch.object(urllib.request, "urlopen", replies):
        try:
            prediction = services.fetch_prediction(LIVE, "Leslie", cache, limiter)
        except errors.TemponymError:
            return
        assert type(prediction) is services.ExternalPrediction
        assert services._is_prediction(prediction)
        assert all(0 <= seconds <= services.RETRY_AFTER_CAP_S for seconds in sleeps)
        if cache is not None:  # the second call is a hit: no third response is asked for
            assert services.fetch_prediction(LIVE, "Leslie", cache, limiter) == prediction
