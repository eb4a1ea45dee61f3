"""Property suites over randomized inputs (1,000 cases per property unless noted)."""
import hashlib
import json
import math
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temponym import _pyparse, audit, errors, model, shifts
from temponym import dataset as ds

THOROUGH = settings(max_examples=1000, deadline=None)

counts = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(
    lambda fm: fm[0] + fm[1] > 0
)


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
    forward = shifts.gender_shift(data, "Pat", 1925, 2000)
    backward = shifts.gender_shift(data, "Pat", 2000, 1925)
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


@THOROUGH
@given(
    st.integers(1900, 2020),
    st.sampled_from(["fixed-offset", "uniform-window", "triangular-window"]),
    st.integers(0, 60),
    st.integers(0, 15),
)
def test_cohort_weight_normalization(activity_year, kind, offset, half_width):
    cohort = audit.CohortModel(kind, offset, 0 if kind == "fixed-offset" else half_width)
    dist = audit.infer_birth_distribution(activity_year, cohort)
    weights = [w for _, w in dist]
    assert all(w >= 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0)


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
    for data in (built, loaded):
        assert data.years_loaded == tuple(sorted(per_year))
        for name in POOL:
            for year, rows in per_year.items():
                expected = rows.get(name, (0, 0))
                assert (data.lookup(name, year) or (0, 0)) == expected
            in_range = [rows.get(name, (0, 0)) for year, rows in per_year.items()
                        if lo <= year <= lo + width]
            assert data.totals(name, lo, lo + width) == (
                sum(f for f, _ in in_range), sum(m for _, m in in_range))
            window = [year for year in data.years_loaded if lo <= year <= lo + width]
            for years in (list(per_year), window, list(range(lo, lo + width + 1))):
                cells = [per_year.get(year, {}).get(name, (0, 0)) for year in years]
                assert data.name_counts(name, years) == (
                    [f for f, _ in cells], [m for _, m in cells])
        for y1, rows1 in per_year.items():
            for y2, rows2 in per_year.items():
                assert data.year_pair_cells(y1, y2) == [
                    (name, *rows1[name], *rows2[name]) for name in sorted(POOL)
                    if any(rows1.get(name, ())) and any(rows2.get(name, ()))]


# --- the SSA row parser -----------------------------------------------------

# Any character but "," and "\n" may be part of a name; lone surrogates are
# left out because an index stores names as UTF-8.
NAME_CHARS = st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",))
row_names = st.text(NAME_CHARS, min_size=2, max_size=15)


def render(rows, crlf, blanks, trailing):
    """A year file of ``(name, sex, count)`` rows, blank lines at ``blanks``."""
    lines = [f"{name},{sex},{count}" for name, sex, count in rows]
    for pos in sorted(blanks, reverse=True):
        lines.insert(pos, "")
    eol = "\r\n" if crlf else "\n"
    return eol.join(lines) + (eol if trailing else "")


@st.composite
def year_files(draw, floor, names=row_names):
    """(name -> (female or None, male or None), file text); None is no row."""
    count = st.none() | st.integers(floor, 2**32 - 1)
    cells = draw(st.dictionaries(
        names, st.tuples(count, count).filter(lambda fm: fm != (None, None)), max_size=6))
    rows = [(name, sex, c) for name, fm in cells.items()
            for sex, c in zip("FM", fm) if c is not None]
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return cells, render(rows, draw(st.booleans()), blanks, draw(st.booleans()))


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


# Text near the grammar: pieces of rows, signs, spaces, separators, a
# non-ASCII digit, and lines of arbitrary text.
near_rows = st.text(st.sampled_from("PatZé,,FMQ0123456789-+_ \r\n\u0663"), max_size=24)


def parsed_or_error(parse, *args):
    try:
        return parse(*args)
    except errors.TemponymError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(near_rows | st.text(max_size=20), max_size=8).map("\n".join), st.booleans())
def test_any_text_parses_or_raises_a_temponym_error(text, strict):
    """Never another exception; the bulk path agrees with the line loop."""
    bulk = parsed_or_error(_pyparse.merge_rows, text, strict)
    assert bulk == parsed_or_error(_pyparse._merge_lines, text, strict, {})
    parsed_or_error(ds.load_dataset, [(1990, text)], strict)


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
        _pyparse.merge_rows("\n".join(lines), strict=True)
    assert caught.value.lineno == at + 1
    assert str(caught.value).startswith(f"line {at + 1}: ")
    assert reason in str(caught.value)
    # load_dataset keeps the type and the line, and names the year.
    with pytest.raises(error) as caught:
        ds.load_dataset([(1990, "\n".join(lines))])
    assert caught.value.lineno == at + 1
    assert str(caught.value).startswith(f"year 1990: line {at + 1}: ")
    # Lenient mode drops the line, but keeps a count below the floor.
    kept = _pyparse.merge_rows("\n".join(lines), strict=False)
    del lines[at]
    (female, male), _ = _pyparse.merge_rows("\n".join(lines), strict=True)
    if error is errors.FloorViolation:
        assert kept == (({**female, "Pat": 4}, male), 0)
    else:
        assert kept == ((female, male), 1)


# SHA-256 of the index payload (names, spans, counts) of the bundled sample.
# The payload is hashed before compression, so the pin does not depend on
# the zlib build. It changed once, with index format 3, which drops byte
# planes that are all zero; the data did not change: the four-plane payload
# of format 2, rebuilt from a format-3 load, still hashes to the old pin,
# unchanged since the columnar index was introduced.
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


def test_sample_index_payload_is_pinned(tmp_path, sample_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(sample_dataset, path)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header["sha256"] == SAMPLE_PAYLOAD_SHA256
    assert header["widths"] == {"starts": 1, "lengths": 1, "female": 3, "male": 2}
    loaded = ds.load_index(path)
    assert loaded == sample_dataset
    assert hashlib.sha256(_v2_payload(loaded)).hexdigest() == SAMPLE_V2_PAYLOAD_SHA256


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SPELLINGS), min_size=1, unique=True), st.data())
def test_folded_lookups_follow_the_eager_rule(stored, data):
    sources = [(year, "\n".join(
        f"{name},{sex},{data.draw(st.integers(5, 99))}"
        for name in stored for sex in "FM" if data.draw(st.booleans()))) for year in FOLD_YEARS]
    dataset = ds.load_dataset(sources)
    cells = {year: dataset.year_cells(year) for year in FOLD_YEARS}
    names = dataset.names
    for name in (*names, *SPELLINGS, "Zzyzx"):
        for fold in (False, True):
            expected = [_eager_lookup(cells, names, name, year, fold) or (0, 0)
                        for year in FOLD_YEARS]
            for year, cell in zip(FOLD_YEARS, expected):
                assert (dataset.lookup(name, year, fold_diacritics=fold) or (0, 0)) == cell
            assert dataset.name_counts(name, FOLD_YEARS, fold_diacritics=fold) == (
                [f for f, _ in expected], [m for _, m in expected])
            assert dataset.totals(name, 1990, 1993, fold_diacritics=fold) == (
                sum(f for f, _ in expected), sum(m for _, m in expected))
