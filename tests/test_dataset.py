import copy
import csv
import datetime
import errno
import hashlib
import io
import json
import os
import random
import re
import sys
import threading
import time
import tracemalloc
import zlib
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest

from temponym import audit, errors, model
from temponym import dataset as ds


def _pooled_counts(data, name, first_year, last_year, fold_diacritics=False):
    """``name``'s (female, male) summed over the loaded years in
    ``first_year..last_year``, as pooled p(F) sums them."""
    return data.sums(data.resolve(name, fold_diacritics),
                     *data.year_span(first_year, last_year))[2:]


def test_merges_f_and_m_rows():
    data = ds.parse_year_file("Abigail,F,13088\nAbigail,M,16", 2000)
    assert data.lookup("Abigail", 2000) == (13088, 16)
    assert sum(data.female) + sum(data.male) == 13104


def test_empty_input_gives_empty_table():
    data = ds.parse_year_file("", 2000)
    assert data.years_loaded == (2000,)
    assert data.year_cells(2000) == {}
    assert sum(data.female) + sum(data.male) == 0
    for name in ("", "Ann"):  # no name to resolve to, not even the empty one
        assert data.lookup(name, 2000, fold_diacritics=True) is None
        assert _pooled_counts(data, name, 2000, 2000) == (0, 0)


def test_invalid_sex_rejected_in_strict_mode():
    with pytest.raises(errors.InvalidSex):
        ds.parse_year_file("Pat,Q,12", 1950, strict=True)


def test_count_floor_enforced_in_strict_mode():
    with pytest.raises(errors.FloorViolation):
        ds.parse_year_file("Pat,F,4", 1950, strict=True)


def test_duplicate_row_rejected():
    with pytest.raises(errors.DuplicateRow):
        ds.parse_year_file("Pat,F,10\nPat,F,11", 1950)


def test_malformed_line_rejected():
    with pytest.raises(errors.MalformedLine):
        ds.parse_year_file("Pat,F", 1950)
    with pytest.raises(errors.MalformedLine):
        ds.parse_year_file("Pat,F,ten", 1950)
    with pytest.raises(errors.MalformedLine):
        ds.parse_year_file("X,F,10", 1950)  # single-char name


def test_lenient_mode_skips_and_tallies():
    content = "Pat,F,10\nbroken line\nPat,Q,9\nSam,M,8\nTiny,F,2\n"
    data = ds.parse_year_file(content, 1950, strict=False)
    assert data.year_cells(1950) == {"Pat": (10, 0), "Sam": (0, 8), "Tiny": (2, 0)}
    assert data.skipped == (2,)  # the floor applies only in strict mode


def test_year_bounds_checked():
    with pytest.raises(errors.TemponymError):
        ds.parse_year_file("Pat,F,10", 1776)


def test_load_dataset_years_sorted():
    sources = [(year, "Pat,F,10\n") for year in (1975, 1900, 2000, 1925, 1950)]
    data = ds.load_dataset(sources)
    assert data.years_loaded == (1900, 1925, 1950, 1975, 2000)


def test_load_dataset_empty():
    data = ds.load_dataset([])
    assert data.years_loaded == ()


def test_duplicate_year_rejected():
    with pytest.raises(errors.DuplicateYear):
        ds.load_dataset([(1925, "Pat,F,10"), (1925, "Sam,M,9")])


def test_parse_error_identifies_year():
    with pytest.raises(errors.MalformedLine, match="^year 1925: line 1: "):
        ds.load_dataset([(1925, "garbage"), (1950, "Pat,F,10")])


def test_load_order_independence():
    sources = [(1900, "Pat,F,10\nSam,M,20"), (1950, "Pat,F,30"), (2000, "Ann,F,40")]
    forward = ds.load_dataset(sources)
    backward = ds.load_dataset(list(reversed(sources)))
    assert forward == backward


def test_load_directory_reads_only_yob_files(tmp_path):
    """Only a whole ``yobYYYY.txt`` name, with ASCII digits, is a year file."""
    (tmp_path / "yob1925.txt").write_text("Pat,F,10\n")
    for name in ("old_yob1925.txt", "yob1925.txt.bak", "yob\u0661\u0669\u0662\u0665.txt"):
        (tmp_path / name).write_text("Sam,M,20\n")
    data = ds.load_directory(tmp_path)
    assert data.years_loaded == (1925,)
    assert data.names == ("Pat",)


def test_load_directory_without_yob_files_is_a_data_error(tmp_path):
    (tmp_path / "old_yob1925.txt").write_text("Pat,F,10\n")
    with pytest.raises(errors.TemponymError, match="no yobYYYY.txt file$"):
        ds.load_directory(tmp_path)


def test_a_year_range_of_any_width_is_not_copied():
    """The sample's 141 years out of two million wanted: a copy of the range
    as a set took ~140 MB."""
    tracemalloc.start()
    try:
        data = ds.load_directory(ds.bundled_sample_dir(), years=range(1, 2_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data.years_loaded) == 141
    assert peak < 20_000_000, peak


def test_no_file_of_a_year_range_names_its_bounds(tmp_path):
    (tmp_path / "yob1925.txt").write_text("Pat,F,10\n")
    with pytest.raises(errors.TemponymError, match="file for years 2000..1999999$"):
        ds.load_directory(tmp_path, years=range(2000, 2_000_000))


def test_year_file_byte_order_mark_is_dropped(tmp_path):
    rows = b"Mary,F,7065\nJohn,M,9655\n"
    for directory, data in (("plain", rows), ("bom", b"\xef\xbb\xbf" + rows)):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "yob1880.txt").write_bytes(data)
    with_bom = ds.load_directory(tmp_path / "bom")
    assert with_bom == ds.load_directory(tmp_path / "plain")
    assert with_bom.names == ("John", "Mary")
    assert with_bom.lookup("Mary", 1880) == (7065, 0)


def _dict_reader_rows(path, columns, what):
    """``read_csv`` as it read with ``csv.DictReader``, for reference."""
    reader = csv.DictReader(io.StringIO(ds.read_text(path), newline=""))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise errors.ConfigError(f"{path}: {what} CSV has no {', '.join(missing)} column")
    for row in reader:
        if any(row[column] is None for column in columns):
            raise errors.ConfigError(
                f"{path}: line {reader.line_num} has fewer than {len(columns)} fields")
        row.pop(None, None)  # the fields past the header's end
        yield reader.line_num, row


@pytest.mark.parametrize("text", [
    "", "\n", "a,b\n", "b\n1\n", "a,b\n1,2\n\n3,4\r\n", "a,b\n1\n", "\na,b\n1,2\n",
    "a,b,a\n1,2,3\n4,5\n", "a,x,a,b\n1,2\n", "a,b,c\n1,2\n", "a,b\n1,2,3,4\n",
    'a,b\n"1\n1",2\n3\n', "\ufeffa,b\r\n1,2\r\n", "a,b\n,\n ,\n",
], ids=["empty", "blank", "header-only", "no-a", "blank-lines", "short", "blank-header",
        "duplicate-field", "duplicate-short", "short-optional", "long", "quoted-newline", "bom",
        "empty-fields"])
def test_read_csv_rows_equal_dict_reader_rows(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def rows(read):
        try:
            return list(read(path, ("a", "b"), "test"))
        except errors.ConfigError as exc:
            return str(exc)

    assert rows(ds.read_csv) == rows(_dict_reader_rows)


def test_1917_includes_boys_named_sue(sample_dataset):
    assert sample_dataset.year_cells(1917)["Sue"] == (1200, 7)


def test_lookup_is_case_insensitive(sample_dataset):
    assert sample_dataset.lookup("leslie", 1925) == (839, 9161)
    assert sample_dataset.lookup("LESLIE", 1925) == (839, 9161)


def test_diacritic_folding_is_opt_in():
    data = ds.parse_year_file("Renee,F,100", 1990)
    assert data.lookup("Renée", 1990) is None
    assert data.lookup("Renée", 1990, fold_diacritics=True) == (100, 0)


def test_tables_are_immutable(sample_dataset):
    cells = sample_dataset.year_cells(1925)
    cells["Leslie"] = (0, 0)
    assert sample_dataset.lookup("Leslie", 1925) == (839, 9161)
    assert sample_dataset.year_cells(1925)["Leslie"] == (839, 9161)
    names = sample_dataset.names
    with pytest.raises(AttributeError):  # FrozenInstanceError is one
        sample_dataset.names = ()
    assert sample_dataset.names is names


@pytest.mark.parametrize("column", ["starts", "lengths", "female", "male"])
def test_dataset_columns_are_read_only(sample_dataset, column):
    with pytest.raises(TypeError):
        getattr(sample_dataset, column)[0] = 0


def test_folded_lookups_in_a_parsed_year():
    data = ds.parse_year_file("Renée,F,100\nJean,M,9", 1990)
    assert data.lookup("renée", 1990) == (100, 0)
    assert data.lookup("JEAN", 1990) == (0, 9)
    assert data.lookup("Renee", 1990, fold_diacritics=True) == (100, 0)


def test_index_round_trip(tmp_path, quarter_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(quarter_dataset, path)
    loaded = ds.load_index(path)
    assert loaded.years_loaded == quarter_dataset.years_loaded
    for year in loaded.years_loaded:
        assert loaded.year_cells(year) == quarter_dataset.year_cells(year)


def test_index_rejects_corruption(tmp_path, quarter_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(quarter_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.TemponymError):
        ds.load_index(path)


def test_index_rejects_foreign_file(tmp_path):
    path = tmp_path / "nope.idx"
    path.write_bytes(b"something else entirely")
    with pytest.raises(errors.IndexFormatError):
        ds.load_index(path)


def test_plain_lookup_does_not_fold_diacritics():
    data = ds.load_dataset([(1990, "Renée,F,100")])
    assert data.lookup("Renee", 1990) is None
    assert data.lookup("RENÉE", 1990) == (100, 0)
    assert data.lookup("Renee", 1990, fold_diacritics=True) == (100, 0)


def test_shared_folded_key_answers_from_the_name_with_data():
    data = ds.load_dataset([(1990, "Lee,F,10"), (1991, "LEE,M,20")])
    assert data.lookup("lee", 1990) == (10, 0)
    assert data.lookup("lee", 1991) == (0, 20)
    assert data.lookup("Lee", 1991) == (0, 20)
    assert _pooled_counts(data, "lee", 1990, 1991) == (10, 20)


def test_totals_refuses_a_reversed_range():
    data = ds.load_dataset([(1990, "Lee,F,10"), (1991, "Lee,M,20")])
    assert _pooled_counts(data, "Lee", 1991, 1991) == (0, 20)
    assert _pooled_counts(data, "Lee", 1991, 2000) == (0, 20)
    with pytest.raises(errors.TemponymError, match=re.escape("pooled years (1991, 1990)")):
        _pooled_counts(data, "Lee", 1991, 1990)


def _counts_by_lookup(data, name, years, fold=False):
    """Per-year ``lookup``, with (0, 0) for no data and for a year not loaded."""
    cells = [(data.has_year(year) and data.lookup(name, year, fold_diacritics=fold)) or (0, 0)
             for year in years]
    return [f for f, _ in cells], [m for _, m in cells]


def _cell_list(data, ids):
    """The female and male counts ``sums`` reads for ``ids`` at each loaded
    position, one one-position ``sums`` each."""
    cells = [data.sums(ids, pos, pos + 1)[2:] for pos in range(len(data.years_loaded))]
    return [f for f, _ in cells], [m for _, m in cells]


NAME_QUERIES = ("Ann", "ann", "Bo", "BO", "Cy", "Dee", "Lee", "lee", "LEE", "lEe",
                "Renee", "renée", "RENEE", "Zoe", "ZOË", "Zzyzx")


def test_pooled_sums_equal_lookup_per_year(sparse_dataset):
    data = sparse_dataset
    loaded = data.years_loaded
    assert 1905 not in loaded and 1941 not in loaded
    spans = [(loaded[lo], loaded[min(lo + n, len(loaded)) - 1])
             for n in (1, 2, 5, 11, 21) for lo in range(len(loaded))]
    spans += [
        (1899, 1899), (1905, 1905),  # no year loaded
        (1900, 1960),  # every year, loaded or not
        (1930, 1950),  # a cohort window across the 1941-1949 gap
        (1900, 1906),  # consecutive positions around unloaded years
    ]
    for name in NAME_QUERIES:
        for fold in (False, True):
            for first, last in spans:
                female, male = _counts_by_lookup(data, name, range(first, last + 1), fold)
                assert _pooled_counts(data, name, first, last, fold) == (sum(female), sum(male))


def test_lookup_of_shared_keys_and_diacritics():
    data = ds.load_dataset([
        (1990, "Lee,F,10\nRenée,F,100\nAnn,F,7"),
        (1991, "LEE,M,20\nRenee,M,30\nlee,F,5"),
        (1993, "lee,M,6\nAnn,M,8"),
    ])
    assert _counts_by_lookup(data, "lee", [1990, 1991, 1992, 1993]) == (
        [10, 5, 0, 0], [0, 0, 0, 6])
    assert _counts_by_lookup(data, "LeE", [1990, 1991, 1993]) == ([10, 0, 0], [0, 20, 6])
    assert _counts_by_lookup(data, "Renee", [1990, 1991]) == ([0, 0], [0, 30])
    assert _counts_by_lookup(data, "Renee", [1990, 1991], fold=True) == ([100, 0], [0, 30])
    assert _counts_by_lookup(data, "Ann", [1990, 1991, 1993]) == ([7, 0, 0], [0, 0, 8])
    # the same per-year counts, read by ``sums`` one position at a time
    assert _cell_list(data, data.resolve("LeE")) == ([10, 0, 0], [0, 20, 6])
    assert _cell_list(data, data.resolve("Renee", fold_diacritics=True)) == (
        [100, 0, 0], [0, 30, 0])


def test_cells_of_one_stored_name_are_the_cells_lookup_reads(sparse_dataset):
    distinct = ds.load_dataset([(1990, "Ann,F,7\nBo,M,9"), (1991, "Bo,F,6"), (1993, "Ann,M,8")])
    for data in (sparse_dataset, distinct):
        for name in NAME_QUERIES:
            for fold in (False, True):
                ids = data.resolve(name, fold_diacritics=fold)
                if len(ids) != 1:
                    continue
                female, male = _cell_list(data, ids)
                for pos, year in enumerate(data.years_loaded):
                    cell = data.lookup(name, year, fold_diacritics=fold)
                    assert (female[pos], male[pos]) == (cell or (0, 0))
    # Ann's span is positions 0 to 2 from cell 0, Bo's 0 to 1 from cell 3;
    # the weights 1, 2, 3 tell each position's count from the others
    ann, bo = distinct.resolve("Ann"), distinct.resolve("Bo")
    assert list(ann) == [0] and list(bo) == [1]

    def weighted(female, male):
        num = sum(w * f for w, f in zip((1, 2, 3), female))
        return num, num + sum(w * m for w, m in zip((1, 2, 3), male)), sum(female), sum(male)

    assert [distinct.sums(ids, 0, 3, (1, 2, 3)) for ids in (ann, bo)] == [
        weighted(distinct.female[0:3], distinct.male[0:3]),
        weighted(distinct.female[3:5], distinct.male[3:5])]


def test_resolve_of_one_stored_name():
    data = ds.load_dataset([(1990, "Ann,F,7\nZoë,F,9"), (1991, "Zoë,M,5"), (1993, "Ann,M,8")])
    assert list(data.resolve("Ann")) == [0]
    assert _cell_list(data, data.resolve("Ann")) == ([7, 0, 0], [0, 0, 8])
    assert data.resolve("ANN") == data.resolve("Ann")  # the one name its casefold reaches
    assert not data.resolve("Zoe")
    assert list(data.resolve("Zoe", fold_diacritics=True)) == list(data.resolve("Zoë")) == [1]
    # Zoë's cells start at cell 3 and cover positions 0 and 1
    assert _cell_list(data, data.resolve("Zoë")) == ([9, 0, 0], [0, 5, 0])
    assert data.female[3:5].tolist() == [9, 0]


def test_resolve_of_a_shared_key_gives_several_names(sparse_dataset):
    # Lee, LEE and lee share a folded key; Renée and Renee share one without diacritics
    for name in ("Lee", "lee", "LEE", "lEe"):
        assert len(sparse_dataset.resolve(name)) > 1
    assert len(sparse_dataset.resolve("Renee")) == 1
    assert len(sparse_dataset.resolve("Renee", fold_diacritics=True)) > 1


def test_resolve_of_an_unknown_name_is_empty(sparse_dataset):
    for fold in (False, True):
        for name in ("Zzyzx", ""):
            ids = sparse_dataset.resolve(name, fold_diacritics=fold)
            assert not ids
            assert sparse_dataset.sums(ids, 0, len(sparse_dataset.years_loaded)) == (0, 0, 0, 0)


def test_cells_equal_lookup_in_every_range_of_positions(sparse_dataset):
    # Ann's cells come first in the columns but its span starts past position
    # 0, so a range ending before it puts the end of a naive slice below 0,
    # where it would wrap to the columns' end
    distinct = ds.load_dataset([(1990, "Bo,F,6"), (1991, "Ann,F,7"), (1993, "Ann,M,8\nBo,M,9")])
    for data in (sparse_dataset, distinct):
        n = len(data.years_loaded)
        for name in (*NAME_QUERIES, "Robin"):
            for fold in (False, True):
                ids = data.resolve(name, fold_diacritics=fold)
                for lo in range(n + 2):
                    for hi in range(lo, n + 2):
                        cells = [data.lookup(name, year, fold_diacritics=fold) or (0, 0)
                                 for year in data.years_loaded[lo:hi]]
                        female, male = sum(f for f, _ in cells), sum(m for _, m in cells)
                        assert data.sums(ids, lo, hi) == (female, female + male, female, male)
                        # weight k + 1 at position lo + k: a misaligned read sums other weights
                        weights = list(range(1, hi - lo + 1))
                        num = sum(w * f for w, (f, _) in zip(weights, cells))
                        assert data.sums(ids, lo, hi, weights) == (
                            num, num + sum(w * m for w, (_, m) in zip(weights, cells)),
                            female, male), (name, fold, lo, hi)


def test_totals_and_temporal_p_female_resolve_a_shared_key_name_once(
        sparse_dataset, monkeypatch):
    calls = []
    candidates = ds.Dataset._candidates

    def counted(self, name, fold_diacritics):
        calls.append(name)
        return candidates(self, name, fold_diacritics)

    monkeypatch.setattr(ds.Dataset, "_candidates", counted)
    years = sparse_dataset.years_loaded
    # consecutive loaded years, and years with one (1905) not loaded
    reads = [lambda c=chosen: audit.temporal_p_female(sparse_dataset, "lee", [(y, 1) for y in c])
             for chosen in (years[3:9], (1900, 1905, 1910))]
    for fold in (False, True):
        reads.append(lambda f=fold: _pooled_counts(sparse_dataset, "lee", 1900, 1960, f))
    for read in reads:
        calls.clear()
        read()
        assert calls == ["lee"]


def test_year_pair_cells_equal_the_two_year_views(sample_dataset):
    data = ds.load_dataset([
        (1990, "Ann,F,7\nBo,M,9\nCy,F,5\nCy,M,5"),
        (1991, "Dee,F,6"),
        (1992, "Ann,M,8\nCy,F,11\nDee,M,12"),
    ])
    for source in (data, sample_dataset):
        for y1 in source.years_loaded[:4]:
            for y2 in source.years_loaded[-2:] + source.years_loaded[:2]:
                cells1, cells2 = source.year_cells(y1), source.year_cells(y2)
                assert list(source.year_pair_cells(y1, y2)) == [
                    (name, *cells1[name], *cells2[name]) for name in cells1 if name in cells2
                ]
    with pytest.raises(errors.YearNotLoaded):
        data.year_pair_cells(1990, 1993)
    with pytest.raises(errors.YearNotLoaded):
        data.year_pair_cells(1989, 1990)


def test_year_bound_does_not_follow_the_clock(monkeypatch):
    class Frozen(datetime.date):
        @classmethod
        def today(cls):
            return cls(1950, 1, 1)

    monkeypatch.setattr(datetime, "date", Frozen)
    assert ds.parse_year_file("Pat,F,10", 2000).year_cells(2000) == {"Pat": (10, 0)}
    assert ds.parse_year_file("Pat,F,10", ds.MAX_YEAR).years_loaded == (ds.MAX_YEAR,)
    with pytest.raises(errors.TemponymError):
        ds.parse_year_file("Pat,F,10", ds.MAX_YEAR + 1)


def test_count_above_32_bits_is_a_data_error():
    with pytest.raises(errors.TemponymError, match="1990"):
        ds.load_dataset([(1990, f"Pat,F,{2**32}")])
    for strict in (True, False):
        with pytest.raises(errors.TemponymError, match="line 2: Sam"):
            ds.parse_year_file(f"Pat,F,10\nSam,M,{2**32}", 1990, strict=strict)
    assert ds.parse_year_file(f"Sam,M,{2**32 - 1}", 1990).year_cells(1990) == {
        "Sam": (0, 2**32 - 1)}


@pytest.mark.parametrize("strict", [True, False])
def test_a_count_of_thousands_of_digits_is_read_without_int_limits(strict):
    """More digits than ``int()`` converts (4,300): above 32 bits, or a padded small count."""
    with pytest.raises(errors.TemponymError,
                       match="^year 1990: line 1: Pat has a count above 4294967295"):
        ds.load_dataset([(1990, "Pat,F," + "1" * 5000 + "\n")], strict)
    padded = "0" * 5000
    with pytest.raises(errors.TemponymError, match="count above"):
        ds.load_dataset([(1990, f"Pat,F,{padded}{2**32}\n")], strict)
    plain = ds.load_dataset([(1990, "Pat,F,5\n")], strict)
    assert ds.load_dataset([(1990, f"Pat,F,{padded}5\n")], strict) == plain
    assert ds.load_dataset([(1990, f"Pat,F,{padded}{2**32 - 1}\n")], strict).lookup(
        "Pat", 1990) == (2**32 - 1, 0)


def test_a_dataset_is_not_hashable(tmp_path):
    built = ds.load_dataset([(1990, "Ann,F,300")])  # 'B' and 'H' columns
    ds.save_index(built, tmp_path / "x.idx")
    loaded = ds.load_index(tmp_path / "x.idx")
    only_bytes = ds.load_dataset([(1990, "Ann,F,10")])  # 'B' columns, which memoryview hashes
    direct = ds.Dataset((1990,), ("Ann",), array("I", [0]), array("I", [1]),
                        array("I", [300]), array("I", [0]))
    for data in (built, loaded, only_bytes, direct):
        with pytest.raises(TypeError, match="unhashable type: 'Dataset'"):
            hash(data)


def test_zero_counts_are_no_data():
    data = ds.load_dataset([(1900, "Pat,F,0\nSam,M,0"), (1901, "Sam,M,7"), (1902, "Sam,F,0")],
                           strict=False)
    assert data.names == ("Sam",)
    assert (data.starts[0], data.lengths[0]) == (1, 1)


def test_births_is_the_sum_of_every_count(tmp_path):
    """Carried from the parse by load_dataset, summed from the columns by a
    table loaded from its index."""
    built = ds.load_dataset([(1990, "Ann,F,300\nBo,M,7"),
                             (1991, "Ann,F,65535\nAnn,M,12\nBo,M,0")], strict=False)
    path = tmp_path / "births.idx"
    ds.save_index(built, path)
    assert built.births == ds.load_index(path).births == 300 + 7 + 65535 + 12


def test_index_keeps_years_without_rows(tmp_path):
    data = ds.load_dataset([(1900, "Pat,F,10"), (1901, "")])
    path = tmp_path / "gap.idx"
    ds.save_index(data, path)
    assert ds.load_index(path).years_loaded == (1900, 1901)


def test_index_round_trip_whole_sample(tmp_path, sample_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(sample_dataset, path)
    assert ds.load_index(path) == sample_dataset


def test_index_round_trip_keeps_diacritic_folding(tmp_path):
    path = tmp_path / "accents.idx"
    ds.save_index(ds.load_dataset([(1990, "Renée,F,100\nZoë,F,7")]), path)
    loaded = ds.load_index(path)
    assert loaded.lookup("Renee", 1990) is None
    assert loaded.lookup("Renee", 1990, fold_diacritics=True) == (100, 0)
    assert loaded.lookup("ZOE", 1990, fold_diacritics=True) == (7, 0)


def test_the_checksum_is_the_blake2b_of_the_header_and_its_streams(tmp_path):
    """The header's ``digests`` lists the 16-byte BLAKE2b of each stored
    stream in file order, and its ``digest``, its last field, is the
    BLAKE2b-256 of the header as JSON, its ``digest`` null."""
    path = tmp_path / "index.idx"
    ds.save_index(ds.load_dataset([(1990, "Pat,F,10\nSam,M,9"), (1991, "Pat,F,12")]), path)
    magic, header_line, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(header_line)
    assert list(header)[-2:] == ["digests", "digest"]
    streams = [block for blocks in _streams(header, payload).values() for block in blocks]
    assert b"".join(streams) == payload and len(streams) == 5
    assert header["digests"] == [hashlib.blake2b(stream, digest_size=16).hexdigest()
                                 for stream in streams]
    assert header["digest"] == hashlib.blake2b(
        json.dumps({**header, "digest": None}).encode(), digest_size=32).hexdigest()


@pytest.mark.parametrize("failure, raised", [
    (OSError(errno.ENOSPC, "No space left on device"), errors.TemponymError),
    (KeyboardInterrupt(), KeyboardInterrupt)], ids=["no-space", "interrupted"])
def test_a_save_that_fails_leaves_the_old_index_and_no_stray_file(tmp_path, monkeypatch,
                                                                   failure, raised):
    """An index is written beside its path and renamed over it: a save whose
    write fails, or is interrupted, leaves the old index whole, and removes
    what it wrote."""
    path = tmp_path / "x.idx"
    old = ds.load_dataset([(1990, "Pat,F,10")])
    ds.save_index(old, path)

    def fail(streams):
        raise failure

    def failing_open(*args):
        fh = open(*args)
        fh.writelines = fail
        return fh

    monkeypatch.setattr(ds, "open", failing_open, raising=False)
    with pytest.raises(raised) as caught:
        ds.save_index(ds.load_dataset([(1990, "Sam,M,9")]), path)
    monkeypatch.undo()
    if raised is errors.TemponymError:
        assert str(caught.value) == f"{path}: cannot be written (No space left on device)"
    assert ds.load_index(path) == old
    assert os.listdir(tmp_path) == ["x.idx"]


def test_index_format_errors(bad_index):
    """A whole load, and a load of one name, which in the test table reads
    every block, are refused with the same error."""
    path, message = bad_index
    for names in (None, ["Pat"]):
        with pytest.raises(errors.IndexFormatError) as caught:
            ds.load_index(path, names)
        assert message in str(caught.value)


@pytest.mark.parametrize("cut", [1, 200_000])
def test_a_stream_that_reads_short_is_truncated_not_a_table(tmp_path, monkeypatch, blocked_index,
                                                            blocked_table, cut):
    """A file cut after its stored lengths were checked against its size is
    refused at the stream the cut lands in by every load that reads that
    stream: the stream is truncated, and no table is given. A one-name load
    of Name0000 reads the first block of each plane only, so it answers when
    the cut lands in the last."""
    raw = blocked_index.read_bytes()
    header = json.loads(raw.split(b"\n")[1])
    stored = [("names", header["stored"]["names"])] + [
        (f"{key} block {j}", n) for key in ds._U32_SECTIONS
        for j, n in enumerate(header["stored"][key])]
    end, left = len(raw) - sum(n for _, n in stored), len(raw) - cut
    what = next(what for what, n in stored if (end := end + n) > left)
    assert what == ("male block 3" if cut == 1 else "female block 2")
    checked = ds._Streams.__init__

    def cut_after_the_check(self, path, fh, header):
        checked(self, path, fh, header)
        with open(path, "r+b") as out:
            out.truncate(left)

    monkeypatch.setattr(ds._Streams, "__init__", cut_after_the_check)
    path = tmp_path / "cut.idx"
    for names in (None, ["Name0000"]):
        path.write_bytes(raw)
        if names and cut == 1:
            loaded = ds.load_index(path, names)
            assert (_cell_list(loaded, loaded.resolve("Name0000"))
                    == _cell_list(blocked_table, blocked_table.resolve("Name0000")))
            continue
        with pytest.raises(errors.IndexFormatError, match=f"the {what} stream is truncated$"):
            ds.load_index(path, names)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("tail, message", [(b"", None), (b"x", "1 byte(s) after the last stream")])
def test_an_index_read_from_a_pipe_is_checked_as_its_file_is(tmp_path, tail, message):
    """A pipe, whose size is known only once it is read, loads as its file
    does, and bytes after its last stream are refused the same way."""
    data = ds.load_dataset([(1990, "Pat,F,10\nSam,M,9")])
    ds.save_index(data, tmp_path / "x.idx")
    read, write = os.pipe()
    try:
        os.write(write, (tmp_path / "x.idx").read_bytes() + tail)  # well under a pipe's buffer
        os.close(write)
        if message is None:
            assert ds.load_index(f"/dev/fd/{read}") == data
        else:
            with pytest.raises(errors.IndexFormatError, match=re.escape(message)):
                ds.load_index(f"/dev/fd/{read}")
    finally:
        os.close(read)


def _streams(header, body):
    """The stored zlib streams of each section, cut from ``body`` by the
    header: the names stream, then the blocks of each column."""
    streams, at = {}, 0
    for key, stored in header["stored"].items():
        streams[key] = []
        for length in [stored] if key == "names" else stored:
            streams[key].append(body[at:at + length])
            at += length
    return streams


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _inflate_bomb(header, streams):
    """A female stream of 256 MB of zeros, where the header gives 2 bytes."""
    zeros = zlib.compressobj()
    streams["female"] = [
        b"".join(zeros.compress(bytes(2**20)) for _ in range(256)) + zeros.flush()]
    return "female block 0 stream, it holds more"


def _names_claim_a_terabyte(header, streams):
    header["sections"]["names"] = 2**40
    return "section lengths give 1099511627776 bytes for the names stream, it holds 7"


def _female_claims_64_mb(header, streams):
    """2^26 female values, in as many blocks, all but the first empty."""
    header["sections"]["female"] = 2**26
    streams["female"] += [b""] * (2**26 // ds._CHUNK - 1)
    return "section lengths give 65536 bytes for the female block 0 stream, it holds 2"


@pytest.mark.parametrize("damage",
                         [_inflate_bomb, _names_claim_a_terabyte, _female_claims_64_mb],
                         ids=["256-MB-of-zeros", "a-terabyte-claimed", "a-64-MB-column-claimed"])
def test_inflating_stops_one_byte_past_the_header_length(tmp_path, damage):
    """A stream is inflated at most one byte past the length the header gives
    its section, and no buffer is sized from that length: a re-signed index
    that holds more, or claims far more, is refused with a traced peak under
    1 MB."""
    path = tmp_path / "x.idx"
    ds.save_index(ds.load_dataset([(1990, "Pat,F,10\nSam,M,9")]), path)
    magic, header, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    assert sum(header["sections"].values()) < 20
    streams = _streams(header, body)
    message = damage(header, streams)
    header["stored"] = {key: len(blocks[0]) if key == "names" else list(map(len, blocks))
                        for key, blocks in streams.items()}
    blocks = [block for blocks in streams.values() for block in blocks]
    header["digests"] = list(map(ds._stream_digest, blocks))  # signed: reaches the inflate
    header["digest"] = ds._header_digest(header)
    payload = b"".join(blocks)
    path.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))

    def load():
        with pytest.raises(errors.IndexFormatError, match=re.escape(message)):
            ds.load_index(path)
    assert _traced_peak(load) < 2**20


def test_a_name_first_seen_in_a_later_year_gets_its_own_cells():
    data = ds.load_dataset([(1990, "Ann,F,5"), (1991, "Bo,M,7\nAnn,F,6"), (1992, "Cy,F,9")])
    assert data.names == ("Ann", "Bo", "Cy")
    assert list(zip(data.starts, data.lengths)) == [(0, 2), (1, 1), (2, 1)]
    assert list(data.female) == [5, 6, 0, 9] and list(data.male) == [0, 0, 7, 0]


def test_a_name_of_one_sex_each_year_keeps_both_columns():
    """Female only in 1990, male only in 1991 and 1993: one span, each cell
    in the column of its row."""
    data = ds.load_dataset([(1990, "Pat,F,10"), (1991, "Pat,M,12"), (1992, "Sam,F,5"),
                            (1993, "Pat,M,8")])
    assert [data.lookup("Pat", year) for year in (1990, 1991, 1992, 1993)] == [
        (10, 0), (0, 12), None, (0, 8)]
    assert _cell_list(data, data.resolve("Pat")) == ([10, 0, 0, 0], [0, 12, 0, 8])


def test_lenient_zero_count_rows_never_start_or_end_a_span():
    data = ds.load_dataset([(1990, "Pat,F,0"), (1991, "Pat,F,5\nPat,M,0"),
                            (1992, "Pat,M,0\nPat,F,0"), (1993, "Pat,M,3"), (1994, "Pat,F,0")],
                           strict=False)
    assert (data.starts[0], data.lengths[0]) == (1, 3)
    assert list(data.female) == [5, 0, 0] and list(data.male) == [0, 0, 3]


# A count at each edge of a stored width, and the item size of the loaded
# column that holds it: widths 1 and 2 load as 'B' and 'H', 3 and 4 as 'I'.
WIDTH_EDGES = [(1, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**24 - 1, 4),
               (2**24, 4), (2**32 - 1, 4)]


@pytest.mark.parametrize("count, itemsize", WIDTH_EDGES)
def test_index_loads_columns_at_their_stored_width(tmp_path, count, itemsize):
    built = ds.load_dataset([(1990, f"Ann,F,{count}\nBo,M,1"), (1991, f"Bo,F,{count}"),
                             (1993, f"Ann,M,{count}\nAnn,F,1\nBo,M,{count}")], strict=False)
    path = tmp_path / "edges.idx"
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert (loaded.starts.itemsize, loaded.lengths.itemsize) == (1, 1)
    assert (loaded.female.itemsize, loaded.male.itemsize) == (itemsize, itemsize)
    assert loaded == built
    assert _pooled_counts(loaded, "Ann", 1990, 1993) == (count + 1, count)
    for name in ("Ann", "Bo", "ANN", "Cy"):
        for year in built.years_loaded:
            assert loaded.lookup(name, year) == built.lookup(name, year)
        assert (_pooled_counts(loaded, name, 1880, 2020)
                == _pooled_counts(built, name, 1880, 2020))
        assert (_cell_list(loaded, loaded.resolve(name))
                == _cell_list(built, built.resolve(name)))
    for years in ((1990, 1993), (1991, 1991)):
        assert list(loaded.year_pair_cells(*years)) == list(built.year_pair_cells(*years))
    resaved = tmp_path / "resaved.idx"
    ds.save_index(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


COLUMNS = ("starts", "lengths", "female", "male")


def _formats(data):
    return tuple(getattr(data, column).format for column in COLUMNS)


def test_columns_of_different_widths_compare_by_value(tmp_path):
    """A loaded dataset ('H' and 'B' counts) equals the same table built
    directly ('I'); one changed cell makes them unequal, in either order.
    Built from year files, the table holds the loaded widths."""
    built = ds.load_dataset([(1990, "Ann,F,300\nBo,M,7"), (1991, "Ann,F,65535\nAnn,M,12")])
    path = tmp_path / "widths.idx"
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert _formats(loaded) == _formats(built) == ("B", "B", "H", "B")
    wide = {column: array("I", getattr(built, column)) for column in COLUMNS}
    direct = ds.Dataset(built.years_loaded, built.names, **wide)
    assert direct.female.format == "I"
    assert loaded == direct and direct == loaded
    for column in ("female", "male"):
        for cell in range(len(built.female)):
            cells = array("I", getattr(built, column))
            cells[cell] += 1
            changed = ds.Dataset(built.years_loaded, built.names, **{**wide, column: cells})
            assert loaded != changed and changed != loaded


@pytest.mark.parametrize("table", ["sample", "dense"])
def test_a_built_table_equals_its_loaded_index_width_for_width(tmp_path, table, sample_dataset):
    """Year files and their index give one Dataset, with equal column
    formats; the dense table holds counts above 2^16 and 2^8."""
    if table == "sample":
        built = sample_dataset
    else:
        rng = random.Random(5)
        years = range(1990, 2000)
        built = ds.load_dataset([(year, "\n".join(
            f"Name{i:03d},{sex},{rng.randrange(5, 2**17)}" for i in range(300) for sex in "FM"))
            for year in years])
        assert max(built.female) >= 2**16 and built.female.format == "I"
    path = tmp_path / "table.idx"
    ds.save_index(built, path)
    loaded = ds.load_index(path)
    assert _formats(built) == _formats(loaded)
    assert built == loaded


def test_repr_is_bounded_and_a_copy_is_equal(sample_dataset):
    text = repr(sample_dataset)
    assert text == "Dataset(years 1880..2020, 141 loaded; %d names; %d cells)" % (
        len(sample_dataset.names), len(sample_dataset.female))
    assert len(text) < 100
    assert repr(ds.load_dataset([])) == "Dataset(years none, 0 loaded; 0 names; 0 cells)"
    assert copy.copy(sample_dataset) == sample_dataset


def _two_names(names=("Ann", "Pat"), starts=(0, 0), lengths=(1, 1), cells=2,
               years=(1990, 1991), typecode="I", skipped=()):
    return ds.Dataset(years, names, array(typecode, starts), array(typecode, lengths),
                      array(typecode, [5] * cells), array(typecode, [0] * cells), skipped)


@pytest.mark.parametrize("table, rule", [
    (dict(names=("Pat", "Ann")), "name table is not sorted and unique"),
    (dict(names=("Pat", "Pat")), "name table is not sorted and unique"),
    (dict(starts=(0, 1), lengths=(1, 2), cells=3), "name spans point outside the columns"),
    (dict(lengths=(1, 2)), "name spans point outside the columns"),
    (dict(starts=(0,)), "name spans point outside the columns"),
    (dict(years=(1991, 1990)), "years are not increasing integers"),
    (dict(years=(1990, 1990)), "years are not increasing integers"),
    (dict(years=(1990, 1991.0)), "years are not increasing integers"),
    (dict(years=(1990, "1991")), "years are not increasing integers"),
    (dict(years=(1879, 1880)), "years must lie in 1880..2100"),
    (dict(years=(2100, 2101)), "years must lie in 1880..2100"),
    (dict(typecode="i"), "column starts has format 'i', not 'B', 'H' or 'I'"),
    (dict(typecode="Q"), "column starts has format 'Q', not 'B', 'H' or 'I'"),
    (dict(typecode="d"), "column starts has format 'd', not 'B', 'H' or 'I'"),
    (dict(skipped=(0,)), "skipped does not hold one count per year"),
    (dict(names=("A\nB", "Pat")), "a name holds a line break"),
    (dict(names=("A\ud800b", "Pat")), "a name holds a lone surrogate"),
    (dict(names=("",), starts=(0,), lengths=(1,), cells=1), "a name is empty"),
], ids=["unsorted", "repeated", "span-past-the-last-year", "columns-shorter-than-spans",
        "a-start-missing", "years-out-of-order", "a-year-repeated", "a-float-year",
        "a-text-year", "a-year-before-1880", "a-year-after-2100", "signed-columns",
        "8-byte-columns", "float-columns", "skipped-of-one-year", "a-line-break-in-a-name",
        "a-lone-surrogate-in-a-name", "an-empty-name"])
def test_the_constructor_refuses_a_table_that_breaks_a_rule(table, rule):
    assert _two_names().lookup("Pat", 1990) == (5, 0)
    assert _two_names(typecode="B", skipped=(0, 3)).lookup("Pat", 1990) == (5, 0)
    with pytest.raises(errors.TemponymError, match=re.escape(rule)) as caught:
        _two_names(**table)
    assert type(caught.value) is errors.TemponymError


def test_the_constructor_takes_no_fold_fact_and_folds_every_table():
    def lee(**fact):
        return ds.Dataset((1990, 1991), ("LEE", "Lee"), array("I", [0, 1]), array("I", [1, 1]),
                          array("I", [5, 0]), array("I", [0, 6]), **fact)

    assert lee().lookup("Lee", 1990) == (5, 0) and lee()._distinct is False
    for fact in (True, False):
        with pytest.raises(TypeError):
            lee(distinct=fact)


def test_a_year_file_name_utf8_cannot_encode_is_refused_before_any_save():
    with pytest.raises(errors.TemponymError, match="a name holds a lone surrogate"):
        ds.load_dataset([(1990, "A\ud800b,F,10")])


@pytest.fixture(scope="module")
def dense16_index(tmp_path_factory):
    """(table, its index, payload bytes): 1,000 names over 141 years, each
    count stored 16 bits wide and hardly compressible, so the count columns
    are most of the payload and of the file."""
    rng = random.Random(0)
    n, years = 1000, tuple(range(1880, 2021))
    cells = n * len(years)
    data = ds.Dataset(
        years_loaded=years, names=tuple(f"Name{i:05d}" for i in range(n)),
        starts=array("I", [0] * n), lengths=array("I", [len(years)] * n),
        female=array("I", [rng.randrange(1, 2**16) for _ in range(cells)]),
        male=array("I", [rng.randrange(1, 2**16) for _ in range(cells)]))
    path = tmp_path_factory.mktemp("dense16") / "dense16.idx"
    ds.save_index(data, path)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header["widths"] == {"starts": 1, "lengths": 1, "female": 2, "male": 2}
    payload = sum(header["sections"].values())
    assert header["sections"]["female"] + header["sections"]["male"] > 0.9 * payload
    assert path.stat().st_size > 0.9 * payload
    return data, path, payload


def _load_peak(path, names=None):
    """The table ``load_index`` gives, and tracemalloc's peak over the load."""
    tracemalloc.start()
    try:
        loaded = ds.load_index(path, names)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_index_load_peak_stays_under_two_payloads(dense16_index):
    """The file is read one stream at a time and the count columns are
    loaded at their stored 16 bits: tracemalloc's peak over ``load_index``
    stays under twice the payload, with no buffer of the whole file."""
    data, path, payload = dense16_index
    loaded, peak = _load_peak(path)
    assert loaded == data
    assert peak < 2 * payload, peak / payload


def test_a_one_name_index_load_peaks_under_one_payload(dense16_index):
    """A one-name load reads and hashes every count block, one at a time,
    and keeps only the name's cells: its peak stays under the payload."""
    data, path, payload = dense16_index
    loaded, peak = _load_peak(path, ["Name00500"])
    assert loaded.names == ("Name00500",)
    assert (_cell_list(loaded, loaded.resolve("Name00500"))
            == _cell_list(data, data.resolve("Name00500")))
    assert peak < payload, peak / payload


def test_a_half_the_names_index_load_peaks_under_one_and_a_half_payloads(dense16_index):
    """A load of every other name keeps half the cells, about half the
    payload, besides the blocks it inflates one at a time: its peak stays
    under 1.5 payloads (a whole load's is about 1.7)."""
    data, path, payload = dense16_index
    loaded, peak = _load_peak(path, data.names[::2])
    assert loaded.names == data.names[::2]
    assert list(loaded.year_pair_cells(1925, 2000)) == list(data.year_pair_cells(1925, 2000))[::2]
    assert peak < 1.5 * payload, peak / payload


def test_ingest_peak_stays_under_six_times_its_columns():
    """A sparse archive shaped like the SSA's: 5,000 Zipf-ranked names, each
    over one span of years, later starts likelier, one sex for 88% of them,
    counts up to ~91,000. The build holds each year's counts once, at their
    own width, and stacks one block of keys at a time, never the years x
    keys grid, so tracemalloc's peak over ``load_dataset`` stays under six
    times the bytes of the columns it returns."""
    rng = random.Random(0)
    per_year = {year: [] for year in range(1880, 2021)}
    for rank in range(5000):
        start = 1880 + int(140 * rng.random() ** 0.5)
        length = min(1 + int(rng.expovariate(1 / 24)), 2021 - start)
        sexes = "FM" if rng.random() < 0.12 else rng.choice("FM")
        level = 70_000 / (rank + 1) ** 0.85
        for year in range(start, start + length):
            per_year[year] += [f"N{rank:05d},{sex},{max(5, round(level * rng.uniform(0.7, 1.3)))}"
                               for sex in sexes]
    sources = [(year, "\n".join(rows)) for year, rows in per_year.items()]
    tracemalloc.start()
    try:
        data = ds.load_dataset(sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "I" in (data.female.format, data.male.format)  # a count above 65,535
    columns = sum(getattr(data, key).nbytes for key in ("starts", "lengths", "female", "male"))
    assert peak < 6 * columns, peak / columns


def test_exact_names_resolve_without_fold_maps_until_a_miss(tmp_path):
    ds.save_index(ds.load_dataset([(1990, "Ann,F,10\nRenée,F,7"), (1991, "Bo,M,9")]),
                  tmp_path / "distinct.idx")
    data = ds.load_index(tmp_path / "distinct.idx")
    assert data.lookup("Ann", 1990) == (10, 0)
    assert data.lookup("Ann", 1991) is None
    assert data.lookup("Renée", 1990, fold_diacritics=True) == (7, 0)
    assert _cell_list(data, data.resolve("Renée")) == ([7, 0], [0, 0])
    assert _pooled_counts(data, "Bo", 1990, 1991) == (0, 9)
    assert data._groups is None
    assert data.lookup("Zzyzx", 1990) is None  # a miss builds the groups
    assert data._groups is not None
    assert data.lookup("renee", 1990, fold_diacritics=True) == (7, 0)


def test_a_variant_spelling_builds_the_fold_maps():
    data = ds.load_dataset([(1990, "Ann,F,10")])
    assert data.lookup("ANN", 1990) == (10, 0)
    assert data._groups is not None


def test_shared_keys_resolve_exact_names_through_the_fold_maps():
    data = ds.load_dataset([(1990, "Lee,F,10"), (1991, "LEE,M,20")])
    assert data.lookup("Lee", 1991) == (0, 20)
    assert data._groups is not None


# Two names, then three, share the folded key "lee". Each spelling's
# female and male counts in 1990..1992, without and with fold_diacritics.
SHARED_KEY_TABLES = {
    "two": [(1990, "Lee,F,10\nLEE,M,20"), (1991, "LEE,M,5"), (1992, "Lee,F,30")],
    "three": [(1990, "Lee,F,10\nLEE,M,20"), (1991, "LEE,M,5\nLée,F,7"),
              (1992, "Lee,F,30\nLée,M,9")],
}
LEE_FIRST = ([10, 0, 30], [0, 5, 0])  # Lee, then LEE
UPPER_FIRST = ([0, 0, 30], [20, 5, 0])  # LEE, then Lee
NOTHING = ([0, 0, 0], [0, 0, 0])
ACCENTED = ([0, 7, 0], [0, 0, 9])  # Lée alone
ACCENTED_FIRST = ([0, 7, 0], [20, 0, 9])  # Lée, then LEE, then Lee
SHARED_KEY_ANSWERS = {
    "two": {"Lee": (LEE_FIRST, LEE_FIRST), "LEE": (UPPER_FIRST, UPPER_FIRST),
            "lee": (UPPER_FIRST, UPPER_FIRST), "Lée": (NOTHING, UPPER_FIRST),
            "LÉE": (NOTHING, UPPER_FIRST), "lée": (NOTHING, UPPER_FIRST),
            "Lea": (NOTHING, NOTHING)},
    "three": {"Lee": (LEE_FIRST, LEE_FIRST), "LEE": (UPPER_FIRST, UPPER_FIRST),
              "lee": (UPPER_FIRST, UPPER_FIRST), "Lée": (ACCENTED, ACCENTED_FIRST),
              "LÉE": (ACCENTED, ACCENTED_FIRST), "lée": (ACCENTED, ACCENTED_FIRST),
              "Lea": (NOTHING, NOTHING)},
}


def _assert_pinned_answers(table, load):
    years = [1990, 1991, 1992]
    for spelling, answers in SHARED_KEY_ANSWERS[table].items():
        for fold, (female, male) in zip((False, True), answers):
            data = load()  # cold: no fold map yet
            assert data.years_loaded == tuple(years)
            assert _cell_list(data, data.resolve(spelling, fold)) == (female, male), (
                spelling, fold)
            assert [data.lookup(spelling, year, fold) for year in years] == [
                (f, m) if f or m else None for f, m in zip(female, male)]
            assert _pooled_counts(data, spelling, 1990, 1992, fold) == (sum(female), sum(male))
            assert _pooled_counts(data, spelling, 1991, 1991, fold) == (female[1], male[1])


@pytest.mark.parametrize("table", sorted(SHARED_KEY_TABLES))
def test_every_spelling_of_a_shared_key_gives_the_pinned_answers(table):
    _assert_pinned_answers(table, lambda: ds.load_dataset(SHARED_KEY_TABLES[table]))


@pytest.mark.parametrize("table", sorted(SHARED_KEY_TABLES))
def test_a_saved_shared_key_table_loads_with_the_pinned_answers(table, tmp_path):
    path = tmp_path / "shared.idx"
    ds.save_index(ds.load_dataset(SHARED_KEY_TABLES[table]), path)
    assert json.loads(path.read_bytes().split(b"\n")[1])["distinct_keys"] is False
    _assert_pinned_answers(table, lambda: ds.load_index(path))


def test_the_fold_map_holds_one_int_per_unshared_key(tmp_path):
    """Under 130 B a name at 20,000 names (~80 B), where one list per name took ~190 B."""
    n = 20_000
    names = tuple(f"Name{i:05d}" for i in range(n))
    ds.save_index(ds.Dataset((1990,), names, array("I", bytes(4 * n)), array("I", [1] * n),
                             array("I", [1] * n), array("I", bytes(4 * n))), tmp_path / "n.idx")
    # Loaded with the fold fact of its index, the map waits for its first need.
    data = ds.load_index(tmp_path / "n.idx")
    assert data._groups is None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        groups = data._fold_groups()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n < 130, held / n
    assert groups["name00042"] == 42 and data.lookup("NAME00042", 1990) == (1, 0)


def test_a_directly_built_table_that_repeats_a_name_is_refused():
    with pytest.raises(errors.TemponymError, match="not sorted and unique"):
        ds.Dataset((1990,), ("ANN", "Ann", "Ann"), array("I", [0, 0, 0]),
                   array("I", [1, 1, 1]), array("I", [5, 0, 0]), array("I", [0, 6, 7]))


@pytest.fixture
def fold_calls(monkeypatch):
    """The name tables ``_folded_keys`` is called with, from now on."""
    calls = []
    folded_keys = ds._folded_keys
    monkeypatch.setattr(ds, "_folded_keys",
                        lambda names: calls.append(names) or folded_keys(names))
    return calls


def _exact_answers_after_a_load(data, path, names=None):
    """Save and load ``data``, whole or only ``names``, then ask the loaded
    table for its first stored name only."""
    ds.save_index(data, path)
    loaded = ds.load_index(path, names)
    name = data.names[0]
    return (loaded.lookup(name, 1990), _cell_list(loaded, loaded.resolve(name)),
            _pooled_counts(loaded, name, 1990, 1991))


def test_loading_folds_no_name(fold_calls, tmp_path):
    data = ds.load_dataset([(1990, "Ann,F,10\nRenée,F,100"), (1991, "Bo,M,20")])
    assert len(fold_calls) == 1  # built: its names are folded once
    assert data._distinct is True
    fold_calls.clear()
    for names in (None, ["Ann"], ["Renée", "Ann"]):
        assert _exact_answers_after_a_load(data, tmp_path / "x.idx", names) == (
            (10, 0), ([10, 0], [0, 0]), (10, 0))
    assert fold_calls == []


def test_a_table_from_year_files_folds_its_names_once(fold_calls, tmp_path):
    """The fold map built for the fold fact answers the variant spellings."""
    for year, text in [(1990, "Ann,F,10\nRenée,F,7"), (1991, "Bo,M,30")]:
        (tmp_path / f"yob{year}.txt").write_text(text, encoding="utf-8")
    data = ds.load_directory(tmp_path)
    assert data.lookup("Ann", 1990) == (10, 0)
    assert data.lookup("BO", 1991) == (0, 30)
    assert data.lookup("renee", 1990, fold_diacritics=True) == (7, 0)
    assert fold_calls == [data.names]


def test_ascii_names_are_never_stripped_of_diacritics(monkeypatch, fold_calls, tmp_path):
    calls = []
    strip = ds.strip_diacritics
    monkeypatch.setattr(ds, "strip_diacritics", lambda text: calls.append(text) or strip(text))
    data = ds.load_dataset([(1990, "Ann,F,10\nLee,M,9\nBo,F,8")])
    assert data.lookup("Lee", 1990) == (0, 9)
    assert calls == []
    data = ds.load_dataset([(1990, "Ann,F,10\nRenée,F,7")])
    assert calls == ["renée"]  # built: its one non-ASCII name is stripped once
    calls.clear()
    fold_calls.clear()
    assert _exact_answers_after_a_load(data, tmp_path / "x.idx") == (
        (10, 0), ([10], [0]), (10, 0))
    assert calls == [] and fold_calls == []


FOLD_QUERIES = [("lee", 1990, False), ("LEE", 1991, False), ("renee", 1990, True),
                ("RENEE", 1991, False), ("Zzyzx", 1990, True), ("ANN", 1990, False)]


def test_threads_racing_on_the_first_fold_build_get_equal_answers(monkeypatch, tmp_path):
    sources = [(1990, "Lee,F,10\nLEE,M,40\nRenée,F,100\nAnn,F,7"), (1991, "lee,M,20\nRenee,M,30")]

    def answers(data):
        return [(data.lookup(name, year, fold), _cell_list(data, data.resolve(name, fold)),
                 _pooled_counts(data, name, 1990, 1991, fold)) for name, year, fold in FOLD_QUERIES]

    expected = answers(ds.load_dataset(sources))
    # Loaded from an index, so that the fold map waits for the first lookup.
    ds.save_index(ds.load_dataset(sources), tmp_path / "shared.idx")
    data = ds.load_index(tmp_path / "shared.idx")
    assert data._groups is None
    racers = 8  # more threads than cores
    start = threading.Barrier(racers, timeout=30)

    folded_keys = ds._folded_keys

    def slow_folded_keys(names):
        if names is data.names:  # the group build, not a query's key
            time.sleep(0.05)  # every racer arrives while the first build is running
        return folded_keys(names)

    monkeypatch.setattr(ds, "_folded_keys", slow_folded_keys)

    def race(_):
        start.wait()
        return answers(data)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(racers) as pool:
            results = list(pool.map(race, range(racers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * racers


def test_skipped_rows_survive_an_index_round_trip(tmp_path):
    path = tmp_path / "skipped.idx"
    ds.save_index(ds.load_dataset([(1990, "Pat,F,10\nbad row")], strict=False), path)
    assert ds.load_index(path).skipped == ds.load_index(path, ["Pat"]).skipped == (1,)
    ds.save_index(ds.load_dataset([(1990, "Pat,F,10"), (1991, "Pat,M,7\n,,")], strict=False),
                  path)
    assert ds.load_index(path).skipped == (0, 1)
    # a table that skipped no row stores none, and loads with none
    ds.save_index(ds.load_dataset([(1990, "Pat,F,10"), (1991, "Pat,M,7")]), path)
    assert json.loads(path.read_bytes().split(b"\n")[1])["skipped"] == []
    assert ds.load_index(path).skipped == ()


def _answers_or_errors(data, name, fold):
    """Every kind of answer about ``name``, each a value or the type and text
    of the error raised."""
    def answer(ask, *args, **options):
        try:
            return ask(data, name, *args, **options)
        except errors.TemponymError as exc:
            return type(exc), str(exc)

    def temporal(data, name):
        cohort = audit.CohortModel("triangular-window", 35, 10)
        dist = audit.infer_birth_distribution(years[len(years) // 2] + 35, cohort, data)
        return audit.temporal_p_female(data, name, dist)

    years = data.years_loaded
    return [
        *(answer(model.p_female, year, fold_diacritics=fold)
          for year in (years[0], years[len(years) // 2], years[-1], ds.MAX_YEAR)),
        answer(model.p_female_windowed, years[len(years) // 2], 5, fold_diacritics=fold),
        answer(model.p_female_pooled, (years[0], years[-1]), fold_diacritics=fold),
        answer(temporal),
        answer(audit.temporal_p_female, [(years[0], 1), (years[-1], 2)]),
        answer(lambda data, name: _cell_list(data, data.resolve(name, fold))),
    ]


def _assert_one_name_loads_answer_as_the_whole_one(path, names):
    whole = ds.load_index(path)
    for name in names:
        one = ds.load_index(path, [name])
        assert len(one.names) <= 3 and one.years_loaded == whole.years_loaded
        for fold in (False, True):
            assert _answers_or_errors(one, name, fold) == _answers_or_errors(whole, name, fold), (
                name, fold)


def test_one_name_loads_of_the_sample_answer_as_the_whole_load(tmp_path, sample_dataset):
    path = tmp_path / "sample.idx"
    ds.save_index(sample_dataset, path)
    _assert_one_name_loads_answer_as_the_whole_one(
        path, [*sample_dataset.names, "leslie", "LESLIE", "Zzyzx", "", "Les\nlie"])


@pytest.mark.parametrize("table", sorted(SHARED_KEY_TABLES))
def test_one_name_loads_of_a_shared_key_answer_as_the_whole_load(table, tmp_path):
    path = tmp_path / "shared.idx"
    ds.save_index(ds.load_dataset(SHARED_KEY_TABLES[table] + [(1993, "Ann,F,8\nRenée,M,6")]),
                  path)
    _assert_one_name_loads_answer_as_the_whole_one(
        path, [*SHARED_KEY_ANSWERS[table], "Ann", "ANN", "Renee", "renée", "Zzyzx"])
    assert ds.load_index(path, ["Lée"]).names == (("LEE", "Lee", "Lée") if table == "three"
                                                  else ("LEE", "Lee"))
    assert ds.load_index(path, ["Lea", "Ann", "ann"]).names == ("Ann",)
    assert ds.load_index(path, []).names == ()
    with pytest.raises(TypeError, match="not one str"):
        ds.load_index(path, "Lee")  # not the names "L", "e" and "e"


def test_a_block_that_runs_do_not_shrink_is_stored():
    """Random bytes are stored, so they inflate as a copy; runs are deflated."""
    noise = random.Random(7).randbytes(ds._CHUNK)
    assert ds._block(noise) == ds._deflated(noise, 0)
    assert len(ds._block(noise)) < len(ds._deflated(noise, memLevel=9, strategy=zlib.Z_RLE))
    runs = bytes(ds._CHUNK // 2) + noise[:ds._CHUNK // 2]
    assert len(ds._block(runs)) < len(ds._deflated(runs, 0))
    for plane in (noise, runs):
        assert zlib.decompress(ds._block(plane)) == plane


def test_a_one_name_load_inflates_only_its_names_blocks(blocked_index, blocked_table,
                                                        monkeypatch):
    path, data = blocked_index, blocked_table
    inflates = []
    decompressobj = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda: inflates.append(1) or decompressobj())
    # the name table, starts and lengths, then two planes of the count blocks read
    wanted = {None: 3 + 2 * 4, ("Name0000",): 3 + 2 * 2, ("Name0599",): 3 + 2 * 2,
              ("Name0464",): 3 + 2 * 4, ("Name0000", "Name0599"): 3 + 2 * 4, ("Zzyzx",): 3}
    for names, count in wanted.items():
        inflates.clear()
        loaded = ds.load_index(path, names)
        assert len(inflates) == count, names
        for name in names or data.names[::50]:
            assert [loaded.lookup(name, year) for year in data.years_loaded] == [
                data.lookup(name, year) for year in data.years_loaded]


def test_a_corrupt_block_is_refused_when_a_load_reads_it(corrupt_block_index, blocked_table,
                                                         tmp_path):
    """Only a load that reads a block finds it corrupt, whether the file was
    signed again after the damage (the block does not inflate) or not (its
    digest does not match): a load of a name whose cells lie in other blocks
    answers."""
    data = blocked_table
    # the same damage under the clean file's header, whose digests it breaks
    ds.save_index(data, tmp_path / "clean.idx")
    magic, _, payload = corrupt_block_index.read_bytes().split(b"\n", 2)
    unsigned = tmp_path / "unsigned.idx"
    unsigned.write_bytes(b"\n".join(
        [magic, (tmp_path / "clean.idx").read_bytes().split(b"\n", 2)[1], payload]))
    for path, message in [(corrupt_block_index, "corrupt female block 1 stream"),
                          (unsigned, "checksum mismatch in the female block 1 stream")]:
        for names in (None, ["Name0599"], ["Name0464"], ["Name0000", "Name0599"]):
            with pytest.raises(errors.IndexFormatError, match=message):
                ds.load_index(path, names)
        loaded = ds.load_index(path, ["Name0000"])
        assert (_cell_list(loaded, loaded.resolve("Name0000"))
                == _cell_list(data, data.resolve("Name0000")))
