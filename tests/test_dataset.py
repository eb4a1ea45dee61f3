import datetime
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from temponym import errors
from temponym import dataset as ds


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
        assert data.totals(name, 2000, 2000) == (0, 0)


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


def test_year_file_byte_order_mark_is_dropped(tmp_path):
    rows = b"Mary,F,7065\nJohn,M,9655\n"
    for directory, data in (("plain", rows), ("bom", b"\xef\xbb\xbf" + rows)):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "yob1880.txt").write_bytes(data)
    with_bom = ds.load_directory(tmp_path / "bom")
    assert with_bom == ds.load_directory(tmp_path / "plain")
    assert with_bom.names == ("John", "Mary")
    assert with_bom.lookup("Mary", 1880) == (7065, 0)


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
    assert data.totals("lee", 1990, 1991) == (10, 20)


def _counts_by_lookup(data, name, years, fold):
    """Per-year ``lookup``, with (0, 0) for no data and for a year not loaded."""
    cells = [(data.has_year(year) and data.lookup(name, year, fold_diacritics=fold)) or (0, 0)
             for year in years]
    return [f for f, _ in cells], [m for _, m in cells]


NAME_QUERIES = ("Ann", "ann", "Bo", "BO", "Cy", "Dee", "Lee", "lee", "LEE", "lEe",
                "Renee", "renée", "RENEE", "Zoe", "ZOË", "Zzyzx")


def test_name_counts_equal_lookup_per_year(sparse_dataset):
    data = sparse_dataset
    loaded = data.years_loaded
    assert 1905 not in loaded and 1941 not in loaded
    windows = [list(loaded[lo:lo + n]) for n in (1, 2, 5, 11, 21) for lo in range(len(loaded))]
    windows += [
        [], [1899], [1905], [2000, 1900], [1930, 1910, 1920, 1910],  # not loaded, unordered
        list(range(1900, 1961)),  # every year, loaded or not
        list(range(1930, 1951)),  # a cohort window across the 1941-1949 gap
        [1900, 1902, 1903, 1904, 1906],  # consecutive positions around unloaded years
        [1902, 1903, 1900], [1900, 1904, 1903], [1902, 1902, 1904],  # not consecutive
    ]
    for name in NAME_QUERIES:
        for fold in (False, True):
            for years in windows:
                expected = _counts_by_lookup(data, name, years, fold)
                assert data.name_counts(name, years, fold_diacritics=fold) == expected
                assert data.name_counts(name, tuple(years), fold_diacritics=fold) == expected


def test_name_counts_of_shared_keys_and_diacritics():
    data = ds.load_dataset([
        (1990, "Lee,F,10\nRenée,F,100\nAnn,F,7"),
        (1991, "LEE,M,20\nRenee,M,30\nlee,F,5"),
        (1993, "lee,M,6\nAnn,M,8"),
    ])
    assert data.name_counts("lee", [1990, 1991, 1992, 1993]) == ([10, 5, 0, 0], [0, 0, 0, 6])
    assert data.name_counts("LeE", [1990, 1991, 1993]) == ([10, 0, 0], [0, 20, 6])
    assert data.name_counts("Renee", [1990, 1991]) == ([0, 0], [0, 30])
    assert data.name_counts("Renee", [1990, 1991], fold_diacritics=True) == ([100, 0], [0, 30])
    assert data.name_counts("Ann", [1990, 1991, 1993]) == ([7, 0, 0], [0, 0, 8])
    assert data.name_counts("Ann", []) == ([], [])


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
                assert source.year_pair_cells(y1, y2) == [
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


def test_zero_counts_are_no_data():
    data = ds.load_dataset([(1900, "Pat,F,0\nSam,M,0"), (1901, "Sam,M,7"), (1902, "Sam,F,0")],
                           strict=False)
    assert data.names == ("Sam",)
    assert (data.starts[0], data.lengths[0]) == (1, 1)


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


def test_index_format_errors(bad_index):
    path, message = bad_index
    with pytest.raises(errors.IndexFormatError) as caught:
        ds.load_index(path)
    assert message in str(caught.value)


def test_exact_names_resolve_without_fold_maps_until_a_miss(tmp_path):
    ds.save_index(ds.load_dataset([(1990, "Ann,F,10\nRenée,F,7"), (1991, "Bo,M,9")]),
                  tmp_path / "distinct.idx")
    data = ds.load_index(tmp_path / "distinct.idx")
    assert data.lookup("Ann", 1990) == (10, 0)
    assert data.lookup("Ann", 1991) is None
    assert data.lookup("Renée", 1990, fold_diacritics=True) == (7, 0)
    assert data.name_counts("Renée", [1990, 1991]) == ([7, 0], [0, 0])
    assert data.totals("Bo", 1990, 1991) == (0, 9)
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


def test_loading_folds_no_name(monkeypatch, tmp_path):
    calls = []
    folded_keys = ds._folded_keys
    monkeypatch.setattr(ds, "_folded_keys",
                        lambda names: calls.append(names) or folded_keys(names))
    data = ds.load_dataset([(1990, "Ann,F,10\nRenée,F,100"), (1991, "Bo,M,20")])
    ds.save_index(data, tmp_path / "x.idx")
    loaded = ds.load_index(tmp_path / "x.idx")
    assert calls == []
    assert loaded.lookup("Renée", 1990) == (100, 0)  # the first exact hit folds the table
    assert len(calls) == 1


def test_ascii_names_are_never_stripped_of_diacritics(monkeypatch):
    calls = []
    strip = ds.strip_diacritics
    monkeypatch.setattr(ds, "strip_diacritics", lambda text: calls.append(text) or strip(text))
    data = ds.load_dataset([(1990, "Ann,F,10\nLee,M,9\nBo,F,8")])
    assert data.lookup("Lee", 1990) == (0, 9)
    assert calls == []
    data = ds.load_dataset([(1990, "Ann,F,10\nRenée,F,7")])
    assert calls == []
    assert data.lookup("Ann", 1990) == (10, 0)  # the first exact hit folds the table
    assert calls == ["renée"]


FOLD_QUERIES = [("lee", 1990, False), ("LEE", 1991, False), ("renee", 1990, True),
                ("RENEE", 1991, False), ("Zzyzx", 1990, True), ("ANN", 1990, False)]


def test_threads_racing_on_the_first_fold_build_get_equal_answers(monkeypatch):
    sources = [(1990, "Lee,F,10\nLEE,M,40\nRenée,F,100\nAnn,F,7"), (1991, "lee,M,20\nRenee,M,30")]

    def answers(data):
        return [(data.lookup(name, year, fold), data.name_counts(name, [1990, 1991], fold),
                 data.totals(name, 1990, 1991, fold)) for name, year, fold in FOLD_QUERIES]

    expected = answers(ds.load_dataset(sources))
    data = ds.load_dataset(sources)
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
