import gzip
import hashlib
import json
import random
import zlib
from array import array

import pytest

from temponym import dataset as dataset_mod


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    setattr(item, "outcome_" + report.when, report)

QUARTER_YEARS = [1900, 1925, 1950, 1975, 2000]


@pytest.fixture(scope="session")
def sample_dataset():
    """The full bundled archive, 1880-2020."""
    return dataset_mod.load_directory(dataset_mod.bundled_sample_dir())


@pytest.fixture(scope="session")
def quarter_dataset():
    """Only the five quarter-century benchmark years."""
    return dataset_mod.load_directory(
        dataset_mod.bundled_sample_dir(), years=QUARTER_YEARS
    )


# Per name, the first and last year in which it may have rows.
SPARSE_SPANS = {
    "Ann": (1900, 1960), "Bo": (1910, 1925), "Cy": (1930, 1960), "Dee": (1900, 1912),
    "Lee": (1900, 1930), "LEE": (1920, 1950), "lee": (1905, 1960),
    "Renée": (1900, 1935), "Renee": (1925, 1960), "Zoë": (1915, 1951),
}


@pytest.fixture(scope="session")
def sparse_dataset():
    """Years with gaps (1901, 1905, ..., 1941-1949, 1952-1959 not loaded),
    names whose spans start and end inside any window, names sharing a
    folded key (Lee, LEE, lee; Renée, Renee) and years inside a span
    without data for the name."""
    rng = random.Random(11)
    years = [year for year in range(1900, 1941) if year % 4 != 1] + [1950, 1951, 1960]
    sources = []
    for year in years:
        rows = [f"{name},{sex},{rng.randrange(5, 500)}"
                for name, (first, last) in SPARSE_SPANS.items() if first <= year <= last
                for sex in "FM" if rng.random() < 0.7]
        sources.append((year, "\n".join(rows)))
    return dataset_mod.load_dataset(sources)


# --- damaged index files ----------------------------------------------------

def _index_parts(path):
    """(header dict, compressed payload) of an index file."""
    raw = path.read_bytes()
    header_line, payload = raw[len(dataset_mod.INDEX_MAGIC):].split(b"\n", 1)
    return json.loads(header_line), payload


def _write_index(path, header, payload):
    header_line = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(dataset_mod.INDEX_MAGIC + header_line + b"\n" + payload)


def _drop_sha256(path):
    header, payload = _index_parts(path)
    del header["sha256"]
    _write_index(path, header, payload)


def _header_not_json(path):
    _, payload = _index_parts(path)
    _write_index(path, b"{version: 2", payload)


def _version_1(path):
    payload = b"1990,Pat,10,0"
    _write_index(path, {"format": "temponym-index", "version": 1,
                        "sha256": hashlib.sha256(payload).hexdigest(),
                        "years": [1990]}, gzip.compress(payload))


def _version_2(path):
    header, payload = _index_parts(path)
    header["version"] = 2
    del header["widths"]
    _write_index(path, header, payload)


def _set_female_width(path, width):
    header, payload = _index_parts(path)
    header["widths"]["female"] = width
    _write_index(path, header, payload)


def _width_0(path):
    _set_female_width(path, 0)


def _width_5(path):
    _set_female_width(path, 5)


def _width_not_an_integer(path):
    _set_female_width(path, 1.0)


def _length_not_a_multiple_of_width(path):
    _set_female_width(path, 4)  # the female section holds two 1-byte values


def _sections_do_not_add_up(path):
    header, payload = _index_parts(path)
    header["sections"]["names"] += 4
    _write_index(path, header, payload)


def _set_header(path, key, value):
    header, payload = _index_parts(path)
    header[key] = value
    _write_index(path, header, payload)


def _header_not_an_object(path):
    _, payload = _index_parts(path)
    _write_index(path, b"[3]", payload)


def _version_4(path):
    _set_header(path, "version", 4)


def _years_not_increasing(path):
    _set_header(path, "years", [1990, 1990])


def _sections_not_a_mapping(path):
    header, _ = _index_parts(path)
    _set_header(path, "sections", list(header["sections"].values()))


def _rewrite_payload(path, change, keep_sha256=True):
    """Replace the payload by ``change(payload)``, recompressed; the checksum
    is left as it was or recomputed."""
    header, compressed = _index_parts(path)
    payload = change(zlib.decompress(compressed))
    if not keep_sha256:
        header["sha256"] = hashlib.sha256(payload).hexdigest()
    _write_index(path, header, zlib.compress(payload))


def _payload_byte_changed(path):
    _rewrite_payload(path, lambda payload: payload[:-1] + bytes([payload[-1] ^ 1]))


def _names_not_utf8(path):
    _rewrite_payload(path, lambda payload: b"\xff" + payload[1:], keep_sha256=False)


def _save_two_names(path, names, starts=(0, 0), lengths=(1, 1)):
    """An index of two names over 1990-1991, saved without any check."""
    cells = sum(lengths)
    bad = dataset_mod.Dataset(
        years_loaded=(1990, 1991), names=names,
        starts=array("I", starts), lengths=array("I", lengths),
        female=array("I", range(5, 5 + cells)), male=array("I", [0] * cells),
    )
    dataset_mod.save_index(bad, path)


def _spans_outside_columns(path):
    _save_two_names(path, ("Ann", "Pat"), starts=(0, 1), lengths=(2, 2))


def _names_not_sorted(path):
    _save_two_names(path, ("Pat", "Ann"))


def _names_not_unique(path):
    _save_two_names(path, ("Pat", "Pat"))


# Each damage, and a fragment of the error it must be reported with.
BAD_INDEXES = [
    (_drop_sha256, "no sha256"),
    (_header_not_json, "not JSON"),
    (_version_1, "re-run `temponym ingest`"),
    (_version_2, "version 2 is no longer read; re-run `temponym ingest`"),
    (_header_not_an_object, "header is not a JSON object"),
    (_version_4, "unsupported index version 4"),
    (_years_not_increasing, "header years are not increasing integers"),
    (_sections_not_a_mapping, "header sections must be byte lengths"),
    (_payload_byte_changed, "checksum mismatch"),
    (_names_not_utf8, "name table is not UTF-8"),
    (_width_0, "header widths"),
    (_width_5, "header widths"),
    (_width_not_an_integer, "header widths"),
    (_length_not_a_multiple_of_width, "not a whole number of values of its width"),
    (_sections_do_not_add_up, "section lengths"),
    (_spans_outside_columns, "spans point outside"),
    (_names_not_sorted, "not sorted and unique"),
    (_names_not_unique, "not sorted and unique"),
]


@pytest.fixture(params=BAD_INDEXES, ids=lambda case: case[0].__name__.strip("_"))
def bad_index(request, tmp_path):
    """(path of a damaged index, fragment of the expected error message)."""
    damage, message = request.param
    path = tmp_path / "bad.idx"
    dataset_mod.save_index(dataset_mod.load_dataset([(1990, "Pat,F,10\nSam,M,9")]), path)
    damage(path)
    return path, message
