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
    """(header dict, stored streams) of an index file."""
    raw = path.read_bytes()
    header_line, payload = raw[len(dataset_mod.INDEX_MAGIC):].split(b"\n", 1)
    return json.loads(header_line), payload


def inflated_streams(compressed):
    """The inflated bytes of each zlib stream in ``compressed``, in order."""
    streams = []
    while compressed:
        stream = zlib.decompressobj()
        streams.append(stream.decompress(compressed))
        compressed = stream.unused_data
    return streams


def _write_index(path, header, payload):
    header_line = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(dataset_mod.INDEX_MAGIC + header_line + b"\n" + payload)


def _signed(header, payload):
    """``header`` with the digest of each stored stream of ``payload``, cut by
    its ``stored`` lengths, and its own, so that a damage to a field or stream
    they cover reaches the check it is for."""
    stored, streams, at = header["stored"], [], 0
    for n in [stored["names"], *(n for key in dataset_mod._U32_SECTIONS for n in stored[key])]:
        streams.append(payload[at:at + n])
        at += n
    header = {**header, "digests": list(map(dataset_mod._stream_digest, streams))}
    return {**header, "digest": dataset_mod._header_digest(header)}


def _drop_digest(path):
    header, payload = _index_parts(path)
    del header["digest"]
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


def _version_3(path):
    header, payload = _index_parts(path)
    header["version"] = 3
    del header["distinct_keys"]
    _write_index(path, header, payload)


def _version_4(path):
    """Version 4: the same header and payload, deflated as one stream."""
    header, payload = _index_parts(path)
    header["version"] = 4
    del header["stored"]
    payload = zlib.compress(b"".join(inflated_streams(payload)))
    _write_index(path, header, payload)


def _version_5(path):
    """Version 5: no stored lengths, the name table in one stream and the
    columns in a second."""
    header, payload = _index_parts(path)
    header["version"] = 5
    del header["stored"]
    names, *columns = inflated_streams(payload)
    payload = zlib.compress(names) + zlib.compress(b"".join(columns))
    _write_index(path, header, payload)


def _version_6(path):
    """Version 6: no ``skipped``, and the stored length of each column as one
    stream, which the one block of each column of the test table is."""
    header, payload = _index_parts(path)
    header["version"] = 6
    del header["skipped"]
    header["stored"] = {key: n if key == "names" else sum(n)
                        for key, n in header["stored"].items()}
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
    _write_index(path, _signed(header, payload), payload)


def _sections_claim_a_terabyte(path):
    header, payload = _index_parts(path)
    header["sections"]["names"] = 2**40  # no inflate buffer may be sized from it alone
    _write_index(path, _signed(header, payload), payload)


def _set_header(path, key, value, signed=False):
    header, payload = _index_parts(path)
    header[key] = value
    _write_index(path, _signed(header, payload) if signed else header, payload)


def _header_not_an_object(path):
    _, payload = _index_parts(path)
    _write_index(path, b"[3]", payload)


def _header_nested_too_deep(path):
    _, payload = _index_parts(path)
    _write_index(path, b"[" * 100_000, payload)


def _version_7(path):
    """Version 7, byte for byte as it was written: the same layout, checked
    by a SHA-256 of the header and every stored stream in the header's last
    field, ``sha256``."""
    header, payload = _index_parts(path)
    del header["digests"], header["digest"]
    header["version"] = 7
    sha256 = hashlib.sha256(json.dumps({**header, "sha256": None}).encode() + payload)
    _write_index(path, {**header, "sha256": sha256.hexdigest()}, payload)


def _version_8(path):
    """Version 8, byte for byte as it was written: no ``digests``, and the
    BLAKE2b-256 of the header and every stored stream in ``digest``."""
    header, payload = _index_parts(path)
    del header["digests"], header["digest"]
    header["version"] = 8
    digest = hashlib.blake2b(json.dumps({**header, "digest": None}).encode() + payload,
                             digest_size=32)
    _write_index(path, {**header, "digest": digest.hexdigest()}, payload)


def _version_10(path):
    _set_header(path, "version", 10)


def _version_float(path):
    _set_header(path, "version", 9.0)  # equal to 9, but not the integer 9


def _version_true(path):
    _set_header(path, "version", True)  # equal to 1, but not the integer 1


def _years_not_a_list(path):
    _set_header(path, "years", 5)


# Signed, so that the years pass the checksum and reach the Dataset's rules.
def _years_not_increasing(path):
    _set_header(path, "years", [1990, 1990], signed=True)


def _year_before_1880(path):
    _set_header(path, "years", [-7], signed=True)


def _format_not_temponym(path):
    _set_header(path, "format", "something-else")


def _sections_not_a_mapping(path):
    header, _ = _index_parts(path)
    _set_header(path, "sections", list(header["sections"].values()))


def _stored_lengths_missing(path):
    header, payload = _index_parts(path)
    del header["stored"]
    _write_index(path, header, payload)


def _a_length_past_any_buffer(path):
    """A section as long as the largest buffer: one byte more does not fit."""
    header, _ = _index_parts(path)
    _set_header(path, "sections", {**header["sections"], "names": 2**63 - 1})


def _year_moved(path):
    """A year still increasing and in range, so only the checksum can tell."""
    dataset_mod.save_index(dataset_mod.load_dataset([(2019, "Pat,F,10"), (2020, "Pat,F,12")]),
                           path)
    _set_header(path, "years", [2019, 2025])


def _set_female_blocks(path, change):
    header, payload = _index_parts(path)
    header["stored"]["female"] = change(header["stored"]["female"])
    _write_index(path, header, payload)


def _block_lengths_of_a_wrong_count(path):
    _set_female_blocks(path, lambda blocks: blocks * 2)


def _block_length_not_an_integer(path):
    _set_female_blocks(path, lambda blocks: [float(n) for n in blocks])


def _skipped_of_two_years(path):
    _set_header(path, "skipped", [1, 0])  # the table has one year


def _skipped_negative(path):
    _set_header(path, "skipped", [-1])


def _fold_fact_flipped(path):
    """Names that share a folded key, marked as folding apart."""
    dataset_mod.save_index(dataset_mod.load_dataset([(1990, "Lee,F,10\nLEE,M,20")]), path)
    _set_header(path, "distinct_keys", True)


def _digests_of_a_wrong_count(path):
    header, _ = _index_parts(path)
    _set_header(path, "digests", header["digests"] * 2)


def _digest_not_a_string(path):
    header, _ = _index_parts(path)
    _set_header(path, "digests", [1, *header["digests"][1:]])


def _last_stored_byte_flipped(path):
    """The last byte of the last stream flipped, the header as it was."""
    header, payload = _index_parts(path)
    _write_index(path, header, payload[:-1] + bytes([payload[-1] ^ 1]))


def _fold_fact_missing(path):
    header, payload = _index_parts(path)
    del header["distinct_keys"]
    _write_index(path, header, payload)


def _fold_fact_not_a_bool(path):
    _set_header(path, "distinct_keys", 1)  # equal to true, but not a bool


def _rewrite_payload(path, change, keep_digest=True):
    """Replace the inflated sections (the name table, then the starts,
    lengths, female and male columns, each one block in the test table) by
    ``change(*sections)``, each recompressed, with their stored lengths; the
    checksum is left as it was or recomputed."""
    header, payload = _index_parts(path)
    streams = [zlib.compress(section) for section in change(*inflated_streams(payload))]
    header["stored"] = {key: n if key == "names" else [n]
                        for key, n in zip(header["stored"], map(len, streams))}
    payload = b"".join(streams)
    _write_index(path, header if keep_digest else _signed(header, payload), payload)


def _payload_byte_changed(path):
    _rewrite_payload(path, lambda *sections: (
        *sections[:-1], sections[-1][:-1] + bytes([sections[-1][-1] ^ 1])))


def _names_not_utf8(path, keep_digest=False):
    _rewrite_payload(path, lambda names, *columns: (b"\xff" + names[1:], *columns),
                     keep_digest)


def _trailing_bytes(path):
    with path.open("ab") as fh:
        fh.write(b"GARBAGE")


def _names_stream_truncated(path):
    header, payload = _index_parts(path)
    _write_index(path, header, payload[:header["stored"]["names"] // 2])


def _columns_stream_missing(path):
    header, payload = _index_parts(path)
    _write_index(path, header, payload[:header["stored"]["names"]])


def _columns_stream_longer(path):
    """A starts stream that inflates to far more than the header gives.

    Signed, with its stored length: the checksum is checked before any
    stream is inflated."""
    _rewrite_payload(path, lambda names, *columns: (names, bytes(1 << 20), *columns[1:]),
                     keep_digest=False)


def _stream_with_trailing_bytes(path):
    """Bytes after the end of the names stream, inside its stored length."""
    header, payload = _index_parts(path)
    at = header["stored"]["names"]
    payload = payload[:at] + b"GARBAGE" + payload[at:]
    header["stored"]["names"] += 7
    _write_index(path, _signed(header, payload), payload)


def _stream_trailer_cut(path):
    """A names stream that inflates to its whole section, without the
    Adler-32 trailer that checks it."""
    header, payload = _index_parts(path)
    at = header["stored"]["names"]
    payload = payload[:at - 4] + payload[at:]
    header["stored"]["names"] -= 4
    _write_index(path, _signed(header, payload), payload)


def _count_block_short(path, keep_digest=False):
    """A female block that inflates to one value, where the header gives two."""
    _rewrite_payload(path, lambda names, starts, lengths, female, male: (
        names, starts, lengths, female[:1], male), keep_digest)


def _count_block_long(path):
    _rewrite_payload(path, lambda names, starts, lengths, female, male: (
        names, starts, lengths, female + b"\0", male), keep_digest=False)


def _count_block_undecodable(path, block=0, keep_digest=False):
    """The index, signed again unless ``keep_digest``, with female block
    ``block`` overwritten by bytes that are not a zlib stream."""
    header, payload = _index_parts(path)
    stored = header["stored"]
    at = stored["names"] + sum(stored["starts"]) + sum(stored["lengths"])
    at += sum(stored["female"][:block])
    n = stored["female"][block]
    payload = payload[:at] + b"\xff" * n + payload[at + n:]
    _write_index(path, header if keep_digest else _signed(header, payload), payload)


def _spans_outside_columns(path, keep_digest=False):
    """Sam's span starts at position 1, past 1990, the one year loaded.

    Each column holds one byte per name (width 1)."""
    _rewrite_payload(path, lambda names, starts, *columns: (names, b"\0\1", *columns),
                     keep_digest)


# Damaged streams whose file is not signed again: a digest decides, the
# header's where the stored lengths changed, else the stream's, ahead of the
# error each stream would give if it were.
def _count_block_undecodable_unsigned(path):
    _count_block_undecodable(path, keep_digest=True)


def _names_not_utf8_unsigned(path):
    _names_not_utf8(path, keep_digest=True)


def _spans_outside_columns_unsigned(path):
    _spans_outside_columns(path, keep_digest=True)


def _count_block_short_unsigned(path):
    _count_block_short(path, keep_digest=True)


def _names_not_sorted(path):
    _rewrite_payload(path, lambda names, *columns: (b"Sam\nPat", *columns), keep_digest=False)


def _names_not_unique(path):
    _rewrite_payload(path, lambda names, *columns: (b"Pat\nPat", *columns), keep_digest=False)


# Each damage, and a fragment of the error it must be reported with.
BAD_INDEXES = [
    (_drop_digest, "no digest"),
    (_header_not_json, "not JSON"),
    (_version_1, "re-run `temponym ingest`"),
    (_version_2, "version 2 is no longer read; re-run `temponym ingest`"),
    (_version_3, "version 3 is no longer read; re-run `temponym ingest`"),
    (_header_not_an_object, "header is not a JSON object"),
    (_header_nested_too_deep, "header is not JSON"),
    (_version_4, "version 4 is no longer read; re-run `temponym ingest`"),
    (_version_5, "version 5 is no longer read; re-run `temponym ingest`"),
    (_version_6, "version 6 is no longer read; re-run `temponym ingest`"),
    (_version_7, "version 7 is no longer read; re-run `temponym ingest`"),
    (_version_8, "version 8 is no longer read; re-run `temponym ingest`"),
    (_version_10, "unsupported index version 10"),
    (_version_float, "unsupported index version 9.0"),
    (_version_true, "unsupported index version True"),
    (_years_not_a_list, "header years are not a list"),
    (_years_not_increasing, "years are not increasing integers"),
    (_year_before_1880, "years must lie in 1880..2100"),
    (_format_not_temponym, "header format 'something-else' is not 'temponym-index'"),
    (_sections_not_a_mapping, "header sections must be byte lengths"),
    (_stored_lengths_missing, "header stored must be byte lengths"),
    (_a_length_past_any_buffer, "header sections must be byte lengths"),
    (_payload_byte_changed, "checksum mismatch"),
    (_year_moved, "checksum mismatch in the header"),
    (_fold_fact_flipped, "checksum mismatch in the header"),
    (_digests_of_a_wrong_count, "header digests must list the digests of its 5 streams"),
    (_digest_not_a_string, "header digests must list the digests of its 5 streams"),
    (_last_stored_byte_flipped, "checksum mismatch in the male block 0 stream"),
    (_fold_fact_missing, "header distinct_keys must be true or false"),
    (_fold_fact_not_a_bool, "header distinct_keys must be true or false"),
    (_names_not_utf8, "name table is not UTF-8"),
    (_trailing_bytes, "7 byte(s) after the last stream"),
    (_names_stream_truncated, "the names stream is truncated"),
    (_columns_stream_missing, "the starts block 0 stream is truncated"),
    (_columns_stream_longer, "for the starts block 0 stream, it holds more"),
    (_stream_with_trailing_bytes, "7 byte(s) after the end of the names stream"),
    (_stream_trailer_cut, "the names stream is truncated"),
    (_width_0, "header widths"),
    (_width_5, "header widths"),
    (_width_not_an_integer, "header widths"),
    (_length_not_a_multiple_of_width, "not a whole number of values of its width"),
    (_sections_do_not_add_up, "section lengths"),
    (_sections_claim_a_terabyte, "section lengths"),
    (_block_lengths_of_a_wrong_count, "stored female must list the byte lengths of its 1 blocks"),
    (_block_length_not_an_integer, "stored female must list the byte lengths of its 1 blocks"),
    (_count_block_short, "give 2 bytes for the female block 0 stream, it holds 1"),
    (_count_block_long, "give 2 bytes for the female block 0 stream, it holds more"),
    (_count_block_undecodable, "corrupt female block 0 stream"),
    (_skipped_of_two_years, "header skipped must be empty or one row count per year"),
    (_skipped_negative, "header skipped must be empty or one row count per year"),
    (_spans_outside_columns, "spans point outside"),
    (_names_not_sorted, "not sorted and unique"),
    (_names_not_unique, "not sorted and unique"),
    (_count_block_undecodable_unsigned, "checksum mismatch in the female block 0 stream"),
    (_names_not_utf8_unsigned, "checksum mismatch"),
    (_spans_outside_columns_unsigned, "checksum mismatch"),
    (_count_block_short_unsigned, "checksum mismatch"),
]


@pytest.fixture(params=BAD_INDEXES, ids=lambda case: case[0].__name__.strip("_"))
def bad_index(request, tmp_path):
    """(path of a damaged index, fragment of the expected error message)."""
    damage, message = request.param
    path = tmp_path / "bad.idx"
    dataset_mod.save_index(dataset_mod.load_dataset([(1990, "Pat,F,10\nSam,M,9")]), path)
    damage(path)
    return path, message


@pytest.fixture(scope="session")
def blocked_table():
    """600 names x 141 years with counts up to 2^16 - 1: its index stores each
    count column in two planes of two blocks each, and Name0464's cells are
    the last of the first block and the first of the second."""
    rng = random.Random(3)
    n, years = 600, tuple(range(1880, 2021))
    cells = n * len(years)
    assert 464 * len(years) < dataset_mod._CHUNK < 465 * len(years) < cells
    return dataset_mod.Dataset(
        years, tuple(f"Name{i:04d}" for i in range(n)), array("B", [0] * n),
        array("B", [len(years)] * n), array("H", [rng.randrange(1, 2**16) for _ in range(cells)]),
        array("H", [rng.randrange(0, 2**16) for _ in range(cells)]))


@pytest.fixture
def blocked_index(tmp_path, blocked_table):
    path = tmp_path / "blocks.idx"
    dataset_mod.save_index(blocked_table, path)
    header, _ = _index_parts(path)
    assert [len(header["stored"][key]) for key in dataset_mod._U32_SECTIONS] == [1, 1, 4, 4]
    return path


@pytest.fixture
def corrupt_block_index(blocked_index):
    """``blocked_index``, signed, with the female column's block 1 (plane 0,
    from value 65,536 on) not a zlib stream."""
    _count_block_undecodable(blocked_index, 1)
    return blocked_index
