"""Checks of the package as a user imports it, with no name from the checkout.

Tier-1 runs them against ``src/``. CI runs this file again outside the
checkout, against the installed package with every warning an error, so a
package-data glob that misses a bundled file or an API rename that leaves
README behind fails there too.
"""
import re
from pathlib import Path

import pytest

from temponym import audit, dataset, errors, services
from temponym.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_bundled_data_is_present():
    assert sorted(dataset.bundled_sample_dir().glob("yob*.txt"))
    assert audit.load_corpus_csv()
    assert services.fixture_configs()


def _run(*args) -> int:
    """The exit code of one command line."""
    with pytest.raises(SystemExit) as caught:
        main(list(map(str, args)))
    return caught.value.code


def _formats(table) -> list:
    return [getattr(table, key).format for key in ("starts", "lengths", "female", "male")]


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory):
    """The bundled sample, ingested."""
    path = tmp_path_factory.mktemp("index") / "sample.idx"
    assert _run("ingest", "--dir", dataset.bundled_sample_dir(), "--out", path) == 0
    return path


def test_year_files_and_their_index_give_one_table(sample_index):
    built = dataset.load_directory(dataset.bundled_sample_dir())
    loaded = dataset.load_index(sample_index)
    assert _formats(built) == _formats(loaded), (_formats(built), _formats(loaded))
    assert built == loaded


def test_a_loaded_index_saves_to_the_same_file(sample_index, tmp_path):
    # A loaded index keeps each column at its stored width; saved again, it
    # must give the same file, every zlib stream included.
    dataset.save_index(dataset.load_index(sample_index), tmp_path / "resaved.idx")
    assert (tmp_path / "resaved.idx").read_bytes() == sample_index.read_bytes()


def test_rows_of_three_widths_stack_into_the_table_their_index_loads(tmp_path):
    """Years whose largest counts need one, two and three bytes give rows of
    three widths, stacked into one table: it equals the table its index
    loads, column formats included, and the loaded index saves again to the
    same file."""
    years = tmp_path / "widths"
    years.mkdir()
    (years / "yob1990.txt").write_bytes(b"Ann,F,200\nBo,M,9\n")
    (years / "yob1991.txt").write_bytes(b"Ann,F,40000\nBo,M,255\n")
    (years / "yob1992.txt").write_bytes(b"Ann,F,70000\nCy,M,60\nCy,F,5\n")
    index = tmp_path / "widths.idx"
    assert _run("ingest", "--dir", years, "--out", index) == 0
    built = dataset.load_directory(years)
    loaded = dataset.load_index(index)
    assert _formats(built) == _formats(loaded) == ["B", "B", "I", "B"], _formats(loaded)
    assert built == loaded
    dataset.save_index(loaded, tmp_path / "widths-resaved.idx")
    assert (tmp_path / "widths-resaved.idx").read_bytes() == index.read_bytes()


def test_an_index_whose_last_year_is_moved_is_refused(sample_index, tmp_path):
    """The checksum covers the header: an index whose last year is moved from
    2020 to 2025 is a data error (exit 3), not 2020's counts."""
    magic, header, payload = sample_index.read_bytes().split(b"\n", 2)
    assert header.count(b", 2020]") == 1
    moved = tmp_path / "moved.idx"
    moved.write_bytes(b"\n".join([magic, header.replace(b", 2020]", b", 2025]"), payload]))
    with pytest.raises(errors.IndexFormatError, match="checksum mismatch"):
        dataset.load_index(moved)
    assert _run("query", "--index", moved, "--name", "Leslie", "--year", "1925") == 3


# A command that loads one name from an index, and one that loads every name.
ONE_NAME_AND_WHOLE_LOADS = pytest.mark.parametrize(
    "command", [["query", "--name", "Leslie", "--year", "1925"], ["shift"]],
    ids=["query", "shift"])


@ONE_NAME_AND_WHOLE_LOADS
def test_an_index_with_one_byte_appended_is_refused(sample_index, tmp_path, command):
    """Nothing may follow the last stream: an index with one byte appended is
    a data error (exit 3)."""
    appended = tmp_path / "appended.idx"
    appended.write_bytes(sample_index.read_bytes() + b"x")
    assert _run(command[0], "--index", appended, *command[1:]) == 3


@ONE_NAME_AND_WHOLE_LOADS
def test_an_index_cut_short_by_one_byte_is_refused(sample_index, tmp_path, command):
    """The last stream must be whole: an index cut short by one byte is a
    data error (exit 3)."""
    cut = tmp_path / "cut.idx"
    cut.write_bytes(sample_index.read_bytes()[:-1])
    assert _run(command[0], "--index", cut, *command[1:]) == 3


def test_temporal_p_female_gives_one_answer_for_three_input_forms():
    # temporal_p_female reads infer_birth_distribution's result unchecked
    # and checks any other input: both paths give one answer.
    data = dataset.load_directory(dataset.bundled_sample_dir())
    dist = audit.infer_birth_distribution(
        1975, audit.CohortModel("triangular-window", 35, 10), data)
    probs = [audit.temporal_p_female(data, "Leslie", d) for d in (dist, list(dist), iter(dist))]
    assert probs[0] == probs[1] == probs[2], probs


def test_readme_library_block_gives_the_results_its_comments_state():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"\n## Library\n+```python\n(.*?)\n```\n", readme, re.S).group(1)
    assert "# 0.0839" in block and "# GenderLabel.MALE" in block, block
    example = {}
    exec(compile(block, "README.md", "exec"), example)
    model, prob = example["model"], example["prob"]
    assert round(prob.p_female, 4) == 0.0839, prob
    assert model.classify(prob, model.MAJORITY) is model.GenderLabel.MALE
