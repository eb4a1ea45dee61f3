"""Checks of the package as a user imports it, with no name from the checkout.

Tier-1 runs them against ``src/``. CI runs this file again outside the
checkout, against the installed package with every warning an error, so a
package-data glob that misses a bundled file or an API rename that leaves
README behind fails there too.
"""
import re
from pathlib import Path

from temponym import audit, dataset, services

README = Path(__file__).resolve().parents[1] / "README.md"


def test_bundled_data_is_present():
    assert sorted(dataset.bundled_sample_dir().glob("yob*.txt"))
    assert audit.load_corpus_csv()
    assert services.fixture_configs()


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
