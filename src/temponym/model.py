"""Female-gender probabilities for names, conditioned on time.

A probability is always an exact count ratio over an explicit temporal
context: a single year, a window around a year, or a pooled year range;
no smoothing is applied, so a name without births in the context has no
probability (``NoData``).
The pooled form mimics the "present-day snapshot" behaviour of commercial
gender APIs and serves as the atemporal baseline in bias audits.
"""
from __future__ import annotations

from enum import Enum
from functools import partial
from typing import NamedTuple

from . import errors
from .dataset import Dataset, Record

DEFAULT_MIN_SUPPORT = 20

# Constant p(F) a major vendor assigns the name Leslie, useful as a
# reference line against the temporal trajectories.
NAMSOR_LESLIE_REFERENCE = 0.874


class GenderLabel(Enum):
    FEMALE = "F"
    MALE = "M"
    UNKNOWN = "U"


# The members, bound once for ``classify``: reading one off the class costs
# a lookup through the enum's metaclass.
_FEMALE, _MALE, _UNKNOWN = GenderLabel


class GenderProbability(NamedTuple):
    """An immutable p(F) with the counts it was computed from.

    A named tuple rather than a frozen dataclass: every lookup builds one,
    and a tuple is built about three times as fast.
    """

    name: str
    context: str
    p_female: float
    female_count: int
    male_count: int

    @property
    def support(self) -> int:
        return self.female_count + self.male_count


# Builds a GenderProbability from the tuple of its fields, as ``_make`` does
# but without its Python frame: every lookup builds one.
_probability = partial(tuple.__new__, GenderProbability)


class ClassificationPolicy(Record):
    """How a probability becomes a Female/Male/Unknown label.

    A probability is labelled Female above ``threshold`` and Male below
    ``1 - threshold``, and Unknown otherwise or when fewer than
    ``min_support`` births back it. A threshold of 0.5 is the majority
    rule; 0.95 is the common >0.95 rule.
    """

    # _ratio is the threshold as an integer ratio, kept for ``classify``
    __slots__ = ("threshold", "min_support", "_ratio")
    _compared = ("threshold", "min_support")

    def __init__(self, threshold: float, min_support: int):
        if not 0.5 <= threshold <= 1.0:
            raise errors.ConfigError("threshold must be in [0.5, 1]")
        if min_support < 1:
            raise errors.ConfigError("min_support must be >= 1")
        self._init(threshold=threshold, min_support=min_support,
                   _ratio=threshold.as_integer_ratio())


MAJORITY = ClassificationPolicy(0.5, DEFAULT_MIN_SUPPORT)
T95 = ClassificationPolicy(0.95, 1)


def p_female(
    dataset: Dataset, name: str, year: int, fold_diacritics: bool = False
) -> GenderProbability:
    """p(F) for a single year of birth: female count over total count."""
    counts = dataset.lookup(name, year, fold_diacritics)
    if counts is None:
        raise errors.NoData(name, str(year))
    female, male = counts
    # int / int is correctly rounded, at any size
    return _probability((name, str(year), female / (female + male), female, male))


def p_female_windowed(
    dataset: Dataset,
    name: str,
    center_year: int,
    half_width: int,
    fold_diacritics: bool = False,
) -> GenderProbability:
    """p(F) over [center-h, center+h]; counts summed before dividing."""
    lo, hi = center_year - half_width, center_year + half_width
    return _accumulate(dataset, name, lo, hi,
                       f"{lo}..{hi} (window around {center_year})", fold_diacritics)


def p_female_pooled(
    dataset: Dataset,
    name: str,
    year_range: tuple[int, int],
    fold_diacritics: bool = False,
) -> GenderProbability:
    """p(F) pooled over every loaded year in the range (atemporal snapshot).

    ``year_range`` is an inclusive ``(first, last)`` pair of years and must
    hold at least one year.
    """
    first, last = year_range
    return _accumulate(dataset, name, first, last, f"pooled {first}..{last}", fold_diacritics)


def _accumulate(dataset, name, first, last, context, fold_diacritics):
    lo, hi = dataset.year_span(first, last)
    num, den, female, male = dataset.sums(dataset.resolve(name, fold_diacritics), lo, hi)
    if not den:
        raise errors.NoData(name, context)
    return _probability((name, context, num / den, female, male))


def classify(prob: GenderProbability, policy: ClassificationPolicy = MAJORITY) -> GenderLabel:
    """Label a probability under a policy; Unknown when conditions unmet."""
    _, _, p, female, male = prob
    support = female + male
    if support < policy.min_support:
        return _UNKNOWN
    # Exact rational comparison, in integers, so that swapping the counts
    # mirrors the label exactly, even at threshold boundaries.
    if female / support != p:  # a mixture, not the counts' ratio; compare it
        female, support = p.as_integer_ratio()
    num, den = policy._ratio
    if female * den > num * support:  # p > threshold
        return _FEMALE
    if female * den < (den - num) * support:  # p < 1 - threshold
        return _MALE
    return _UNKNOWN


def ambiguous_name_share(dataset: Dataset, year: int) -> float:
    """Share of children (not names) given a name used for both sexes."""
    cells = dataset.year_cells(year).values()
    total = sum(map(sum, cells))
    if total == 0:
        return 0.0
    ambiguous = sum(female + male for female, male in cells if female and male)
    return ambiguous / total
