"""Deterministic score computation: cells, section groups, overalls, grades.

All arithmetic is exact: weights and verdict values are summed as integers
over the catalog's weight LCM, and one ``fractions.Fraction`` is built for
each reported ratio.  Percentages are only rounded to two decimals at render
time, never internally.  Scoring is a pure function of (catalog, assessment,
config), so identical inputs always yield identical score cards regardless
of execution order.

A metric *contributes* to scoring when it is applicable under the recorded
gate answers and carries a scoreable verdict.  Applicable metrics without a
scoreable verdict are rejected by assessment validation; when scoring is
invoked directly on such an assessment (e.g. the degenerate all
not-applicable case) they simply contribute nothing, which yields N/A cells
rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .assessment import Assessment, SummaryMeta, Verdict, VerdictValue, applicability_map
from .catalog import (
    CELLS,
    Catalog,
    DIMENSION_ORDER,
    Dimension,
    Group,
    SECTION_ORDER,
    Section,
)
from .errors import InapplicableVerdict


@dataclass(frozen=True)
class ScoreValue:
    """A normalized percentage in [0, 100], or N/A when nothing applies."""

    pct: Fraction | None

    @classmethod
    def percentage(cls, pct: Fraction | int) -> "ScoreValue":
        pct = Fraction(pct)
        if not 0 <= pct <= 100:
            raise ValueError(f"percentage out of range: {pct}")
        return cls(pct)

    @classmethod
    def na(cls) -> "ScoreValue":
        return cls(None)

    @property
    def is_na(self) -> bool:
        return self.pct is None

    @property
    def display(self) -> str:
        """Two-decimal rendering, ``N/A`` for not-applicable."""
        if self.pct is None:
            return "N/A"
        return format_percentage(self.pct)


def format_percentage(pct: Fraction) -> str:
    """Render an exact percentage at two decimals, rounding half up."""
    n, d = pct.numerator, pct.denominator
    hundredths = (200 * n + d) // (2 * d)  # floor(pct * 100 + 1/2)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


# ---------------------------------------------------------------------------
# Grades
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradeScale:
    """Ordered (letter, inclusive minimum percentage) bands, best first."""

    bands: tuple[tuple[str, Fraction], ...]

    def check(self) -> None:
        if not self.bands:
            raise ValueError("grade scale has no bands")
        letters = [letter for letter, _ in self.bands]
        if len(set(letters)) != len(letters):
            raise ValueError("grade letters must be unique")
        mins = [m for _, m in self.bands]
        if any(a <= b for a, b in zip(mins, mins[1:])):
            raise ValueError("band minimums must be strictly decreasing")
        if mins[-1] != 0:
            raise ValueError("last band minimum must be 0 so the scale covers [0, 100]")

    def letter_rank(self, letter: str) -> int:
        """Position in the scale; 0 is the best letter."""
        for i, (name, _) in enumerate(self.bands):
            if name == letter:
                return i
        raise ValueError(f"unknown grade letter {letter!r}")


DEFAULT_GRADE_SCALE = GradeScale(
    bands=(
        ("A+", Fraction(95)),
        ("A", Fraction(90)),
        ("B+", Fraction(80)),
        ("B", Fraction(75)),
        ("C+", Fraction(70)),
        ("C", Fraction(60)),
        ("D", Fraction(30)),
        ("F", Fraction(0)),
    )
)


def assign_grade(score: ScoreValue, scale: GradeScale = DEFAULT_GRADE_SCALE) -> str:
    """Letter of the first band whose minimum is at or below the score."""
    if score.is_na:
        return "N/A"
    for letter, min_pct in scale.bands:
        if score.pct >= min_pct:
            return letter
    return scale.bands[-1][0]


# ---------------------------------------------------------------------------
# Aggregation configuration
# ---------------------------------------------------------------------------


class SectionAggregation(Enum):
    """How a section's Transparency/Usefulness score combines its metrics."""

    POOLED_WEIGHTED = "pooled-weighted"
    MEAN_OF_DIMENSIONS = "mean-of-dimensions"


class OverallAggregation(Enum):
    """How the overall group score combines the sections."""

    POOLED_WEIGHTED = "pooled-weighted"
    MEAN_OF_SECTIONS = "mean-of-sections"


@dataclass(frozen=True)
class AggregationConfig:
    section_group_strategy: SectionAggregation = SectionAggregation.POOLED_WEIGHTED
    overall_strategy: OverallAggregation = OverallAggregation.POOLED_WEIGHTED
    grade_scale: GradeScale = field(default_factory=lambda: DEFAULT_GRADE_SCALE)


DEFAULT_CONFIG = AggregationConfig()


# ---------------------------------------------------------------------------
# Score computation
# ---------------------------------------------------------------------------


def metric_score(verdict: Verdict, weight: Fraction) -> Fraction:
    """Weighted score of one verdict: numeric value times weight."""
    if not verdict.value.is_scoreable:
        raise InapplicableVerdict("not-applicable verdicts have no numeric value")
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    return verdict.value.numeric * weight


#: Scoreable verdict tokens as integers over their common denominator.
_VERDICT_SCALE = math.lcm(*(v.numeric.denominator for v in VerdictValue if v.is_scoreable))
_VERDICT_UNITS = {v.token: (v.numeric * _VERDICT_SCALE).numerator for v in VerdictValue if v.is_scoreable}


def _cells_of(sections, dimensions) -> tuple[int, ...]:
    return tuple(CELLS.index((s, d)) for s in sections for d in dimensions)


_GROUP_DIMENSIONS = {group: tuple(d for d in DIMENSION_ORDER if d.group is group) for group in Group}
_SECTION_GROUP_CELLS = {
    (section, group): _cells_of([section], _GROUP_DIMENSIONS[group]) for section in SECTION_ORDER for group in Group
}
_GROUP_CELLS = {group: _cells_of(SECTION_ORDER, _GROUP_DIMENSIONS[group]) for group in Group}
_DIMENSION_CELLS = {dimension: _cells_of(SECTION_ORDER, [dimension]) for dimension in DIMENSION_ORDER}

#: (achieved, weight) integer sums per cell, aligned with CELLS.  Weights are
#: in units of 1/weight_scale of the compiled catalog, achieved scores in
#: units of 1/(weight_scale * _VERDICT_SCALE).
_Pools = list[tuple[int, int]]


def _pool_score(achieved: int, weight: int) -> ScoreValue:
    if weight == 0:
        return ScoreValue.na()
    return ScoreValue.percentage(Fraction(100 * achieved, _VERDICT_SCALE * weight))


def _cell_pools(catalog: Catalog, assessment: Assessment) -> _Pools:
    """One pass over contributing metrics, accumulated per (section, dimension)."""
    amap = applicability_map(catalog, assessment)
    verdicts = assessment.verdicts
    achieved = [0] * len(CELLS)
    weight = [0] * len(CELLS)
    for metric_id, _, _, cell, units in catalog.compiled.rows:
        if not amap[metric_id]:
            continue
        verdict = verdicts.get(metric_id)
        value = None if verdict is None else _VERDICT_UNITS.get(verdict.value.token)
        if value is None:
            continue
        achieved[cell] += value * units
        weight[cell] += units
    return list(zip(achieved, weight))


def _pooled(pools: _Pools, cells: tuple[int, ...]) -> ScoreValue:
    return _pool_score(sum(pools[i][0] for i in cells), sum(pools[i][1] for i in cells))


def _mean(parts: list[ScoreValue]) -> ScoreValue:
    values = [part.pct for part in parts if not part.is_na]
    if not values:
        return ScoreValue.na()
    return ScoreValue.percentage(sum(values, Fraction(0)) / len(values))


def _cell_scores(pools: _Pools) -> list[ScoreValue]:
    return [_pool_score(achieved, weight) for achieved, weight in pools]


def _section_groups(
    pools: _Pools,
    cell_scores: list[ScoreValue],
    config: AggregationConfig,
) -> dict[tuple[Section, Group], ScoreValue]:
    if config.section_group_strategy is SectionAggregation.POOLED_WEIGHTED:
        return {key: _pooled(pools, cells) for key, cells in _SECTION_GROUP_CELLS.items()}
    return {key: _mean([cell_scores[i] for i in cells]) for key, cells in _SECTION_GROUP_CELLS.items()}


def _overall(
    pools: _Pools,
    section_groups: dict[tuple[Section, Group], ScoreValue],
    config: AggregationConfig,
) -> dict[Group, ScoreValue]:
    if config.overall_strategy is OverallAggregation.POOLED_WEIGHTED:
        return {group: _pooled(pools, cells) for group, cells in _GROUP_CELLS.items()}
    return {group: _mean([section_groups[(s, group)] for s in SECTION_ORDER]) for group in Group}


def _dimension_overall(
    pools: _Pools,
    cell_scores: list[ScoreValue],
    config: AggregationConfig,
) -> dict[Dimension, ScoreValue]:
    if config.overall_strategy is OverallAggregation.POOLED_WEIGHTED:
        return {dimension: _pooled(pools, cells) for dimension, cells in _DIMENSION_CELLS.items()}
    return {dimension: _mean([cell_scores[i] for i in cells]) for dimension, cells in _DIMENSION_CELLS.items()}


@dataclass(frozen=True)
class ScoreCard:
    """Full score matrix for one assessed summary."""

    meta: SummaryMeta
    catalog_ref: str
    config_used: AggregationConfig
    per_cell: dict[tuple[Section, Dimension], ScoreValue]
    per_section_group: dict[tuple[Section, Group], ScoreValue]
    per_dimension_overall: dict[Dimension, ScoreValue]
    overall: dict[Group, ScoreValue]
    grades: dict[Group, str]


def score_summary(
    catalog: Catalog,
    assessment: Assessment,
    config: AggregationConfig = DEFAULT_CONFIG,
) -> ScoreCard:
    """Compute the complete score card for one assessment."""
    config.grade_scale.check()
    pools = _cell_pools(catalog, assessment)
    cell_scores = _cell_scores(pools)
    per_section_group = _section_groups(pools, cell_scores, config)
    overall = _overall(pools, per_section_group, config)
    grades = {group: assign_grade(overall[group], config.grade_scale) for group in Group}

    return ScoreCard(
        meta=assessment.meta,
        catalog_ref=assessment.catalog_ref,
        config_used=config,
        per_cell=dict(zip(CELLS, cell_scores)),
        per_section_group=per_section_group,
        per_dimension_overall=_dimension_overall(pools, cell_scores, config),
        overall=overall,
        grades=grades,
    )
