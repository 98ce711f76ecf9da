"""Deterministic score computation: cells, section groups, overalls, grades.

All arithmetic is exact: weights and verdict values are summed as integers
over the catalog's weight LCM, and one ``fractions.Fraction`` is built for
each reported ratio.  Percentages are only rounded to two decimals at render
time, never internally.  Scoring is a pure function of (catalog, assessment,
config), so identical inputs always yield identical score cards regardless
of execution order.

A metric *contributes* to scoring when it is applicable under the recorded
gate answers and carries a scoreable verdict.  An applicable gate without a
recorded answer switches its dependents off.  Assessment validation refuses
that gate, and applicable metrics without a scoreable verdict; when scoring
is invoked directly on such an assessment (e.g. the degenerate all
not-applicable case) they simply contribute nothing, which yields N/A cells
rather than an error.

The score card, the grade scale and the aggregation config are defined in
``reporting``, beside the card's file format.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .assessment import Assessment, VerdictValue, applicability_map
from .base import CELLS, DIMENSION_ORDER, SECTION_ORDER, Dimension, Group, Section
from .catalog import Catalog
from .reporting import (
    DEFAULT_CONFIG,
    AggregationConfig,
    OverallAggregation,
    ScoreCard,
    ScoreValue,
    SectionAggregation,
    assign_grade,
)

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
#: in the weight units of the compiled catalog, achieved scores in those
#: units times _VERDICT_SCALE.
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
    """Mean of the applicable parts: integer numerators summed over the LCM of the denominators."""
    values = [part.pct for part in parts if part.pct is not None]
    if not values:
        return ScoreValue.na()
    common = math.lcm(*(value.denominator for value in values))
    total = sum(value.numerator * (common // value.denominator) for value in values)
    return ScoreValue.percentage(Fraction(total, common * len(values)))


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
