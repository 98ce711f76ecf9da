"""Deterministic score computation: cells, section groups, overalls, grades.

All arithmetic is exact: weights and verdict values are summed as integers
over the catalog's weight LCM, and one ``fractions.Fraction`` is built for
each reported ratio, or None for N/A.  Percentages are only rounded to two
decimals at render time, never internally.  Each is in [0, 100] by this
arithmetic, as every weight is positive (``score`` refuses a catalog with a
``nonpositive-weight`` finding), so only the card decoder checks the range.
Scoring is a pure function of (catalog, assessment, config), so identical
inputs always yield identical score cards regardless of execution order.

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
from typing import Callable

from .assessment import Assessment, VerdictValue, applicability_map
from .base import CELLS, DIMENSION_ORDER, SECTION_ORDER, Group
from .catalog import Catalog
from .reporting import (
    DEFAULT_CONFIG,
    AggregationConfig,
    OverallAggregation,
    ScoreCard,
    SectionAggregation,
    assign_grade,
)

#: Scoreable verdict tokens as integers over their common denominator.
_VERDICT_SCALE = math.lcm(*(v.numeric.denominator for v in VerdictValue if v.is_scoreable))
_VERDICT_UNITS = {v.token: (v.numeric * _VERDICT_SCALE).numerator for v in VerdictValue if v.is_scoreable}


def _cells_of(sections, dimensions) -> tuple[int, ...]:
    return tuple(CELLS.index((s, d)) for s in sections for d in dimensions)


_GROUP_DIMENSIONS = {group: tuple(d for d in DIMENSION_ORDER if d.group is group) for group in Group}
#: The cells each reported score covers, by its key in the score card.
_CELL_CELLS = {cell: (i,) for i, cell in enumerate(CELLS)}
_SECTION_GROUP_CELLS = {
    (section, group): _cells_of([section], _GROUP_DIMENSIONS[group]) for section in SECTION_ORDER for group in Group
}
_GROUP_CELLS = {group: _cells_of(SECTION_ORDER, _GROUP_DIMENSIONS[group]) for group in Group}
_DIMENSION_CELLS = {dimension: _cells_of(SECTION_ORDER, [dimension]) for dimension in DIMENSION_ORDER}

#: (achieved, weight) integer sums per cell, aligned with CELLS.  Weights are
#: in the weight units of the compiled catalog, achieved scores in those
#: units times _VERDICT_SCALE.
_Pools = list[tuple[int, int]]


def _pool_score(achieved: int, weight: int) -> Fraction | None:
    return Fraction(100 * achieved, _VERDICT_SCALE * weight) if weight else None


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


def _mean(parts: list[Fraction | None]) -> Fraction | None:
    """Mean of the applicable parts: integer numerators summed over the LCM of the denominators."""
    values = [part for part in parts if part is not None]
    if not values:
        return None
    common = math.lcm(*(value.denominator for value in values))
    total = sum(value.numerator * (common // value.denominator) for value in values)
    return Fraction(total, common * len(values))


def _aggregate(index: dict, pooled: bool, pools: _Pools, parts: Callable[..., list] | None = None) -> dict:
    """Score each key of ``index``, which lists the cells it covers: the pooled
    sums of those cells, or, unless ``pooled``, the mean of ``parts(key, cells)``."""
    if pooled:
        return {
            key: _pool_score(sum(pools[i][0] for i in cells), sum(pools[i][1] for i in cells))
            for key, cells in index.items()
        }
    return {key: _mean(parts(key, cells)) for key, cells in index.items()}


def score_summary(
    catalog: Catalog,
    assessment: Assessment,
    config: AggregationConfig = DEFAULT_CONFIG,
) -> ScoreCard:
    """Compute the complete score card for one assessment."""
    config.grade_scale.check()
    pools = _cell_pools(catalog, assessment)
    per_cell = _aggregate(_CELL_CELLS, True, pools)
    cell_scores = list(per_cell.values())
    of_cells = lambda _, cells: [cell_scores[i] for i in cells]
    sections_pooled = config.section_group_strategy is SectionAggregation.POOLED_WEIGHTED
    overall_pooled = config.overall_strategy is OverallAggregation.POOLED_WEIGHTED
    per_section_group = _aggregate(_SECTION_GROUP_CELLS, sections_pooled, pools, of_cells)
    overall = _aggregate(
        _GROUP_CELLS, overall_pooled, pools, lambda group, _: [per_section_group[(s, group)] for s in SECTION_ORDER]
    )
    return ScoreCard(
        meta=assessment.meta,
        catalog_ref=assessment.catalog_ref,
        config_used=config,
        per_cell=per_cell,
        per_section_group=per_section_group,
        per_dimension_overall=_aggregate(_DIMENSION_CELLS, overall_pooled, pools, of_cells),
        overall=overall,
        grades={group: assign_grade(overall[group], config.grade_scale) for group in Group},
    )
