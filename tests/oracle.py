"""Independent brute-force scorer used to cross-check the scoring engine.

Deliberately shares no computation code with summaryqa.scoring: applicability
is resolved by fixpoint iteration instead of recursion, and every aggregate
is recomputed by filtering the raw metric list and summing directly.
Values are exact Fractions; None stands for not-applicable.
"""

from fractions import Fraction

SCOREABLE = {"sufficient": Fraction(1), "partially-sufficient": Fraction(1, 2), "insufficient": Fraction(0)}


def _rows(catalog, assessment):
    """Flatten to plain tuples: (id, section, dimension, group, weight, rule)."""
    rows = []
    for m in catalog.metrics:
        rule = m.applicability
        gate = None
        if rule.gate_metric_id is not None:
            gate = (rule.gate_metric_id, rule.required_answer)
        rows.append(
            {
                "id": m.id,
                "section": m.section.code,
                "dimension": m.dimension.code,
                "group": m.dimension.group.value,
                "weight": m.weight,
                "gate": gate,
            }
        )
    return rows


def _answers(assessment):
    answers = {}
    for mid, verdict in assessment.verdicts.items():
        head = verdict.note.split(";")[0].strip()
        if head == "gate=yes":
            answers[mid] = "yes"
        elif head == "gate=no":
            answers[mid] = "no"
    return answers


def _applicable_fixpoint(rows, answers):
    applicable = {r["id"]: r["gate"] is None for r in rows}
    changed = True
    while changed:
        changed = False
        for r in rows:
            if r["gate"] is None or applicable[r["id"]]:
                continue
            gate_id, wanted = r["gate"]
            if applicable.get(gate_id) and answers.get(gate_id) == wanted:
                applicable[r["id"]] = True
                changed = True
    return applicable


def _numeric(assessment, mid):
    verdict = assessment.verdicts.get(mid)
    if verdict is None:
        return None
    return SCOREABLE.get(verdict.value.token)


def _ratio(pairs):
    """100 * sum(value*weight) / sum(weight), or None when nothing pools."""
    total_w = Fraction(0)
    total_v = Fraction(0)
    for value, weight in pairs:
        total_w += weight
        total_v += value * weight
    if total_w == 0:
        return None
    return 100 * total_v / total_w


def _avg(values):
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present, Fraction(0)) / len(present)


SECTIONS = (
    "Document",
    "GeneralInformation",
    "PublicDataSources",
    "PrivateDataSources",
    "ScrapedCrawledData",
    "UserData",
    "SyntheticOtherData",
    "DataProcessing",
)
DIMENSIONS = ("Clarity", "Completeness", "Consistency", "Correctness", "Accessibility", "Comprehension")
GROUP_OF = {
    "Clarity": "Transparency",
    "Completeness": "Transparency",
    "Consistency": "Transparency",
    "Correctness": "Transparency",
    "Accessibility": "Usefulness",
    "Comprehension": "Usefulness",
}
GROUPS = ("Transparency", "Usefulness")


def oracle_scorecard(catalog, assessment, section_strategy="pooled-weighted", overall_strategy="pooled-weighted"):
    """Recompute every score by direct summation.

    Returns dicts keyed by plain strings:
      cells[(section, dimension)], section_groups[(section, group)],
      dimension_overall[dimension], overall[group]; values Fraction | None.
    """
    rows = _rows(catalog, assessment)
    applicable = _applicable_fixpoint(rows, _answers(assessment))

    def contributing(pred):
        pairs = []
        for r in rows:
            if not applicable[r["id"]] or not pred(r):
                continue
            value = _numeric(assessment, r["id"])
            if value is None:
                continue
            pairs.append((value, r["weight"]))
        return pairs

    cells = {}
    for section in SECTIONS:
        for dimension in DIMENSIONS:
            cells[(section, dimension)] = _ratio(
                contributing(lambda r: r["section"] == section and r["dimension"] == dimension)
            )

    section_groups = {}
    for section in SECTIONS:
        for group in GROUPS:
            if section_strategy == "pooled-weighted":
                section_groups[(section, group)] = _ratio(
                    contributing(lambda r: r["section"] == section and r["group"] == group)
                )
            else:
                section_groups[(section, group)] = _avg(
                    [cells[(section, d)] for d in DIMENSIONS if GROUP_OF[d] == group]
                )

    overall = {}
    dimension_overall = {}
    for group in GROUPS:
        if overall_strategy == "pooled-weighted":
            overall[group] = _ratio(contributing(lambda r: r["group"] == group))
        else:
            overall[group] = _avg([section_groups[(s, group)] for s in SECTIONS])
    for dimension in DIMENSIONS:
        if overall_strategy == "pooled-weighted":
            dimension_overall[dimension] = _ratio(contributing(lambda r: r["dimension"] == dimension))
        else:
            dimension_overall[dimension] = _avg([cells[(s, dimension)] for s in SECTIONS])

    return {
        "cells": cells,
        "section_groups": section_groups,
        "dimension_overall": dimension_overall,
        "overall": overall,
    }


def assert_card_matches_oracle(card, expected):
    """Exact rational comparison of a ScoreCard against an oracle result: a Fraction
    equals the oracle's Fraction, and N/A (None) the oracle's None."""
    for (section, dimension), got in card.per_cell.items():
        want = expected["cells"][(section.code, dimension.code)]
        assert got == want and type(got) is type(want), f"cell {section.code}/{dimension.code}: {got} != {want}"
    for (section, group), got in card.per_section_group.items():
        want = expected["section_groups"][(section.code, group.value)]
        assert got == want and type(got) is type(want), f"section-group {section.code}/{group.value}: {got} != {want}"
    for dimension, got in card.per_dimension_overall.items():
        want = expected["dimension_overall"][dimension.code]
        assert got == want and type(got) is type(want), f"dimension-overall {dimension.code}: {got} != {want}"
    for group, got in card.overall.items():
        want = expected["overall"][group.value]
        assert got == want and type(got) is type(want), f"overall {group.value}: {got} != {want}"
