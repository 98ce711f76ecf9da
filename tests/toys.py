"""Small hand-built catalogs/assessments shared across test modules."""

from dataclasses import replace
from datetime import date
from fractions import Fraction

from summaryqa.assessment import Assessment, Verdict, VerdictValue, applicability_map
from summaryqa.base import Dimension, PublishedForm, Section, SummaryMeta
from summaryqa.catalog import ApplicabilityRule, Catalog, Metric

S = VerdictValue.SUFFICIENT
P = VerdictValue.PARTIALLY_SUFFICIENT
I = VerdictValue.INSUFFICIENT
NA = VerdictValue.NOT_APPLICABLE


def toy_metric(
    mid,
    section=Section.DOCUMENT,
    dimension=Dimension.CLARITY,
    weight=1,
    gate=None,
    answer="yes",
    optional=False,
):
    rule = ApplicabilityRule.always() if gate is None else ApplicabilityRule.if_gate(gate, answer)
    return Metric(
        id=mid,
        element_id="1.1.a",
        section=section,
        dimension=dimension,
        weight=Fraction(weight),
        prompt=f"Check {mid}.",
        optional_field=optional,
        applicability=rule,
    )


def toy_catalog(*metrics, name="toy", version="0.1"):
    return Catalog(name, version, tuple(metrics))


def toy_meta(**overrides):
    base = dict(
        provider="ExampleCo",
        model="Example-7B",
        summary_title="Example-7B training content disclosure",
        source_url="https://example.org/summary",
        published_form=PublishedForm.PDF,
        assessed_version_date=date(2026, 1, 12),
        archived_copy_digest=None,
    )
    base.update(overrides)
    return SummaryMeta(**base)


def toy_assessment(catalog, verdicts, **overrides):
    kwargs = dict(meta=toy_meta(), catalog_ref=catalog.ref, verdicts=verdicts, evaluator="eva")
    kwargs.update(overrides)
    return Assessment(**kwargs)


def uniform_assessment(catalog, value, gate_answer="yes"):
    """Every applicable metric gets the same verdict; gates all answer alike.

    Metrics switched off by the gate answers are recorded as explicit
    not-applicable so the result satisfies the assessment invariants.
    """
    gate_ids = {
        m.applicability.gate_metric_id for m in catalog.metrics if m.applicability.gate_metric_id is not None
    }
    verdicts = {}
    for m in catalog.metrics:
        note = f"gate={gate_answer}" if m.id in gate_ids else ""
        verdicts[m.id] = Verdict(value, note)
    draft = toy_assessment(catalog, verdicts)
    amap = applicability_map(catalog, draft)
    fixed = {mid: v if amap[mid] else Verdict(NA, v.note) for mid, v in verdicts.items()}
    return toy_assessment(catalog, fixed)


def with_verdict(assessment, metric_id, verdict):
    """The assessment with one verdict recorded or replaced."""
    return replace(assessment, verdicts={**assessment.verdicts, metric_id: verdict})


def applicable_metrics(catalog, assessment):
    """Ids of the metrics that count toward scoring, in catalog order."""
    amap = applicability_map(catalog, assessment)
    return [m.id for m in catalog.metrics if amap[m.id]]


def letter_rank(scale, letter):
    """Position of a grade letter in the scale; 0 is the best."""
    return [name for name, _ in scale.bands].index(letter)
