"""Assessment parsing, validation, gate answers, and applicability."""

import io
import random
from dataclasses import replace
from datetime import date
from fractions import Fraction

import pytest

from summaryqa.assessment import (
    Assessment,
    PublishedForm,
    SummaryMeta,
    Verdict,
    VerdictValue,
    applicability_map,
    applicable_metrics,
    assessment_findings,
    check_assessment,
    dumps_assessment,
    load_assessment,
    parse_assessment,
)
from summaryqa.catalog import ApplicabilityRule, Catalog, Dimension, Metric, Section
from summaryqa.errors import (
    CatalogMismatch,
    GateUnanswered,
    MalformedAssessment,
    MissingVerdict,
    SummaryQAError,
    UnknownMetricId,
)

from randgen import SCOREABLE, random_assessment, random_catalog

S = VerdictValue.SUFFICIENT
P = VerdictValue.PARTIALLY_SUFFICIENT
I = VerdictValue.INSUFFICIENT
NA = VerdictValue.NOT_APPLICABLE


def make_metric(mid, gate=None, answer="yes", section=Section.DOCUMENT, dimension=Dimension.CLARITY):
    rule = ApplicabilityRule.always() if gate is None else ApplicabilityRule.if_gate(gate, answer)
    return Metric(
        id=mid,
        element_id="1.1.a",
        section=section,
        dimension=dimension,
        weight=Fraction(1),
        prompt=f"Check {mid}.",
        applicability=rule,
    )


def make_catalog(*metrics):
    return Catalog("toy", "0.1", tuple(metrics))


def make_meta(**overrides):
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


def make_assessment(catalog, verdicts, **overrides):
    kwargs = dict(meta=make_meta(), catalog_ref=catalog.ref, verdicts=verdicts, evaluator="eva")
    kwargs.update(overrides)
    return Assessment(**kwargs)


class TestVerdicts:
    def test_numeric_mapping_is_fixed(self):
        assert S.numeric == 1
        assert P.numeric == Fraction(1, 2)
        assert I.numeric == 0
        assert NA.numeric is None

    def test_gate_answer_prefix(self):
        assert Verdict(S, "gate=yes").gate_answer == "yes"
        assert Verdict(I, "gate=no; nothing stated").gate_answer == "no"
        assert Verdict(S, "looks fine").gate_answer is None
        assert Verdict(S, "").gate_answer is None

    def test_free_note_strips_prefix(self):
        assert Verdict(S, "gate=yes; detailed list given").free_note == "detailed list given"
        assert Verdict(S, "plain remark").free_note == "plain remark"


class TestApplicability:
    def test_no_gates_all_applicable(self):
        cat = make_catalog(make_metric("A"), make_metric("B"))
        a = make_assessment(cat, {"A": Verdict(S), "B": Verdict(I)})
        assert applicable_metrics(cat, a) == ["A", "B"]

    def test_gate_yes_includes_dependents(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=yes"), "D": Verdict(P)})
        assert applicable_metrics(cat, a) == ["G", "D"]

    def test_gate_no_excludes_dependents(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no")})
        assert applicable_metrics(cat, a) == ["G"]

    def test_two_independent_gates(self):
        # Hand enumeration on a 6-metric catalog: gate G1=yes activates D1a/D1b,
        # gate G2=no deactivates D2a/D2b.
        cat = make_catalog(
            make_metric("G1"),
            make_metric("D1a", gate="G1"),
            make_metric("D1b", gate="G1"),
            make_metric("G2"),
            make_metric("D2a", gate="G2"),
            make_metric("D2b", gate="G2"),
        )
        a = make_assessment(
            cat,
            {
                "G1": Verdict(S, "gate=yes"),
                "D1a": Verdict(S),
                "D1b": Verdict(I),
                "G2": Verdict(S, "gate=no"),
            },
        )
        assert applicable_metrics(cat, a) == ["G1", "D1a", "D1b", "G2"]

    def test_required_answer_no(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G", answer="no"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no"), "D": Verdict(S)})
        assert applicable_metrics(cat, a) == ["G", "D"]

    def test_chained_gate_off_at_root(self):
        cat = make_catalog(
            make_metric("G1"),
            make_metric("G2", gate="G1"),
            make_metric("D", gate="G2"),
        )
        a = make_assessment(cat, {"G1": Verdict(I, "gate=no")})
        # G2 is inapplicable, so its missing answer is irrelevant and D is off.
        assert applicable_metrics(cat, a) == ["G1"]

    def test_unanswered_applicable_gate_raises(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S), "D": Verdict(S)})
        with pytest.raises(GateUnanswered):
            applicable_metrics(cat, a)

    def test_monotone_in_gates(self):
        cat = make_catalog(
            make_metric("G1"),
            make_metric("D1", gate="G1"),
            make_metric("G2", gate="G1"),
            make_metric("D2", gate="G2"),
        )
        before = make_assessment(
            cat,
            {"G1": Verdict(S, "gate=no"), "G2": Verdict(NA, "gate=yes")},
        )
        after = before.with_verdict("G1", Verdict(S, "gate=yes")).with_verdict("D1", Verdict(S)).with_verdict(
            "G2", Verdict(S, "gate=yes")
        ).with_verdict("D2", Verdict(S))
        assert set(applicable_metrics(cat, before)) <= set(applicable_metrics(cat, after))

    # Dependents listed before their gates, and G1 -> G2 -> D chained two
    # deep.  Expected orders are those of a depth-first recursive resolution
    # that visits metrics in catalog order.
    def deep_catalog(self):
        return make_catalog(
            make_metric("D", gate="G2"),
            make_metric("F", gate="H"),
            make_metric("H"),
            make_metric("E", gate="G1", answer="no"),
            make_metric("G2", gate="G1"),
            make_metric("G1"),
            make_metric("A"),
        )

    def test_gate_after_dependents_resolves_in_post_order(self):
        cat = self.deep_catalog()
        a = make_assessment(
            cat,
            {
                "G1": Verdict(S, "gate=yes"),
                "G2": Verdict(P, "gate=yes"),
                "H": Verdict(I, "gate=no"),
                "D": Verdict(S),
                "A": Verdict(S),
            },
        )
        assert list(applicability_map(cat, a).items()) == [
            ("G1", True), ("G2", True), ("D", True), ("H", True), ("F", False), ("E", False), ("A", True),
        ]
        off = make_assessment(cat, {"G1": Verdict(S, "gate=no"), "H": Verdict(S, "gate=yes")})
        assert list(applicability_map(cat, off).items()) == [
            ("G1", True), ("G2", False), ("D", False), ("H", True), ("F", True), ("E", True), ("A", True),
        ]

    @pytest.mark.parametrize(
        "answered, first, findings",
        [
            ({"G1": Verdict(S, "gate=yes"), "G2": Verdict(S), "H": Verdict(S)}, "G2", ["G2", "H"]),
            ({"G1": Verdict(S), "H": Verdict(S)}, "G1", ["G1", "H"]),
        ],
    )
    def test_unanswered_gates_named_in_post_order(self, answered, first, findings):
        cat = self.deep_catalog()
        a = make_assessment(cat, answered)
        with pytest.raises(GateUnanswered) as exc:
            applicability_map(cat, a)
        assert exc.value.gate_id == first
        unanswered = [f.locus for f in assessment_findings(cat, a) if f.code == "gate-unanswered"]
        assert unanswered == findings

    def test_repeated_id_takes_first_occurrence_rule(self):
        cat = make_catalog(
            make_metric("X", gate="G"),
            make_metric("G"),
            make_metric("X", section=Section.USER_DATA),
            make_metric("G", gate="X", answer="no"),
            make_metric("Y", gate="X"),
        )
        a = make_assessment(cat, {"G": Verdict(S, "gate=no"), "X": Verdict(P)})
        assert list(applicability_map(cat, a).items()) == [("G", True), ("X", False), ("Y", False)]
        assert [(f.code, f.locus) for f in assessment_findings(cat, a)] == [
            ("verdict-on-inapplicable", "X"),
            ("verdict-on-inapplicable", "X"),
        ]

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ([("A", None), ("B", "C"), ("C", "B")], "applicability cycle through 'B'; validate the catalog first"),
            ([("A", "A")], "applicability cycle through 'A'; validate the catalog first"),
            ([("A", None), ("B", "Z")], "metric 'B' gates on unknown metric 'Z'; validate the catalog first"),
            ([("B", "C"), ("C", "Z")], "metric 'C' gates on unknown metric 'Z'; validate the catalog first"),
        ],
    )
    def test_broken_gate_graph_raises(self, metrics, message):
        cat = make_catalog(*(make_metric(mid, gate=gate) for mid, gate in metrics))
        with pytest.raises(ValueError) as exc:
            applicability_map(cat, make_assessment(cat, {}))
        assert str(exc.value) == message


class TestValidation:
    def test_valid_assessment_no_findings(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)})
        assert assessment_findings(cat, a) == []
        check_assessment(cat, a)

    def test_unknown_metric_id(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S), "F9.9.z": Verdict(S)})
        with pytest.raises(UnknownMetricId):
            check_assessment(cat, a)
        assert "unknown-metric-id" in [f.code for f in assessment_findings(cat, a)]

    def test_catalog_mismatch(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)}, catalog_ref="other/9.9")
        with pytest.raises(CatalogMismatch):
            check_assessment(cat, a)

    def test_missing_applicable_verdict(self):
        cat = make_catalog(make_metric("A"), make_metric("B"))
        a = make_assessment(cat, {"A": Verdict(S)})
        with pytest.raises(MissingVerdict) as exc:
            check_assessment(cat, a)
        assert exc.value.metric_ids == ["B"]

    def test_na_verdict_on_applicable_metric_is_missing(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(NA)})
        with pytest.raises(MissingVerdict):
            check_assessment(cat, a)

    def test_gated_out_metrics_may_be_absent(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no")})
        assert assessment_findings(cat, a) == []

    def test_gated_out_metrics_may_be_explicit_na(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no"), "D": Verdict(NA)})
        assert assessment_findings(cat, a) == []

    def test_future_date_flagged(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)}, meta=make_meta(assessed_version_date=date(2099, 1, 1)))
        assert "future-date" in [f.code for f in assessment_findings(cat, a)]

    def test_checks_take_today_instead_of_the_clock(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)})  # assessed 2026-01-12
        day_before, same_day = date(2026, 1, 11), date(2026, 1, 12)
        with pytest.raises(MalformedAssessment, match="in the future"):
            check_assessment(cat, a, today=day_before)
        check_assessment(cat, a, today=same_day)
        assert [f.code for f in assessment_findings(cat, a, today=day_before)] == ["future-date"]
        assert assessment_findings(cat, a, today=same_day) == []
        text = dumps_assessment(a).encode()
        with pytest.raises(MalformedAssessment, match="in the future"):
            load_assessment(io.BytesIO(text), cat, today=day_before)
        assert load_assessment(io.BytesIO(text), cat, today=same_day) == a

    def test_validity_invariant_under_verdict_permutation(self):
        cat = make_catalog(make_metric("A"), make_metric("B"), make_metric("C"))
        verdicts = {"A": Verdict(S), "B": Verdict(P), "C": Verdict(I)}
        a = make_assessment(cat, verdicts)
        reversed_map = dict(reversed(list(verdicts.items())))
        b = make_assessment(cat, reversed_map)
        assert assessment_findings(cat, a) == assessment_findings(cat, b)


CHECK_CATALOG = make_catalog(
    make_metric("A"),
    make_metric("B"),
    make_metric("G"),
    make_metric("D1", gate="G"),
    make_metric("D2", gate="G"),
)
CHECK_VALID = {"A": Verdict(S), "B": Verdict(P), "G": Verdict(I, "gate=yes"), "D1": Verdict(S), "D2": Verdict(I)}
CHECK_TODAY = date(2026, 1, 31)


def check_case(drop=(), catalog_ref=CHECK_CATALOG.ref, meta=None, **changes):
    """CHECK_VALID without the ``drop`` ids and with ``changes`` applied."""
    verdicts = {k: v for k, v in CHECK_VALID.items() if k not in drop}
    verdicts.update(changes)
    return make_assessment(CHECK_CATALOG, verdicts, catalog_ref=catalog_ref, meta=meta or make_meta())


class TestCheckMatchesFindings:
    """check_assessment raises exactly when assessment_findings reports something."""

    @pytest.mark.parametrize(
        "assessment,error,message",
        [
            pytest.param(
                check_case(meta=make_meta(provider="")),
                MalformedAssessment,
                "provider and model must be non-empty",
                id="empty-provider",
            ),
            pytest.param(
                check_case(meta=make_meta(model="", assessed_version_date=date(2026, 2, 1))),
                MalformedAssessment,
                "provider and model must be non-empty",
                id="empty-model",
            ),
            pytest.param(
                check_case(catalog_ref="x/1", meta=make_meta(assessed_version_date=date(2026, 2, 1))),
                MalformedAssessment,
                "assessed_version_date 2026-02-01 is in the future",
                id="future-date",
            ),
            pytest.param(
                check_case(catalog_ref="toy/9.9"),
                CatalogMismatch,
                "assessment references catalog 'toy/9.9', expected 'toy/0.1'",
                id="catalog-mismatch",
            ),
            pytest.param(
                check_case(X9=Verdict(S), X1=Verdict(S), G=Verdict(S)),
                UnknownMetricId,
                "unknown metric id 'X9'",
                id="unknown-metric-id",
            ),
            pytest.param(
                check_case(drop=["A"], G=Verdict(S)),
                GateUnanswered,
                "gate metric 'G' has no recorded yes/no answer",
                id="gate-unanswered",
            ),
            pytest.param(
                check_case(drop=["A"], G=Verdict(S, "gate=no"), D1=Verdict(NA)),
                MalformedAssessment,
                "metric D2: scoreable verdict recorded for an inapplicable metric",
                id="verdict-on-inapplicable",
            ),
            pytest.param(
                check_case(drop=["A"], D2=Verdict(NA)),
                MissingVerdict,
                "applicable metrics without verdict: A, D2",
                id="missing-verdict",
            ),
        ],
    )
    def test_error_for_each_finding_code(self, assessment, error, message):
        assert assessment_findings(CHECK_CATALOG, assessment, today=CHECK_TODAY)
        with pytest.raises(SummaryQAError) as exc:
            check_assessment(CHECK_CATALOG, assessment, today=CHECK_TODAY)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_raises_iff_findings_on_random_assessments(self):
        rng = random.Random(20260117)
        outcomes = set()
        for _ in range(300):
            cat = random_catalog(rng, max_metrics=20)
            a = random_assessment(rng, cat)
            ids = [m.id for m in cat.metrics]
            for _ in range(rng.randint(0, 3)):
                defect = rng.randrange(6)
                verdicts = dict(a.verdicts)
                target = rng.choice(ids)
                if defect == 0:
                    verdicts.pop(target, None)
                elif defect == 1:
                    verdicts["X" + target] = Verdict(S)
                elif defect == 2:
                    verdicts[target] = Verdict(rng.choice(SCOREABLE))
                elif defect == 3:
                    verdicts[target] = Verdict(NA, verdicts.get(target, Verdict(NA)).note)
                elif defect == 4:
                    verdicts[target] = Verdict(S, rng.choice(["gate=yes", "gate=no", ""]))
                else:
                    a = rng.choice([
                        replace(a, catalog_ref="toy/other"),
                        replace(a, meta=replace(a.meta, provider="")),
                        replace(a, meta=replace(a.meta, assessed_version_date=date(2026, 2, 1))),
                    ])
                a = replace(a, verdicts=verdicts)
            findings = assessment_findings(cat, a, today=CHECK_TODAY)
            try:
                check_assessment(cat, a, today=CHECK_TODAY)
                raised = False
            except SummaryQAError:
                raised = True
            assert raised == bool(findings), [f.code for f in findings]
            outcomes.add(raised)
        assert outcomes == {True, False}


SAMPLE_FILE = """\
provider: ExampleCo
model: Example-7B
summary_title: Example-7B training content disclosure
source_url: https://example.org/summary
published_form: PDF
assessed_version_date: 2026-01-12
catalog_ref: toy/0.1
evaluator: eva
verifier: ver

metric_id,verdict,note
G,sufficient,gate=yes; enumerated in full
D,partially-sufficient,"terse, but present"
"""


class TestFileFormat:
    def catalog(self):
        return make_catalog(make_metric("G"), make_metric("D", gate="G"))

    def test_load_valid_file(self):
        a = load_assessment(__import__("io").BytesIO(SAMPLE_FILE.encode()), self.catalog())
        assert a.meta.provider == "ExampleCo"
        assert a.verdicts["D"].value is P
        assert a.verdicts["D"].note == "terse, but present"
        assert a.verifier == "ver"

    def test_round_trip_identity(self):
        a = parse_assessment(SAMPLE_FILE)
        assert parse_assessment(dumps_assessment(a)) == a

    def test_canonical_dump_stable(self):
        a = parse_assessment(SAMPLE_FILE)
        once = dumps_assessment(a)
        assert dumps_assessment(parse_assessment(once)) == once

    def test_missing_header_field(self):
        with pytest.raises(MalformedAssessment, match="provider"):
            parse_assessment(SAMPLE_FILE.replace("provider: ExampleCo\n", ""))

    def test_bad_verdict_token(self):
        with pytest.raises(MalformedAssessment, match="unknown verdict"):
            parse_assessment(SAMPLE_FILE.replace("partially-sufficient", "meh"))

    def test_duplicate_row(self):
        with pytest.raises(MalformedAssessment, match="duplicate verdict"):
            parse_assessment(SAMPLE_FILE + "G,sufficient,\n")

    def test_bad_date(self):
        with pytest.raises(MalformedAssessment, match="YYYY-MM-DD"):
            parse_assessment(SAMPLE_FILE.replace("2026-01-12", "12 Jan 2026"))

    def test_missing_csv_header(self):
        broken = SAMPLE_FILE.replace("metric_id,verdict,note\n", "")
        with pytest.raises(MalformedAssessment, match="verdict table"):
            parse_assessment(broken)

    def test_unknown_published_form(self):
        with pytest.raises(MalformedAssessment, match="published form"):
            parse_assessment(SAMPLE_FILE.replace("published_form: PDF", "published_form: Scroll"))

    def test_notes_with_tricky_content_round_trip(self):
        from hypothesis import given, strategies as st

        note_text = st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=60
        ) | st.sampled_from(
            ['has, commas', 'has "quotes"', "gate=yes; trailing; semicolons", "línea ünïcode"]
        )

        @given(note_text)
        def check(note):
            base = parse_assessment(SAMPLE_FILE)
            tweaked = base.with_verdict("D", Verdict(P, note))
            again = parse_assessment(dumps_assessment(tweaked))
            assert again == tweaked

        check()

    def test_multiline_note_round_trips_via_csv_quoting(self):
        base = parse_assessment(SAMPLE_FILE)
        tweaked = base.with_verdict("D", Verdict(P, "first line\nsecond line"))
        again = parse_assessment(dumps_assessment(tweaked))
        assert again.verdicts["D"].note == "first line\nsecond line"

    def test_header_fields_reject_line_breaks(self):
        base = parse_assessment(SAMPLE_FILE)
        from dataclasses import replace

        broken = replace(base, evaluator="two\nlines")
        with pytest.raises(ValueError, match="line breaks"):
            dumps_assessment(broken)

    def test_full_coverage_assessment_of_reference_catalog(self):
        # All gates answered yes -> all 242 metrics applicable and scored.
        import io

        from summaryqa.catalog import load_reference_catalog
        from toys import S, uniform_assessment

        catalog = load_reference_catalog()
        full = uniform_assessment(catalog, S)
        assert len(full.verdicts) == 242
        loaded = load_assessment(io.BytesIO(dumps_assessment(full).encode()), catalog)
        assert loaded == full
        assert applicable_metrics(catalog, loaded) == [m.id for m in catalog.metrics]
