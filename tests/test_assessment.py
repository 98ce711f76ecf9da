"""Assessment parsing, validation, gate answers, and applicability."""

import random
from datetime import date
from fractions import Fraction
from pathlib import Path

import pytest

from summaryqa.assessment import (
    Assessment,
    Verdict,
    VerdictValue,
    applicability_map,
    assessment_findings,
    check_assessment,
    load_assessment,
    parse_assessment,
)
from summaryqa.base import PublishedForm, SummaryMeta
from summaryqa.base import Dimension, Section
from summaryqa.catalog import ApplicabilityRule, Catalog, Metric
from summaryqa.errors import Malformed, Refused, SummaryQAError

from randgen import SCOREABLE, random_assessment, random_catalog
from toys import applicable_metrics, dumps_assessment, load_reference_catalog, with_verdict

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


CHECK_TODAY = date(2026, 1, 31)  # later than every assessed_version_date below not meant to be in the future


def refusal(catalog, assessment, today=CHECK_TODAY):
    """The error check_assessment refuses ``assessment`` with, after checking it carries the findings."""
    with pytest.raises(Refused) as exc:
        check_assessment(catalog, assessment, today)
    assert exc.value.findings == assessment_findings(catalog, assessment, today)
    return exc.value


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
        # The unanswered gate switches D off, and the check refuses the assessment.
        assert applicable_metrics(cat, a) == ["G"]
        assert [f.code for f in refusal(cat, a).findings] == ["gate-unanswered", "verdict-on-inapplicable"]

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
        after = before._replace(
            verdicts={"G1": Verdict(S, "gate=yes"), "D1": Verdict(S), "G2": Verdict(S, "gate=yes"), "D2": Verdict(S)},
        )
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
        amap = applicability_map(cat, a)
        assert amap[first] and not amap["D"] and not amap["F"]
        refused = refusal(cat, a)
        assert [f.locus for f in refused.findings if f.code == "gate-unanswered"] == findings
        assert (refused.findings[0].code, refused.findings[0].locus) == ("gate-unanswered", first)

    def test_repeated_id_takes_first_occurrence_rule(self):
        # A repeated id is a defect of the catalog, not a second row: neither
        # occurrence's rule is taken, and the catalog has no applicability.
        cat = make_catalog(
            make_metric("X", gate="G"),
            make_metric("G"),
            make_metric("X", section=Section.USER_DATA),
            make_metric("G", gate="X", answer="no"),
            make_metric("Y", gate="X"),
        )
        a = make_assessment(cat, {"G": Verdict(S, "gate=no"), "X": Verdict(P)})
        message = "metric id 'X' occurs more than once; validate the catalog first"
        with pytest.raises(ValueError) as exc:
            applicability_map(cat, a)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            assessment_findings(cat, a, CHECK_TODAY)
        assert str(exc.value) == message

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
        assert assessment_findings(cat, a, CHECK_TODAY) == []
        check_assessment(cat, a, CHECK_TODAY)

    def test_unknown_metric_id(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S), "F9.9.z": Verdict(S)})
        assert [f.code for f in refusal(cat, a).findings] == ["unknown-metric-id"]

    def test_catalog_mismatch(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)}, catalog_ref="other/9.9")
        assert [f.code for f in refusal(cat, a).findings] == ["catalog-mismatch"]

    def test_missing_applicable_verdict(self):
        cat = make_catalog(make_metric("A"), make_metric("B"))
        a = make_assessment(cat, {"A": Verdict(S)})
        assert [(f.code, f.locus) for f in refusal(cat, a).findings] == [("missing-verdict", "B")]

    def test_na_verdict_on_applicable_metric_is_missing(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(NA)})
        assert [f.code for f in refusal(cat, a).findings] == ["missing-verdict"]

    def test_gated_out_metrics_may_be_absent(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no")})
        assert assessment_findings(cat, a, CHECK_TODAY) == []

    def test_gated_out_metrics_may_be_explicit_na(self):
        cat = make_catalog(make_metric("G"), make_metric("D", gate="G"))
        a = make_assessment(cat, {"G": Verdict(S, "gate=no"), "D": Verdict(NA)})
        assert assessment_findings(cat, a, CHECK_TODAY) == []

    def test_future_date_flagged(self):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)}, meta=make_meta(assessed_version_date=date(2099, 1, 1)))
        assert "future-date" in [f.code for f in assessment_findings(cat, a, CHECK_TODAY)]

    def test_checks_take_today_instead_of_the_clock(self, tmp_path):
        cat = make_catalog(make_metric("A"))
        a = make_assessment(cat, {"A": Verdict(S)})  # assessed 2026-01-12
        day_before, same_day = date(2026, 1, 11), date(2026, 1, 12)
        assert [f.code for f in refusal(cat, a, today=day_before).findings] == ["future-date"]
        check_assessment(cat, a, today=same_day)
        assert [f.code for f in assessment_findings(cat, a, today=day_before)] == ["future-date"]
        assert assessment_findings(cat, a, today=same_day) == []
        path = tmp_path / "a.csv"
        path.write_text(dumps_assessment(a), encoding="utf-8")
        with pytest.raises(Refused, match="first future-date at meta: .* is in the future"):
            load_assessment(path, cat, today=day_before)
        assert load_assessment(path, cat, today=same_day) == a

    def test_validity_invariant_under_verdict_permutation(self):
        cat = make_catalog(make_metric("A"), make_metric("B"), make_metric("C"))
        verdicts = {"A": Verdict(S), "B": Verdict(P), "C": Verdict(I)}
        a = make_assessment(cat, verdicts)
        reversed_map = dict(reversed(list(verdicts.items())))
        b = make_assessment(cat, reversed_map)
        assert assessment_findings(cat, a, CHECK_TODAY) == assessment_findings(cat, b, CHECK_TODAY)


CHECK_CATALOG = make_catalog(
    make_metric("A"),
    make_metric("B"),
    make_metric("G"),
    make_metric("D1", gate="G"),
    make_metric("D2", gate="G"),
)
CHECK_VALID = {"A": Verdict(S), "B": Verdict(P), "G": Verdict(I, "gate=yes"), "D1": Verdict(S), "D2": Verdict(I)}


def check_case(drop=(), catalog_ref=CHECK_CATALOG.ref, meta=None, **changes):
    """CHECK_VALID without the ``drop`` ids and with ``changes`` applied."""
    verdicts = {k: v for k, v in CHECK_VALID.items() if k not in drop}
    verdicts.update(changes)
    return make_assessment(CHECK_CATALOG, verdicts, catalog_ref=catalog_ref, meta=meta or make_meta())


class TestCheckMatchesFindings:
    """check_assessment raises exactly when assessment_findings reports something,
    with those findings, and names the first."""

    @pytest.mark.parametrize(
        "assessment,codes,message",
        [
            pytest.param(
                check_case(meta=make_meta(provider="")),
                ["empty-provider"],
                "first empty-provider at meta: provider must be non-empty",
                id="empty-provider",
            ),
            pytest.param(
                check_case(meta=make_meta(source_url="javascript:alert(document.cookie)")),
                ["bad-source-url"],
                "first bad-source-url at meta: source_url 'javascript:alert(document.cookie)' is not well-formed",
                id="bad-source-url",
            ),
            pytest.param(
                check_case(meta=make_meta(model="", assessed_version_date=date(2026, 2, 1))),
                ["empty-model", "future-date"],
                "first empty-model at meta: model must be non-empty",
                id="empty-model",
            ),
            pytest.param(
                check_case(catalog_ref="x/1", meta=make_meta(assessed_version_date=date(2026, 2, 1))),
                ["future-date", "catalog-mismatch"],
                "first future-date at meta: assessed_version_date 2026-02-01 is in the future",
                id="future-date",
            ),
            pytest.param(
                check_case(catalog_ref="toy/9.9"),
                ["catalog-mismatch"],
                "first catalog-mismatch at meta: assessment references catalog 'toy/9.9', expected 'toy/0.1'",
                id="catalog-mismatch",
            ),
            pytest.param(
                check_case(X9=Verdict(S), X1=Verdict(S), G=Verdict(S)),
                ["unknown-metric-id"] * 2 + ["gate-unanswered"] + ["verdict-on-inapplicable"] * 2,
                "first unknown-metric-id at X9: metric does not exist in the catalog",
                id="unknown-metric-id",
            ),
            pytest.param(
                check_case(drop=["A"], G=Verdict(S)),
                ["gate-unanswered", "missing-verdict"] + ["verdict-on-inapplicable"] * 2,
                "first gate-unanswered at G: applicable gate metric has no recorded yes/no answer",
                id="gate-unanswered",
            ),
            pytest.param(
                check_case(drop=["A"], G=Verdict(S, "gate=no"), D1=Verdict(NA)),
                ["missing-verdict", "verdict-on-inapplicable"],
                "first missing-verdict at A: applicable metric has no scoreable verdict",
                id="verdict-on-inapplicable",
            ),
            pytest.param(
                check_case(drop=["A"], D2=Verdict(NA)),
                ["missing-verdict", "missing-verdict"],
                "first missing-verdict at A: applicable metric has no scoreable verdict",
                id="missing-verdict",
            ),
        ],
    )
    def test_error_for_each_finding_code(self, assessment, codes, message):
        refused = refusal(CHECK_CATALOG, assessment)
        assert [f.code for f in refused.findings] == codes
        assert str(refused) == f"assessment has {len(codes)} finding(s), {message}"

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
                        a._replace(catalog_ref="toy/other"),
                        a._replace(meta=a.meta._replace(provider="")),
                        a._replace(meta=a.meta._replace(assessed_version_date=date(2026, 2, 1))),
                    ])
                a = a._replace(verdicts=verdicts)
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

    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_bytes(SAMPLE_FILE.encode())
        a = load_assessment(path, self.catalog(), CHECK_TODAY)
        assert a.meta.provider == "ExampleCo"
        assert a.verdicts["D"].value is P
        assert a.verdicts["D"].note == "terse, but present"
        assert a.verifier == "ver"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_a_files_line_breaks_read_as_in_text_mode(self, tmp_path, newline):
        path = tmp_path / "sample.csv"
        path.write_bytes(SAMPLE_FILE.replace("\n", newline).encode())
        assert "\r" not in SAMPLE_FILE
        assert load_assessment(path, self.catalog(), CHECK_TODAY) == parse_assessment(SAMPLE_FILE)

    def test_round_trip_identity(self):
        a = parse_assessment(SAMPLE_FILE)
        assert parse_assessment(dumps_assessment(a)) == a

    def test_canonical_dump_stable(self):
        a = parse_assessment(SAMPLE_FILE)
        once = dumps_assessment(a)
        assert dumps_assessment(parse_assessment(once)) == once

    def test_header_line_without_a_colon_reads_as_in_a_catalog(self):
        with pytest.raises(Malformed, match="^line 2: expected 'key: value', got 'model Example-7B'$") as exc:
            parse_assessment(SAMPLE_FILE.replace("model: Example-7B", "model Example-7B"))
        assert (exc.value.line, exc.value.field) == (2, None)

    def test_repeated_header_field_reads_as_in_a_catalog(self):
        with pytest.raises(Malformed, match="^line 3, field 'model': duplicate field 'model'$") as exc:
            parse_assessment(SAMPLE_FILE.replace("model: Example-7B\n", "model: Example-7B\nmodel: Other\n"))
        assert (exc.value.line, exc.value.field) == (3, "model")

    def test_missing_header_field(self):
        with pytest.raises(Malformed, match="provider"):
            parse_assessment(SAMPLE_FILE.replace("provider: ExampleCo\n", ""))

    @pytest.mark.parametrize(
        "old,new,message,line,field",
        [
            ("provider: ExampleCo\n", "", "header missing field 'provider'", 1, "provider"),
            ("evaluator: eva\n", "", "header missing field 'evaluator'", 1, "evaluator"),
            ("model: Example-7B\n", "model: Example-7B\nwhimsy: 3\n", "unknown header field 'whimsy'", 3, "whimsy"),
        ],
        ids=["missing-first", "missing-later", "unknown"],
    )
    def test_header_field_errors_name_their_line_and_field(self, old, new, message, line, field):
        with pytest.raises(Malformed, match=f"^line {line}, field '{field}': {message}$") as exc:
            parse_assessment(SAMPLE_FILE.replace(old, new))
        assert (exc.value.line, exc.value.field) == (line, field)

    @pytest.mark.parametrize(
        "row,columns", [("D,sufficient", 2), ("D", 1), ("D,sufficient,note,extra", 4)], ids=["two", "one", "four"]
    )
    def test_row_without_three_columns_is_malformed(self, row, columns):
        text = SAMPLE_FILE.replace('D,partially-sufficient,"terse, but present"', row)
        with pytest.raises(Malformed, match=f"^line 13: expected 3 columns, got {columns}$") as exc:
            parse_assessment(text)
        assert exc.value.line == 13

    def test_empty_metric_id_is_malformed_at_its_line(self):
        with pytest.raises(Malformed, match="^line 13: empty metric_id$") as exc:
            parse_assessment(SAMPLE_FILE.replace('D,partially-sufficient,"terse, but present"', ",sufficient,"))
        assert exc.value.line == 13

    def test_header_without_a_blank_line_is_malformed(self):
        """A verdict table straight after the header is a header line without a colon; a file with no
        verdict table has no table header."""
        with pytest.raises(Malformed, match="^line 10: expected 'key: value', got 'metric_id,verdict,note'$"):
            parse_assessment(SAMPLE_FILE.replace("verifier: ver\n\n", "verifier: ver\n"))
        with pytest.raises(Malformed, match="^verdict table must start with header 'metric_id,verdict,note'$"):
            parse_assessment(SAMPLE_FILE.partition("\n\n")[0] + "\n")

    def test_bad_verdict_token(self):
        with pytest.raises(Malformed, match="unknown verdict"):
            parse_assessment(SAMPLE_FILE.replace("partially-sufficient", "meh"))

    def test_duplicate_row(self):
        with pytest.raises(Malformed, match="duplicate verdict"):
            parse_assessment(SAMPLE_FILE + "G,sufficient,\n")

    def test_bad_date(self):
        with pytest.raises(Malformed, match="YYYY-MM-DD"):
            parse_assessment(SAMPLE_FILE.replace("2026-01-12", "12 Jan 2026"))

    @pytest.mark.parametrize("text", ["20260112", "2026-W02-1", "2026W021"])
    def test_date_in_another_iso_form_is_refused(self, text):
        # Python 3.11's date.fromisoformat reads these as dates; 3.10's does not.
        with pytest.raises(Malformed, match=f"^assessed_version_date must be YYYY-MM-DD, got '{text}'$"):
            parse_assessment(SAMPLE_FILE.replace("2026-01-12", text))

    def test_missing_csv_header(self):
        broken = SAMPLE_FILE.replace("metric_id,verdict,note\n", "")
        with pytest.raises(Malformed, match="verdict table"):
            parse_assessment(broken)

    def test_unknown_published_form(self):
        with pytest.raises(Malformed, match="published form"):
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
            tweaked = with_verdict(base, "D", Verdict(P, note))
            again = parse_assessment(dumps_assessment(tweaked))
            assert again == tweaked

        check()

    @pytest.mark.parametrize(
        "note",
        ["one\u2028two", "one\u2029two", "one\x0ctwo", "one\x85two", "a\r\nb"],
        ids=["line-separator", "paragraph-separator", "form-feed", "next-line", "crlf"],
    )
    def test_notes_with_line_break_characters_round_trip(self, note):
        # The CSV writer quotes only "\r" and "\n"; str.splitlines() also breaks at the others.
        base = parse_assessment(SAMPLE_FILE)
        tweaked = with_verdict(base, "G", Verdict(S, f"gate=yes; {note}"))
        again = parse_assessment(dumps_assessment(tweaked))
        assert again == tweaked
        assert again.verdicts["G"].note == f"gate=yes; {note}"

    def test_note_over_the_csv_field_limit_is_a_typed_error(self):
        with pytest.raises(Malformed, match=r"^line 14: field larger than field limit"):
            parse_assessment(SAMPLE_FILE + f"E,sufficient,{'x' * 200_000}\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            (SAMPLE_FILE + 'E,sufficient,"unterminated', 14),
            (SAMPLE_FILE + 'E,sufficient,"unterminated\n', 14),
            (SAMPLE_FILE + 'E,sufficient,"unterminated\nF,sufficient,\n', 14),
            (SAMPLE_FILE.partition("metric_id")[0] + '\n\nmetric_id,verdict,"note\nG,sufficient,\n', 13),
        ],
        ids=["no-final-newline", "final-newline", "swallows-a-row", "table-header-after-blank-lines"],
    )
    def test_unterminated_quote_is_refused_on_its_row(self, text, line):
        with pytest.raises(Malformed, match=f"^line {line}: unexpected end of data$"):
            parse_assessment(text)

    def test_plain_rows_share_one_verdict_and_noted_rows_keep_their_own(self):
        text = SAMPLE_FILE + "".join(
            f"{mid},{token},{note}\n"
            for mid, token, note in [
                ("A1", "sufficient", ""),
                ("A2", "sufficient", ""),
                ("B1", "not-applicable", ""),
                ("B2", "not-applicable", ""),
                ("C1", "insufficient", "gate=no"),
                ("C2", "insufficient", "gate=no"),
            ]
        )
        verdicts = parse_assessment(text).verdicts
        assert verdicts["A1"] is verdicts["A2"] and verdicts["B1"] is verdicts["B2"]
        assert verdicts["A1"] == Verdict(S) and verdicts["B1"] == Verdict(NA)
        assert verdicts["A1"].gate_answer is None
        assert verdicts["C1"] is not verdicts["C2"]
        assert verdicts["C1"] == verdicts["C2"] == Verdict(I, "gate=no")
        assert verdicts["C1"].gate_answer == "no"
        assert verdicts["G"] == Verdict(S, "gate=yes; enumerated in full")
        assert verdicts["G"].gate_answer == "yes"
        with pytest.raises(AttributeError):
            verdicts["A1"].note = "changed"

    def test_bad_token_without_a_note_names_its_line(self):
        with pytest.raises(Malformed, match="line 14: unknown verdict"):
            parse_assessment(SAMPLE_FILE + "A1,meh,\n")

    @pytest.mark.parametrize(
        "bad_row",
        ["B,meh,\n", 'B,meh,"spans\ntwo lines"\n'],
        ids=["one-line", "multi-line"],
    )
    def test_row_after_a_multiline_note_and_a_blank_line_names_its_own_line(self, bad_row):
        # The phi-4 fixture's ten header lines and blank line, then the
        # verdict table; the bad row starts on line 16.
        fixture = Path(__file__).parent.parent / "fixtures" / "assessments" / "phi-4.csv"
        header = fixture.read_text(encoding="utf-8").split("\n\n")[0]
        text = f'{header}\n\nmetric_id,verdict,note\nA,sufficient,"two\nline note"\n\n{bad_row}'
        assert text.splitlines()[15].startswith("B,meh,")
        with pytest.raises(Malformed, match="^line 16: unknown verdict 'meh'$"):
            parse_assessment(text)

    def test_multiline_note_round_trips_via_csv_quoting(self):
        base = parse_assessment(SAMPLE_FILE)
        tweaked = with_verdict(base, "D", Verdict(P, "first line\nsecond line"))
        again = parse_assessment(dumps_assessment(tweaked))
        assert again.verdicts["D"].note == "first line\nsecond line"

    def test_header_fields_reject_line_breaks(self):
        base = parse_assessment(SAMPLE_FILE)

        broken = base._replace(evaluator="two\nlines")
        with pytest.raises(ValueError, match="line breaks"):
            dumps_assessment(broken)

    def test_full_coverage_assessment_of_reference_catalog(self, tmp_path):
        # All gates answered yes -> all 242 metrics applicable and scored.
        from toys import S, uniform_assessment

        catalog = load_reference_catalog()
        full = uniform_assessment(catalog, S)
        assert len(full.verdicts) == 242
        path = tmp_path / "full.csv"
        path.write_text(dumps_assessment(full), encoding="utf-8")
        loaded = load_assessment(path, catalog, CHECK_TODAY)
        assert loaded == full
        assert applicable_metrics(catalog, loaded) == [m.id for m in catalog.metrics]
