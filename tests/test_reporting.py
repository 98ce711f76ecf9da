"""Rendering: JSON round-trip, value-verbatim renders, severity classes."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from summaryqa.assessment import Verdict
from summaryqa.base import Dimension, Group, Section
from summaryqa.errors import Malformed, Refused
from summaryqa.reporting import (
    DEFAULT_GRADE_SCALE,
    AggregationConfig,
    GradeScale,
    OverallAggregation,
    SectionAggregation,
    _cell_html,
    _value_from_json,
    _value_to_json,
    assign_grade,
    comparison_column,
    comparison_table_html,
    format_percentage,
    render_comparison,
    render_scorecard,
    scorecard_from_json,
    scorecard_to_json,
)
from summaryqa.scoring import score_summary

from randgen import random_assessment, random_catalog
from toys import I, NA, S, load_reference_catalog, toy_assessment, toy_catalog, toy_metric, uniform_assessment


def columns(cards):
    """The comparison column of each card, in order."""
    return [comparison_column(card) for card in cards]


def random_card(seed):
    rng = random.Random(seed)
    cat = random_catalog(rng)
    return score_summary(cat, random_assessment(rng, cat))


def card_displays(card):
    values = [
        *card.per_cell.values(),
        *card.per_section_group.values(),
        *card.per_dimension_overall.values(),
        *card.overall.values(),
    ]
    return [format_percentage(v) for v in values]


class TestSeverity:
    def test_default_thresholds(self):
        assert _cell_html("92.90") == '<td class="pct high">92.90%</td>'
        assert _cell_html("0.00") == '<td class="pct low">0.00%</td>'
        assert _cell_html("50.00") == '<td class="pct moderate">50.00%</td>'
        assert _cell_html("80.00") == '<td class="pct high">80.00%</td>'
        assert _cell_html("49.99") == '<td class="pct low">49.99%</td>'
        assert _cell_html("N/A") == '<td class="na">N/A</td>'

    def test_monotone_over_band_order(self):
        order = ["high", "moderate", "low"]
        last_rank = len(order)
        for pct in range(0, 101):
            label = re.fullmatch(r'<td class="pct (\w+)">.*</td>', _cell_html(f"{pct}.00")).group(1)
            rank = order.index(label)
            assert rank <= last_rank
            last_rank = rank

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentage out of range"):
            _value_from_json({"pct": "101.00", "exact": "101"})

    # The scale the README documents, as (minimum percentage, class), best first.
    @pytest.mark.parametrize("bands", [((80, "high"), (50, "moderate"), (0, "low"))])
    def test_html_class_is_the_severity_of_every_display(self, bands):
        for hundredths in range(10001):
            display = f"{hundredths // 100}.{hundredths % 100:02d}"
            label = next(label for low, label in bands if Fraction(hundredths, 100) >= low)
            assert _cell_html(display) == f'<td class="pct {label}">{display}%</td>'


class TestScoreCardRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_json_round_trip_is_identity(self, seed):
        card = random_card(seed)
        assert scorecard_from_json(scorecard_to_json(card)) == card

    def test_round_trip_preserves_exact_values(self):
        card = random_card(99)
        again = scorecard_from_json(scorecard_to_json(card))
        for key, value in card.per_cell.items():
            assert again.per_cell[key] == value

    def test_empty_archived_digest_reads_as_absent(self):
        card = random_card(5)
        text = scorecard_to_json(card)
        assert text.count('"archived_copy_digest": null') == 1
        emptied = text.replace('"archived_copy_digest": null', '"archived_copy_digest": ""')
        assert scorecard_from_json(emptied) == card

    @pytest.mark.parametrize("text", ["20260112", "2026-W02-1", "2026W021"])
    def test_meta_date_in_another_iso_form_is_malformed(self, text):
        # Python 3.11's date.fromisoformat reads these as dates; 3.10's does not.
        data = json.loads(scorecard_to_json(random_card(5)))
        data["meta"]["assessed_version_date"] = text
        with pytest.raises(Malformed, match=f"assessed_version_date must be YYYY-MM-DD, got '{text}'"):
            scorecard_from_json(json.dumps(data))

    @pytest.mark.parametrize("digest", ["hello", "AB" * 32, "ab" * 33], ids=["word", "uppercase", "long"])
    def test_meta_digest_that_is_not_a_sha256_is_malformed(self, digest):
        data = json.loads(scorecard_to_json(random_card(5)))
        data["meta"]["archived_copy_digest"] = digest
        with pytest.raises(Malformed, match=f"archived_copy_digest must be a sha256 digest .*, got '{digest}'"):
            scorecard_from_json(json.dumps(data))
        data["meta"]["archived_copy_digest"] = "ab" * 32
        assert scorecard_from_json(json.dumps(data)).meta.archived_copy_digest == "ab" * 32

    def test_json_is_stable(self):
        card = random_card(3)
        assert scorecard_to_json(card) == scorecard_to_json(card)

    @pytest.mark.parametrize("value", [5, None, ["toy/1"]], ids=["number", "null", "list"])
    def test_catalog_ref_that_is_not_a_string_is_malformed(self, value):
        data = json.loads(scorecard_to_json(random_card(5)))
        data["catalog_ref"] = value
        with pytest.raises(Malformed, match=re.escape(f"catalog_ref must be a string, got {value!r}")):
            scorecard_from_json(json.dumps(data))

    @pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "\\ud83d x"], ids=["high", "low", "unpaired-high"])
    def test_lone_surrogate_escape_is_malformed(self, escape):
        text = scorecard_to_json(random_card(5)).replace('"model": "', f'"model": "Phi{escape}', 1)
        with pytest.raises(Malformed, match="^text holds the lone surrogate '\\\\ud[8f]..', which has no UTF-8 form$"):
            scorecard_from_json(text)
        with pytest.raises(Malformed, match="^text holds the lone surrogate '\\\\ud[8f]..', which has no UTF-8 form$"):
            scorecard_from_json(text.encode("utf-8"))

    def test_escaped_surrogate_pair_is_one_character(self):
        text = scorecard_to_json(random_card(5)).replace('"model": "', '"model": "Phi\\ud83d\\ude00', 1)
        assert scorecard_from_json(text).meta.model.startswith("Phi\U0001f600")


def edited_card(card, edit):
    """The JSON text of ``card`` after ``edit`` changed its decoded dict in place."""
    data = json.loads(scorecard_to_json(card))
    edit(data)
    return json.dumps(data)


def first_value(data):
    """The first cell of a card dict that holds a value rather than N/A."""
    return next(v for cells in data["cells"].values() for v in cells.values() if v != "N/A")


def canonical(text):
    """Reference rule: ``text`` is how ``str`` writes the fraction it denotes."""
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


class TestValueCodec:
    @settings(max_examples=200)
    @given(st.fractions(min_value=0, max_value=100))
    def test_any_percentage_round_trips(self, pct):
        value = _value_from_json(_value_to_json(pct))
        assert value == pct and type(value) is Fraction

    @pytest.mark.parametrize("text", ["2/4", "0.5", " 1/2", "+1", "1/1", "-0", "1/0", "1/-2", "1_0", "01", "1/", ""])
    def test_non_canonical_text_is_refused(self, text):
        with pytest.raises(ValueError, match="is not n or n/d in lowest terms"):
            _value_from_json({"pct": "0.50", "exact": text})

    @settings(max_examples=200)
    @given(st.text(alphabet="0123456789/-+. _", max_size=8))
    def test_decodes_exactly_the_canonical_texts(self, text):
        in_range = canonical(text) and 0 <= Fraction(text) <= 100
        pct = format_percentage(Fraction(text)) if in_range else "0.00"
        card_text = edited_card(random_card(1), lambda data: first_value(data).update(exact=text, pct=pct))
        if in_range:
            card = scorecard_from_json(card_text)
            assert Fraction(text) in card.per_cell.values()
        else:
            reason = "percentage out of range" if canonical(text) else "is not n or n/d in lowest terms"
            with pytest.raises(Malformed, match=reason):
                scorecard_from_json(card_text)

    @pytest.mark.parametrize("text", ["101", "10001/100", "-1/2"])
    def test_out_of_range_is_refused(self, text):
        with pytest.raises(Malformed, match="percentage out of range"):
            scorecard_from_json(edited_card(random_card(1), lambda data: first_value(data).update(exact=text)))

    def test_non_string_exact_is_refused(self):
        with pytest.raises(Malformed, match="1 is not n or n/d"):
            scorecard_from_json(edited_card(random_card(1), lambda data: first_value(data).update(exact=1)))


class TestSelfContradictingCard:
    """A card decodes only when its displays, grades and grade scale agree with its exact values."""

    def test_pct_must_be_the_display_of_exact(self):
        text = edited_card(random_card(2), lambda data: first_value(data).update(pct="99.99"))
        with pytest.raises(Malformed, match="pct '99.99' is not the display of exact"):
            scorecard_from_json(text)

    def test_overall_pct_and_grade_edited_together(self):
        card = random_card(2)
        assert card.grades[Group.TRANSPARENCY] != "A+" and card.overall[Group.TRANSPARENCY] is not None

        def edit(data):
            data["overall"]["Transparency"]["pct"] = "99.99"
            data["grades"]["Transparency"] = "A+"

        with pytest.raises(Malformed, match="is not the display of exact"):
            scorecard_from_json(edited_card(card, edit))

    @pytest.mark.parametrize("group", list(Group))
    def test_grade_must_be_the_grade_of_the_overall(self, group):
        card = random_card(2)
        wrong = "F" if card.grades[group] != "F" else "A+"
        text = edited_card(card, lambda data: data["grades"].update({group.value: wrong}))
        with pytest.raises(Malformed, match=re.escape(f"grade '{wrong}' for {group.value} is not")):
            scorecard_from_json(text)

    def test_na_overall_needs_na_grade(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, NA, gate_answer="no"))
        assert card.overall[Group.USEFULNESS] is None
        text = edited_card(card, lambda data: data["grades"].update(Usefulness="F"))
        with pytest.raises(Malformed, match="grade 'F' for Usefulness is not 'N/A'"):
            scorecard_from_json(text)

    @pytest.mark.parametrize(
        "scale,reason",
        [
            ([["A", "50"], ["B", "60"], ["F", "0"]], "strictly decreasing"),
            ([["A", "50"], ["F", "10"]], "last band minimum must be 0"),
            ([["A", "50"], ["A", "0"]], "unique"),
            ([], "no bands"),
            ([["A", "95.0"], ["F", "0"]], "'95.0' is not n or n/d in lowest terms"),
        ],
        ids=["increasing", "last-not-zero", "repeated-label", "empty", "decimal-minimum"],
    )
    def test_grade_scale_must_pass_its_check(self, scale, reason):
        text = edited_card(random_card(2), lambda data: data["config"].update(grade_scale=scale))
        with pytest.raises(Malformed, match=reason):
            scorecard_from_json(text)

    def test_custom_grade_scale_round_trips(self):
        rng = random.Random(7)
        cat = random_catalog(rng)
        scale = GradeScale((("Top", Fraction(200, 3)), ("Mid", Fraction("12.345")), ("Bottom", Fraction(0))))
        card = score_summary(cat, random_assessment(rng, cat), AggregationConfig(grade_scale=scale))
        assert scorecard_from_json(scorecard_to_json(card)) == card


def severity(value):
    """The severity class of an exact percentage, by the README's minimums."""
    return next(label for low, label in ((80, "high"), (50, "moderate"), (0, "low")) if value >= low)


def display_agrees(value, scale=DEFAULT_GRADE_SCALE):
    """Whether the display of ``value`` has the grade and the severity class of ``value`` itself."""
    shown = Fraction(format_percentage(value, scale))
    return (assign_grade(shown, scale), severity(shown)) == (assign_grade(value, scale), severity(value))


# Minimums that are not integers, as a config file may write them: 92.5 and 200/3 lie on or above the middle
# of their hundredth, so rounding can only carry a value up across them; 12.3441 lies below it, so rounding
# can also drop a value that reaches it below it.
ODD_SCALE = GradeScale(
    (("A", Fraction("92.5")), ("B", Fraction(200, 3)), ("C", Fraction("12.3441")), ("D", Fraction(1, 3)), ("F", Fraction(0)))
)


class TestDisplayNeverContradictsItsGrade:
    def test_value_just_below_a_grade_minimum_shows_below_it(self):
        assert format_percentage(Fraction(17999, 200)) == "89.99"  # round half up alone gives 90.00, an A
        assert format_percentage(Fraction(15999, 200)) == "79.99"  # and 80.00, a B+ and a "high" cell
        assert format_percentage(Fraction(17999, 200) - Fraction(1, 10**9)) == "89.99"
        assert format_percentage(Fraction(89)) == "89.00" and format_percentage(Fraction(8999, 100)) == "89.99"
        assert format_percentage(Fraction(17799, 200)) == "89.00"  # 88.995: 89 is no minimum
        assert format_percentage(Fraction(9999, 200)) == "49.99"  # 49.995, below the "moderate" minimum

    def test_rounding_keeps_to_the_side_of_each_minimum_of_the_scale(self):
        assert format_percentage(Fraction("92.499"), ODD_SCALE) == "92.49"
        assert format_percentage(Fraction("92.5"), ODD_SCALE) == "92.50"
        assert format_percentage(Fraction("66.666"), ODD_SCALE) == "66.66"
        assert format_percentage(Fraction(200, 3), ODD_SCALE) == "66.67"
        assert format_percentage(Fraction("12.3442"), ODD_SCALE) == "12.35"  # reaches C: 12.34 would be a D
        assert format_percentage(Fraction("12.344"), ODD_SCALE) == "12.34"
        assert format_percentage(Fraction("12.3442")) == "12.34"  # under the default scale

    def test_probe_card_report_and_grade_agree(self):
        cat = toy_catalog(
            toy_metric("A", weight=17999),
            toy_metric("B", weight=2001),
            toy_metric("U", section=Section.DOCUMENT, dimension=Dimension.ACCESSIBILITY),
        )
        card = score_summary(cat, toy_assessment(cat, {"A": Verdict(S), "B": Verdict(I), "U": Verdict(S)}))
        assert card.overall[Group.TRANSPARENCY] == Fraction(17999, 200)
        assert card.grades[Group.TRANSPARENCY] == "B+"
        assert json.loads(scorecard_to_json(card))["overall"]["Transparency"]["pct"] == "89.99"
        report = render_scorecard(card, "html").decode()
        assert "89.99%" in report and "90.00%" not in report
        assert scorecard_from_json(scorecard_to_json(card)) == card

    def test_over_the_oracle_instances(self):
        rng = random.Random(20260809)  # the 1,000 oracle instances of tests/test_acceptance.py
        for i in range(1000):
            catalog = random_catalog(rng)
            assessment = random_assessment(rng, catalog)
            scale = ODD_SCALE if i % 2 else DEFAULT_GRADE_SCALE
            card = score_summary(catalog, assessment, AggregationConfig(grade_scale=scale))
            for group, value in card.overall.items():
                if value is not None:
                    assert assign_grade(Fraction(format_percentage(value, scale)), scale) == card.grades[group]
            for value in (*card.per_cell.values(), *card.per_section_group.values(), *card.overall.values()):
                assert value is None or severity(Fraction(format_percentage(value, scale))) == severity(value)

    @pytest.mark.parametrize("scale", [DEFAULT_GRADE_SCALE, ODD_SCALE], ids=["default", "odd"])
    def test_near_every_integer_and_every_minimum(self, scale):
        centres = [Fraction(n) for n in range(101)] + [low for _, low in scale.bands]
        offsets = [Fraction(k, 10**4) for k in range(-60, 61)] + [Fraction(-1, 200), Fraction(-1, 201), Fraction(1, 10**9)]
        for centre in centres:
            for value in (centre + offset for offset in offsets):
                if 0 <= value <= 100:
                    assert display_agrees(value, scale), value

    @given(st.fractions(min_value=0, max_value=100))
    def test_any_value(self, value):
        assert display_agrees(value) and display_agrees(value, ODD_SCALE)

    @pytest.mark.parametrize(
        "bands,reason",
        [
            ([["A", "16001/200"], ["F", "0"]], "apart from the severity minimums 50 and 80"),  # 80.005
            ([["A", "49999/1000"], ["F", "0"]], "apart from the severity minimums 50 and 80"),  # 49.999
            ([["A", "12001/200"], ["B", "60"], ["F", "0"]], "band minimums must be 0.01 or more apart"),  # 60.005
        ],
        ids=["near-80", "near-50", "near-each-other"],
    )
    def test_minimums_closer_than_a_display_can_tell_are_refused(self, bands, reason):
        text = edited_card(random_card(2), lambda data: data["config"].update(grade_scale=bands))
        with pytest.raises(Malformed, match=reason):
            scorecard_from_json(text)


class TestRenderScorecard:
    def test_all_sufficient_renders_all_100(self):
        cat = load_reference_catalog()
        card = score_summary(cat, uniform_assessment(cat, S))
        text = render_scorecard(card, "csv").decode()
        # Every populated numeric cell shows exactly 100.00.
        for display in card_displays(card):
            if display != "N/A":
                assert display == "100.00"
        assert "100.00" in text

    def test_na_rendered_literally(self):
        cat = load_reference_catalog()
        # All gates no: usefulness cells in gated sections become N/A.
        card = score_summary(cat, uniform_assessment(cat, S, gate_answer="no"))
        assert card.per_section_group[(Section.USER_DATA, Group.USEFULNESS)] is None
        for fmt in ("csv", "html", "json"):
            assert b"N/A" in render_scorecard(card, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "html"])
    def test_every_value_appears_verbatim(self, fmt):
        card = random_card(17)
        text = render_scorecard(card, fmt).decode()
        for display in card_displays(card):
            assert display in text
        for grade in card.grades.values():
            assert grade in text

    def test_unsupported_format(self):
        card = random_card(1)
        with pytest.raises(Refused, match="^unsupported format 'docx'; expected one of json, csv, html$"):
            render_scorecard(card, "docx")


class TestRenderComparison:
    def make_cards(self, n):
        rng = random.Random(42)
        cat = random_catalog(rng)
        return [score_summary(cat, random_assessment(rng, cat)) for _ in range(n)]

    def test_five_cards_five_columns(self):
        cards = self.make_cards(5)
        data = json.loads(render_comparison(columns(cards), "json"))
        assert len(data["columns"]) == 5
        grade_rows = [r for r in data["rows"] if r["section"] == "Overall Grades"]
        assert len(grade_rows) == 2
        assert all(len(r["values"]) == 5 for r in data["rows"])

    def test_single_card_degenerate_table(self):
        cards = self.make_cards(1)
        text = render_comparison(columns(cards), "csv").decode()
        header = text.splitlines()[0]
        assert header.count(",") == 2  # Section, Group, one model column

    def test_rows_follow_table_layout(self):
        cards = self.make_cards(2)
        data = json.loads(render_comparison(columns(cards), "json"))
        # 8 sections x 2 groups + 2 overall + 2 grade rows
        assert len(data["rows"]) == 20

    def test_mixed_catalog_versions_rejected(self):
        a, b = self.make_cards(2)

        b = b._replace(catalog_ref="other/2.0")
        refs = sorted([a.catalog_ref, "other/2.0"])
        with pytest.raises(Refused, match=re.escape(f"cards reference different catalogs: {refs}")):
            render_comparison(columns([a, b]), "json")

    def test_mixed_configurations_rejected(self):
        a, b = self.make_cards(2)
        mean = AggregationConfig(SectionAggregation.MEAN_OF_DIMENSIONS, OverallAggregation.MEAN_OF_SECTIONS)
        with pytest.raises(Refused, match="different configurations"):
            render_comparison(columns([a, b._replace(config_used=mean)]), "json")

    def test_links_follow_card_order(self):
        a, b = self.make_cards(2)
        b = b._replace(meta=a.meta._replace(provider="Another provider"))
        text = comparison_table_html(columns([a, b]), links=["summaries/first/", "summaries/second/"])
        assert text.count('<a href="summaries/first/">') == 1
        assert text.count('<a href="summaries/second/">') == 1

    def test_zero_cards_rejected(self):
        with pytest.raises(Refused, match="^comparison needs at least one score card$"):
            render_comparison([], "json")

    @pytest.mark.parametrize("fmt", ["csv", "html"])
    def test_comparison_contains_every_value(self, fmt):
        cards = self.make_cards(3)
        text = render_comparison(columns(cards), fmt).decode()
        for card in cards:
            for (section, group), value in card.per_section_group.items():
                assert format_percentage(value) in text
            for value in card.overall.values():
                assert format_percentage(value) in text
            for grade in card.grades.values():
                assert grade in text

    def test_values_never_recomputed(self):
        # The comparison must carry exactly the displays stored in the cards.
        cards = self.make_cards(2)
        data = json.loads(render_comparison(columns(cards), "json"))
        wanted = set()
        for card in cards:
            wanted.update(map(format_percentage, card.per_section_group.values()))
            wanted.update(map(format_percentage, card.overall.values()))
            wanted.update(card.grades.values())
        shown = {v for row in data["rows"] for v in row["values"]}
        assert shown <= wanted
