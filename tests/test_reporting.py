"""Rendering: JSON round-trip, value-verbatim renders, severity bands."""

import json
import random
from fractions import Fraction

import pytest

from summaryqa.catalog import Group, Section, load_reference_catalog
from summaryqa.errors import CatalogVersionMismatch, NoScoreCards, UnsupportedFormat
from summaryqa.reporting import (
    DEFAULT_SEVERITY_BANDS,
    render_comparison,
    render_scorecard,
    scorecard_from_json,
    scorecard_to_json,
    severity,
)
from summaryqa.scoring import score_summary

from randgen import random_assessment, random_catalog
from toys import I, S, uniform_assessment


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
    return [v.display for v in values]


class TestSeverity:
    def test_default_thresholds(self):
        assert severity(Fraction("92.90")) == "High"
        assert severity(Fraction(0)) == "Low"
        assert severity(Fraction(50)) == "Moderate"
        assert severity(Fraction(80)) == "High"
        assert severity(Fraction("49.99")) == "Low"

    def test_monotone_over_band_order(self):
        order = [band.label for band in DEFAULT_SEVERITY_BANDS]
        last_rank = len(order)
        for pct in range(0, 101):
            rank = order.index(severity(Fraction(pct)))
            assert rank <= last_rank
            last_rank = rank

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            severity(Fraction(101))


class TestScoreCardRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_json_round_trip_is_identity(self, seed):
        card = random_card(seed)
        assert scorecard_from_json(scorecard_to_json(card)) == card

    def test_round_trip_preserves_exact_values(self):
        card = random_card(99)
        again = scorecard_from_json(scorecard_to_json(card))
        for key, value in card.per_cell.items():
            assert again.per_cell[key].pct == value.pct

    def test_empty_archived_digest_reads_as_absent(self):
        card = random_card(5)
        text = scorecard_to_json(card)
        assert text.count('"archived_copy_digest": null') == 1
        emptied = text.replace('"archived_copy_digest": null', '"archived_copy_digest": ""')
        assert scorecard_from_json(emptied) == card

    def test_json_is_stable(self):
        card = random_card(3)
        assert scorecard_to_json(card) == scorecard_to_json(card)


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
        assert card.per_section_group[(Section.USER_DATA, Group.USEFULNESS)].is_na
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
        with pytest.raises(UnsupportedFormat):
            render_scorecard(card, "docx")


class TestRenderComparison:
    def make_cards(self, n):
        rng = random.Random(42)
        cat = random_catalog(rng)
        return [score_summary(cat, random_assessment(rng, cat)) for _ in range(n)]

    def test_five_cards_five_columns(self):
        cards = self.make_cards(5)
        data = json.loads(render_comparison(cards, "json"))
        assert len(data["columns"]) == 5
        grade_rows = [r for r in data["rows"] if r["section"] == "Overall Grades"]
        assert len(grade_rows) == 2
        assert all(len(r["values"]) == 5 for r in data["rows"])

    def test_single_card_degenerate_table(self):
        cards = self.make_cards(1)
        text = render_comparison(cards, "csv").decode()
        header = text.splitlines()[0]
        assert header.count(",") == 2  # Section, Group, one model column

    def test_rows_follow_table_layout(self):
        cards = self.make_cards(2)
        data = json.loads(render_comparison(cards, "json"))
        # 8 sections x 2 groups + 2 overall + 2 grade rows
        assert len(data["rows"]) == 20

    def test_mixed_catalog_versions_rejected(self):
        a, b = self.make_cards(2)
        from dataclasses import replace

        b = replace(b, catalog_ref="other/2.0")
        with pytest.raises(CatalogVersionMismatch):
            render_comparison([a, b], "json")

    def test_zero_cards_rejected(self):
        with pytest.raises(NoScoreCards):
            render_comparison([], "json")

    @pytest.mark.parametrize("fmt", ["csv", "html"])
    def test_comparison_contains_every_value(self, fmt):
        cards = self.make_cards(3)
        text = render_comparison(cards, fmt).decode()
        for card in cards:
            for (section, group), value in card.per_section_group.items():
                assert value.display in text
            for value in card.overall.values():
                assert value.display in text
            for grade in card.grades.values():
                assert grade in text

    def test_values_never_recomputed(self):
        # The comparison must carry exactly the displays stored in the cards.
        cards = self.make_cards(2)
        data = json.loads(render_comparison(cards, "json"))
        wanted = set()
        for card in cards:
            wanted.update(v.display for v in card.per_section_group.values())
            wanted.update(v.display for v in card.overall.values())
            wanted.update(card.grades.values())
        shown = {v for row in data["rows"] for v in row["values"]}
        assert shown <= wanted
