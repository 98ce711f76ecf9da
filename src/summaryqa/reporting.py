"""Score card and comparison rendering.

Reporting is a pure projection: every number shown comes from the score
card's stored exact values, rendered at two decimals (round half up); nothing
is recomputed here.  Three formats are supported:

* ``json`` -- canonical structured data with stable key order.  Percentages
  carry both the two-decimal display string and the exact rational, so files
  parse back to a card equal to the original.
* ``csv`` -- delimited table (bare two-decimal numbers, ``N/A`` literal).
* ``html`` -- a self-contained semantic markup document.
"""

from __future__ import annotations

import html
import io
import json
import csv as _csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .assessment import meta_from_dict, meta_to_dict
from .catalog import DIMENSION_ORDER, Group, SECTION_ORDER
from .errors import (
    CatalogVersionMismatch,
    MalformedScoreCard,
    NoScoreCards,
    UnsupportedFormat,
    malformed_message,
)
from .scoring import (
    AggregationConfig,
    GradeScale,
    OverallAggregation,
    ScoreCard,
    ScoreValue,
    SectionAggregation,
)

FORMATS = ("json", "csv", "html")


# ---------------------------------------------------------------------------
# Severity bands (presentation only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeverityBand:
    label: str
    min_pct: Fraction


DEFAULT_SEVERITY_BANDS = (
    SeverityBand("High", Fraction(80)),
    SeverityBand("Moderate", Fraction(50)),
    SeverityBand("Low", Fraction(0)),
)


def severity(pct: Fraction, bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS) -> str:
    """Label of the first band whose minimum is at or below the percentage."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentage out of range: {pct}")
    for band in bands:
        if pct >= band.min_pct:
            return band.label
    return bands[-1].label


# ---------------------------------------------------------------------------
# Canonical JSON serialization
# ---------------------------------------------------------------------------


def _value_to_json(value: ScoreValue):
    if value.is_na:
        return "N/A"
    return {"pct": value.display, "exact": str(value.pct)}


def _value_from_json(raw) -> ScoreValue:
    if raw == "N/A":
        return ScoreValue.na()
    return ScoreValue.percentage(Fraction(raw["exact"]))


def scorecard_to_dict(card: ScoreCard) -> dict:
    return {
        "kind": "scorecard",
        "catalog_ref": card.catalog_ref,
        "meta": meta_to_dict(card.meta),
        "config": {
            "section_group_strategy": card.config_used.section_group_strategy.value,
            "overall_strategy": card.config_used.overall_strategy.value,
            "grade_scale": [[letter, str(min_pct)] for letter, min_pct in card.config_used.grade_scale.bands],
        },
        "cells": {
            section.code: {
                dimension.code: _value_to_json(card.per_cell[(section, dimension)])
                for dimension in DIMENSION_ORDER
            }
            for section in SECTION_ORDER
        },
        "section_groups": {
            section.code: {
                group.value: _value_to_json(card.per_section_group[(section, group)]) for group in Group
            }
            for section in SECTION_ORDER
        },
        "dimension_overall": {
            dimension.code: _value_to_json(card.per_dimension_overall[dimension]) for dimension in DIMENSION_ORDER
        },
        "overall": {group.value: _value_to_json(card.overall[group]) for group in Group},
        "grades": {group.value: card.grades[group] for group in Group},
    }


def scorecard_from_dict(data: dict) -> ScoreCard:
    meta = meta_from_dict(data["meta"])
    config_raw = data["config"]
    config = AggregationConfig(
        section_group_strategy=SectionAggregation(config_raw["section_group_strategy"]),
        overall_strategy=OverallAggregation(config_raw["overall_strategy"]),
        grade_scale=GradeScale(
            bands=tuple((letter, Fraction(min_pct)) for letter, min_pct in config_raw["grade_scale"])
        ),
    )
    return ScoreCard(
        meta=meta,
        catalog_ref=data["catalog_ref"],
        config_used=config,
        per_cell={
            (section, dimension): _value_from_json(data["cells"][section.code][dimension.code])
            for section in SECTION_ORDER
            for dimension in DIMENSION_ORDER
        },
        per_section_group={
            (section, group): _value_from_json(data["section_groups"][section.code][group.value])
            for section in SECTION_ORDER
            for group in Group
        },
        per_dimension_overall={
            dimension: _value_from_json(data["dimension_overall"][dimension.code])
            for dimension in DIMENSION_ORDER
        },
        overall={group: _value_from_json(data["overall"][group.value]) for group in Group},
        grades={group: data["grades"][group.value] for group in Group},
    )


def scorecard_to_json(card: ScoreCard) -> str:
    return json.dumps(scorecard_to_dict(card), indent=2, ensure_ascii=False) + "\n"


def scorecard_from_json(text: str) -> ScoreCard:
    """Parse score card JSON; any malformed input raises MalformedScoreCard."""
    try:
        return scorecard_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise MalformedScoreCard(malformed_message(exc)) from exc


def load_scorecard(path: str | Path) -> ScoreCard:
    return scorecard_from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Score card rendering
# ---------------------------------------------------------------------------

_DETAIL_HEADER = [
    "Section",
    *[d.label for d in DIMENSION_ORDER],
    Group.TRANSPARENCY.label,
    Group.USEFULNESS.label,
]


def _detail_rows(card: ScoreCard) -> list[list[str]]:
    """One row per section: all six dimension cells plus the two group columns."""
    rows = []
    for section in SECTION_ORDER:
        rows.append(
            [
                section.label,
                *[card.per_cell[(section, d)].display for d in DIMENSION_ORDER],
                *[card.per_section_group[(section, g)].display for g in Group],
            ]
        )
    rows.append(
        [
            "Overall",
            *[card.per_dimension_overall[d].display for d in DIMENSION_ORDER],
            *[card.overall[g].display for g in Group],
        ]
    )
    rows.append(["Grade", *[""] * len(DIMENSION_ORDER), *[card.grades[g] for g in Group]])
    return rows


def render_scorecard(
    card: ScoreCard, fmt: str, bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS
) -> bytes:
    """Render one score card; ``fmt`` is one of ``json``, ``csv``, ``html``."""
    if fmt == "json":
        return scorecard_to_json(card).encode("utf-8")
    if fmt == "csv":
        out = io.StringIO()
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(_DETAIL_HEADER)
        writer.writerows(_detail_rows(card))
        return out.getvalue().encode("utf-8")
    if fmt == "html":
        title = f"{card.meta.model} score card"
        body = (
            f"<h1>{html.escape(title)}</h1>\n"
            + _meta_html(card)
            + scorecard_table_html(card, bands=bands)
        )
        return _page(title, f"Quality scores for {card.meta.model}", body).encode("utf-8")
    raise UnsupportedFormat(f"unsupported format {fmt!r}; expected one of {', '.join(FORMATS)}")


def _meta_html(card: ScoreCard) -> str:
    meta = card.meta
    items = [
        ("Provider", meta.provider),
        ("Model", meta.model),
        ("Assessed version date", meta.assessed_version_date.isoformat()),
        ("Published as", meta.published_form.value),
        ("Catalog", card.catalog_ref),
    ]
    rows = "\n".join(
        f"  <dt>{html.escape(k)}</dt><dd>{html.escape(v)}</dd>" for k, v in items
    )
    return f"<dl>\n{rows}\n</dl>\n"


def _cell_html(display: str, bands: tuple[SeverityBand, ...]) -> str:
    if display == "N/A":
        return '<td class="na">N/A</td>'
    label = severity(Fraction(display), bands).lower()
    return f'<td class="pct {label}">{display}%</td>'


def scorecard_table_html(card: ScoreCard, bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS) -> str:
    """The detail table as an HTML fragment (used by reports and the site)."""
    head = "".join(f"<th>{html.escape(h)}</th>" for h in _DETAIL_HEADER)
    body_rows = []
    for row in _detail_rows(card):
        label, *values = row
        if label == "Grade":
            cells = "".join(f"<td>{html.escape(v)}</td>" for v in values)
        else:
            cells = "".join(_cell_html(v, bands) for v in values)
        body_rows.append(f"<tr><th scope=\"row\">{html.escape(label)}</th>{cells}</tr>")
    return (
        '<table class="scorecard">\n'
        f"<thead><tr>{head}</tr></thead>\n"
        "<tbody>\n" + "\n".join(body_rows) + "\n</tbody>\n</table>\n"
    )


# ---------------------------------------------------------------------------
# Comparison rendering
# ---------------------------------------------------------------------------


def _comparison_check(cards: list[ScoreCard]) -> None:
    if not cards:
        raise NoScoreCards("comparison needs at least one score card")
    refs = {card.catalog_ref for card in cards}
    if len(refs) > 1:
        raise CatalogVersionMismatch(f"cards reference different catalogs: {sorted(refs)}")


def _comparison_rows(cards: list[ScoreCard]) -> list[tuple[str, str, list[str]]]:
    """(section label, group label, per-card display) rows in table order."""
    rows = []
    for section in SECTION_ORDER:
        for group in Group:
            rows.append(
                (
                    section.label,
                    group.value,
                    [card.per_section_group[(section, group)].display for card in cards],
                )
            )
    for group in Group:
        rows.append(("Overall Scores", group.value, [card.overall[group].display for card in cards]))
    for group in Group:
        rows.append(("Overall Grades", group.value, [card.grades[group] for card in cards]))
    return rows


def render_comparison(
    cards: list[ScoreCard], fmt: str, bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS
) -> bytes:
    """Side-by-side section/group scores, one column per summary."""
    _comparison_check(cards)
    columns = [card.meta.model for card in cards]
    rows = _comparison_rows(cards)

    if fmt == "json":
        data = {
            "kind": "comparison",
            "catalog_ref": cards[0].catalog_ref,
            "columns": columns,
            "rows": [
                {"section": section, "group": group, "values": values}
                for section, group, values in rows
            ],
        }
        return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    if fmt == "csv":
        out = io.StringIO()
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(["Section", "Group", *columns])
        for section, group, values in rows:
            writer.writerow([section, group, *values])
        return out.getvalue().encode("utf-8")

    if fmt == "html":
        title = "Public summary quality comparison"
        body = f"<h1>{html.escape(title)}</h1>\n" + comparison_table_html(cards, bands=bands)
        return _page(title, "Side-by-side quality scores", body).encode("utf-8")

    raise UnsupportedFormat(f"unsupported format {fmt!r}; expected one of {', '.join(FORMATS)}")


def comparison_table_html(
    cards: list[ScoreCard],
    links: dict[str, str] | None = None,
    bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS,
) -> str:
    """Comparison table fragment; optional per-model detail links."""
    _comparison_check(cards)
    links = links or {}
    headers = []
    for card in cards:
        name = html.escape(card.meta.model)
        href = links.get(card.meta.model)
        headers.append(f'<th><a href="{html.escape(href)}">{name}</a></th>' if href else f"<th>{name}</th>")
    head = "<th>Section</th><th>Group</th>" + "".join(headers)

    body_rows = []
    last_section = None
    for section, group, values in _comparison_rows(cards):
        shown = "" if section == last_section else section
        last_section = section
        if section == "Overall Grades":
            cells = "".join(f"<td>{html.escape(v)}</td>" for v in values)
        else:
            cells = "".join(_cell_html(v, bands) for v in values)
        body_rows.append(
            f'<tr><th scope="row">{html.escape(shown)}</th><td>{html.escape(group)}</td>{cells}</tr>'
        )
    return (
        '<table class="comparison">\n'
        f"<thead><tr>{head}</tr></thead>\n"
        "<tbody>\n" + "\n".join(body_rows) + "\n</tbody>\n</table>\n"
    )


# ---------------------------------------------------------------------------
# Shared page shell
# ---------------------------------------------------------------------------

_CSS = """\
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #999; padding: 0.3rem 0.6rem; text-align: right; }
th[scope=row], thead th:first-child { text-align: left; }
td.pct.high { background: #d3f2d3; }
td.pct.moderate { background: #ffe3b3; }
td.pct.low { background: #f6c6c2; }
td.na { color: #666; text-align: center; }
dl dt { font-weight: 600; float: left; clear: left; width: 14rem; }
dl dd { margin-left: 15rem; }
"""


def _page(title: str, description: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n'
        "<head>\n"
        '<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f'<meta name="description" content="{html.escape(description, quote=True)}">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>\n{_CSS}</style>\n"
        "</head>\n"
        "<body>\n"
        f"{body}"
        "</body>\n"
        "</html>\n"
    )
