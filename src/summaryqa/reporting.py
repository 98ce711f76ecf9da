"""Score cards: their types, their file format, and rendering.

A :class:`ScoreCard` holds exact values; :class:`GradeScale` and
:class:`AggregationConfig` are the settings it was scored under.  This module
imports no catalog, assessment or scoring code, so ``compare`` and ``site``
read cards without loading the assessment side.

Reporting is a pure projection: every number shown comes from the score
card's stored exact values, rendered at two decimals by ``format_percentage``;
nothing is recomputed here.  A comparison reads one :class:`Column` per card, made by
:func:`comparison_column`, so ``compare`` and ``site`` hold one decoded card
at a time.  Three formats are supported:

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
import re
import csv as _csv
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from .base import (
    DIMENSION_ORDER, SECTION_ORDER, Dimension, Group, Section, SummaryMeta, meta_from_dict, meta_to_dict, read_bytes,
    read_json, require_strings,
)
from .errors import Refused

FORMATS = ("json", "csv", "html")


# ---------------------------------------------------------------------------
# Grades
# ---------------------------------------------------------------------------


# The class of a percentage cell: the first entry whose minimum (in hundredths,
# so 8000 is 80.00) the two-decimal display reaches.  Each class is styled in _CSS.
_SEVERITY_CLASSES = ((8000, "high"), (5000, "moderate"), (0, "low"))

# A band label comes from a config file or a score card and is printed as a
# grade in every report and in score's "Group=grade" lines, so it is limited
# to one plain token: no markup, space, comma or "=" for a reader to unpick.
_LABEL_RE = re.compile(r"[A-Za-z0-9+-]+")


class _GradeScale(NamedTuple):
    bands: tuple[tuple[str, Fraction], ...]


class GradeScale(_GradeScale):
    """Ordered (letter, inclusive minimum percentage) bands, best first; a subclass of
    its fields' tuple, so that an instance has a ``__dict__`` to cache ``limits`` in."""

    @cached_property
    def limits(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Each band and severity minimum as (numerator, denominator), under the hundredths that a
        display rounds to when rounding may cross it: the minimum's two-decimal floor and ceiling."""
        limits: dict[int, tuple[tuple[int, int], ...]] = {}
        for low in {*(low for _, low in self.bands), *(low // 100 for low, _ in _SEVERITY_CLASSES)}:
            n, d = low.numerator, low.denominator
            for hundredths in {100 * n // d, -(-100 * n // d)}:
                limits[hundredths] = (*limits.get(hundredths, ()), (n, d))
        return limits

    def check(self) -> None:
        if not self.bands:
            raise ValueError("grade scale has no bands")
        letters = [letter for letter, _ in self.bands]
        for letter in letters:
            if _LABEL_RE.fullmatch(letter) is None:
                raise ValueError(f"band label {letter!r} must be letters, digits, '+' or '-'")
        if len(set(letters)) != len(letters):
            raise ValueError("band labels must be unique")
        mins = [m for _, m in self.bands]
        if any(a <= b for a, b in zip(mins, mins[1:])):
            raise ValueError("band minimums must be strictly decreasing")
        if mins[-1] != 0:
            raise ValueError("last band minimum must be 0 so the scale covers [0, 100]")
        for lows in self.limits.values():  # two minimums less than 0.01 apart share a key of ``limits``
            if any(0 < 100 * abs(n * e - m * d) < d * e for n, d in lows for m, e in lows):
                raise ValueError("band minimums must be 0.01 or more apart, and apart from the severity minimums 50 and 80")


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


def format_percentage(pct: Fraction | None, scale: GradeScale = DEFAULT_GRADE_SCALE) -> str:
    """Render an exact percentage at two decimals, rounding half up, but never across a minimum of
    ``scale``'s bands or of a severity class: a value below such a minimum shows its two-decimal
    floor, and one at or above it its two-decimal ceiling.  None, for N/A, is ``N/A``."""
    if pct is None:
        return "N/A"
    n, d = pct.numerator, pct.denominator
    hundredths = (200 * n + d) // (2 * d)  # floor(pct * 100 + 1/2)
    for a, b in scale.limits.get(hundredths, ()):  # +1 or -1 where rounding crossed the minimum a/b
        hundredths += (a * d <= n * b) - (100 * a <= hundredths * b)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def assign_grade(score: Fraction | None, scale: GradeScale = DEFAULT_GRADE_SCALE) -> str:
    """Letter of the first band whose minimum is at or below the score; None, for N/A, is ``N/A``."""
    if score is None:
        return "N/A"
    for letter, min_pct in scale.bands:
        if score >= min_pct:
            return letter
    return scale.bands[-1][0]


# ---------------------------------------------------------------------------
# Aggregation configuration and the score card
# ---------------------------------------------------------------------------


class SectionAggregation(Enum):
    """How a section's Transparency/Usefulness score combines its metrics."""

    POOLED_WEIGHTED = "pooled-weighted"
    MEAN_OF_DIMENSIONS = "mean-of-dimensions"


class OverallAggregation(Enum):
    """How the overall group score combines the sections."""

    POOLED_WEIGHTED = "pooled-weighted"
    MEAN_OF_SECTIONS = "mean-of-sections"


class AggregationConfig(NamedTuple):
    section_group_strategy: SectionAggregation = SectionAggregation.POOLED_WEIGHTED
    overall_strategy: OverallAggregation = OverallAggregation.POOLED_WEIGHTED
    grade_scale: GradeScale = DEFAULT_GRADE_SCALE


DEFAULT_CONFIG = AggregationConfig()


class ScoreCard(NamedTuple):
    """Full score matrix for one assessed summary: each score is an exact
    percentage in [0, 100], or None when no metric applies (N/A)."""

    meta: SummaryMeta
    catalog_ref: str
    config_used: AggregationConfig
    per_cell: dict[tuple[Section, Dimension], Fraction | None]
    per_section_group: dict[tuple[Section, Group], Fraction | None]
    per_dimension_overall: dict[Dimension, Fraction | None]
    overall: dict[Group, Fraction | None]
    grades: dict[Group, str]


# ---------------------------------------------------------------------------
# Canonical JSON serialization
# ---------------------------------------------------------------------------


def _value_to_json(value: Fraction | None, scale: GradeScale = DEFAULT_GRADE_SCALE):
    if value is None:
        return "N/A"
    return {"pct": format_percentage(value, scale), "exact": str(value)}


def _fraction_from_text(text: str) -> Fraction:
    """The Fraction whose ``str()`` is ``text``; any other text raises ValueError.

    Only the canonical ``n`` or ``n/d`` (lowest terms, ``d > 1``) that the
    writer produces is read back, so ``"2/4"``, ``"0.5"`` or ``" 1/2"`` are
    refused rather than normalized.
    """
    try:
        numerator, slash, denominator = text.partition("/")
        value = Fraction(int(numerator), int(denominator) if slash else 1)
    except (AttributeError, ValueError, ZeroDivisionError):
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"{text!r} is not n or n/d in lowest terms")
    return value


def _value_from_json(raw, scale: GradeScale = DEFAULT_GRADE_SCALE) -> Fraction | None:
    """Inverse of :func:`_value_to_json`; ``pct`` must be the display of ``exact``, and
    ``exact`` in [0, 100]: the one range check of a score, as a card comes from outside."""
    if raw == "N/A":
        return None
    value = _fraction_from_text(raw["exact"])
    # A Fraction's denominator is positive, so the range check is on integers.
    if not 0 <= value.numerator <= 100 * value.denominator:
        raise ValueError(f"percentage out of range: {value}")
    if raw["pct"] != format_percentage(value, scale):
        raise ValueError(f"pct {raw['pct']!r} is not the display of exact {raw['exact']!r}")
    return value


def scorecard_to_dict(card: ScoreCard) -> dict:
    scale = card.config_used.grade_scale
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
                dimension.code: _value_to_json(card.per_cell[(section, dimension)], scale)
                for dimension in DIMENSION_ORDER
            }
            for section in SECTION_ORDER
        },
        "section_groups": {
            section.code: {
                group.value: _value_to_json(card.per_section_group[(section, group)], scale) for group in Group
            }
            for section in SECTION_ORDER
        },
        "dimension_overall": {
            dimension.code: _value_to_json(card.per_dimension_overall[dimension], scale) for dimension in DIMENSION_ORDER
        },
        "overall": {group.value: _value_to_json(card.overall[group], scale) for group in Group},
        "grades": {group.value: card.grades[group] for group in Group},
    }


def scorecard_from_dict(data: dict) -> ScoreCard:
    """Inverse of :func:`scorecard_to_dict` for a card that agrees with itself.

    Raises KeyError, TypeError or ValueError unless every value's text is
    canonical, every ``pct`` is the display of its ``exact``, the grade scale
    passes ``GradeScale.check`` and every grade is ``assign_grade`` of its
    overall score under that scale.
    """
    meta = meta_from_dict(data["meta"])
    config_raw = data["config"]
    scale = GradeScale(tuple((letter, _fraction_from_text(min_pct)) for letter, min_pct in config_raw["grade_scale"]))
    scale = DEFAULT_GRADE_SCALE if scale == DEFAULT_GRADE_SCALE else scale  # so its ``limits`` are built once
    config = AggregationConfig(
        section_group_strategy=SectionAggregation(config_raw["section_group_strategy"]),
        overall_strategy=OverallAggregation(config_raw["overall_strategy"]),
        grade_scale=scale,
    )
    scale.check()
    overall = {group: _value_from_json(data["overall"][group.value], scale) for group in Group}
    grades = {group: data["grades"][group.value] for group in Group}
    for group in Group:
        expected = assign_grade(overall[group], scale)
        if grades[group] != expected:
            raise ValueError(f"grade {grades[group]!r} for {group.value} is not {expected!r}, the grade of its score")
    require_strings({"catalog_ref": data["catalog_ref"]})
    return ScoreCard(
        meta=meta,
        catalog_ref=data["catalog_ref"],
        config_used=config,
        per_cell={
            (section, dimension): _value_from_json(data["cells"][section.code][dimension.code], scale)
            for section in SECTION_ORDER
            for dimension in DIMENSION_ORDER
        },
        per_section_group={
            (section, group): _value_from_json(data["section_groups"][section.code][group.value], scale)
            for section in SECTION_ORDER
            for group in Group
        },
        per_dimension_overall={
            dimension: _value_from_json(data["dimension_overall"][dimension.code], scale)
            for dimension in DIMENSION_ORDER
        },
        overall=overall,
        grades=grades,
    )


def scorecard_to_json(card: ScoreCard) -> str:
    return json.dumps(scorecard_to_dict(card), indent=2, ensure_ascii=False) + "\n"


def scorecard_from_json(text: str | bytes) -> ScoreCard:
    """Parse score card JSON (text, or UTF-8 bytes); any malformed input is Malformed."""
    return read_json(text, scorecard_from_dict)


def load_scorecard(path: str | Path) -> ScoreCard:
    return scorecard_from_json(read_bytes(path))


# ---------------------------------------------------------------------------
# Tables and formats, shared by score cards and comparisons
# ---------------------------------------------------------------------------

#: A table row: its label cells, its values, and whether the values are
#: grades (shown as text) rather than percentage displays.
_Row = tuple[list[str], list[str], bool]


def _render(fmt: str, **makers: Callable[[], str]) -> bytes:
    """The text that ``makers[fmt]`` makes, as UTF-8; there is one maker per entry of FORMATS."""
    if fmt not in FORMATS:
        raise Refused(f"unsupported format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return makers[fmt]().encode("utf-8")


def _csv_text(header: list[str], rows: list[_Row]) -> str:
    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([*labels, *values] for labels, values, _ in rows)
    return out.getvalue()


def _cell_html(display: str) -> str:
    """A percentage cell, classed by the first entry of ``_SEVERITY_CLASSES`` that its display reaches."""
    if display == "N/A":
        return '<td class="na">N/A</td>'
    hundredths = int(display.replace(".", ""))
    label = next(label for low, label in _SEVERITY_CLASSES if hundredths >= low)
    return f'<td class="pct {label}">{display}%</td>'


def _table_html(css_class: str, head: list[str], rows: list[_Row]) -> str:
    """An HTML table; ``head`` holds each header cell's markup, and a row's first label heads the row."""
    body = []
    for (label, *labels), values, grades in rows:
        cells = [f"<td>{html.escape(text)}</td>" for text in labels]
        cells += [f"<td>{html.escape(v)}</td>" if grades else _cell_html(v) for v in values]
        body.append(f'<tr><th scope="row">{html.escape(label)}</th>{"".join(cells)}</tr>\n')
    return (
        f'<table class="{css_class}">\n'
        f"<thead><tr>{''.join(f'<th>{h}</th>' for h in head)}</tr></thead>\n"
        f"<tbody>\n{''.join(body)}</tbody>\n</table>\n"
    )


# ---------------------------------------------------------------------------
# Score card rendering
# ---------------------------------------------------------------------------

_DETAIL_HEADER = [
    "Section",
    *[d.label for d in DIMENSION_ORDER],
    Group.TRANSPARENCY.label,
    Group.USEFULNESS.label,
]


def _detail_rows(card: ScoreCard) -> list[_Row]:
    """One row per section: all six dimension cells plus the two group columns."""
    cells, groups = card.per_cell, card.per_section_group
    scores = [
        (s.label, [cells[(s, d)] for d in DIMENSION_ORDER] + [groups[(s, g)] for g in Group]) for s in SECTION_ORDER
    ]
    scores.append(
        ("Overall", [card.per_dimension_overall[d] for d in DIMENSION_ORDER] + [card.overall[g] for g in Group])
    )
    scale = card.config_used.grade_scale
    rows: list[_Row] = [([label], [format_percentage(v, scale) for v in values], False) for label, values in scores]
    rows.append((["Grade"], [""] * len(DIMENSION_ORDER) + [card.grades[g] for g in Group], True))
    return rows


def render_scorecard(card: ScoreCard, fmt: str) -> bytes:
    """Render one score card; ``fmt`` is one of ``json``, ``csv``, ``html``."""
    title = f"{card.meta.model} score card"
    return _render(
        fmt,
        json=lambda: scorecard_to_json(card),
        csv=lambda: _csv_text(_DETAIL_HEADER, _detail_rows(card)),
        html=lambda: _page(
            title,
            f"Quality scores for {card.meta.model}",
            f"<h1>{html.escape(title)}</h1>\n" + _meta_html(card) + scorecard_table_html(card),
        ),
    )


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


def scorecard_table_html(card: ScoreCard) -> str:
    """The detail table as an HTML fragment (used by reports and the site)."""
    return _table_html("scorecard", [html.escape(h) for h in _DETAIL_HEADER], _detail_rows(card))


# ---------------------------------------------------------------------------
# Comparison rendering
# ---------------------------------------------------------------------------


class Column(NamedTuple):
    """One card as the comparison shows it, so a caller need not keep the card.

    ``displays`` holds the 16 section-group displays (section by section,
    Transparency first) and then the 2 overall displays; ``grades`` holds
    the 2 grades, in ``Group`` order.
    """

    model: str
    catalog_ref: str
    config_used: AggregationConfig
    displays: tuple[str, ...]
    grades: tuple[str, ...]


def comparison_column(card: ScoreCard) -> Column:
    """The column of ``card`` in a comparison."""
    scores = [card.per_section_group[(section, group)] for section in SECTION_ORDER for group in Group]
    scores += [card.overall[group] for group in Group]
    return Column(
        model=card.meta.model,
        catalog_ref=card.catalog_ref,
        config_used=card.config_used,
        displays=tuple(format_percentage(score, card.config_used.grade_scale) for score in scores),
        grades=tuple(card.grades[group] for group in Group),
    )


def _comparison_check(columns: list[Column]) -> None:
    if not columns:
        raise Refused("comparison needs at least one score card")
    refs = {column.catalog_ref for column in columns}
    if len(refs) > 1:
        raise Refused(f"cards reference different catalogs: {sorted(refs)}")
    mixed = next((column for column in columns if column.config_used != columns[0].config_used), None)
    if mixed is not None:
        raise Refused(f"cards were scored under different configurations: {columns[0].model} and {mixed.model}")


def _comparison_rows(columns: list[Column]) -> list[_Row]:
    """([section label, group label], per-column value, grades?) rows in table order."""
    labels = [[section.label, group.value] for section in SECTION_ORDER for group in Group]
    labels += [["Overall Scores", group.value] for group in Group]
    rows: list[_Row] = [
        (label, [column.displays[i] for column in columns], False) for i, label in enumerate(labels)
    ]
    rows += [
        (["Overall Grades", group.value], [column.grades[i] for column in columns], True)
        for i, group in enumerate(Group)
    ]
    return rows


def render_comparison(columns: list[Column], fmt: str) -> bytes:
    """Side-by-side section/group scores, one column per summary."""
    _comparison_check(columns)
    models = [column.model for column in columns]
    title = "Public summary quality comparison"

    def json_text() -> str:
        rows = [{"section": s, "group": g, "values": values} for (s, g), values, _ in _comparison_rows(columns)]
        data = {"kind": "comparison", "catalog_ref": columns[0].catalog_ref, "columns": models, "rows": rows}
        return json.dumps(data, indent=2, ensure_ascii=False) + "\n"

    return _render(
        fmt,
        json=json_text,
        csv=lambda: _csv_text(["Section", "Group", *models], _comparison_rows(columns)),
        html=lambda: _page(
            title,
            "Side-by-side quality scores",
            f"<h1>{html.escape(title)}</h1>\n" + comparison_table_html(columns),
        ),
    )


def comparison_table_html(columns: list[Column], links: list[str] | None = None) -> str:
    """Comparison table fragment; ``links`` holds each column's detail href, in column order."""
    _comparison_check(columns)
    head = ["Section", "Group"]
    for column, href in zip(columns, links or [None] * len(columns), strict=True):
        name = html.escape(column.model)
        head.append(f'<a href="{html.escape(href)}">{name}</a>' if href else name)
    rows: list[_Row] = []
    last_section = None
    for (section, group), values, grades in _comparison_rows(columns):
        rows.append((["" if section == last_section else section, group], values, grades))
        last_section = section
    return _table_html("comparison", head, rows)


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
