"""Static dissemination site: comparison index, per-summary detail pages.

Pages are plain semantic HTML with inline styling and no scripts, readable
on desktop and mobile.  The information order is: overall grades first,
section-level scores second, then links to the full machine-readable score
card, the live source, and the pinned archived copy.  Builds are
reproducible: identical inputs produce byte-identical trees (no timestamps
unless the caller puts one in the footer text).
"""

from __future__ import annotations

import html
import mimetypes
from dataclasses import dataclass
from enum import Enum
from html.parser import HTMLParser
from pathlib import Path
from urllib.parse import urlparse

from .catalog import Group, _write_atomic
from .errors import Finding, UnmatchedScoreCard
from .registry import Registry, RegistryEntry
from .reporting import (
    DEFAULT_SEVERITY_BANDS,
    SeverityBand,
    _page,
    comparison_table_html,
    scorecard_table_html,
    scorecard_to_json,
)
from .scoring import ScoreCard


class PageKind(Enum):
    INDEX = "index"
    SUMMARY_DETAIL = "summary-detail"
    METHODOLOGY = "methodology"


@dataclass(frozen=True)
class SitePlan:
    output_root: Path
    pages: tuple[tuple[str, PageKind], ...]  # (route, kind)


@dataclass(frozen=True)
class SiteConfig:
    output_root: Path
    store_root: Path | None = None
    methodology_html: Path | None = None  # optional fragment to publish
    site_title: str = "GPAI training-content disclosure quality"
    footer_note: str = ""
    severity_bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS


def _empty_comparison_html() -> str:
    return (
        "<p>No assessed summaries yet.</p>\n"
        '<table class="comparison">\n'
        "<thead><tr><th>Section</th><th>Group</th></tr></thead>\n"
        "<tbody>\n</tbody>\n</table>\n"
    )


def _grades_overview_html(card: ScoreCard) -> str:
    parts = []
    for group in Group:
        grade = card.grades[group]
        pct = card.overall[group].display
        shown = f"{grade} ({pct}%)" if pct != "N/A" else grade
        parts.append(f"<li>{html.escape(group.value)}: <strong>{html.escape(shown)}</strong></li>")
    return "<ul class=\"grades\">\n" + "\n".join(parts) + "\n</ul>\n"


def _archive_name(entry: RegistryEntry) -> str | None:
    if entry.archived is None:
        return None
    ext = mimetypes.guess_extension(entry.archived.media_type) or ""
    return f"archived-{entry.archived.content_digest[:12]}{ext}"


def _detail_page(card: ScoreCard, entry: RegistryEntry, config: SiteConfig, archive_file: str | None) -> str:
    meta = card.meta
    title = f"{meta.model} — {meta.provider}"
    lines = [f"<h1>{html.escape(title)}</h1>"]
    lines.append(f"<p>{html.escape(meta.summary_title)}</p>")
    lines.append("<h2>Overall grades</h2>")
    lines.append(_grades_overview_html(card))
    lines.append("<h2>Section scores</h2>")
    lines.append(scorecard_table_html(card, bands=config.severity_bands))
    lines.append("<h2>Traceability</h2>")
    items = [
        f'<li><a href="scorecard.json">Full score card (machine-readable)</a></li>',
        f'<li><a href="{html.escape(meta.source_url, quote=True)}" rel="external">Public summary at the source</a></li>',
    ]
    if archive_file is not None and entry.archived is not None:
        items.append(
            f'<li><a href="{html.escape(archive_file, quote=True)}">Archived copy</a> '
            f"(sha256 <code>{html.escape(entry.archived.content_digest[:16])}…</code>, "
            f"fetched {html.escape(entry.archived.fetched_at)})</li>"
        )
    elif entry.archived is not None:
        items.append(
            f"<li>Archived copy digest: <code>{html.escape(entry.archived.content_digest)}</code></li>"
        )
    items.append(
        f"<li>Discovered via {html.escape(entry.discovery.channel.value)} "
        f"on {html.escape(entry.discovery.discovered_on.isoformat())}</li>"
    )
    lines.append("<ul>\n" + "\n".join(items) + "\n</ul>")
    lines.append('<p><a href="../../index.html">Back to the comparison</a></p>')
    if config.footer_note:
        lines.append(f"<footer><p>{html.escape(config.footer_note)}</p></footer>")
    description = f"Transparency and usefulness scores for the {meta.model} training-content summary"
    return _page(title, description, "\n".join(lines) + "\n")


def build_site(registry: Registry, cards: list[ScoreCard], config: SiteConfig) -> SitePlan:
    """Emit the static site; returns the plan of emitted pages.

    Every card must match a registry entry by (provider, model).  Cards are
    rendered in input order; routes are ``summaries/<slug>/``.
    """
    by_summary = registry.by_summary()
    matched: list[tuple[ScoreCard, RegistryEntry]] = []
    for card in cards:
        key = (card.meta.provider, card.meta.model)
        entry = by_summary.get(key)
        if entry is None:
            raise UnmatchedScoreCard(f"no registry entry for provider={key[0]!r} model={key[1]!r}")
        matched.append((card, entry))

    root = Path(config.output_root)
    pages: list[tuple[str, PageKind]] = []

    links = {card.meta.model: f"summaries/{entry.id}/" for card, entry in matched}
    if matched:
        table = comparison_table_html([card for card, _ in matched], links=links, bands=config.severity_bands)
    else:
        table = _empty_comparison_html()

    index_lines = [
        f"<h1>{html.escape(config.site_title)}</h1>",
        "<p>Quality assessment of the public summaries of training content "
        "that general-purpose AI providers publish. Overall grades and "
        "section-level transparency and usefulness scores are shown below; "
        "each summary links to its full report.</p>",
        table,
    ]
    if config.methodology_html is not None:
        index_lines.append('<p><a href="methodology.html">How the scores are computed</a></p>')
    if config.footer_note:
        index_lines.append(f"<footer><p>{html.escape(config.footer_note)}</p></footer>")
    _write_atomic(
        root / "index.html",
        _page(
            config.site_title,
            "Comparison of training-content disclosure quality across GPAI models",
            "\n".join(index_lines) + "\n",
        ).encode("utf-8"),
    )
    pages.append(("index.html", PageKind.INDEX))

    for card, entry in matched:
        page_dir = root / "summaries" / entry.id
        archive_file = None
        if entry.archived is not None and config.store_root is not None:
            stored = Path(config.store_root) / entry.archived.storage_path
            if stored.is_file():
                archive_file = _archive_name(entry)
                _write_atomic(page_dir / archive_file, stored.read_bytes())
        _write_atomic(
            page_dir / "index.html",
            _detail_page(card, entry, config, archive_file).encode("utf-8"),
        )
        _write_atomic(page_dir / "scorecard.json", scorecard_to_json(card).encode("utf-8"))
        pages.append((f"summaries/{entry.id}/index.html", PageKind.SUMMARY_DETAIL))

    if config.methodology_html is not None:
        fragment = Path(config.methodology_html).read_text(encoding="utf-8")
        _write_atomic(
            root / "methodology.html",
            _page("Methodology", "How the quality scores are computed", fragment).encode("utf-8"),
        )
        pages.append(("methodology.html", PageKind.METHODOLOGY))

    return SitePlan(output_root=root, pages=tuple(pages))


# ---------------------------------------------------------------------------
# Link checking
# ---------------------------------------------------------------------------


class _LinkCollector(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.targets: list[str] = []

    def handle_starttag(self, tag, attrs):
        wanted = {"a": "href", "link": "href", "img": "src", "script": "src"}.get(tag)
        if wanted is None:
            return
        for name, value in attrs:
            if name == wanted and value:
                self.targets.append(value)


def check_links(output_root: str | Path) -> list[Finding]:
    """Verify that every internal reference in emitted pages resolves."""
    root = Path(output_root)
    findings: list[Finding] = []
    for page in sorted(root.rglob("*.html")):
        if page.name.startswith("archived-"):
            continue  # pinned third-party copies are not emitted pages
        collector = _LinkCollector()
        collector.feed(page.read_text(encoding="utf-8"))
        for target in collector.targets:
            parsed = urlparse(target)
            if parsed.scheme or target.startswith("#"):
                continue  # external link or in-page fragment
            path_part = parsed.path
            if not path_part:
                continue
            if path_part.startswith("/"):
                resolved = root / path_part.lstrip("/")
            else:
                resolved = page.parent / path_part
            if path_part.endswith("/"):
                resolved = resolved / "index.html"
            resolved = resolved.resolve()
            if not resolved.is_file():
                findings.append(
                    Finding(
                        "broken-link",
                        str(page.relative_to(root)),
                        f"target {target!r} does not resolve to an emitted file",
                    )
                )
    return findings
