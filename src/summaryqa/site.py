"""Static dissemination site: comparison index, per-summary detail pages.

Every page is markup this module writes: plain semantic HTML with inline
styling and no scripts, readable on desktop and mobile.  No input is copied
into a page; beside the pages, a site holds each score card's JSON bytes and
the archived copies, which must match their pinned digests; an archived HTML
page is published as ``.txt``, so no file but a generated page is HTML.  The
information order is: overall grades first, section-level scores second,
then links to the full machine-readable score card, the live source, and
the pinned archived copy.  Builds are reproducible: identical inputs
produce byte-identical trees (no timestamps).

A build is one pass into a fresh staging directory beside the output root.
It holds one decoded card at a time: each card is checked and its detail
page written before the next is read, and the index is written from the
cards' comparison columns.  The staged tree replaces the published one only
after every archived copy has matched its pinned digest and every link the
build wrote resolves, so a refused build publishes nothing and leaves the
previous site in place.  A card that cannot be read is ``Malformed``, naming
its path; every other reason not to publish is ``Refused``.
"""

from __future__ import annotations

import html
import os
import posixpath
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlparse

from .base import Group, read_bytes, well_formed_url
from .errors import Finding, Malformed, Refused, WriteFailed
from .registry import Registry, RegistryEntry, read_archived, validate_registry
from .reporting import (
    Column,
    ScoreCard,
    _page,
    _table_html,
    comparison_column,
    comparison_table_html,
    format_percentage,
    scorecard_from_json,
    scorecard_table_html,
)


class SitePlan(NamedTuple):
    output_root: Path
    pages: tuple[str, ...]  # routes
    links: tuple[tuple[str, str], ...]  # (route of the page, href as the page holds it)


class SiteConfig(NamedTuple):
    output_root: Path
    store_root: Path | None = None


#: The heading and title of the index page.
TITLE = "GPAI training-content disclosure quality"


def _anchor(hrefs: list[str], href: str, text: str, attrs: str = "") -> str:
    """An ``<a>`` element; its href is appended to ``hrefs``."""
    hrefs.append(href)
    return f'<a href="{html.escape(href, quote=True)}"{attrs}>{text}</a>'


def _grades_overview_html(card: ScoreCard) -> str:
    parts = []
    for group in Group:
        grade, pct = card.grades[group], card.overall[group]
        shown = grade if pct is None else f"{grade} ({format_percentage(pct, card.config_used.grade_scale)}%)"
        parts.append(f"<li>{html.escape(group.value)}: <strong>{html.escape(shown)}</strong></li>")
    return "<ul class=\"grades\">\n" + "\n".join(parts) + "\n</ul>\n"


#: The suffix an archived copy is published under, by its media type, ``.bin``
#: for any other.  HTML is published as text, so a source page's scripts never
#: run on the site's origin.
_ARCHIVE_SUFFIXES = {"application/pdf": ".pdf", "text/markdown": ".md", "text/plain": ".txt", "text/html": ".txt"}


def _archive_name(entry: RegistryEntry) -> str:
    suffix = _ARCHIVE_SUFFIXES.get(entry.archived.media_type, ".bin")
    return f"archived-{entry.archived.content_digest[:12]}{suffix}"


def _detail_page(card: ScoreCard, entry: RegistryEntry, archive_file: str | None, hrefs: list[str]) -> str:
    meta = card.meta
    title = f"{meta.model} — {meta.provider}"
    lines = [f"<h1>{html.escape(title)}</h1>"]
    lines.append(f"<p>{html.escape(meta.summary_title)}</p>")
    lines.append("<h2>Overall grades</h2>")
    lines.append(_grades_overview_html(card))
    lines.append("<h2>Section scores</h2>")
    lines.append(scorecard_table_html(card))
    lines.append("<h2>Traceability</h2>")
    card_link = _anchor(hrefs, "scorecard.json", "Full score card (machine-readable)")
    source_link = _anchor(hrefs, meta.source_url, "Public summary at the source", ' rel="external"')
    items = [f"<li>{card_link}</li>", f"<li>{source_link}</li>"]
    if archive_file is not None and entry.archived is not None:
        items.append(
            f"<li>{_anchor(hrefs, archive_file, 'Archived copy')} "
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
    lines.append(f"<p>{_anchor(hrefs, '../../index.html', 'Back to the comparison')}</p>")
    description = f"Transparency and usefulness scores for the {meta.model} training-content summary"
    return _page(title, description, "\n".join(lines) + "\n")


def _create(path: Path, data: bytes) -> None:
    """Write a new file; the staged tree never holds a file twice."""
    with open(path, "xb") as handle:
        handle.write(data)


def _copy_archived(entry: RegistryEntry, store: Path | None, page_dir: Path) -> str | None:
    """Copy the entry's archived object into ``page_dir`` if ``read_archived`` passes it.

    Returns the published file name, or None when there is no store or
    the entry records no archived copy.
    Every finding of ``read_archived``, a missing object included, refuses
    the build, as ``validate --store`` reports it.
    """
    if entry.archived is None or store is None:
        return None
    data = read_archived(entry, store)
    if isinstance(data, Finding):
        raise Refused(f"{entry.id}: {data.message}")
    name = _archive_name(entry)
    _create(page_dir / name, data)
    return name


def _stage_card(
    path: Path, by_summary: dict[tuple[str, str], list[RegistryEntry]], store: Path | None, root: Path
) -> tuple[str, list[str], Column]:
    """Check one card file and write its detail page under ``root``.

    The card must match a registry entry, and an archived copy
    the card pins must be the one its entry records.  Returns the card's
    registry slug, the hrefs its page holds and its comparison column.  The
    decoded card is dropped on return, so a build holds one card at a time.
    """
    try:
        data = read_bytes(path)
        card = scorecard_from_json(data)
    except Malformed as exc:
        raise Malformed(f"{path}: {exc}") from exc
    if not well_formed_url(card.meta.source_url):
        raise Refused(f"{path}: source_url {card.meta.source_url!r} is not well-formed")
    key = (card.meta.provider, card.meta.model)
    entries = by_summary.get(key, [])
    if not entries:
        raise Refused(f"no registry entry for provider={key[0]!r} model={key[1]!r}")
    entry = entries[0]  # the only one, as _stage admits no duplicate-summary finding
    pinned = card.meta.archived_copy_digest
    recorded = None if entry.archived is None else entry.archived.content_digest
    if pinned is not None and pinned != recorded:
        held = "no archived copy" if recorded is None else f"{recorded[:12]}..."
        raise Refused(
            f"{path}: the card pins archived copy {pinned[:12]}..., registry entry {entry.id!r} records {held}"
        )
    page_dir = root / "summaries" / entry.id
    try:
        page_dir.mkdir(parents=True)
    except FileExistsError:
        raise Refused(f"more than one score card matches registry slug {entry.id!r}") from None
    archive_file = _copy_archived(entry, store, page_dir)
    hrefs: list[str] = []
    _create(page_dir / "index.html", _detail_page(card, entry, archive_file, hrefs).encode("utf-8"))
    _create(page_dir / "scorecard.json", data)
    return entry.id, hrefs, comparison_column(card)


def _stage(registry: Registry, card_files: list[Path], config: SiteConfig, root: Path) -> SitePlan:
    """Write every page of the site into the new directory ``root``, from a registry
    that ``validate_registry`` has no finding on."""
    findings = validate_registry(registry)
    if findings:
        raise Refused.with_findings("registry", findings)
    by_summary = registry.by_summary()
    root.mkdir()
    details: list[str] = []
    links: list[tuple[str, str]] = []
    columns: list[Column] = []
    column_links: list[str] = []  # each card's detail href, in card order

    for path in card_files:
        slug, hrefs, column = _stage_card(path, by_summary, config.store_root, root)
        route = f"summaries/{slug}/index.html"
        details.append(route)
        links += [(route, href) for href in hrefs]
        columns.append(column)
        column_links.append(f"summaries/{slug}/")

    if columns:
        table = comparison_table_html(columns, links=column_links)
    else:
        table = "<p>No assessed summaries yet.</p>\n" + _table_html("comparison", ["Section", "Group"], [])
    index_lines = [
        f"<h1>{html.escape(TITLE)}</h1>",
        "<p>Quality assessment of the public summaries of training content "
        "that general-purpose AI providers publish. Overall grades and "
        "section-level transparency and usefulness scores are shown below; "
        "each summary links to its full report.</p>",
        table,
    ]
    _create(
        root / "index.html",
        _page(
            TITLE,
            "Comparison of training-content disclosure quality across GPAI models",
            "\n".join(index_lines) + "\n",
        ).encode("utf-8"),
    )
    links = [("index.html", href) for href in column_links] + links
    return SitePlan(output_root=root, pages=("index.html", *details), links=tuple(links))


def _swap(staged: Path, root: Path, previous: Path) -> None:
    """Move ``staged`` to ``root``; a tree already at ``root`` moves to ``previous``.

    ``root`` is absent only between the two renames; if the second fails,
    the old tree is put back.
    """
    replacing = os.path.lexists(root)
    if replacing:
        os.rename(root, previous)
    try:
        os.rename(staged, root)
    except OSError:
        if replacing:
            os.rename(previous, root)
        raise


def build_site(registry: Registry, card_files: list[Path], config: SiteConfig) -> SitePlan:
    """Build the site at ``config.output_root`` from score card files; returns the plan.

    Every card must match a registry entry by (provider, model), and the
    entry's slug names its route, ``summaries/<slug>/``; details are in card
    order.  Each card file is read once: it is decoded as a check and its
    bytes are published unchanged as the route's ``scorecard.json``.  Only
    the card's comparison column is kept once its page is written.

    The pages are written into a staging directory beside the output root,
    and ``check_links`` runs on the staged plan.  Only then does the staged
    tree replace the output root, which also drops the pages of cards no
    longer given.  A refused build (Refused, or any other error)
    leaves the output root as it was and no staging directory behind.
    """
    root = Path(config.output_root)
    try:
        root.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{root.name}.staging-", dir=root.parent))
    except OSError as exc:
        raise WriteFailed(f"cannot stage {root}: {exc}") from exc
    try:
        plan = _stage(registry, card_files, config, work / "site")
        broken = check_links(plan)
        if broken:
            raise Refused(f"{len(broken)} broken link(s)", broken)
        _swap(work / "site", root, work / "previous")
    except OSError as exc:
        raise WriteFailed(f"cannot build {root}: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return plan._replace(output_root=root)


# ---------------------------------------------------------------------------
# Link checking
# ---------------------------------------------------------------------------


def check_links(plan: SitePlan) -> list[Finding]:
    """Every internal link of the plan that does not resolve to a file of its tree.

    A link's path is taken relative to its page, or to the root when it
    starts with ``/``; a path ending in ``/`` names that directory's
    ``index.html``.  A path that leaves the root is broken.  External links
    and in-page fragments are not checked.
    """
    root = plan.output_root
    findings: list[Finding] = []
    for route, href in plan.links:
        parsed = urlparse(href)
        if parsed.scheme or parsed.netloc or href.startswith("#") or not parsed.path:
            continue
        path = parsed.path
        target = path.lstrip("/") if path.startswith("/") else posixpath.join(posixpath.dirname(route), path)
        if path.endswith("/"):
            target += "index.html"
        target = posixpath.normpath(target)
        if target == ".." or target.startswith("../") or not (root / target).is_file():
            findings.append(Finding("broken-link", route, f"target {href!r} does not resolve to a file of the site"))
    return findings
