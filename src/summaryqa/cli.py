"""Command-line pipeline: validate -> score -> compare -> site, plus archival.

Configuration precedence is flags over config file over defaults.  The config
file is plain ``key: value`` text (keys: catalog, assessments, registry,
store, out, format, aggregation, section_group_strategy, overall_strategy,
grade_scale, severity_bands).

Diagnostics go to stderr; findings and requested data go to stdout or files.
Exit status is 0 only when there are no findings and no errors.  Validation
findings are emitted one per line as tab-separated
``source<TAB>locus<TAB>code<TAB>message`` records.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .assessment import (
    PublishedForm,
    SummaryMeta,
    assessment_findings,
    load_assessment,
    parse_assessment,
)
from .catalog import SECTION_ORDER, _write_atomic, load_catalog, section_counts, validate_catalog
from .errors import Finding, MalformedAssessment, MalformedRegistry, SummaryQAError
from .registry import (
    DiscoveryChannel,
    DiscoveryProvenance,
    Registry,
    RegistryEntry,
    add_entry,
    archive_fetch,
    attach_archive,
    load_registry,
    save_registry,
    validate_registry,
    verify_archive,
)
from .reporting import (
    DEFAULT_SEVERITY_BANDS,
    FORMATS,
    SeverityBand,
    load_scorecard,
    render_comparison,
    render_scorecard,
    scorecard_to_json,
)
from .scoring import (
    AggregationConfig,
    DEFAULT_GRADE_SCALE,
    GradeScale,
    Group,
    OverallAggregation,
    SectionAggregation,
    score_summary,
)
from .site import SiteConfig, build_site, check_links

_CONFIG_KEYS = (
    "catalog",
    "assessments",
    "registry",
    "store",
    "out",
    "format",
    "aggregation",
    "section_group_strategy",
    "overall_strategy",
    "grade_scale",
    "severity_bands",
)


@dataclass
class RunConfig:
    catalog_path: Path | None = None
    assessments_dir: Path | None = None
    registry_path: Path | None = None
    storage_root: Path | None = None
    output_dir: Path | None = None
    report_format: str = "json"
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    severity_bands: tuple[SeverityBand, ...] = DEFAULT_SEVERITY_BANDS


def _parse_grade_scale(text: str) -> GradeScale:
    bands = []
    for part in text.split(","):
        letter, sep, min_pct = part.partition(":")
        if not sep:
            raise click.BadParameter(f"grade_scale entry {part!r} must be LETTER:MIN")
        bands.append((letter.strip(), Fraction(min_pct.strip())))
    scale = GradeScale(tuple(bands))
    scale.check()
    return scale


def _parse_severity_bands(text: str) -> tuple[SeverityBand, ...]:
    bands = []
    for part in text.split(","):
        label, sep, min_pct = part.partition(":")
        if not sep:
            raise click.BadParameter(f"severity_bands entry {part!r} must be LABEL:MIN")
        bands.append(SeverityBand(label.strip(), Fraction(min_pct.strip())))
    if not bands or bands[-1].min_pct != 0:
        raise click.BadParameter("severity bands must end with a 0 minimum")
    return tuple(bands)


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise click.ClickException(f"{path}:{lineno}: unknown config line {raw!r}")
        values[key] = value.strip()
    return values


def _file_value(file_values: dict[str, str], key: str, parse, default):
    """Parse a config file value, or ``default`` when the file lacks the key.

    A value that does not parse is reported under its key.
    """
    if key not in file_values:
        return default
    try:
        return parse(file_values[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(str(exc), param_hint=key) from exc


def _aggregation_from(name: str) -> AggregationConfig:
    if name == "pooled":
        return AggregationConfig()
    if name == "mean":
        return AggregationConfig(
            section_group_strategy=SectionAggregation.MEAN_OF_DIMENSIONS,
            overall_strategy=OverallAggregation.MEAN_OF_SECTIONS,
        )
    raise click.BadParameter(f"aggregation must be 'pooled' or 'mean', got {name!r}")


def resolve_config(ctx: click.Context) -> RunConfig:
    """Merge CLI flags over config file over defaults."""
    flags = ctx.obj
    file_values: dict[str, str] = {}
    if flags.get("config"):
        file_values = _read_config_file(Path(flags["config"]))

    def pick(flag_key: str, file_key: str) -> str | None:
        if flags.get(flag_key) is not None:
            return flags[flag_key]
        return file_values.get(file_key)

    config = RunConfig()
    for attr, flag_key, file_key in (
        ("catalog_path", "catalog", "catalog"),
        ("assessments_dir", "assessments", "assessments"),
        ("registry_path", "registry", "registry"),
        ("storage_root", "store", "store"),
        ("output_dir", "out", "out"),
    ):
        value = pick(flag_key, file_key)
        if value is not None:
            setattr(config, attr, Path(value))

    fmt = pick("format", "format")
    if fmt is not None:
        if fmt not in FORMATS:
            raise click.BadParameter(f"format must be one of {', '.join(FORMATS)}")
        config.report_format = fmt

    # Aggregation: the --aggregation flag sets both strategies; the config
    # file may instead set them individually and supply a grade scale.
    aggregation = pick("aggregation", "aggregation")
    base = _aggregation_from(aggregation) if aggregation is not None else AggregationConfig()
    section_strategy = base.section_group_strategy
    overall_strategy = base.overall_strategy
    if flags.get("aggregation") is None:  # flag wins over the fine-grained keys
        section_strategy = _file_value(file_values, "section_group_strategy", SectionAggregation, section_strategy)
        overall_strategy = _file_value(file_values, "overall_strategy", OverallAggregation, overall_strategy)
    config.aggregation = AggregationConfig(
        section_group_strategy=section_strategy,
        overall_strategy=overall_strategy,
        grade_scale=_file_value(file_values, "grade_scale", _parse_grade_scale, DEFAULT_GRADE_SCALE),
    )
    config.severity_bands = _file_value(file_values, "severity_bands", _parse_severity_bands, config.severity_bands)
    return config


def _require(value, name: str):
    if value is None:
        raise click.ClickException(f"{name} is required (flag or config file)")
    return value


def _load(loader, path):
    """Load one input file; a malformed file ends the command with its path."""
    try:
        return loader(path)
    except SummaryQAError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _echo_findings(source: str, findings: list[Finding]) -> int:
    for finding in findings:
        click.echo(f"{source}\t{finding.locus}\t{finding.code}\t{finding.message}")
    return len(findings)


@click.group()
@click.version_option(version=__version__, prog_name="summaryqa")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), help="Config file (key: value lines).")
@click.option("--catalog", type=click.Path(exists=True, dir_okay=False), help="Catalog file.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None, help="Report format.")
@click.option("--aggregation", type=click.Choice(["pooled", "mean"]), default=None, help="Aggregation strategy.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory.")
@click.pass_context
def cli(ctx, config, catalog, fmt, aggregation, out):
    """Quality assessment of GPAI training-content public summaries."""
    ctx.obj = {
        "config": config,
        "catalog": catalog,
        "format": fmt,
        "aggregation": aggregation,
        "out": out,
        "assessments": None,
        "registry": None,
        "store": None,
    }


def main():
    try:
        cli(standalone_mode=True)
    except SummaryQAError as exc:  # pragma: no cover - click wraps most paths
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--assessments", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--store", type=click.Path(file_okay=False), default=None)
@click.pass_context
def validate(ctx, assessments, registry_path, store):
    """Validate catalog, assessments, registry, and archive integrity."""
    ctx.obj["assessments"] = assessments
    ctx.obj["registry"] = registry_path
    ctx.obj["store"] = store
    config = resolve_config(ctx)
    catalog_path = _require(config.catalog_path, "--catalog")

    total = 0
    try:
        catalog = load_catalog(catalog_path)
    except SummaryQAError as exc:
        click.echo(f"catalog\t{catalog_path}\tmalformed-catalog\t{exc}")
        sys.exit(1)
    total += _echo_findings("catalog", validate_catalog(catalog))

    if config.assessments_dir is not None:
        for path in sorted(Path(config.assessments_dir).glob("*.csv")):
            source = f"assessment:{path.name}"
            try:
                assessment = parse_assessment(path.read_text(encoding="utf-8"))
            except MalformedAssessment as exc:
                click.echo(f"{source}\t{path.name}\tmalformed-assessment\t{exc}")
                total += 1
                continue
            total += _echo_findings(source, assessment_findings(catalog, assessment))

    if config.registry_path is not None:
        try:
            registry = load_registry(config.registry_path)
        except MalformedRegistry as exc:
            click.echo(f"registry\t{config.registry_path}\tmalformed-registry\t{exc}")
            total += 1
        else:
            total += _echo_findings("registry", validate_registry(registry))
            if config.storage_root is not None:
                total += _echo_findings("archive", verify_archive(registry, config.storage_root))

    click.echo(f"{total} finding(s)", err=True)
    sys.exit(0 if total == 0 else 1)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("source", type=click.Path(exists=True))
@click.pass_context
def score(ctx, source):
    """Score one assessment file, or every *.csv in a directory."""
    config = resolve_config(ctx)
    catalog_path = _require(config.catalog_path, "--catalog")
    out_dir = _require(config.output_dir, "--out")
    catalog = load_catalog(catalog_path)

    source = Path(source)
    paths = sorted(source.glob("*.csv")) if source.is_dir() else [source]
    if not paths:
        raise click.ClickException(f"no assessment files found in {source}")
    out_dir = Path(out_dir)

    for path in paths:
        try:
            assessment = load_assessment(path, catalog)
            card = score_summary(catalog, assessment, config.aggregation)
            card_path = out_dir / f"{path.stem}.scorecard.json"
            _write_atomic(card_path, scorecard_to_json(card).encode("utf-8"))
            written = [card_path]
            if config.report_format != "json":
                report_path = out_dir / f"{path.stem}.report.{config.report_format}"
                report = render_scorecard(card, config.report_format, bands=config.severity_bands)
                _write_atomic(report_path, report)
                written.append(report_path)
        except SummaryQAError as exc:
            raise click.ClickException(f"{path}: {exc}") from exc
        grades = " ".join(f"{g.value}={card.grades[g]}" for g in Group)
        click.echo(f"{path.name}: {grades} -> {', '.join(str(p) for p in written)}", err=True)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("cards_dir", type=click.Path(exists=True, file_okay=False), required=False)
@click.pass_context
def compare(ctx, cards_dir):
    """Comparison table over all score cards in a directory."""
    config = resolve_config(ctx)
    directory = Path(cards_dir) if cards_dir else _require(config.output_dir, "--out or CARDS_DIR")
    card_paths = sorted(Path(directory).glob("*.scorecard.json"))
    if not card_paths:
        raise click.ClickException(f"no score cards found in {directory}")
    cards = [_load(load_scorecard, p) for p in card_paths]
    try:
        rendered = render_comparison(cards, config.report_format, bands=config.severity_bands)
        if config.output_dir is not None:
            out_path = Path(config.output_dir) / f"comparison.{config.report_format}"
            _write_atomic(out_path, rendered)
            click.echo(f"wrote {out_path}", err=True)
        else:
            click.echo(rendered.decode("utf-8"), nl=False)
    except SummaryQAError as exc:
        raise click.ClickException(str(exc)) from exc


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("url")
@click.option("--slug", required=True, help="Stable registry slug.")
@click.option("--provider", required=True)
@click.option("--model", required=True)
@click.option("--title", default=None, help="Summary title (defaults from model).")
@click.option("--source-url", default=None, help="Recorded source URL (defaults to URL).")
@click.option(
    "--published-form",
    type=click.Choice([f.value for f in PublishedForm]),
    default=PublishedForm.OTHER.value,
)
@click.option("--date", "version_date", default=None, help="Assessed version date (YYYY-MM-DD).")
@click.option(
    "--channel",
    type=click.Choice([c.value for c in DiscoveryChannel]),
    default=DiscoveryChannel.MODEL_REPO_PAGE.value,
)
@click.option("--query", default="", help="Discovery query or path.")
@click.option("--discovered-on", default=None, help="Discovery date (YYYY-MM-DD).")
@click.option("--registry", "registry_path", type=click.Path(dir_okay=False), default=None)
@click.option("--store", type=click.Path(file_okay=False), default=None)
@click.option("--timeout", type=float, default=30.0, show_default=True)
@click.pass_context
def archive(ctx, url, slug, provider, model, title, source_url, published_form, version_date, channel, query, discovered_on, registry_path, store, timeout):
    """Fetch a summary, pin it in the object store, and register it."""
    ctx.obj["registry"] = registry_path
    ctx.obj["store"] = store
    config = resolve_config(ctx)
    registry_file = _require(config.registry_path, "--registry")
    store_root = _require(config.storage_root, "--store")

    registry = _load(load_registry, registry_file) if Path(registry_file).exists() else Registry()
    if registry.get(slug) is not None:
        raise click.ClickException(f"registry already contains slug {slug!r}")

    try:
        copy = archive_fetch(url, store_root, timeout=timeout)
    except SummaryQAError as exc:
        raise click.ClickException(str(exc)) from exc

    meta = SummaryMeta(
        provider=provider,
        model=model,
        summary_title=title or f"{model} public summary of training content",
        source_url=source_url or url,
        published_form=PublishedForm.from_token(published_form),
        assessed_version_date=date.fromisoformat(version_date) if version_date else date.today(),
    )
    entry = RegistryEntry(
        id=slug,
        meta=meta,
        discovery=DiscoveryProvenance(
            channel=DiscoveryChannel.from_token(channel),
            query_or_path=query,
            discovered_on=date.fromisoformat(discovered_on) if discovered_on else date.today(),
        ),
    )
    add_entry(registry, attach_archive(entry, copy))
    try:
        save_registry(registry, registry_file)
    except SummaryQAError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(copy.content_digest)
    click.echo(f"archived {url} ({copy.byte_length} bytes, {copy.media_type})", err=True)


# ---------------------------------------------------------------------------
# site
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--cards", "cards_dir", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--store", type=click.Path(file_okay=False), default=None)
@click.option("--methodology", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--title", default="GPAI training-content disclosure quality")
@click.pass_context
def site(ctx, registry_path, cards_dir, store, methodology, title):
    """Build the static dissemination site and check its internal links."""
    ctx.obj["registry"] = registry_path
    ctx.obj["store"] = store
    config = resolve_config(ctx)
    registry_file = _require(config.registry_path, "--registry")
    out_dir = _require(config.output_dir, "--out")
    directory = Path(cards_dir) if cards_dir else Path(out_dir)

    registry = _load(load_registry, registry_file)
    cards = [_load(load_scorecard, p) for p in sorted(directory.glob("*.scorecard.json"))]

    site_root = Path(out_dir) / "site"
    site_config = SiteConfig(
        output_root=site_root,
        store_root=config.storage_root,
        methodology_html=Path(methodology) if methodology else None,
        site_title=title,
        severity_bands=config.severity_bands,
    )
    try:
        plan = build_site(registry, cards, site_config)
    except SummaryQAError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"built {len(plan.pages)} page(s) under {site_root}", err=True)

    broken = check_links(site_root)
    total = _echo_findings("site", broken)
    sys.exit(0 if total == 0 else 1)


# ---------------------------------------------------------------------------
# catalog-stats
# ---------------------------------------------------------------------------


@cli.command(name="catalog-stats")
@click.pass_context
def catalog_stats(ctx):
    """Per-section metric counts of the catalog."""
    config = resolve_config(ctx)
    catalog_path = _require(config.catalog_path, "--catalog")
    catalog = load_catalog(catalog_path)
    counts = section_counts(catalog)
    for section in SECTION_ORDER:
        click.echo(f"{section.code}\t{counts[section]}")
    click.echo(f"Total\t{len(catalog.metrics)}")


if __name__ == "__main__":
    main()
