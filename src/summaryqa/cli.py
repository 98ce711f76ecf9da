"""Command-line pipeline: validate -> score -> compare -> site, plus archival.

``--config FILE`` names a plain ``key: value`` file.  A key that names an
option is that option's default: ``catalog``, ``format``, ``aggregation`` and
``out`` for the group, ``assessments`` for ``validate``, and ``registry`` and
``store`` for ``validate``, ``archive`` and ``site``.  So flags win over the
file and the file over the built-in defaults, and click parses and checks a
value the same way wherever it comes from.  Three keys exist only in the file
and are checked under every command: ``section_group_strategy``,
``overall_strategy`` and ``grade_scale`` (a ``LABEL:MIN,...`` list, best band
first, checked by ``reporting.GradeScale.check``).  Any other key, a key set
twice, and a value that holds a NUL byte are refused with the file and line.

Diagnostics go to stderr; findings and requested data go to stdout or files.
Exit status is 0 only when there are no findings and no errors.  Validation
findings are emitted one per line as tab-separated
``source<TAB>locus<TAB>code<TAB>message`` records.

Each command imports the layers it runs when it runs, so start-up costs only
click and this module (``--version`` and ``--help`` load no layer).  Layer
names are looked up on their module at call time, never kept in this module,
so a wrapper patched onto a layer's function (as ``bench/tracing.py`` does)
sees every call.
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import click
from click.core import ParameterSource

from . import __version__
from .errors import Finding, Malformed, Refused, SummaryQAError

if TYPE_CHECKING:
    from .reporting import AggregationConfig, GradeScale

# A config key that names an option sets that option's default; the
# aggregation keys exist only in the file.
_AGGREGATION_KEYS = ("section_group_strategy", "overall_strategy", "grade_scale")
_CONFIG_KEYS = ("catalog", "assessments", "registry", "store", "out", "format", "aggregation", *_AGGREGATION_KEYS)

# Choice lists, spelled out so that building the command line imports no layer.
# tests/test_cli.py pins each to the layer's own list.
FORMATS = ("json", "csv", "html")  # reporting.FORMATS
PUBLISHED_FORMS = ("WebPage", "PDF", "MarkdownFile", "Other")  # base.PublishedForm
CHANNELS = (  # registry.DiscoveryChannel
    "SearchEngine",
    "ModelRepoPage",
    "LegalCompliancePage",
    "TechnicalReport",
    "Index",
    "Referral",
)


class RunConfig(NamedTuple):
    """The group's settings, resolved once from flags, config file and defaults."""

    catalog_path: Path | None
    output_dir: Path | None
    report_format: str
    # None: neither flags nor config file set it, and the command uses
    # reporting.DEFAULT_CONFIG.
    aggregation: AggregationConfig | None


def _parse_scale(text: str) -> GradeScale:
    """A ``LABEL:MIN,...`` grade scale, best band first."""
    from .base import exact_number
    from .reporting import GradeScale

    bands = []
    for part in text.split(","):
        label, sep, min_pct = part.partition(":")
        if not sep:
            raise ValueError(f"entry {part!r} must be LABEL:MIN")
        bands.append((label.strip(), exact_number(min_pct.strip())))
    scale = GradeScale(tuple(bands))
    scale.check()
    return scale


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    # Only "\n" ends a line, as in base.read_fields; text mode already folds "\r\n" and "\r".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise click.ClickException(f"{path}:{lineno}: unknown config line {raw!r}")
        if "\0" in value:
            raise click.ClickException(f"{path}:{lineno}: the value of {key} holds a NUL byte")
        if key in values:
            raise click.ClickException(f"{path}:{lineno}: {key} is set more than once")
        values[key] = value.strip()
    return values


def _option_defaults(command: click.Command, values: dict[str, str]) -> dict[str, str]:
    """The ``values`` whose key names one of ``command``'s options, by parameter name."""
    return {
        param.name: values[key]
        for param in command.params
        if isinstance(param, click.Option) and (key := param.opts[0].lstrip("-")) in values
    }


def _config_defaults(ctx: click.Context, param: click.Parameter, path: Path | None) -> dict[str, str]:
    """Make the config file's values the defaults of the options they name.

    ``--config`` is eager, so click converts and checks those defaults, with
    each option's own type, when it processes the options after it.  Returns
    every value in the file; the group reads the file-only keys from it.
    """
    if path is None:
        return {}
    values = _read_config_file(path)
    group = ctx.command
    ctx.default_map = {
        **_option_defaults(group, values),
        **{name: _option_defaults(command, values) for name, command in group.commands.items()},
    }
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


def _aggregation(ctx: click.Context, name: str | None, file_values: dict[str, str]) -> AggregationConfig | None:
    """The aggregation that --aggregation and the config file ask for; None if they name none.

    ``aggregation`` sets both strategies.  The file's ``section_group_strategy``
    and ``overall_strategy`` replace them, unless --aggregation is given on the
    command line.  Either may come with a grade scale from the file.
    """
    if name is None and not any(key in file_values for key in _AGGREGATION_KEYS):
        return None
    from .reporting import DEFAULT_GRADE_SCALE, AggregationConfig, OverallAggregation, SectionAggregation

    section = _file_value(file_values, "section_group_strategy", SectionAggregation, None)
    overall = _file_value(file_values, "overall_strategy", OverallAggregation, None)
    if ctx.get_parameter_source("aggregation") is ParameterSource.COMMANDLINE:
        section = overall = None
    mean = name == "mean"
    return AggregationConfig(
        section_group_strategy=section
        or (SectionAggregation.MEAN_OF_DIMENSIONS if mean else SectionAggregation.POOLED_WEIGHTED),
        overall_strategy=overall or (OverallAggregation.MEAN_OF_SECTIONS if mean else OverallAggregation.POOLED_WEIGHTED),
        grade_scale=_file_value(file_values, "grade_scale", _parse_scale, DEFAULT_GRADE_SCALE),
    )


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


def _iso_date(ctx: click.Context, param: click.Parameter, value: str | None) -> date | None:
    """A YYYY-MM-DD option, checked while the command line is parsed."""
    if not value:
        return None
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise click.BadParameter(f"{value!r} is not a YYYY-MM-DD date") from exc


class _Group(click.Group):
    """The command group: a command that raises a SummaryQAError ends with its message and status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SummaryQAError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="summaryqa")
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    is_eager=True,
    callback=_config_defaults,
    help="Config file (key: value lines) that sets option defaults.",
)
@click.option("--catalog", type=click.Path(exists=True, dir_okay=False, path_type=Path), help="Catalog file.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json", help="Report format.")
@click.option("--aggregation", type=click.Choice(["pooled", "mean"]), default=None, help="Aggregation strategy.")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=None, help="Output directory.")
@click.pass_context
def cli(ctx, config, catalog, fmt, aggregation, out):
    """Quality assessment of GPAI training-content public summaries."""
    ctx.obj = RunConfig(
        catalog_path=catalog,
        output_dir=out,
        report_format=fmt,
        aggregation=_aggregation(ctx, aggregation, config),
    )


def main():
    cli()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--assessments", type=click.Path(exists=True, file_okay=False, path_type=Path), default=None)
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@click.option("--store", type=click.Path(file_okay=False, path_type=Path), default=None)
@click.pass_obj
def validate(config, assessments, registry_path, store):
    """Validate catalog, assessments, registry, and archive integrity.

    Assessments are checked only against a catalog without findings, and
    their dates against today's.
    """
    today = date.today()
    from .assessment import assessment_findings, parse_assessment
    from .base import read_text
    from .catalog import load_catalog, validate_catalog
    from .registry import load_registry, validate_registry, verify_archive

    catalog_path = _require(config.catalog_path, "--catalog")

    total = 0
    try:
        catalog = load_catalog(catalog_path)
    except Malformed as exc:
        _echo_findings("catalog", [Finding("malformed-catalog", str(catalog_path), str(exc))])
        sys.exit(1)
    catalog_findings = validate_catalog(catalog)
    total += _echo_findings("catalog", catalog_findings)

    if assessments is not None and catalog_findings:
        click.echo("assessments not checked: the catalog has findings", err=True)
    elif assessments is not None:
        for path in sorted(assessments.glob("*.csv")):
            source = f"assessment:{path.name}"
            try:
                assessment = parse_assessment(read_text(path))
            except Malformed as exc:
                total += _echo_findings(source, [Finding("malformed-assessment", path.name, str(exc))])
                continue
            total += _echo_findings(source, assessment_findings(catalog, assessment, today))

    if registry_path is not None:
        try:
            registry = load_registry(registry_path)
        except Malformed as exc:
            total += _echo_findings("registry", [Finding("malformed-registry", str(registry_path), str(exc))])
        else:
            total += _echo_findings("registry", validate_registry(registry))
            if store is not None:
                total += _echo_findings("archive", verify_archive(registry, store))

    click.echo(f"{total} finding(s)", err=True)
    sys.exit(0 if total == 0 else 1)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("source", type=click.Path(exists=True))
@click.pass_obj
def score(config, source):
    """Score one assessment file, or every *.csv in a directory.

    A catalog or an assessment that ``validate`` would report on is refused,
    naming the count and the first finding.  Every file is loaded, checked
    and scored before any card or report is written, so one bad file writes
    nothing.
    """
    today = date.today()
    from .assessment import load_assessment
    from .base import Group, write_atomic
    from .catalog import load_catalog, validate_catalog
    from .reporting import DEFAULT_CONFIG, render_scorecard, scorecard_to_json
    from .scoring import score_summary

    catalog_path = _require(config.catalog_path, "--catalog")
    out_dir = _require(config.output_dir, "--out")
    catalog = _load(load_catalog, catalog_path)
    findings = validate_catalog(catalog)
    if findings:
        raise click.ClickException(f"{catalog_path}: {Refused.with_findings('catalog', findings)}")
    aggregation = config.aggregation or DEFAULT_CONFIG

    source = Path(source)
    paths = sorted(source.glob("*.csv")) if source.is_dir() else [source]
    if not paths:
        raise click.ClickException(f"no assessment files found in {source}")

    outputs: list[tuple[Path, bytes]] = []
    notes: list[str] = []
    for path in paths:
        try:
            assessment = load_assessment(path, catalog, today)
            card = score_summary(catalog, assessment, aggregation)
            written = [(out_dir / f"{path.stem}.scorecard.json", scorecard_to_json(card).encode("utf-8"))]
            if config.report_format != "json":
                report = render_scorecard(card, config.report_format)
                written.append((out_dir / f"{path.stem}.report.{config.report_format}", report))
        except SummaryQAError as exc:
            raise click.ClickException(f"{path}: {exc}") from exc
        outputs += written
        grades = " ".join(f"{g.value}={card.grades[g]}" for g in Group)
        notes.append(f"{path.name}: {grades} -> {', '.join(str(target) for target, _ in written)}")
    for target, data in outputs:
        write_atomic(target, data)
    for note in notes:
        click.echo(note, err=True)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("cards_dir", type=click.Path(exists=True, file_okay=False), required=False)
@click.pass_obj
def compare(config, cards_dir):
    """Comparison table over all score cards in a directory."""
    from .base import write_atomic
    from .reporting import comparison_column, load_scorecard, render_comparison

    directory = Path(cards_dir) if cards_dir else _require(config.output_dir, "--out or CARDS_DIR")
    card_paths = sorted(directory.glob("*.scorecard.json"))
    if not card_paths:
        raise click.ClickException(f"no score cards found in {directory}")
    # Each card is dropped once its column is taken, so one decoded card is held at a time.
    columns = [comparison_column(_load(load_scorecard, p)) for p in card_paths]
    rendered = render_comparison(columns, config.report_format)
    if config.output_dir is not None:
        out_path = config.output_dir / f"comparison.{config.report_format}"
        write_atomic(out_path, rendered)
        click.echo(f"wrote {out_path}", err=True)
    else:
        click.echo(rendered.decode("utf-8"), nl=False)


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("url")
@click.option("--slug", required=True, help="Stable registry slug.")
@click.option("--provider", required=True)
@click.option("--model", required=True)
@click.option("--title", default=None, help="Summary title (defaults from model).")
@click.option("--source-url", default=None, help="Recorded source URL (defaults to URL; a local path as its file: URI).")
@click.option("--published-form", type=click.Choice(PUBLISHED_FORMS), default="Other")
@click.option("--date", "version_date", callback=_iso_date, help="Assessed version date (YYYY-MM-DD).")
@click.option("--channel", type=click.Choice(CHANNELS), default="ModelRepoPage")
@click.option("--query", default="", help="Discovery query or path.")
@click.option("--discovered-on", callback=_iso_date, help="Discovery date (YYYY-MM-DD).")
@click.option("--registry", "registry_path", type=click.Path(dir_okay=False, path_type=Path), default=None)
@click.option("--store", type=click.Path(file_okay=False, path_type=Path), default=None)
@click.option("--timeout", type=float, default=30.0, show_default=True)
def archive(url, slug, provider, model, title, source_url, published_form, version_date, channel, query, discovered_on, registry_path, store, timeout):
    """Fetch a summary, pin it in the object store, and register it."""
    from .base import PublishedForm, SummaryMeta, well_formed_url
    from .registry import (
        DiscoveryChannel,
        DiscoveryProvenance,
        Registry,
        RegistryEntry,
        add_entry,
        archive_fetch,
        attach_archive,
        load_registry,
        recorded_url,
        save_registry,
        valid_slug,
    )

    registry_file = _require(registry_path, "--registry")
    store_root = _require(store, "--store")
    if not valid_slug(slug):
        raise click.BadParameter(f"{slug!r} must be lowercase alphanumeric/hyphen", param_hint="--slug")
    if source_url and not well_formed_url(source_url):
        raise click.BadParameter(f"{source_url!r} is not an http(s) URL with a host or a file: URL", param_hint="--source-url")

    registry = _load(load_registry, registry_file) if registry_file.exists() else Registry()
    meta = SummaryMeta(
        provider=provider,
        model=model,
        summary_title=title or f"{model} public summary of training content",
        source_url=source_url or recorded_url(url),
        published_form=PublishedForm.from_token(published_form),
        assessed_version_date=version_date or date.today(),
    )
    entry = RegistryEntry(
        id=slug,
        meta=meta,
        discovery=DiscoveryProvenance(
            channel=DiscoveryChannel.from_token(channel),
            query_or_path=query,
            discovered_on=discovered_on or date.today(),
        ),
    )
    # Admitted before the fetch, so a refused entry fetches and stores nothing.
    add_entry(registry, entry)
    copy = archive_fetch(url, store_root, timeout=timeout)
    registry.entries[-1] = attach_archive(entry, copy)
    save_registry(registry, registry_file)
    click.echo(copy.content_digest)
    click.echo(f"archived {url} ({copy.byte_length} bytes, {copy.media_type})", err=True)


# ---------------------------------------------------------------------------
# site
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--registry", "registry_path", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@click.option("--cards", "cards_dir", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--store", type=click.Path(exists=True, file_okay=False, path_type=Path), default=None)
@click.pass_obj
def site(config, registry_path, cards_dir, store):
    """Build the static dissemination site from the score cards and publish it.

    The site is built in a staging directory beside ``<out>/site`` and
    replaces it only when every archived copy matches its pinned sha256 and
    every internal link resolves.  Otherwise the command exits 1, listing
    any broken links, and the previous site stays as it was.  ``--store``
    must name an existing directory.
    """
    from .registry import load_registry
    from .site import SiteConfig, build_site

    registry_file = _require(registry_path, "--registry")
    out_dir = _require(config.output_dir, "--out")
    directory = Path(cards_dir) if cards_dir else out_dir

    registry = _load(load_registry, registry_file)
    site_root = out_dir / "site"
    site_config = SiteConfig(output_root=site_root, store_root=store)
    try:
        plan = build_site(registry, sorted(directory.glob("*.scorecard.json")), site_config)
    except Refused as exc:
        _echo_findings("site", exc.findings)
        raise click.ClickException(f"site not published: {exc}") from exc
    click.echo(f"built {len(plan.pages)} page(s) under {site_root}", err=True)


# ---------------------------------------------------------------------------
# catalog-stats
# ---------------------------------------------------------------------------


@cli.command(name="catalog-stats")
@click.pass_obj
def catalog_stats(config):
    """Per-section metric counts of the catalog."""
    from .base import SECTION_ORDER
    from .catalog import load_catalog, section_counts

    catalog = _load(load_catalog, _require(config.catalog_path, "--catalog"))
    counts = section_counts(catalog)
    for section in SECTION_ORDER:
        click.echo(f"{section.code}\t{counts[section]}")
    click.echo(f"Total\t{len(catalog.metrics)}")


if __name__ == "__main__":
    main()
