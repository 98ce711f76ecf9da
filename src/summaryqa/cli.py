"""Command-line pipeline: validate -> score -> compare -> site, plus archival.

``--config FILE`` names a plain ``key: value`` file.  A key that names an
option (``catalog``, ``format``, ``aggregation``, ``out``, ``assessments``,
``registry``, ``store``) is that option's default, so flags win over the file
and the file over the built-in defaults, and the option's one type function
reads its value from either.  ``section_group_strategy``, ``overall_strategy``
and ``grade_scale`` exist only in the file.  Any other key, a key set twice,
and a value that holds a NUL byte are refused with the file and line.

Findings (``source<TAB>locus<TAB>code<TAB>message`` lines) and requested data
go to stdout or files, diagnostics to stderr.  Exit status is 0 only when there
are no findings and no errors, 1 after ``Error: ...`` and 2 after the usage.

``_read`` reads the command line from the commands' option tables.  A command
imports the layers it runs when it runs, so start-up loads only ``errors``.
Layer names are looked up on their module at call time, so a wrapper patched
onto a layer's function (as ``bench/tracing.py`` does) sees every call.
"""

import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .errors import Finding, Malformed, Refused, SummaryQAError

if TYPE_CHECKING:
    from .reporting import AggregationConfig, GradeScale

date = None  # datetime.date, which _run imports for a command: --version and --help load no datetime
_AGGREGATION_KEYS = ("section_group_strategy", "overall_strategy", "grade_scale")
_CONFIG_KEYS = ("catalog", "assessments", "registry", "store", "out", "format", "aggregation", *_AGGREGATION_KEYS)

# reporting.FORMATS, base.PublishedForm and registry.DiscoveryChannel, spelled out so that
# building the command line imports no layer; tests/test_cli.py pins each to the layer's own list.
FORMATS = ("json", "csv", "html")
PUBLISHED_FORMS = ("WebPage", "PDF", "MarkdownFile", "Other")
CHANNELS = ("SearchEngine", "ModelRepoPage", "LegalCompliancePage", "TechnicalReport", "Index", "Referral")


class _Usage(Exception):
    """A usage error: the run ends with the usage of the command being read, and status 2."""


class _Option(NamedTuple):
    """An option (``--name``) or argument (``NAME``) of a command, read by ``convert``, by default as UTF-8 text."""

    name: str
    convert: Callable[[str], object] = lambda text: text.encode("utf-8").decode("utf-8")
    default: object = None
    help: str | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_").lower()


def _path(kind: str, exists: bool = True) -> Callable[[str], Path]:
    """The type of a path option: a ``File`` is no directory, a ``Directory`` no file, a ``Path`` either."""

    def convert(text: str) -> Path:
        if not os.path.exists(text):
            if exists:
                raise ValueError(f"{kind} {text!r} does not exist.")
        elif kind == "File" and os.path.isdir(text):
            raise ValueError(f"File {text!r} is a directory.")
        elif kind == "Directory" and os.path.isfile(text):
            raise ValueError(f"Directory {text!r} is a file.")
        return Path(text)

    return convert


def _choice(choices: tuple[str, ...]) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return convert


def _iso_date(text: str) -> "date | None":
    """A YYYY-MM-DD option; an empty one is not given."""
    from .base import iso_date

    try:
        return iso_date(text) if text else None
    except ValueError:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date") from None


def _parse_scale(text: str) -> "GradeScale":
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


def _value(hint: str, convert: Callable[[str], object], text: str):
    """``convert(text)``; a text that does not convert is a usage error under ``hint``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Usage(f"Invalid value for {hint}: {exc}") from None


def _read_config_file(path: Path) -> dict[str, str]:
    from .base import read_text

    values: dict[str, str] = {}
    # Only "\n" ends a line, as in base.read_fields; read_text already folds "\r\n" and "\r".
    for lineno, raw in enumerate(_load(read_text, path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition(":"))
        if not sep or key not in _CONFIG_KEYS:
            raise SummaryQAError(f"{path}:{lineno}: unknown config line {raw!r}")
        if "\0" in value:
            raise SummaryQAError(f"{path}:{lineno}: the value of {key} holds a NUL byte")
        if key in values:
            raise SummaryQAError(f"{path}:{lineno}: {key} is set more than once")
        values[key] = value
    return values


def _read(argv: list[str], options: tuple[_Option, ...], group: bool = False) -> tuple[dict[str, object], list[str]]:
    """Each option's text, or None, from ``--name value`` or ``--name=value`` (a value may start with "-"), the flags
    ``--help`` and, for the group, ``--version``, and each argument from the other words in turn.  "--" ends the
    options, and so does the group's command word, which is returned with the words after it."""
    flags = ("--help", "--version") if group else ("--help",)
    valued = {option.name: option.dest for option in options if option.name.startswith("-")}
    arguments = [option.dest for option in options if option.name not in valued]
    values = dict.fromkeys([*(option.dest for option in options), *(flag[2:] for flag in flags)])
    words, unknown, rest = [], [], iter(argv)
    for word in rest:
        name, eq, value = word.partition("=")
        if word == "--":
            words += rest
        elif word == "-" or not word.startswith("-"):
            words += [word, *rest] if group else [word]
        elif name in valued:
            if not eq and (value := next(rest, None)) is None:
                raise _Usage(f"argument {name}: expected one argument")
            values[valued[name]] = value
        elif word in flags:
            values[word[2:]] = True
        else:
            unknown.append(word)
    extras = [] if group else words[len(arguments):]
    if unknown or extras:
        raise _Usage(f"No such option {unknown[0]!r}." if unknown else f"Got unexpected extra argument ({' '.join(extras)})")
    return values | dict(zip(arguments, words)), words


def _help(usage: str, doc: str, options: tuple[_Option, ...], *flags: tuple[str, str]) -> str:
    """The ``--help`` text: the usage, ``doc``, and a line for each argument, option and flag."""
    rows = [(f"{o.name} {o.dest.upper()}" if o.name.startswith("-") else o.name, o.help or "") for o in options]
    rows += [*flags, ("--help", "Show this message and exit.")]
    text = "\n".join(line.strip() for line in doc.strip().splitlines())
    return f"usage: {usage}\n\n{text}\n\n" + "\n".join(f"  {label:<32} {help}".rstrip() for label, help in rows)


def _resolve(options: tuple[_Option, ...], args: SimpleNamespace, file_values: dict[str, str]) -> None:
    """Set each option to its flag's value, else its config file value, else its default."""
    for option in options:
        text = getattr(args, option.dest)
        if text is None:
            text = file_values.get(option.name.lstrip("-"))
        if text is None and option.required:
            raise _Usage(f"Missing {'option' if option.name.startswith('-') else 'argument'} '{option.name}'.")
        setattr(args, option.dest, option.default if text is None else _value(repr(option.name), option.convert, text))


def _aggregation(name: str | None, from_flag: bool, file_values: dict[str, str]) -> "AggregationConfig | None":
    """The aggregation that --aggregation and the config file ask for, or None.  ``aggregation`` sets
    both strategies; the file's strategy keys replace them unless --aggregation is a flag (``from_flag``)."""
    if name is None and not any(key in file_values for key in _AGGREGATION_KEYS):
        return None
    from .reporting import DEFAULT_GRADE_SCALE, AggregationConfig, OverallAggregation, SectionAggregation

    section, overall, scale = (
        _value(key, parse, file_values[key]) if key in file_values else None
        for key, parse in zip(_AGGREGATION_KEYS, (SectionAggregation, OverallAggregation, _parse_scale))
    )
    if from_flag or section is None:
        section = SectionAggregation.MEAN_OF_DIMENSIONS if name == "mean" else SectionAggregation.POOLED_WEIGHTED
    if from_flag or overall is None:
        overall = OverallAggregation.MEAN_OF_SECTIONS if name == "mean" else OverallAggregation.POOLED_WEIGHTED
    return AggregationConfig(section, overall, scale or DEFAULT_GRADE_SCALE)


def _require(value, name: str):
    if value is None:
        raise SummaryQAError(f"{name} is required (flag or config file)")
    return value


def _load(loader, path):
    """Load one input file; a malformed file ends the command with its path."""
    try:
        return loader(path)
    except SummaryQAError as exc:
        raise SummaryQAError(f"{path}: {exc}") from exc


def _echo(text: str, nl: bool = True) -> None:
    """Write ``text`` to stdout at once.  After a failed write stdout is the null device, so the
    interpreter's last flush cannot fail again; a closed pipe ends the run quietly with status 1."""
    if sys.stdout is None:  # started with fd 1 closed: nothing can read the text
        return
    try:
        sys.stdout.write(text + "\n" if nl else text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(1) from None
        raise SummaryQAError(f"cannot write standard output: {exc}") from exc


def _note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _echo_findings(source: str, findings: list[Finding]) -> int:
    for finding in findings:
        _echo(finding.line(source))
    return len(findings)


_CONFIG = _Option("--config", _path("File"), help="Config file (key: value lines) that sets option defaults.")
_GROUP = (
    _Option("--catalog", _path("File"), help="Catalog file."),
    _Option("--format", _choice(FORMATS), "json", "Report format: json, csv or html."),
    _Option("--aggregation", _choice(("pooled", "mean")), help="Aggregation strategy: pooled or mean."),
    _Option("--out", _path("Directory", exists=False), help="Output directory."),
)
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int | None], tuple[_Option, ...]]] = {}


def _command(name: str, *options: _Option):  # registers the decorated function as command ``name``
    return lambda func: _COMMANDS.setdefault(name, (func, options))[0]


def _run(argv: list[str], prog: str) -> int:
    """Run one command line; a usage error prints the usage of the command being read."""
    global date
    usage, group = f"{prog} [OPTIONS] COMMAND [ARGS]...", (_CONFIG, *_GROUP)
    try:
        values, words = _read(argv, group, group=True)
        if values["version"] or values["help"]:
            rows = ("COMMAND", ", ".join(sorted(_COMMANDS))), ("--version", "Show the version and exit.")
            doc = "Quality assessment of GPAI training-content public summaries."
            _echo(f"summaryqa, version {__version__}" if values["version"] else _help(usage, doc, group, *rows))
            return 0
        args = SimpleNamespace(**values)
        file_values = {} if args.config is None else _read_config_file(_value("'--config'", _CONFIG.convert, args.config))
        _resolve(_GROUP, args, file_values)
        if not words or words[0] not in _COMMANDS:
            raise _Usage(f"No such command {words[0]!r}." if words else "Missing command.")
        args.aggregation = _aggregation(args.aggregation, values["aggregation"] is not None, file_values)
        func, options = _COMMANDS[words[0]]
        if date is None:  # every command's layers load datetime anyway
            from datetime import date
        usage = f"{prog} {words[0]} [OPTIONS]" + "".join(f" {o.name}" for o in options if not o.name.startswith("-"))
        values, _ = _read(words[1:], options)
        if values["help"]:
            _echo(_help(usage, func.__doc__, options))
            return 0
        vars(args).update(values)
        _resolve(options, args, file_values)
        return func(args) or 0
    except _Usage as exc:
        _note(f"usage: {usage}\nTry '{usage.partition(' [')[0]} --help' for help.\n\nError: {exc}")
        return 2


def main(args: list[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> int:
    """Run ``args`` (``sys.argv[1:]`` by default) and return the exit status, or in standalone
    mode raise SystemExit with it.  An error from a layer ends the run with status 1."""
    try:
        status = _run(sys.argv[1:] if args is None else list(args), prog_name or "summaryqa")
    except SummaryQAError as exc:
        _note(f"Error: {exc}")
        status = 1
    if standalone_mode:
        sys.exit(status)
    return status


# The entry point as the benchmark's in-process replay (bench/run.py) calls it.
cli = SimpleNamespace(main=main)


@_command(
    "validate",
    _Option("--assessments", _path("Directory"), help="Directory of assessment files."),
    _Option("--registry", _path("File"), help="Registry file."),
    _Option("--store", _path("Directory", exists=False), help="Object store of archived copies."),
)
def validate(args):
    """Validate catalog, assessments, registry, and archive integrity.

    Assessments are checked only against a catalog without findings, and
    their dates against today's.
    """
    today = date.today()
    from .assessment import assessment_findings, parse_assessment
    from .base import read_text
    from .catalog import load_catalog, validate_catalog
    from .registry import load_registry, validate_registry, verify_archive

    catalog_path = _require(args.catalog, "--catalog")
    try:
        catalog = load_catalog(catalog_path)
    except Malformed as exc:
        _echo_findings("catalog", [Finding("malformed-catalog", str(catalog_path), str(exc))])
        return 1
    catalog_findings = validate_catalog(catalog)
    total = _echo_findings("catalog", catalog_findings)
    if args.assessments is not None and catalog_findings:
        _note("assessments not checked: the catalog has findings")
    elif args.assessments is not None:
        for path in sorted(args.assessments.glob("*.csv")):
            source = f"assessment:{path.name}"
            try:
                assessment = parse_assessment(read_text(path))
            except Malformed as exc:
                total += _echo_findings(source, [Finding("malformed-assessment", path.name, str(exc))])
                continue
            total += _echo_findings(source, assessment_findings(catalog, assessment, today))
    if args.registry is not None:
        try:
            registry = load_registry(args.registry)
        except Malformed as exc:
            total += _echo_findings("registry", [Finding("malformed-registry", str(args.registry), str(exc))])
        else:
            total += _echo_findings("registry", validate_registry(registry))
            if args.store is not None:
                total += _echo_findings("archive", verify_archive(registry, args.store))
    _note(f"{total} finding(s)")
    return 0 if total == 0 else 1


@_command("score", _Option("SOURCE", _path("Path"), required=True, help="Assessment file or directory."))
def score(args):
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

    catalog_path = _require(args.catalog, "--catalog")
    out_dir = _require(args.out, "--out")
    catalog = _load(load_catalog, catalog_path)
    findings = validate_catalog(catalog)
    if findings:
        raise SummaryQAError(f"{catalog_path}: {Refused.with_findings('catalog', findings)}")
    aggregation = args.aggregation or DEFAULT_CONFIG
    paths = sorted(args.source.glob("*.csv")) if args.source.is_dir() else [args.source]
    if not paths:
        raise SummaryQAError(f"no assessment files found in {args.source}")
    outputs: list[tuple[Path, bytes]] = []
    notes: list[str] = []
    for path in paths:
        try:
            assessment = load_assessment(path, catalog, today)
            card = score_summary(catalog, assessment, aggregation)
            written = [(out_dir / f"{path.stem}.scorecard.json", scorecard_to_json(card).encode("utf-8"))]
            if args.format != "json":
                report = render_scorecard(card, args.format)
                written.append((out_dir / f"{path.stem}.report.{args.format}", report))
        except SummaryQAError as exc:
            raise SummaryQAError(f"{path}: {exc}") from exc
        outputs += written
        grades = " ".join(f"{g.value}={card.grades[g]}" for g in Group)
        notes.append(f"{path.name}: {grades} -> {', '.join(str(target) for target, _ in written)}")
    for target, data in outputs:
        write_atomic(target, data)
    for note in notes:
        _note(note)


@_command("compare", _Option("CARDS_DIR", _path("Directory"), help="Directory of score cards (default: --out)."))
def compare(args):
    """Comparison table over all score cards in a directory."""
    from .base import write_atomic
    from .reporting import comparison_column, load_scorecard, render_comparison

    directory = args.cards_dir or _require(args.out, "--out or CARDS_DIR")
    card_paths = sorted(directory.glob("*.scorecard.json"))
    if not card_paths:
        raise SummaryQAError(f"no score cards found in {directory}")
    # Each card is dropped once its column is taken, so one decoded card is held at a time.
    columns = [comparison_column(_load(load_scorecard, p)) for p in card_paths]
    rendered = render_comparison(columns, args.format)
    if args.out is not None:
        out_path = args.out / f"comparison.{args.format}"
        write_atomic(out_path, rendered)
        _note(f"wrote {out_path}")
    else:
        _echo(rendered.decode("utf-8"), nl=False)


@_command(
    "archive",
    _Option("URL", str, required=True, help="http(s) URL or local path of the summary."),  # a file name need not be UTF-8
    _Option("--slug", required=True, help="Stable registry slug."),
    _Option("--provider", required=True),
    _Option("--model", required=True),
    _Option("--title", help="Summary title (defaults from model)."),
    _Option("--source-url", help="Recorded source URL (defaults to URL; a local path as its file: URI)."),
    _Option("--published-form", _choice(PUBLISHED_FORMS), "Other", f"One of {', '.join(PUBLISHED_FORMS)} (default Other)."),
    _Option("--date", _iso_date, help="Assessed version date (YYYY-MM-DD)."),
    _Option("--channel", _choice(CHANNELS), "ModelRepoPage", f"One of {', '.join(CHANNELS)} (default ModelRepoPage)."),
    _Option("--query", default="", help="Discovery query or path."),
    _Option("--discovered-on", _iso_date, help="Discovery date (YYYY-MM-DD)."),
    _Option("--registry", _path("File", exists=False), help="Registry file."),
    _Option("--store", _path("Directory", exists=False), help="Object store of archived copies."),
    _Option("--timeout", float, 30.0, "Fetch timeout in seconds (default 30)."),
)
def archive(args):
    """Fetch a summary, pin it in the object store, and register it."""
    from .base import PublishedForm, SummaryMeta, well_formed_url
    from .registry import (
        DiscoveryChannel, DiscoveryProvenance, Registry, RegistryEntry, add_entry, archive_fetch, attach_archive,
        load_registry, recorded_url, save_registry, valid_slug,
    )

    registry_file = _require(args.registry, "--registry")
    store_root = _require(args.store, "--store")
    if not valid_slug(args.slug):
        raise _Usage(f"Invalid value for --slug: {args.slug!r} must be lowercase alphanumeric/hyphen")
    if args.source_url and not well_formed_url(args.source_url):
        raise _Usage(f"Invalid value for --source-url: {args.source_url!r} is not an http(s) URL with a host or a file: URL")
    registry = _load(load_registry, registry_file) if registry_file.exists() else Registry()
    title = args.title or f"{args.model} public summary of training content"
    source_url = args.source_url or recorded_url(args.url)
    form = PublishedForm.from_token(args.published_form)
    meta = SummaryMeta(args.provider, args.model, title, source_url, form, args.date or date.today())
    channel = DiscoveryChannel.from_token(args.channel)
    discovery = DiscoveryProvenance(channel, args.query, args.discovered_on or date.today())
    entry = RegistryEntry(id=args.slug, meta=meta, discovery=discovery)
    # Admitted before the fetch, so a refused entry fetches and stores nothing.
    add_entry(registry, entry)
    copy = archive_fetch(args.url, store_root, timeout=args.timeout)
    registry.entries[-1] = attach_archive(entry, copy)
    save_registry(registry, registry_file)
    _echo(copy.content_digest)
    _note(f"archived {args.url} ({copy.byte_length} bytes, {copy.media_type})")


@_command(
    "site",
    _Option("--registry", _path("File"), help="Registry file."),
    _Option("--cards", _path("Directory"), help="Directory of score cards (default: --out)."),
    _Option("--store", _path("Directory"), help="Object store of archived copies."),
)
def site(args):
    """Build the static dissemination site from the score cards and publish it.

    The site is built beside ``<out>/site`` and replaces it only when every
    archived copy matches its pinned sha256 and every internal link resolves.
    Otherwise the command exits 1, listing any broken links, and the previous
    site stays as it was.
    """
    from .registry import load_registry
    from .site import SiteConfig, build_site

    registry = _load(load_registry, _require(args.registry, "--registry"))
    out_dir = _require(args.out, "--out")
    cards = sorted((args.cards or out_dir).glob("*.scorecard.json"))
    try:
        plan = build_site(registry, cards, SiteConfig(output_root=out_dir / "site", store_root=args.store))
    except Refused as exc:
        _echo_findings("site", exc.findings)
        raise SummaryQAError(f"site not published: {exc}") from exc
    _note(f"built {len(plan.pages)} page(s) under {plan.output_root}")


@_command("catalog-stats")
def catalog_stats(args):
    """Per-section metric counts of the catalog."""
    from .catalog import load_catalog, section_counts

    catalog = _load(load_catalog, _require(args.catalog, "--catalog"))
    for section, count in section_counts(catalog).items():  # in SECTION_ORDER
        _echo(f"{section.code}\t{count}")
    _echo(f"Total\t{len(catalog.metrics)}")

