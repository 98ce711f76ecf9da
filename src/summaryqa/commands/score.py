"""``score``: score assessments into score cards, and reports in the chosen format."""

from datetime import date

from ..cli import _Option, _note, _path
from ..errors import Refused, SummaryQAError
from . import _load, _require

OPTIONS = (_Option("SOURCE", _path("Path"), required=True, help="Assessment file or directory."),)


def score(args):
    """Score one assessment file, or every *.csv in a directory.

    A catalog or an assessment that ``validate`` would report on is refused,
    naming the count and the first finding.  Every file is loaded, checked
    and scored before any card or report is written, so one bad file writes
    nothing.
    """
    today = date.today()
    from ..assessment import load_assessment
    from ..base import Group, write_atomic
    from ..catalog import load_catalog, validate_catalog
    from ..reporting import DEFAULT_CONFIG, render_scorecard, scorecard_to_json
    from ..scoring import score_summary

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
    outputs, notes = [], []  # (path, bytes) to write, and a line per file
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
