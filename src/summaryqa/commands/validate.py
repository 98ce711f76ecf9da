"""``validate``: report the findings of the catalog, the assessments, the registry and the archive."""

from datetime import date

from ..cli import _Option, _note, _path
from ..errors import Finding, Malformed
from . import _echo_findings, _require

OPTIONS = (
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
    from ..assessment import assessment_findings, parse_assessment
    from ..base import read_text
    from ..catalog import load_catalog, validate_catalog
    from ..registry import load_registry, validate_registry, verify_archive

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
