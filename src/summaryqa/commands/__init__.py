"""What every command needs once its word is read: the config file, option resolution and input loading.

``--config FILE`` holds ``key: value`` lines.  A key that names an option
(``catalog``, ``format``, ``aggregation``, ``out``, ``assessments``,
``registry``, ``store``) is its default: flags win over the file, the file over
the built-in defaults, and the option's type function reads either.
``section_group_strategy``, ``overall_strategy`` and ``grade_scale`` exist only
in the file.  Any other key, a key set twice, and a NUL byte are refused with
the file and line.  Command ``<name>`` is the module ``commands.<name>``: its
``OPTIONS`` and its function ``<name>``, whose docstring is its ``--help``.  It
imports the layers it runs when it runs, so a wrapper patched onto a layer's
function (as ``bench/tracing.py`` does) sees every call.
"""

from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ..cli import _CONFIG, _GROUP, _Option, _Usage, _echo, _help, _read, _usage_error, _value
from ..errors import Finding, SummaryQAError

if TYPE_CHECKING:
    from ..reporting import AggregationConfig, GradeScale

_AGGREGATION_KEYS = ("section_group_strategy", "overall_strategy", "grade_scale")
_CONFIG_KEYS = ("catalog", "assessments", "registry", "store", "out", "format", "aggregation", *_AGGREGATION_KEYS)


def _parse_scale(text: str) -> "GradeScale":
    """A ``LABEL:MIN,...`` grade scale, best band first."""
    from ..base import exact_number
    from ..reporting import GradeScale

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
    from ..base import read_text

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
    from ..reporting import DEFAULT_GRADE_SCALE, AggregationConfig, OverallAggregation, SectionAggregation

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


def _echo_findings(source: str, findings: list[Finding]) -> int:
    for finding in findings:
        _echo(finding.line(source))
    return len(findings)


def run(words: list[str], values: dict[str, object], prog: str) -> int:
    """Run command ``words[0]``; a usage error in its own options, not the group's, prints its usage."""
    args = SimpleNamespace(**values)
    file_values = {} if args.config is None else _read_config_file(_value("'--config'", _CONFIG.convert, args.config))
    _resolve(_GROUP, args, file_values)
    args.aggregation = _aggregation(args.aggregation, values["aggregation"] is not None, file_values)
    name = words[0].replace("-", "_")
    command = __import__(f"{__name__}.{name}", fromlist=["OPTIONS"])  # as an import statement: -X importtime lists it
    func, options = getattr(command, name), command.OPTIONS
    usage = f"{prog} {words[0]} [OPTIONS]" + "".join(f" {o.name}" for o in options if not o.name.startswith("-"))
    try:
        values, _ = _read(words[1:], options)
        if values["help"]:
            _echo(_help(usage, func.__doc__, options))
            return 0
        vars(args).update(values)
        _resolve(options, args, file_values)
        return func(args) or 0
    except _Usage as exc:
        return _usage_error(usage, exc)
