"""Command line: the group options, the command word, ``--version``, ``--help`` and usage errors.

``_read`` reads the command line from option tables, with no parser library, so
``--version``, ``--help`` and a usage error load only ``errors``.  A word of
``COMMANDS`` runs from its own module, ``summaryqa.commands.<name>``, which
``_run`` imports only then: each process compiles the code of one command.
Findings and requested data go to stdout or files, diagnostics to stderr.  Exit
status is 0 only when there are no findings and no errors, 1 after ``Error: ...``
and 2 after the usage.
"""

import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .errors import SummaryQAError

# reporting.FORMATS, spelled out so that reading the options imports no layer; tests/test_cli.py pins it.
FORMATS = ("json", "csv", "html")
# Each is the module summaryqa.commands.<name>, with "-" as "_".
COMMANDS = ("archive", "catalog-stats", "compare", "score", "site", "validate")


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


def _value(hint: str, convert: Callable[[str], object], text: str):
    """``convert(text)``; a text that does not convert is a usage error under ``hint``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Usage(f"Invalid value for {hint}: {exc}") from None


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


def _usage_error(usage: str, exc: _Usage) -> int:
    _note(f"usage: {usage}\nTry '{usage.partition(' [')[0]} --help' for help.\n\nError: {exc}")
    return 2


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


_CONFIG = _Option("--config", _path("File"), help="Config file (key: value lines) that sets option defaults.")
_GROUP = (
    _Option("--catalog", _path("File"), help="Catalog file."),
    _Option("--format", _choice(FORMATS), "json", "Report format: json, csv or html."),
    _Option("--aggregation", _choice(("pooled", "mean")), help="Aggregation strategy: pooled or mean."),
    _Option("--out", _path("Directory", exists=False), help="Output directory."),
)


def _run(argv: list[str], prog: str) -> int:
    """Run one command line; a usage error before the command word prints the group's usage."""
    usage, group = f"{prog} [OPTIONS] COMMAND [ARGS]...", (_CONFIG, *_GROUP)
    try:
        values, words = _read(argv, group, group=True)
        if values["version"] or values["help"]:
            rows = ("COMMAND", ", ".join(COMMANDS)), ("--version", "Show the version and exit.")
            doc = "Quality assessment of GPAI training-content public summaries."
            _echo(f"summaryqa, version {__version__}" if values["version"] else _help(usage, doc, group, *rows))
            return 0
        if not words or words[0] not in COMMANDS:
            raise _Usage(f"No such command {words[0]!r}." if words else "Missing command.")
        from .commands import run
        return run(words, values, prog)
    except _Usage as exc:
        return _usage_error(usage, exc)


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
