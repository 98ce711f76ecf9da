"""Metric catalog: domain types, the catalog file format, and validation.

A catalog is an ordered collection of metrics, each tied to one section of
the disclosure template and one quality dimension.  Catalogs are immutable
after load and safe to share across concurrent scoring runs.

Catalog file format (UTF-8 text, one record per blank-line-separated block)::

    catalog: aia-training-disclosure
    version: 1.0.0

    id: F1.1.a.1
    element_id: 1.1.a
    section: GeneralInformation
    dimension: Completeness
    weight: 2
    prompt: The provider's legal name is stated.
    optional_field: false
    applicability: always

The first block is the header (``catalog`` + ``version``); every other block
is a metric with exactly the eight fields shown.  ``weight`` is a positive
rational (``2``, ``3/2``, ``0.5``).  ``applicability`` is either ``always``
or ``if <gate-metric-id> = yes|no``.  Lines starting with ``#`` are ignored
on load and never emitted by the serializer, so files produced by
:func:`dumps_catalog` round-trip byte-exact.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import IO, TypeVar, Union

from .errors import Finding, MalformedCatalog, SchemaViolation, WriteFailed

_Member = TypeVar("_Member")


def _lookup(members: dict[str, _Member], token: str, what: str) -> _Member:
    """The member that ``token`` names; ValueError says ``unknown <what>``."""
    try:
        return members[token]
    except KeyError:
        raise ValueError(f"unknown {what} {token!r}") from None


class Section(Enum):
    """The eight assessment sections and the template span each covers."""

    DOCUMENT = ("Document", "Document", "")
    GENERAL_INFORMATION = ("GeneralInformation", "General Information", "Section 1")
    PUBLIC_DATA_SOURCES = ("PublicDataSources", "Public Data Sources", "Section 2.1")
    PRIVATE_DATA_SOURCES = ("PrivateDataSources", "Private Data Sources", "Section 2.2")
    SCRAPED_CRAWLED_DATA = ("ScrapedCrawledData", "Scraped/Crawled Data", "Section 2.3")
    USER_DATA = ("UserData", "User Data", "Section 2.4")
    SYNTHETIC_OTHER_DATA = ("SyntheticOtherData", "Synthetic & Other Data", "Section 2.5 & 2.6")
    DATA_PROCESSING = ("DataProcessing", "Data Processing", "Section 3")

    def __init__(self, code: str, label: str, template_span: str):
        self.code = code
        self.label = label
        self.template_span = template_span

    @classmethod
    def from_code(cls, code: str) -> "Section":
        return _lookup(_SECTION_BY_CODE, code, "section code")


_SECTION_BY_CODE = {s.code: s for s in Section}


class Group(Enum):
    """Top-level quality indicator a dimension rolls up into."""

    TRANSPARENCY = "Transparency"
    USEFULNESS = "Usefulness"

    @property
    def label(self) -> str:
        return self.value


class Dimension(Enum):
    """The six quality dimensions; four feed Transparency, two Usefulness."""

    CLARITY = ("Clarity", Group.TRANSPARENCY)
    COMPLETENESS = ("Completeness", Group.TRANSPARENCY)
    CONSISTENCY = ("Consistency", Group.TRANSPARENCY)
    CORRECTNESS = ("Correctness", Group.TRANSPARENCY)
    ACCESSIBILITY = ("Accessibility", Group.USEFULNESS)
    COMPREHENSION = ("Comprehension", Group.USEFULNESS)

    def __init__(self, code: str, group: Group):
        self.code = code
        self.group = group

    @property
    def label(self) -> str:
        return self.code

    @classmethod
    def from_code(cls, code: str) -> "Dimension":
        return _lookup(_DIMENSION_BY_CODE, code, "dimension code")


_DIMENSION_BY_CODE = {d.code: d for d in Dimension}

#: Dimensions in canonical report order.
DIMENSION_ORDER = (
    Dimension.CLARITY,
    Dimension.COMPLETENESS,
    Dimension.CONSISTENCY,
    Dimension.CORRECTNESS,
    Dimension.ACCESSIBILITY,
    Dimension.COMPREHENSION,
)

#: Sections in canonical report order.
SECTION_ORDER = (
    Section.DOCUMENT,
    Section.GENERAL_INFORMATION,
    Section.PUBLIC_DATA_SOURCES,
    Section.PRIVATE_DATA_SOURCES,
    Section.SCRAPED_CRAWLED_DATA,
    Section.USER_DATA,
    Section.SYNTHETIC_OTHER_DATA,
    Section.DATA_PROCESSING,
)

#: (section, dimension) cells in canonical report order; a metric's cell
#: index points into this tuple.
CELLS = tuple((section, dimension) for section in SECTION_ORDER for dimension in DIMENSION_ORDER)
_CELL_INDEX = {cell: i for i, cell in enumerate(CELLS)}


class RuleKind(Enum):
    ALWAYS = "always"
    IF_GATE_EQUALS = "if-gate-equals"


@dataclass(frozen=True)
class ApplicabilityRule:
    """Whether a metric counts toward scoring.

    ``ALWAYS`` metrics always apply.  ``IF_GATE_EQUALS`` metrics apply only
    when the named gate metric is itself applicable and its recorded yes/no
    answer equals ``required_answer``.
    """

    kind: RuleKind = RuleKind.ALWAYS
    gate_metric_id: str | None = None
    required_answer: str | None = None  # "yes" | "no"

    @classmethod
    def always(cls) -> "ApplicabilityRule":
        return cls(RuleKind.ALWAYS)

    @classmethod
    def if_gate(cls, gate_metric_id: str, required_answer: str = "yes") -> "ApplicabilityRule":
        return cls(RuleKind.IF_GATE_EQUALS, gate_metric_id, required_answer)

    def serialize(self) -> str:
        if self.kind is RuleKind.ALWAYS:
            return "always"
        return f"if {self.gate_metric_id} = {self.required_answer}"

    @classmethod
    def parse(cls, text: str) -> "ApplicabilityRule":
        text = text.strip()
        if text == "always":
            return cls.always()
        if text.startswith("if "):
            body = text[3:]
            if "=" in body:
                gate, _, answer = body.partition("=")
                gate = gate.strip()
                answer = answer.strip()
                if gate and answer in ("yes", "no"):
                    return cls.if_gate(gate, answer)
        raise ValueError(f"unparsable applicability rule {text!r}")


@dataclass(frozen=True)
class Metric:
    """One independently assessable requirement about one template element."""

    id: str
    element_id: str
    section: Section
    dimension: Dimension
    weight: Fraction
    prompt: str
    optional_field: bool = False
    applicability: ApplicabilityRule = field(default_factory=ApplicabilityRule.always)


@dataclass(frozen=True)
class Catalog:
    """Named, versioned, ordered collection of metrics."""

    name: str
    version: str
    metrics: tuple[Metric, ...]

    @property
    def ref(self) -> str:
        """Catalog reference string used in assessment and score card files."""
        return f"{self.name}/{self.version}"

    def metric_index(self) -> dict[str, Metric]:
        """Metric lookup by id.  On duplicate ids the first occurrence wins."""
        index: dict[str, Metric] = {}
        for metric in self.metrics:
            index.setdefault(metric.id, metric)
        return index

    @cached_property
    def compiled(self) -> "CompiledCatalog":
        """The catalog as flat rows for applicability and scoring, built once.

        Raises ValueError on an applicability cycle or a gate naming an
        unknown metric; :func:`validate_catalog` reports both as findings.
        """
        return _compile(self)


@dataclass(frozen=True)
class CompiledCatalog:
    """A catalog flattened for the per-assessment hot path.

    ``rows`` holds one ``(metric id, gate row, required answer, cell index,
    weight units)`` tuple per metric.  The gate row indexes ``rows`` (-1 for
    ``always``) and always points backwards: rows are in DFS post-order of
    the gate graph, visiting metrics in catalog order, which is the order
    in which a recursive resolution finishes them.  A repeated id reuses
    the gate of its first occurrence.  Weight units are the weight times
    ``weight_scale``, the LCM of every weight denominator, so sums of
    weights are exact integers.
    """

    rows: tuple[tuple[str, int, str | None, int, int], ...]
    weight_scale: int


def _compile(catalog: Catalog) -> CompiledCatalog:
    metrics = catalog.metrics
    first: dict[str, int] = {}  # id -> position of its first occurrence
    for position, metric in enumerate(metrics):
        first.setdefault(metric.id, position)
    scale = math.lcm(*(m.weight.denominator for m in metrics))
    rows: list[tuple[str, int, str | None, int, int]] = []
    row_of: dict[str, int] = {}

    def emit(metric: Metric, gate_row: int, required_answer: str | None) -> None:
        row_of.setdefault(metric.id, len(rows))
        units = (metric.weight * scale).numerator
        rows.append((metric.id, gate_row, required_answer, _CELL_INDEX[(metric.section, metric.dimension)], units))

    for position, metric in enumerate(metrics):
        if first[metric.id] != position:
            emit(metric, *rows[row_of[metric.id]][1:3])
            continue
        # Follow the gate chain up to a metric already placed or an ungated
        # one, then place the chain from its far end back.
        chain: list[tuple[Metric, Metric | None]] = []
        on_chain: set[str] = set()
        node: Metric | None = metric
        while node is not None and node.id not in row_of:
            if node.id in on_chain:
                raise ValueError(f"applicability cycle through {node.id!r}; validate the catalog first")
            on_chain.add(node.id)
            rule = node.applicability
            gate = None
            if rule.kind is RuleKind.IF_GATE_EQUALS:
                gate_position = first.get(rule.gate_metric_id or "")
                if gate_position is None:
                    raise ValueError(
                        f"metric {node.id!r} gates on unknown metric "
                        f"{rule.gate_metric_id!r}; validate the catalog first"
                    )
                gate = metrics[gate_position]
            chain.append((node, gate))
            node = gate
        for node, gate in reversed(chain):
            if gate is None:
                emit(node, -1, None)
            else:
                emit(node, row_of[gate.id], node.applicability.required_answer)
    return CompiledCatalog(rows=tuple(rows), weight_scale=scale)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_METRIC_FIELDS = (
    "id",
    "element_id",
    "section",
    "dimension",
    "weight",
    "prompt",
    "optional_field",
    "applicability",
)

Source = Union[str, Path, IO[str], IO[bytes]]


def _read_text(source: Source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename, so readers never see a partial file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".incoming-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise WriteFailed(f"cannot write {path}: {exc}") from exc


def _header_value(value: str, what: str) -> str:
    """``value`` for a ``key: value`` line; ValueError if it spans lines."""
    if "\n" in value or "\r" in value:
        raise ValueError(f"{what} must not contain line breaks: {value!r}")
    return value


def _split_blocks(text: str) -> list[list[tuple[int, str]]]:
    """Split into blocks of (line_number, line), skipping blanks and comments."""
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        if line.lstrip().startswith("#"):
            continue
        current.append((lineno, line))
    if current:
        blocks.append(current)
    return blocks


def _parse_block(block: list[tuple[int, str]]) -> dict[str, tuple[int, str]]:
    fields: dict[str, tuple[int, str]] = {}
    for lineno, line in block:
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedCatalog(f"expected 'key: value', got {line!r}", line=lineno)
        key = key.strip()
        if key in fields:
            raise SchemaViolation(f"duplicate field {key!r} in record", line=lineno, field=key)
        fields[key] = (lineno, value.strip())
    return fields


def parse_catalog(text: str) -> Catalog:
    """Parse catalog file text.  See the module docstring for the format."""
    blocks = _split_blocks(text)
    if not blocks:
        raise MalformedCatalog("empty catalog file")

    header = _parse_block(blocks[0])
    for key in ("catalog", "version"):
        if key not in header:
            first_line = blocks[0][0][0]
            raise SchemaViolation(f"header block missing {key!r}", line=first_line, field=key)
    extras = set(header) - {"catalog", "version"}
    if extras:
        key = sorted(extras)[0]
        raise SchemaViolation(f"unknown header field {key!r}", line=header[key][0], field=key)
    name = header["catalog"][1]
    version = header["version"][1]
    if not name or not version:
        raise SchemaViolation("catalog name and version must be non-empty", line=blocks[0][0][0])

    metrics: list[Metric] = []
    seen_ids: set[str] = set()
    for block in blocks[1:]:
        fields = _parse_block(block)
        first_line = block[0][0]
        for key in _METRIC_FIELDS:
            if key not in fields:
                raise SchemaViolation(f"metric record missing field {key!r}", line=first_line, field=key)
        extras = set(fields) - set(_METRIC_FIELDS)
        if extras:
            key = sorted(extras)[0]
            raise SchemaViolation(f"unknown metric field {key!r}", line=fields[key][0], field=key)

        metric_id = fields["id"][1]
        if not metric_id:
            raise SchemaViolation("metric id must be non-empty", line=fields["id"][0], field="id")
        if metric_id in seen_ids:
            raise SchemaViolation(f"duplicate metric id {metric_id!r}", line=fields["id"][0], field="id")
        seen_ids.add(metric_id)

        lineno, section_code = fields["section"]
        try:
            section = Section.from_code(section_code)
        except ValueError as exc:
            raise SchemaViolation(str(exc), line=lineno, field="section") from None

        lineno, dimension_code = fields["dimension"]
        try:
            dimension = Dimension.from_code(dimension_code)
        except ValueError as exc:
            raise SchemaViolation(str(exc), line=lineno, field="dimension") from None

        lineno, weight_text = fields["weight"]
        try:
            weight = Fraction(weight_text)
        except (ValueError, ZeroDivisionError):
            raise SchemaViolation(f"unparsable weight {weight_text!r}", line=lineno, field="weight") from None

        lineno, optional_text = fields["optional_field"]
        if optional_text not in ("true", "false"):
            raise SchemaViolation(
                f"optional_field must be 'true' or 'false', got {optional_text!r}",
                line=lineno,
                field="optional_field",
            )

        lineno, rule_text = fields["applicability"]
        try:
            rule = ApplicabilityRule.parse(rule_text)
        except ValueError as exc:
            raise SchemaViolation(str(exc), line=lineno, field="applicability") from None

        metrics.append(
            Metric(
                id=metric_id,
                element_id=fields["element_id"][1],
                section=section,
                dimension=dimension,
                weight=weight,
                prompt=fields["prompt"][1],
                optional_field=optional_text == "true",
                applicability=rule,
            )
        )

    return Catalog(name=name, version=version, metrics=tuple(metrics))


def load_catalog(source: Source) -> Catalog:
    """Load a catalog from a path or a readable (byte or text) stream."""
    return parse_catalog(_read_text(source))


def dumps_catalog(catalog: Catalog) -> str:
    """Serialize to the canonical catalog file format (stable, diffable)."""
    out = io.StringIO()
    out.write(f"catalog: {_header_value(catalog.name, 'catalog name')}\n")
    out.write(f"version: {_header_value(catalog.version, 'catalog version')}\n")
    for metric in catalog.metrics:
        out.write("\n")
        out.write(f"id: {_header_value(metric.id, 'metric id')}\n")
        out.write(f"element_id: {_header_value(metric.element_id, 'element id')}\n")
        out.write(f"section: {metric.section.code}\n")
        out.write(f"dimension: {metric.dimension.code}\n")
        out.write(f"weight: {metric.weight}\n")
        out.write(f"prompt: {_header_value(metric.prompt, 'prompt')}\n")
        out.write(f"optional_field: {'true' if metric.optional_field else 'false'}\n")
        out.write(f"applicability: {metric.applicability.serialize()}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_catalog(catalog: Catalog) -> list[Finding]:
    """Report every violated catalog invariant.  Empty list means valid.

    Findings come out in a deterministic order: catalog-level first, then
    per-metric findings in catalog order, then applicability cycles.
    """
    findings: list[Finding] = []

    if not catalog.metrics:
        findings.append(Finding("empty-catalog", catalog.ref, "catalog contains no metrics"))
        return findings

    seen: set[str] = set()
    ids = {m.id for m in catalog.metrics}
    for metric in catalog.metrics:
        if metric.id in seen:
            findings.append(Finding("duplicate-id", metric.id, "metric id occurs more than once"))
        seen.add(metric.id)
        if metric.weight <= 0:
            findings.append(
                Finding("nonpositive-weight", metric.id, f"weight must be positive, got {metric.weight}")
            )
        rule = metric.applicability
        if rule.kind is RuleKind.IF_GATE_EQUALS:
            if not rule.gate_metric_id or rule.required_answer not in ("yes", "no"):
                findings.append(Finding("malformed-rule", metric.id, "gate rule needs a metric id and a yes/no answer"))
            elif rule.gate_metric_id not in ids:
                findings.append(
                    Finding("unknown-gate", metric.id, f"gate metric {rule.gate_metric_id!r} does not exist")
                )

    findings.extend(_cycle_findings(catalog))
    return findings


def _cycle_findings(catalog: Catalog) -> list[Finding]:
    """One finding per applicability cycle, discovered in catalog order."""
    gate_of: dict[str, str] = {}
    ids = {m.id for m in catalog.metrics}
    for metric in catalog.metrics:
        rule = metric.applicability
        if rule.kind is RuleKind.IF_GATE_EQUALS and rule.gate_metric_id in ids:
            gate_of.setdefault(metric.id, rule.gate_metric_id)

    findings: list[Finding] = []
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def walk(start: str) -> None:
        path: list[str] = []
        node: str | None = start
        while node is not None and node not in state:
            state[node] = 0
            path.append(node)
            node = gate_of.get(node)
        if node is not None and state.get(node) == 0:
            cycle = path[path.index(node):] + [node]
            findings.append(
                Finding("applicability-cycle", cycle[0], "gate chain forms a cycle: " + " -> ".join(cycle))
            )
        for visited in path:
            state[visited] = 1

    for metric in catalog.metrics:
        if metric.id not in state:
            walk(metric.id)
    return findings


def section_counts(catalog: Catalog) -> dict[Section, int]:
    """Number of metrics per section; includes zero entries for all sections."""
    counts = {section: 0 for section in SECTION_ORDER}
    for metric in catalog.metrics:
        counts[metric.section] += 1
    return counts


def reference_catalog_path() -> Path:
    """Path of the reference catalog shipped with the package."""
    return Path(__file__).parent / "data" / "reference_catalog.txt"


def load_reference_catalog() -> Catalog:
    return load_catalog(reference_catalog_path())
