"""Seeded inputs for the benchmark workloads.

Every workload gets a directory of assessments, a registry, a
content-addressed store and a list of ``archive`` calls, plus what the
pipeline must produce from them: the validation findings and the
aggregation under which the cards are scored.  The generator shares no code
with ``summaryqa``: it reads the reference catalog and builds the assessment,
registry and store formats itself, so set-up time does not move when the
program changes, and the same seed always gives byte-identical files.

Generation builds every file in memory; ``write`` puts them on disk.  The
set-up time the benchmark reports is the generation alone, because the cost
of creating files on a shared volume depends on its other users.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

CATALOG = Path("src/summaryqa/data/reference_catalog.txt")
CATALOG_REF = "aia-training-disclosure/1.0.0"

SCOREABLE = ("sufficient", "partially-sufficient", "insufficient")

# published_form -> (file extension, media type)
FORMS = {
    "WebPage": (".html", "text/html"),
    "PDF": (".pdf", "application/pdf"),
    "MarkdownFile": (".md", "text/markdown"),
    "Other": (".txt", "text/plain"),
}
CHANNELS = ("SearchEngine", "ModelRepoPage", "LegalCompliancePage", "TechnicalReport", "Index", "Referral")
PROVIDERS = (
    "Acme AI", "Borealis Labs", "Cobalt Systems", "Dune Research", "Ember Works", "Fjord Models",
    "Granite AI", "Harbor Labs", "Iris Compute", "Juniper AI", "Kestrel Research", "Lumen Models",
)
FREE_NOTES = (
    "stated in the overview",
    'listed under "data sources", with links',
    "partly covered; see section 2, table 1",
    "no detail given",
)

# Defects seeded into the audit workload, one per defective assessment.
DEFECTS = ("gate-unanswered", "missing-verdict", "unknown-metric-id", "verdict-on-inapplicable", "malformed-assessment")


@dataclass(frozen=True)
class CatalogShape:
    """What the generator needs from the catalog: ids in order and gate rules."""

    ids: tuple[str, ...]
    gate_of: dict[str, str]  # metric id -> gate metric id it requires to be "yes"

    @property
    def gates(self) -> tuple[str, ...]:
        wanted = set(self.gate_of.values())
        return tuple(m for m in self.ids if m in wanted)

    def root_gates(self) -> tuple[str, ...]:
        return tuple(g for g in self.gates if g not in self.gate_of)

    def dependents(self, gate: str) -> tuple[str, ...]:
        return tuple(m for m in self.ids if self.gate_of.get(m) == gate)


def read_catalog_shape(repo: Path) -> CatalogShape:
    ids: list[str] = []
    gate_of: dict[str, str] = {}
    current = None
    for line in (repo / CATALOG).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(":")
        value = value.strip()
        if key == "id":
            current = value
            ids.append(value)
        elif key == "applicability" and value != "always":
            gate, _, answer = value[3:].partition("=")
            if answer.strip() != "yes":
                raise ValueError(f"generator assumes gates require 'yes': {line!r}")
            gate_of[current] = gate.strip()
    return CatalogShape(tuple(ids), gate_of)


def applicable(shape: CatalogShape, answers: dict[str, str]) -> dict[str, bool]:
    """Applicability by fixpoint iteration over the gate answers."""
    result = {m: m not in shape.gate_of for m in shape.ids}
    changed = True
    while changed:
        changed = False
        for metric, gate in shape.gate_of.items():
            if not result[metric] and result[gate] and answers.get(gate) == "yes":
                result[metric] = changed = True
    return result


@dataclass
class ArchiveCall:
    source: Path
    options: list[str]
    digest: str


@dataclass
class Inputs:
    """One workload's generated inputs and the outputs they must produce."""

    root: Path
    files: dict[str, bytes]  # path under root -> contents, written by ``write``
    assessments: Path  # validated
    scored: Path  # scored, compared and published
    registry: Path
    store: Path
    archives: list[ArchiveCall]
    grow_registry: bool  # archive into the working registry (else into a scratch one)
    expected_findings: frozenset = frozenset()  # (source, locus, code)
    aggregation: str = "pooled"
    report_format: str = "html"
    compare_format: str = "html"
    notes: dict = field(default_factory=dict)  # sizes, recorded with each result


# ---------------------------------------------------------------------------
# Writers for the program's file formats
# ---------------------------------------------------------------------------


def object_rel(digest: str) -> str:
    return f"objects/{digest[:2]}/{digest}"


def write(inputs: Inputs) -> None:
    for rel, data in inputs.files.items():
        path = inputs.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def assessment_text(meta: dict, rows: list[tuple[str, str, str]]) -> str:
    out = io.StringIO()
    for key in ("provider", "model", "summary_title", "source_url", "published_form", "assessed_version_date"):
        out.write(f"{key}: {meta[key]}\n")
    out.write(f"archived_copy_digest: {meta['archived_copy_digest']}\n")
    out.write(f"catalog_ref: {CATALOG_REF}\nevaluator: bench-evaluator-{meta['evaluator']}\n\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric_id", "verdict", "note"])
    writer.writerows(rows)
    return out.getvalue()


def registry_entry(slug: str, meta: dict, channel: str, discovered_on: str, data: bytes, digest: str) -> dict:
    return {
        "id": slug,
        "meta": {
            "provider": meta["provider"],
            "model": meta["model"],
            "summary_title": meta["summary_title"],
            "source_url": meta["source_url"],
            "published_form": meta["published_form"],
            "assessed_version_date": meta["assessed_version_date"],
            "archived_copy_digest": digest,
        },
        "discovery": {"channel": channel, "query_or_path": f"listing for {slug}", "discovered_on": discovered_on},
        "archived": {
            "fetched_at": f"{discovered_on}T09:00:00Z",
            "content_digest": digest,
            "media_type": FORMS[meta["published_form"]][1],
            "byte_length": len(data),
            "storage_path": object_rel(digest),
        },
        "assessment_refs": [f"assessments/{slug}.csv"],
    }


def registry_bytes(entries: list[dict]) -> bytes:
    return (json.dumps({"kind": "registry", "entries": entries}, indent=2, ensure_ascii=False) + "\n").encode()


def archive_options(entry: dict) -> list[str]:
    """``archive`` flags that reproduce a registry entry's metadata."""
    meta, discovery = entry["meta"], entry["discovery"]
    return [
        "--slug", entry["id"],
        "--provider", meta["provider"],
        "--model", meta["model"],
        "--title", meta["summary_title"],
        "--source-url", meta["source_url"],
        "--published-form", meta["published_form"],
        "--date", meta["assessed_version_date"],
        "--channel", discovery["channel"],
        "--query", discovery["query_or_path"],
        "--discovered-on", discovery["discovered_on"],
    ]


# ---------------------------------------------------------------------------
# Synthetic summaries
# ---------------------------------------------------------------------------


def _summary(rng: random.Random, tag: str, index: int, min_bytes: int, max_bytes: int):
    """Metadata, discovery fields and archived bytes of one synthetic summary."""
    form = rng.choice(tuple(FORMS))
    model = f"Model-{tag}-{index:04d}"
    slug = model.lower()
    assessed = date(2025, 1, 1) + timedelta(days=rng.randrange(300))
    discovered = assessed + timedelta(days=rng.randrange(1, 30))
    meta = {
        "provider": rng.choice(PROVIDERS),
        "model": model,
        "summary_title": f"{model} public summary of training content",
        "source_url": f"https://example.org/{tag}/{slug}{FORMS[form][0]}",
        "published_form": form,
        "assessed_version_date": assessed.isoformat(),
        "evaluator": rng.choice("abc"),
    }
    size = rng.randint(min_bytes, max_bytes)
    head = f"{meta['summary_title']}\n".encode()
    data = head + rng.randbytes(max(0, size - len(head)) // 2).hex().encode()
    return slug, meta, rng.choice(CHANNELS), discovered.isoformat(), data


def _verdict_rows(rng: random.Random, shape: CatalogShape, answers: dict[str, str]) -> dict[str, tuple[str, str]]:
    """Valid verdicts: every gate answered, every applicable metric scored."""
    amap = applicable(shape, answers)
    rows: dict[str, tuple[str, str]] = {}
    for metric in shape.ids:
        note = ""
        if metric in answers:
            note = f"gate={answers[metric]}"
            if rng.random() < 0.2:
                note += f"; {rng.choice(FREE_NOTES)}"
        elif rng.random() < 0.1:
            note = rng.choice(FREE_NOTES)
        if amap[metric]:
            rows[metric] = (rng.choice(SCOREABLE), note)
        elif metric in answers or rng.random() < 0.5:
            rows[metric] = ("not-applicable", note)
    return rows


def _answers(rng: random.Random, shape: CatalogShape) -> dict[str, str]:
    p_yes = rng.uniform(0.3, 0.8)
    return {g: "yes" if rng.random() < p_yes else "no" for g in shape.gates}


def _seed_defect(rng: random.Random, shape: CatalogShape, kind: str, name: str):
    """Rows carrying one defect, and the single finding it must produce."""
    source = f"assessment:{name}"
    answers = _answers(rng, shape)
    if kind in ("gate-unanswered", "verdict-on-inapplicable"):
        gate = rng.choice(shape.root_gates())
        answers[gate] = "no"  # dependents are then inapplicable and unscored
    rows = _verdict_rows(rng, shape, answers)
    if kind == "gate-unanswered":
        rows[gate] = (rows[gate][0], "")
        return rows, (source, gate, kind)
    if kind == "verdict-on-inapplicable":
        plain = [m for m in shape.dependents(gate) if m not in answers]
        metric = rng.choice(plain)
        rows[metric] = (rng.choice(SCOREABLE), "")
        return rows, (source, metric, kind)
    if kind == "missing-verdict":
        plain = [m for m in shape.ids if m not in shape.gate_of and m not in answers]
        metric = rng.choice(plain)
        del rows[metric]
        return rows, (source, metric, kind)
    if kind == "unknown-metric-id":
        metric = f"X9.{rng.randrange(100)}.z.1"
        rows[metric] = (rng.choice(SCOREABLE), "")
        return rows, (source, metric, kind)
    # malformed-assessment: a verdict token the format does not define
    metric = rng.choice(shape.ids)
    rows[metric] = ("mostly-sufficient", rows.get(metric, ("", ""))[1])
    return rows, (source, name, kind)


def synthetic(
    repo: Path,
    root: Path,
    seed: int,
    name: str,
    count: int,
    min_bytes: int,
    max_bytes: int,
    defect_share: float = 0.0,
    store_defects: int = 0,
    archive_calls: int = 5,
    archive_bytes: tuple[int, int] = (300, 3000),
    grow_registry: bool = False,
    aggregation: str = "pooled",
    report_format: str = "html",
    compare_format: str = "html",
) -> Inputs:
    """``count`` seeded assessments with registry entries and objects.

    A ``defect_share`` of the assessments carries one seeded defect each,
    and ``store_defects`` further summaries have their stored object
    tampered with or missing.  Only summaries with no seeded defect go into
    the scored directory.
    """
    rng = random.Random(f"{name}:{seed}")
    shape = read_catalog_shape(repo)
    tag = f"{rng.getrandbits(16):04x}"
    files: dict[str, bytes] = {}

    defective = rng.sample(range(count), int(count * defect_share) + store_defects)
    kinds = {i: DEFECTS[k % len(DEFECTS)] for k, i in enumerate(defective[: len(defective) - store_defects])}
    tampered = {i: ("digest-mismatch" if k % 2 == 0 else "missing-object")
                for k, i in enumerate(defective[len(defective) - store_defects:])}

    entries, expected = [], set()
    stored_bytes = 0
    for i in range(count):
        slug, meta, channel, discovered, data = _summary(rng, tag, i, min_bytes, max_bytes)
        digest = hashlib.sha256(data).hexdigest()
        meta["archived_copy_digest"] = digest
        file_name = f"{slug}.csv"
        if i in kinds:
            rows, finding = _seed_defect(rng, shape, kinds[i], file_name)
            expected.add(finding)
        else:
            rows = _verdict_rows(rng, shape, _answers(rng, shape))
        text = assessment_text(meta, [(m, v, n) for m, (v, n) in rows.items()]).encode()
        files[f"assessments/{file_name}"] = text
        if i not in kinds and i not in tampered:
            files[f"scored/{file_name}"] = text
        entries.append(registry_entry(slug, meta, channel, discovered, data, digest))
        if tampered.get(i) == "missing-object":
            expected.add(("archive", slug, "missing-object"))
            continue
        if i in tampered:
            expected.add(("archive", slug, "digest-mismatch"))
            files[f"store/{object_rel(digest)}"] = data[:-1] + bytes([data[-1] ^ 0x01])
        else:
            files[f"store/{object_rel(digest)}"] = data
        stored_bytes += len(data)
    files["registry.json"] = registry_bytes(entries)

    # Local files for the archive calls.  A scratch registry re-pins the
    # first summaries' own bytes; a growing registry takes new summaries.
    calls = []
    for k in range(archive_calls):
        if grow_registry:
            slug, meta, channel, discovered, data = _summary(rng, f"{tag}n", k, *archive_bytes)
            entry = registry_entry(slug, meta, channel, discovered, data, "")
        else:
            entry = entries[k]
            data = files[f"store/{entry['archived']['storage_path']}"]
        rel = f"incoming/{entry['id']}{FORMS[entry['meta']['published_form']][0]}"
        files[rel] = data
        calls.append(ArchiveCall(root / rel, archive_options(entry), hashlib.sha256(data).hexdigest()))

    return Inputs(
        root=root,
        files=files,
        assessments=root / "assessments",
        scored=root / "scored",
        registry=root / "registry.json",
        store=root / "store",
        archives=calls,
        grow_registry=grow_registry,
        expected_findings=frozenset(expected),
        aggregation=aggregation,
        report_format=report_format,
        compare_format=compare_format,
        notes={
            "seeded_defects": len(kinds),
            "store_defects": len(tampered),
            "store_objects": count - sum(1 for v in tampered.values() if v == "missing-object"),
            "store_bytes": stored_bytes,
        },
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def fixtures(repo: Path, root: Path, seed: int) -> Inputs:
    """The shipped fixtures, with a store hashed from ``fixtures/sources``.

    The seed does not change these inputs; the archive calls re-pin every
    source under its registry metadata into a scratch registry.
    """
    del seed
    registry = repo / "fixtures" / "registry.json"
    entries = json.loads(registry.read_text(encoding="utf-8"))["entries"]
    sources = {path.stem: path for path in (repo / "fixtures" / "sources").iterdir()}
    files, calls = {}, []
    for entry in entries:
        data = sources[entry["id"]].read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        files[f"store/{object_rel(digest)}"] = data
        calls.append(ArchiveCall(sources[entry["id"]], archive_options(entry), digest))
    return Inputs(
        root=root,
        files=files,
        assessments=repo / "fixtures" / "assessments",
        scored=repo / "fixtures" / "assessments",
        registry=registry,
        store=root / "store",
        archives=calls,
        grow_registry=False,
        notes={"store_objects": len(files), "store_bytes": sum(map(len, files.values()))},
    )


def corpus_1k(repo: Path, root: Path, seed: int) -> Inputs:
    # One archive call, so that process start-up stays a small share of the pass.
    return synthetic(repo, root, seed, "corpus-1k", count=1000, min_bytes=300, max_bytes=3000, archive_calls=1)


def audit(repo: Path, root: Path, seed: int) -> Inputs:
    return synthetic(
        repo, root, seed, "audit", count=300, min_bytes=16_000, max_bytes=160_000,
        defect_share=0.2, store_defects=5, archive_calls=10, archive_bytes=(16_000, 160_000),
        grow_registry=True, aggregation="mean", report_format="csv", compare_format="csv",
    )


WORKLOADS = {"fixtures": fixtures, "corpus-1k": corpus_1k, "audit": audit}
