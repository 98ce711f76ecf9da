"""CLI behavior: exit codes, outputs, config precedence, full pipeline."""

import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from datetime import date
from pathlib import Path

import pytest

from summaryqa.cli import cli
from summaryqa.registry import archive_fetch

from toys import link_dangling_from, reference_catalog_path, run_cli

REPO = Path(__file__).resolve().parent.parent
CATALOG = str(reference_catalog_path())
ASSESSMENTS = str(REPO / "fixtures" / "assessments")
REGISTRY = str(REPO / "fixtures" / "registry.json")
SOURCES = REPO / "fixtures" / "sources"
PHI_DIGEST = "554cceafcdbaed5824447c6121ac62a147df1b52f908a6a2dc3df32a361b5369"
APERTUS_DIGEST = "362aaffd6c198591b70f9223ac193c23ee7a0d65473866cb84148e898e461e50"


NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # UTF-16 with a byte-order mark
DEEP_JSON = "[" * 200_000  # deeper than the JSON decoder's recursion limit

# Registry entry fields of the wrong type, each with the reason the load gives.
MISTYPED_FIELDS = [
    pytest.param(field, value, reason, id=field)
    for field, value, reason in [
        ("id", 5, "id must be a string, got 5"),
        ("archived.storage_path", 5, "archived.storage_path must be a string, got 5"),
        ("archived.content_digest", 5, "archived.content_digest must be a string, got 5"),
        ("archived.byte_length", True, "archived.byte_length must be an integer, got True"),
        (
            "assessment_refs",
            "assessments/phi-4.csv",
            "assessment_refs must be a list of strings, got 'assessments/phi-4.csv'",
        ),
    ]
]


def fixture_store(tmp_path):
    """Every fixture source archived into ``tmp_path/store``."""
    store = tmp_path / "store"
    for source in sorted(SOURCES.iterdir()):
        archive_fetch(str(source), store)
    return store


def fail_reading(monkeypatch, target):
    """Make ``Path.read_bytes`` of ``target`` fail as a disk error does (EIO); every other path reads as before."""
    read_bytes = Path.read_bytes

    def read(path):
        if path == target:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", read)


def tree_bytes(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Edits that make a card contradict itself, each with the reason the decoder gives.
CONTRADICTIONS = [
    pytest.param(edit, reason, id=name)
    for name, edit, reason in [
        (
            "pct-and-grade",
            {("overall", "Transparency", "pct"): "99.99", ("grades", "Transparency"): "A+"},
            "pct '99.99' is not the display of exact '565/16'",
        ),
        ("grade", {("grades", "Transparency"): "A+"}, "grade 'A+' for Transparency is not 'D'"),
        ("grade-scale", {("config", "grade_scale"): [["A", "50"], ["F", "10"]]}, "last band minimum must be 0"),
    ]
]


def contradict(card, edit):
    """Apply ``edit``, a map from a key path to its new value, to the card file."""
    data = json.loads(card.read_text())
    for (*parents, key), value in edit.items():
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = value
    card.write_text(json.dumps(data, indent=2))


def duplicated_summary(tmp_path):
    """The fixture registry with a second entry for phi-4's summary, slug ``phi-4-again``, written into ``tmp_path``."""
    data = json.loads(Path(REGISTRY).read_text())
    phi = next(entry for entry in data["entries"] if entry["id"] == "phi-4")
    data["entries"].append({**phi, "id": "phi-4-again"})
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(data))
    return path


def edited_registry(tmp_path, slug, field, value):
    """The fixture registry with one field of one entry set, written into ``tmp_path``."""
    data = json.loads(Path(REGISTRY).read_text())
    node = next(entry for entry in data["entries"] if entry["id"] == slug)
    *parents, key = field.split(".")
    for parent in parents:
        node = node[parent]
    node[key] = value
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(data))
    return path


class TestValidate:
    def test_clean_fixtures_exit_zero(self):
        result = run_cli(
            "--catalog", CATALOG,
            "validate", "--assessments", ASSESSMENTS, "--registry", REGISTRY,
        )
        assert result.exit_code == 0, result.output
        finding_lines = [l for l in result.output.splitlines() if "\t" in l]
        assert finding_lines == []

    def test_duplicate_id_exit_nonzero(self, tmp_path):
        text = Path(CATALOG).read_text()
        # Two metrics with the same id: parsed, then refused by the catalog check.
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace("id: F0.1.2", "id: F0.1.1", 1))
        result = run_cli("--catalog", str(bad), "validate")
        assert result.exit_code == 1
        assert "catalog\tF0.1.1\tduplicate-id\tmetric id occurs more than once\n" in result.output
        out = tmp_path / "out"
        result = run_cli("--catalog", str(bad), "--out", str(out), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert result.exit_code == 1
        assert "catalog has 1 finding(s), first duplicate-id at F0.1.1" in result.output
        assert not out.exists()

    def test_missing_verdict_lists_metric_ids(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        source = Path(ASSESSMENTS) / "apertus.csv"
        lines = source.read_text().splitlines()
        # Drop one applicable verdict row (keep header block + csv header).
        dropped = next(i for i, l in enumerate(lines) if l.startswith("F1.1.a.1,"))
        del lines[dropped]
        (assessments / "apertus.csv").write_text("\n".join(lines) + "\n")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        assert "missing-verdict" in result.output
        assert "F1.1.a.1" in result.output

    @pytest.mark.parametrize("text", ["", "# no records\n"], ids=["empty", "comments-only"])
    def test_catalog_without_a_record_is_a_finding(self, tmp_path, text):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(text)
        result = run_cli("--catalog", str(catalog), "validate")
        assert result.exit_code == 1
        assert result.stdout == f"catalog\t{catalog}\tmalformed-catalog\tempty catalog file\n"

    def test_findings_are_tab_separated(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(Path(CATALOG).read_text().replace("weight: 2\n", "weight: 0\n", 1))
        result = run_cli("--catalog", str(bad), "validate")
        assert result.exit_code == 1
        first = result.output.splitlines()[0]
        assert first.count("\t") == 3

    @pytest.mark.parametrize(
        "metric_id,escaped",
        [("X\tY", "X\\tY"), ("X\u2028Y", "X\\u2028Y")],
        ids=["tab", "line-separator"],
    )
    def test_metric_id_that_breaks_a_line_is_one_finding_line(self, tmp_path, metric_id, escaped):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        text = (Path(ASSESSMENTS) / "phi-4.csv").read_text(encoding="utf-8")
        (assessments / "phi-4.csv").write_text(text + f'"{metric_id}",sufficient,\n', encoding="utf-8")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        [line] = result.stdout.splitlines()
        source, locus, code, _ = line.split("\t")
        assert (source, locus, code) == ("assessment:phi-4.csv", escaped, "unknown-metric-id")

    @pytest.mark.parametrize("digest", ["hello", "AB" * 32, "ab" * 31], ids=["word", "uppercase", "short"])
    def test_assessment_digest_that_is_not_a_sha256_is_malformed(self, tmp_path, digest):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        text = (Path(ASSESSMENTS) / "phi-4.csv").read_text(encoding="utf-8")
        pinned = re.sub(r"(?m)^archived_copy_digest: .*$", f"archived_copy_digest: {digest}", text)
        (assessments / "phi-4.csv").write_text(pinned, encoding="utf-8")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        [line] = result.stdout.splitlines()
        assert line.split("\t")[:3] == ["assessment:phi-4.csv", "phi-4.csv", "malformed-assessment"]
        assert "archived_copy_digest must be a sha256 digest of 64 lowercase hex digits" in line

    @pytest.mark.parametrize("field", ["archived.content_digest", "meta.archived_copy_digest"])
    def test_registry_digest_that_is_not_a_sha256_is_malformed(self, tmp_path, field):
        registry = edited_registry(tmp_path, "phi-4", field, "hello")
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        reason = f"{field.split('.')[-1]} must be a sha256 digest of 64 lowercase hex digits, got 'hello'"
        [line] = result.stdout.splitlines()
        assert line.split("\t")[:3] == ["registry", str(registry), "malformed-registry"] and reason in line
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert f"Error: {registry}: " in result.output and reason in result.output
        assert not (out / "site").exists()

    def test_registry_slug_that_breaks_a_line_is_one_finding_line(self, tmp_path):
        registry = edited_registry(tmp_path, "phi-4", "id", "abc\n\tx")
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "registry\tabc\\n\\tx\tbad-slug\tslug must be lowercase alphanumeric/hyphen"
        ]

    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"kind":"registry","entries":[{"id":"x"}]}', "missing field 'meta'"),
            ("{not json", "Expecting property name enclosed in double quotes"),
            (DEEP_JSON, "maximum recursion depth exceeded"),
        ],
        ids=["entry-without-meta", "not-json", "deeply-nested"],
    )
    def test_malformed_registry_is_a_finding(self, tmp_path, text, reason):
        registry = tmp_path / "registry.json"
        registry.write_text(text)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        assert (source, locus, code) == ("registry", str(registry), "malformed-registry")
        assert reason in message
        assert "1 finding(s)" in result.output

    def test_quote_left_open_on_the_last_row_is_a_finding(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        text = (Path(ASSESSMENTS) / "phi-4.csv").read_text(encoding="utf-8")
        (assessments / "phi-4.csv").write_text(text + 'X,sufficient,"unterminated', encoding="utf-8")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        [line] = result.stdout.splitlines()
        assert line.split("\t")[:3] == ["assessment:phi-4.csv", "phi-4.csv", "malformed-assessment"]
        assert line.endswith("unexpected end of data")

    def test_note_over_the_csv_field_limit_is_a_finding(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        text = (Path(ASSESSMENTS) / "phi-4.csv").read_text(encoding="utf-8")
        (assessments / "phi-4.csv").write_text(text + f"F9.9.z.9,sufficient,{'x' * 200_000}\n", encoding="utf-8")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        assert [line.split("\t")[:3] for line in result.output.splitlines() if "\t" in line] == [
            ["assessment:phi-4.csv", "phi-4.csv", "malformed-assessment"]
        ]
        assert "field larger than field limit" in result.output

    def test_non_utf8_registry_is_a_finding(self, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_bytes(NOT_UTF8)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        assert (source, locus, code) == ("registry", str(registry), "malformed-registry")
        assert "can't decode byte 0xff" in message

    @pytest.mark.parametrize("field,value,reason", MISTYPED_FIELDS)
    def test_mistyped_registry_field_is_a_finding(self, tmp_path, field, value, reason):
        registry = edited_registry(tmp_path, "phi-4", field, value)
        store = fixture_store(tmp_path)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        assert (source, locus, code, message) == ("registry", str(registry), "malformed-registry", reason)

    def test_missing_store_is_a_finding_per_object(self, tmp_path):
        result = run_cli(
            "--catalog", CATALOG, "validate", "--registry", REGISTRY, "--store", str(tmp_path / "no-such-store")
        )
        assert result.exit_code == 1
        assert result.output.count("\tmissing-object\t") == 5

    def test_unreadable_object_is_one_finding(self, tmp_path, monkeypatch):
        store = fixture_store(tmp_path)
        fail_reading(monkeypatch, store / "objects" / PHI_DIGEST[:2] / PHI_DIGEST)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", REGISTRY, "--store", str(store))
        assert result.exit_code == 1
        assert result.stdout == (
            f"archive\tphi-4\tunreadable-object\tarchived object objects/55/{PHI_DIGEST} cannot be read: "
            "[Errno 5] Input/output error\n"
        )
        assert result.stderr == "1 finding(s)\n"

    def test_assessments_naming_a_file_is_a_usage_error(self):
        assessment = str(Path(ASSESSMENTS) / "phi-4.csv")
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", assessment)
        assert result.exit_code == 2
        assert f"Error: Invalid value for '--assessments': Directory {assessment!r} is a file.\n" in result.stderr
        assert "finding(s)" not in result.output

    def test_second_entry_of_one_summary_is_a_finding(self, tmp_path):
        registry = duplicated_summary(tmp_path)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if "\t" in line] == [
            "registry\tphi-4-again\tduplicate-summary\t"
            "provider 'Microsoft' and model 'Phi-4' are already registered as 'phi-4'"
        ]

    def test_storage_path_outside_the_store_is_a_finding(self, tmp_path):
        store = fixture_store(tmp_path)
        (tmp_path / "outside.md").write_bytes((SOURCES / "phi-4.md").read_bytes())
        registry = edited_registry(tmp_path, "phi-4", "archived.storage_path", "../outside.md")
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if "\t" in line] == [
            f"registry\t{registry}\tmalformed-registry\tarchived.storage_path must be "
            f"'objects/55/{PHI_DIGEST}', got '../outside.md'"
        ]
        # The registry reader pins the path, so the finding needs no store.
        assert run_cli("--catalog", CATALOG, "validate", "--registry", str(registry)).stdout == result.stdout

    @pytest.mark.parametrize(
        "field,value,reason",
        [
            ("archived.storage_path", "../outside.md", f"archived.storage_path must be 'objects/55/{PHI_DIGEST}'"),
            ("archived.storage_path", f"objects/36/{APERTUS_DIGEST}", "archived.storage_path must be"),
            ("meta.archived_copy_digest", "ab" * 32, "meta.archived_copy_digest must be archived.content_digest"),
        ],
        ids=["outside-the-store", "another-object", "another-meta-digest"],
    )
    def test_registry_contradicting_its_archived_digest_keeps_the_previous_site(
        self, tmp_path, field, value, reason
    ):
        store = fixture_store(tmp_path)
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store)).exit_code == 0
        before = tree_bytes(out / "site")
        registry = edited_registry(tmp_path, "phi-4", field, value)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        [line] = result.stdout.splitlines()
        assert line.split("\t")[:3] == ["registry", str(registry), "malformed-registry"] and reason in line
        result = run_cli("--out", str(out), "site", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        assert f"Error: {registry}: {reason}" in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []


class TestCheckDate:
    """``validate`` and ``score`` read today's date once, at entry, and check against it."""

    @pytest.mark.parametrize("command", ["validate", "score"])
    def test_future_date_follows_the_one_read(self, tmp_path, monkeypatch, command):
        from importlib import import_module

        command_module = import_module(f"summaryqa.commands.{command}")

        assessments = tmp_path / "assessments"
        assessments.mkdir()
        (assessments / "phi-4.csv").write_bytes((Path(ASSESSMENTS) / "phi-4.csv").read_bytes())  # assessed 2026-01-15
        for day, status in ((date(2026, 1, 14), 1), (date(2026, 1, 15), 0)):

            class Today(date):
                @classmethod
                def today(cls):
                    return day

            monkeypatch.setattr(command_module, "date", Today)
            out = tmp_path / f"out-{day}"
            args = ["validate", "--assessments"] if command == "validate" else ["--out", str(out), "score"]
            result = run_cli("--catalog", CATALOG, *args, str(assessments))
            assert result.exit_code == status, result.output
            future = "future-date\tassessed_version_date 2026-01-15 is in the future"
            if command == "score":
                future = "assessment has 1 finding(s), first future-date at meta: assessed_version_date 2026-01-15"
            assert (future in result.output) == bool(status)
            assert out.exists() == (command == "score" and not status)


    @pytest.mark.parametrize("text", ["20260115", "2026-W03-4", "2026W034"])
    def test_date_in_another_iso_form_is_malformed(self, tmp_path, text):
        """Python 3.11's ``date.fromisoformat`` reads these as dates; 3.10's does not, nor does the CLI."""
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        fixture = (Path(ASSESSMENTS) / "phi-4.csv").read_text()
        (assessments / "phi-4.csv").write_text(fixture.replace("assessed_version_date: 2026-01-15", f"assessed_version_date: {text}"))
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        assert f"malformed-assessment\tassessed_version_date must be YYYY-MM-DD, got '{text}'" in result.output
        out = tmp_path / "out"
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(assessments))
        assert result.exit_code == 1
        assert f"assessed_version_date must be YYYY-MM-DD, got '{text}'" in result.output
        assert not out.exists()


# Catalog edits that validate_catalog reports, with the finding each one gives.
CATALOG_DEFECTS = {
    "gate-cycle": (("applicability: if F1.2.e.1 = yes", "applicability: if F1.2.e.2 = yes"), "applicability-cycle"),
    "unknown-gate": (("applicability: if F1.2.e.1 = yes", "applicability: if F9.9.z.9 = yes"), "unknown-gate"),
    "zero-weight": (("weight: 2\n", "weight: 0\n"), "nonpositive-weight"),
}


class TestCatalogFindings:
    """A catalog that validate reports on is never scored."""

    @pytest.fixture(params=sorted(CATALOG_DEFECTS))
    def defective(self, request, tmp_path):
        (old, new), code = CATALOG_DEFECTS[request.param]
        path = tmp_path / "catalog.txt"
        path.write_text(Path(CATALOG).read_text().replace(old, new, 1))
        return path, code

    def test_score_refuses_the_catalog(self, tmp_path, defective):
        catalog, code = defective
        out = tmp_path / "out"
        result = run_cli("--catalog", str(catalog), "--out", str(out), "score", ASSESSMENTS)
        assert result.exit_code == 1
        assert f"{catalog}: catalog has 1 finding(s), first {code} at " in result.output
        assert not out.exists()

    def test_validate_skips_the_assessments(self, defective):
        catalog, code = defective
        result = run_cli("--catalog", str(catalog), "validate", "--assessments", ASSESSMENTS, "--registry", REGISTRY)
        assert result.exit_code == 1
        assert [line.split("\t")[2] for line in result.output.splitlines() if "\t" in line] == [code]
        assert "assessments not checked: the catalog has findings" in result.output


    def test_huge_weight_denominators_are_refused_without_a_traceback(self, tmp_path):
        """Four weights of 1/<1500-digit number>: one weight-scale finding, and score refuses the catalog."""
        lines = Path(CATALOG).read_text().splitlines(keepends=True)
        for n, i in enumerate([i for i, line in enumerate(lines) if line.startswith("weight: ")][:4]):
            lines[i] = f"weight: 1/{n + 1}{'3' * 1499}\n"
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("".join(lines))
        result = run_cli("--catalog", str(catalog), "validate")
        assert result.exit_code == 1
        assert [line.split("\t")[2] for line in result.output.splitlines() if "\t" in line] == ["weight-scale"]
        out = tmp_path / "out"
        result = run_cli("--catalog", str(catalog), "--out", str(out), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert result.exit_code == 1
        assert f"{catalog}: catalog has 1 finding(s), first weight-scale at " in result.output
        assert not out.exists()


class TestScriptSourceUrl:
    """A source_url that is a script, not an http(s) or file: URL, is refused by validate, score and site."""

    URL = "javascript:alert(document.cookie)"

    def assessments(self, tmp_path):
        """The fixture assessments, with phi-4's source_url set to URL."""
        directory = tmp_path / "assessments"
        directory.mkdir()
        for path in Path(ASSESSMENTS).glob("*.csv"):
            text = path.read_text(encoding="utf-8")
            if path.name == "phi-4.csv":
                text = re.sub(r"(?m)^source_url: .*$", f"source_url: {self.URL}", text, count=1)
            (directory / path.name).write_text(text, encoding="utf-8")
        return directory

    def test_validate_reports_it(self, tmp_path):
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(self.assessments(tmp_path)))
        assert result.exit_code == 1
        assert result.output.splitlines()[0] == (
            f"assessment:phi-4.csv\tmeta\tbad-source-url\tsource_url '{self.URL}' is not well-formed"
        )

    def test_score_refuses_it(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(self.assessments(tmp_path)))
        assert result.exit_code == 1
        assert "phi-4.csv: assessment has 1 finding(s), first bad-source-url at meta" in result.output
        assert not out.exists()

    def test_site_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        card = out / "phi-4.scorecard.json"
        data = json.loads(card.read_text(encoding="utf-8"))
        data["meta"]["source_url"] = self.URL
        card.write_text(json.dumps(data, indent=2), encoding="utf-8")
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert f"site not published: {card}: source_url '{self.URL}' is not well-formed" in result.output
        assert tree_bytes(out / "site") == before


class TestNonUtf8Input:
    @pytest.mark.parametrize("broken", ["assessment", "catalog"])
    def test_validate_reports_a_finding(self, tmp_path, broken):
        catalog, assessments = tmp_path / "catalog.txt", tmp_path / "assessments"
        assessments.mkdir()
        catalog.write_bytes(Path(CATALOG).read_bytes())
        path = catalog if broken == "catalog" else assessments / "broken.csv"
        path.write_bytes(NOT_UTF8)
        result = run_cli("--catalog", str(catalog), "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        expected = {
            "assessment": ("assessment:broken.csv", "broken.csv", "malformed-assessment"),
            "catalog": ("catalog", str(catalog), "malformed-catalog"),
        }[broken]
        assert (source, locus, code) == expected
        assert "can't decode byte 0xff" in message

    @pytest.mark.parametrize("broken", ["assessment", "catalog"])
    def test_score_names_the_file(self, tmp_path, broken):
        catalog, assessment = tmp_path / "catalog.txt", tmp_path / "phi-4.csv"
        catalog.write_bytes(Path(CATALOG).read_bytes())
        assessment.write_bytes((Path(ASSESSMENTS) / "phi-4.csv").read_bytes())
        path = catalog if broken == "catalog" else assessment
        path.write_bytes(NOT_UTF8)
        out = tmp_path / "out"
        result = run_cli("--catalog", str(catalog), "--out", str(out), "score", str(assessment))
        assert result.exit_code == 1
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in result.output
        assert not out.exists()

    def test_config_file_is_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(NOT_UTF8)
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 1
        assert f"{cfg}: 'utf-8' codec can't decode byte 0xff" in result.output


class TestByteOrderMark:
    """A UTF-8 byte order mark before a catalog, an assessment or a config file is not part of its first field."""

    BOM = b"\xef\xbb\xbf"

    def test_catalog(self, tmp_path):
        catalog = tmp_path / "catalog.txt"
        catalog.write_bytes(self.BOM + Path(CATALOG).read_bytes())
        result = run_cli("--catalog", str(catalog), "catalog-stats")
        assert result.exit_code == 0, result.output
        assert result.output == run_cli("--catalog", CATALOG, "catalog-stats").output

    def test_assessment_under_validate(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        (assessments / "phi-4.csv").write_bytes(self.BOM + (Path(ASSESSMENTS) / "phi-4.csv").read_bytes())
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 0, result.output
        assert result.stdout == ""

    def test_assessment_under_score(self, tmp_path):
        marked, out, plain = tmp_path / "phi-4.csv", tmp_path / "out", tmp_path / "plain"
        marked.write_bytes(self.BOM + (Path(ASSESSMENTS) / "phi-4.csv").read_bytes())
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(marked))
        assert result.exit_code == 0, result.output
        run_cli("--catalog", CATALOG, "--out", str(plain), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert tree_bytes(out) == tree_bytes(plain)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(self.BOM + f"catalog: {CATALOG}\n".encode())
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 0, result.output
        assert "Total\t242" in result.output


class TestUnreadableInput:
    """A directory where a file is expected is a typed error that names it, never a traceback."""

    def test_validate_reports_a_finding(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        (assessments / "zz.csv").mkdir()
        result = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        assert (source, locus, code) == ("assessment:zz.csv", "zz.csv", "malformed-assessment")
        assert message == "cannot read: Is a directory"

    def test_score_names_the_file(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        for path in Path(ASSESSMENTS).glob("*.csv"):
            (assessments / path.name).write_bytes(path.read_bytes())
        (assessments / "zz.csv").mkdir()
        out = tmp_path / "out"
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(assessments))
        assert result.exit_code == 1
        assert f"Error: {assessments / 'zz.csv'}: cannot read: Is a directory\n" in result.output
        assert not out.exists()

    def test_compare_names_the_file(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "x.scorecard.json"
        card.mkdir()
        result = run_cli("--out", str(out), "--format", "html", "compare")
        assert result.exit_code == 1
        assert f"Error: {card}: cannot read: Is a directory\n" in result.output
        assert not (out / "comparison.html").exists()

    def test_site_names_the_card_and_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        card = out / "x.scorecard.json"
        card.mkdir()
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert f"Error: {card}: cannot read: Is a directory\n" in result.output
        assert tree_bytes(out / "site") == before
        assert not list(out.glob(".site.staging-*"))


class TestScoreAndCompare:
    def test_score_directory_writes_cards(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        assert result.exit_code == 0, result.output
        cards = sorted(p.name for p in out.glob("*.scorecard.json"))
        assert cards == [
            "apertus.scorecard.json",
            "bielik-v3-11b.scorecard.json",
            "bria-3-2.scorecard.json",
            "phi-4.scorecard.json",
            "smollm3-3b.scorecard.json",
        ]

    @pytest.mark.parametrize("given", ["CARDS_DIR", "--out"])
    def test_compare_names_the_directory_without_cards(self, tmp_path, given):
        args = ["compare", str(tmp_path)] if given == "CARDS_DIR" else ["--out", str(tmp_path), "compare"]
        result = run_cli(*args)
        assert result.exit_code == 1
        assert result.stderr == f"Error: no score cards found in {tmp_path}\n"

    def test_score_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("--catalog", CATALOG, "--out", str(out_a), "score", ASSESSMENTS)
        run_cli("--catalog", CATALOG, "--out", str(out_b), "score", ASSESSMENTS)
        for path_a in sorted(out_a.glob("*")):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_score_single_file_html_report(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli(
            "--catalog", CATALOG, "--out", str(out), "--format", "html",
            "score", str(Path(ASSESSMENTS) / "apertus.csv"),
        )
        assert result.exit_code == 0
        assert (out / "apertus.scorecard.json").exists()
        assert (out / "apertus.report.html").exists()

    def test_compare_five_columns(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code == 0
        data = json.loads((out / "comparison.json").read_text())
        assert len(data["columns"]) == 5

    def test_compare_to_stdout_without_out(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        result = run_cli("--format", "csv", "compare", str(out))
        assert result.exit_code == 0
        assert result.output.startswith("Section,Group,")

    @pytest.mark.parametrize(
        "field,value,reason",
        [
            ("model", "Phi\ud800", "text holds the lone surrogate '\\ud800', which has no UTF-8 form"),
            ("catalog_ref", 5, "catalog_ref must be a string, got 5"),
        ],
        ids=["lone-surrogate-model", "numeric-catalog-ref"],
    )
    def test_compare_refuses_a_card_field_no_text_can_hold(self, tmp_path, field, value, reason):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "phi-4.scorecard.json"
        data = json.loads(card.read_text())
        (data["meta"] if field == "model" else data)[field] = value
        card.write_text(json.dumps(data))  # ASCII JSON: the surrogate is a \ud800 escape
        result = run_cli("--format", "csv", "compare", str(out))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"Error: {card}: {reason}\n"

    def test_score_finds_no_assessment_in_a_directory_without_csv(self, tmp_path):
        empty = tmp_path / "assessments"
        empty.mkdir()
        (empty / "phi-4.txt").write_bytes((Path(ASSESSMENTS) / "phi-4.csv").read_bytes())
        out = tmp_path / "out"
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(empty))
        assert result.exit_code == 1
        assert f"Error: no assessment files found in {empty}" in result.output
        assert not out.exists()

    def test_display_at_a_grade_edge_shows_below_it(self, tmp_path):
        """Overall Transparency 17999/200 (89.995) is a B+ and shows as 89.99%, never as 90.00%."""
        from summaryqa.assessment import Verdict, VerdictValue
        from summaryqa.base import Dimension
        from toys import dumps_assessment, dumps_catalog, toy_assessment, toy_catalog, toy_meta, toy_metric

        catalog = toy_catalog(
            toy_metric("A", weight=17999), toy_metric("B", weight=2001), toy_metric("U", dimension=Dimension.ACCESSIBILITY)
        )
        meta = toy_meta(provider="Microsoft", model="Phi-4", archived_copy_digest=PHI_DIGEST)
        verdicts = {"A": Verdict(VerdictValue.SUFFICIENT), "B": Verdict(VerdictValue.INSUFFICIENT), "U": Verdict(VerdictValue.SUFFICIENT)}
        (tmp_path / "catalog.txt").write_text(dumps_catalog(catalog))
        (tmp_path / "phi-4.csv").write_text(dumps_assessment(toy_assessment(catalog, verdicts, meta=meta)))
        out = tmp_path / "out"
        result = run_cli("--catalog", str(tmp_path / "catalog.txt"), "--out", str(out), "--format", "html", "score", str(tmp_path / "phi-4.csv"))
        assert result.exit_code == 0, result.output
        assert "phi-4.csv: Transparency=B+ Usefulness=A+" in result.output
        card = json.loads((out / "phi-4.scorecard.json").read_text())
        assert card["overall"]["Transparency"] == {"pct": "89.99", "exact": "17999/200"}
        report = (out / "phi-4.report.html").read_text()
        assert '<td class="pct high">89.99%</td><td class="pct high">100.00%</td></tr>' in report
        assert "90.00%" not in report
        registry = tmp_path / "registry.json"
        data = json.loads(Path(REGISTRY).read_text())
        data["entries"] = [entry for entry in data["entries"] if entry["id"] == "phi-4"]
        registry.write_text(json.dumps(data))
        assert run_cli("--out", str(out), "site", "--registry", str(registry)).exit_code == 0
        detail = (out / "site" / "summaries" / "phi-4" / "index.html").read_text()
        assert "Transparency: <strong>B+ (89.99%)</strong>" in detail

    def test_compare_without_cards_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run_cli("compare", str(empty))
        assert result.exit_code != 0

    def test_compare_mixed_catalog_versions_fails(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "apertus.scorecard.json"
        card.write_text(card.read_text().replace("aia-training-disclosure/1.0.0", "other/9"))
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code != 0
        assert "different catalogs" in result.output

    def test_score_writes_nothing_when_one_file_is_bad(self, tmp_path):
        assessments, out = tmp_path / "assessments", tmp_path / "out"
        assessments.mkdir()
        for path in sorted(Path(ASSESSMENTS).glob("*.csv")):
            (assessments / path.name).write_bytes(path.read_bytes())
        (assessments / "zz-broken.csv").write_text("not an assessment\n")
        result = run_cli("--catalog", CATALOG, "--out", str(out), "--format", "html", "score", str(assessments))
        assert result.exit_code == 1
        assert "zz-broken.csv" in result.output
        assert not out.exists() or list(out.iterdir()) == []

    def test_score_refuses_an_assessment_with_validates_findings(self, tmp_path):
        """One assessment with findings among clean ones: score writes no card at all."""
        assessments, out = tmp_path / "assessments", tmp_path / "out"
        shutil.copytree(ASSESSMENTS, assessments)
        lines = (Path(ASSESSMENTS) / "apertus.csv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith(("F1.1.a.1,", "F1.1.b.1,"))]
        (assessments / "apertus.csv").write_text("\n".join(kept) + "\n")
        validated = run_cli("--catalog", CATALOG, "validate", "--assessments", str(assessments))
        found = [line.split("\t") for line in validated.output.splitlines() if "\t" in line]
        assert [(locus, code) for _, locus, code, _ in found] == [
            ("F1.1.a.1", "missing-verdict"), ("F1.1.b.1", "missing-verdict")
        ]
        result = run_cli("--catalog", CATALOG, "--out", str(out), "score", str(assessments))
        assert result.exit_code == 1
        assert (
            f"{assessments / 'apertus.csv'}: assessment has 2 finding(s), "
            f"first missing-verdict at F1.1.a.1: {found[0][3]}"
        ) in result.output
        assert not out.exists()

    def test_compare_mixed_configurations_fails(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        run_cli(
            "--catalog", CATALOG, "--out", str(out), "--aggregation", "mean",
            "score", str(Path(ASSESSMENTS) / "apertus.csv"),
        )
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code == 1
        assert "different configurations" in result.output
        assert not (out / "comparison.json").exists()
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert "Error: site not published: cards were scored under different configurations: " in result.output
        assert not (out / "site").exists()

    def test_compare_deeply_nested_card_fails_cleanly(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        card = out / "deep.scorecard.json"
        card.write_text(DEEP_JSON)
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code == 1
        assert f"{card}: maximum recursion depth exceeded" in result.output

    def test_compare_malformed_card_fails_cleanly(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        card = out / "broken.scorecard.json"
        card.write_text('{"kind":"scorecard"}')
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code == 1
        assert f"{card}: missing field 'meta'" in result.output

    @pytest.mark.parametrize("edit,reason", CONTRADICTIONS)
    def test_compare_self_contradicting_card_fails(self, tmp_path, edit, reason):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "phi-4.scorecard.json"
        contradict(card, edit)
        result = run_cli("--out", str(out), "--format", "html", "compare")
        assert result.exit_code == 1
        assert f"{card}: {reason}" in result.output
        assert not (out / "comparison.html").exists()

    def test_compare_non_utf8_card_fails_cleanly(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        card = out / "broken.scorecard.json"
        card.write_bytes(NOT_UTF8)
        result = run_cli("--out", str(out), "compare")
        assert result.exit_code == 1
        assert f"{card}: 'utf-8' codec can't decode byte 0xff" in result.output

    @pytest.mark.parametrize(
        "field,value",
        [
            ("provider", None),
            ("model", 5),
            ("summary_title", ["a"]),
            ("source_url", {"a": 1}),
            ("archived_copy_digest", 7),
        ],
    )
    def test_compare_non_string_meta_fails_cleanly(self, tmp_path, field, value):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "phi-4.scorecard.json"
        data = json.loads(card.read_text())
        data["meta"][field] = value
        card.write_text(json.dumps(data))
        result = run_cli("--out", str(out), "--format", "html", "compare")
        assert result.exit_code == 1
        assert f"{card}: {field} must be a string, got {value!r}" in result.output

    def test_grade_fixed_points_in_cards(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        apertus = json.loads((out / "apertus.scorecard.json").read_text())
        assert apertus["grades"]["Usefulness"] == "A+"
        phi = json.loads((out / "phi-4.scorecard.json").read_text())
        assert phi["grades"]["Transparency"] == "D"


class TestArchive:
    def test_archive_local_file_records_digest(self, tmp_path):
        registry = tmp_path / "registry.json"
        store = tmp_path / "store"
        source = SOURCES / "apertus.pdf"
        result = run_cli(
            "archive", str(source),
            "--slug", "apertus",
            "--provider", "Swiss AI Initiative",
            "--model", "Apertus",
            "--published-form", "PDF",
            "--date", "2026-01-12",
            "--discovered-on", "2026-01-20",
            "--registry", str(registry),
            "--store", str(store),
        )
        assert result.exit_code == 0, result.output
        digest = result.output.strip().splitlines()[0]
        assert len(digest) == 64
        stored = store / "objects" / digest[:2] / digest
        assert stored.read_bytes() == source.read_bytes()
        data = json.loads(registry.read_text())
        assert data["entries"][0]["id"] == "apertus"
        assert data["entries"][0]["meta"]["archived_copy_digest"] == digest

    @pytest.mark.parametrize("option", ["--title", "--provider", "--model", "--source-url", "--query", "--slug"])
    def test_text_option_that_is_not_utf8_stops_before_the_fetch(self, tmp_path, option):
        # The interpreter reads the bytes b"bad\xed\xa0\x80" of a command line as these lone surrogates.
        text = "bad\udced\udca0\udc80"
        values = {"--slug": "phi-4", "--provider": "Microsoft", "--model": "Phi-4", option: text}
        options = [word for pair in values.items() for word in pair]
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli("archive", str(SOURCES / "phi-4.md"), *options, "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 2
        assert result.stderr.endswith(
            f"Error: Invalid value for '{option}': 'utf-8' codec can't encode characters in position 3-5: surrogates not allowed\n"
        )
        assert "Traceback" not in result.output
        assert sorted(tmp_path.iterdir()) == []

    def test_non_utf8_file_name_is_archived(self, tmp_path):
        source = tmp_path / "phi-4-\udcff.md"  # the file name b"phi-4-\xff.md"
        source.write_bytes((SOURCES / "phi-4.md").read_bytes())
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli("archive", str(source), "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 0, result.output
        assert json.loads(registry.read_text())["entries"][0]["meta"]["source_url"].endswith("/phi-4-%FF.md")

    def test_missing_slug_is_a_usage_error(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli("archive", str(SOURCES / "phi-4.md"), "--provider", "Microsoft", "--model", "Phi-4", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: Missing option '--slug'.\n")
        assert sorted(tmp_path.iterdir()) == []

    def test_archive_into_a_registry_with_a_lone_surrogate_changes_nothing(self, tmp_path):
        registry = edited_registry(tmp_path, "phi-4", "meta.summary_title", "T\ud800")
        before = registry.read_bytes()
        reason = "text holds the lone surrogate '\\ud800', which has no UTF-8 form"
        checked = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert checked.exit_code == 1
        assert checked.stdout == f"registry\t{registry}\tmalformed-registry\t{reason}\n"
        store = tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "bria-3-2.md"), "--slug", "bria-again", "--provider", "Bria", "--model", "Other",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 1
        assert result.stderr == f"Error: {registry}: {reason}\n"
        assert registry.read_bytes() == before and not store.exists()

    def test_duplicate_slug_rejected(self, tmp_path):
        registry = tmp_path / "registry.json"
        store = tmp_path / "store"
        args = [
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        ]
        assert run_cli(*args).exit_code == 0
        result = run_cli(*args)
        assert result.exit_code != 0
        assert "already contains slug" in result.output

    @pytest.mark.parametrize("title", ["-draft", "--out"])
    def test_title_that_starts_with_a_dash_is_recorded(self, tmp_path, title):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "p", "--provider", "M", "--model", "P", "--title", title,
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 0, result.output
        assert json.loads(registry.read_text())["entries"][0]["meta"]["summary_title"] == title

    def test_option_with_no_value_is_a_usage_error(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"), "--provider", "M", "--model", "P",
            "--registry", str(registry), "--store", str(store), "--slug",
        )
        assert result.exit_code == 2
        assert "argument --slug: expected one argument" in result.output
        assert not registry.exists() and not store.exists()

    @pytest.mark.parametrize(
        "url,reason",
        [
            ("http://127.0.0.1:9/r\u00e9sum\u00e9", "'ascii' codec can't encode character '\\xe9'"),
            ("http://127.0.0.1:9/bad\udcff", "'ascii' codec can't encode character '\\udcff'"),
            ("http://[unclosed", "Invalid IPv6 URL"),
        ],
        ids=["non-ascii", "not-utf8", "unclosed-bracket"],
    )
    def test_url_that_cannot_be_requested_is_one_error_line(self, tmp_path, url, reason):
        """``\udcff`` is how the interpreter reads the byte ``\xff`` of a command line; the request is refused before
        any connection, so the closed port is never reached."""
        registry, store = tmp_path / "r" / "reg.json", tmp_path / "s"
        result = run_cli(
            "archive", url, "--slug", "p", "--provider", "M", "--model", "P", "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {url!r}: {reason}")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.output
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf", "1e400", "1e10", "9.3e9"])
    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/x", str(SOURCES / "phi-4.md")], ids=["closed-port", "local-path"])
    def test_timeout_a_socket_cannot_hold_is_one_error_line(self, tmp_path, url, timeout):
        """Refused before any source is read, so the closed port is never reached, and nothing is written."""
        registry, store = tmp_path / "r" / "reg.json", tmp_path / "s"
        result = run_cli(
            "archive", url, "--slug", "p", "--provider", "M", "--model", "P",
            "--registry", str(registry), "--store", str(store), "--timeout", timeout,
        )
        assert result.exit_code == 1
        limit = f"{threading.TIMEOUT_MAX:.0f}"
        assert result.stderr == f"Error: timeout must be above 0 and at most {limit} seconds, got {float(timeout)!r}\n"
        assert result.stdout == ""
        assert sorted(tmp_path.iterdir()) == []

    def test_global_value_that_starts_with_a_dash_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_cli("--catalog", CATALOG, "--out", "-out", "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "-out" / "phi-4.scorecard.json").exists()

    @pytest.mark.parametrize("slug", ["../../escaped", "phi-4\n", "Phi-4", ""])
    def test_bad_slug_stops_before_the_fetch(self, tmp_path, slug):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", slug, "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 2
        assert "Invalid value for --slug" in result.output
        assert not store.exists()
        assert not registry.exists()

    @pytest.mark.parametrize("url", ["javascript:alert(document.cookie)", "http://[unclosed", "ftp://example.org/s"])
    def test_bad_source_url_stops_before_the_fetch(self, tmp_path, url):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4", "--source-url", url,
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 2
        assert "Invalid value for --source-url" in result.output
        assert not store.exists()
        assert not registry.exists()

    @pytest.mark.parametrize("field,value,reason", MISTYPED_FIELDS)
    def test_mistyped_registry_field_fails_cleanly(self, tmp_path, field, value, reason):
        registry = edited_registry(tmp_path, "phi-4", field, value)
        before = registry.read_bytes()
        store = tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "apertus.pdf"),
            "--slug", "apertus-2", "--provider", "Swiss AI Initiative", "--model", "Apertus 2",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 1
        assert f"{registry}: {reason}" in result.output
        assert registry.read_bytes() == before
        assert not store.exists()

    @pytest.mark.parametrize("option", ["--date", "--discovered-on"])
    def test_bad_date_stops_before_the_fetch(self, tmp_path, option):
        registry = tmp_path / "registry.json"
        store = tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            option, "notadate",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': 'notadate' is not a YYYY-MM-DD date" in result.output
        assert not store.exists()
        assert not registry.exists()

    @pytest.mark.parametrize("text", ["20260112", "2026W021", "2026-W02-1"])
    @pytest.mark.parametrize("option", ["--date", "--discovered-on"])
    def test_date_in_another_iso_form_stops_before_the_fetch(self, tmp_path, option, text):
        """Python 3.11's ``date.fromisoformat`` reads these as dates; 3.10's does not, nor does the CLI."""
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            option, text, "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': '{text}' is not a YYYY-MM-DD date" in result.output
        assert not store.exists()
        assert not registry.exists()

    def test_local_path_is_recorded_as_its_file_uri_and_validates(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        source = SOURCES / "phi-4.md"
        result = run_cli(
            "archive", str(source),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 0, result.output
        assert json.loads(registry.read_text())["entries"][0]["meta"]["source_url"] == source.resolve().as_uri()
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 0, result.output

    def test_corrupt_stored_object_is_not_pinned_again(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        args = ["--provider", "Microsoft", "--registry", str(registry), "--store", str(store)]
        source = str(SOURCES / "phi-4.md")
        digest = run_cli("archive", source, "--slug", "phi-4", "--model", "Phi-4", *args).output.split()[0]
        stored = store / "objects" / digest[:2] / digest
        with stored.open("ab") as handle:
            handle.write(b"x")
        before, tampered = registry.read_bytes(), stored.read_bytes()
        # Another summary, so that the entry is admitted and the fetch reaches the stored object.
        result = run_cli("archive", source, "--slug", "phi-4-again", "--model", "Phi-4 again", *args)
        assert result.exit_code == 1
        assert f"stored object {stored} hashes to" in result.output
        assert registry.read_bytes() == before
        assert stored.read_bytes() == tampered

    def test_second_entry_of_a_registered_summary_stops_before_the_fetch(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        registry.write_bytes(Path(REGISTRY).read_bytes())
        result = run_cli(
            "archive", str(SOURCES / "apertus.pdf"),
            "--slug", "phi-4-rev2", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 1
        assert "provider 'Microsoft' and model 'Phi-4' are already registered as 'phi-4'" in result.output
        assert registry.read_bytes() == Path(REGISTRY).read_bytes()
        assert not store.exists()

    @pytest.mark.usefixtures("no_host_mime_tables")
    def test_markdown_keeps_its_type_without_host_mime_tables(self, tmp_path):
        registry, store, out = tmp_path / "registry.json", tmp_path / "store", tmp_path / "out"
        result = run_cli(
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 0, result.output
        digest = result.output.splitlines()[0]
        assert json.loads(registry.read_text())["entries"][0]["archived"]["media_type"] == "text/markdown"

        run_cli("--catalog", CATALOG, "--out", str(out), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        result = run_cli("--out", str(out), "site", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 0, result.output
        published = [p.name for p in (out / "site" / "summaries" / "phi-4").glob("archived-*")]
        assert published == [f"archived-{digest[:12]}.md"]


class TestSite:
    def build_cards(self, out):
        run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)

    def test_site_build_and_link_check(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 0, result.output
        assert (out / "site" / "index.html").exists()
        details = list((out / "site" / "summaries").glob("*/index.html"))
        assert len(details) == 5

    def test_site_detects_unmatched_card(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        card = out / "apertus.scorecard.json"
        card.write_text(card.read_text().replace("Swiss AI Initiative", "Somebody Else"))
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert (
            "Error: site not published: no registry entry for provider='Somebody Else' model='Apertus'"
            in result.output
        )

    def test_site_malformed_registry_fails_cleanly(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        registry = tmp_path / "registry.json"
        registry.write_text("{not json")
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert f"{registry}: Expecting property name" in result.output

    @pytest.mark.parametrize("broken", ["registry", "card"])
    def test_site_non_utf8_input_fails_cleanly(self, tmp_path, broken):
        out = tmp_path / "out"
        self.build_cards(out)
        registry = tmp_path / "registry.json"
        registry.write_bytes(Path(REGISTRY).read_bytes())
        path = registry if broken == "registry" else out / "apertus.scorecard.json"
        path.write_bytes(NOT_UTF8)
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in result.output

    @pytest.mark.parametrize("field,value,reason", MISTYPED_FIELDS)
    def test_mistyped_registry_field_fails_cleanly(self, tmp_path, field, value, reason):
        out = tmp_path / "out"
        self.build_cards(out)
        registry = edited_registry(tmp_path, "phi-4", field, value)
        store = fixture_store(tmp_path)
        result = run_cli("--out", str(out), "site", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        assert f"{registry}: {reason}" in result.output
        assert not (out / "site").exists()

    @pytest.mark.parametrize("edit,reason", CONTRADICTIONS)
    def test_self_contradicting_card_keeps_the_previous_site(self, tmp_path, edit, reason):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        card = out / "phi-4.scorecard.json"
        contradict(card, edit)
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert f"{card}: {reason}" in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_deeply_nested_card_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        card = out / "phi-4.scorecard.json"
        card.write_text(DEEP_JSON)
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert f"{card}: maximum recursion depth exceeded" in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_escaping_slug_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        data = json.loads(Path(REGISTRY).read_text())
        data["entries"][0]["id"] = "../../escaped"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(data))
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert "site\t../../escaped\tbad-slug\tslug must be lowercase alphanumeric/hyphen\n" in result.output
        assert "site not published: registry has 1 finding(s), first bad-slug at ../../escaped: " in result.output
        assert list(tmp_path.rglob("*escaped*")) == []
        assert not (out / "site").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "registry.json"]

    def test_tampered_object_is_not_published(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        phi = json.loads(Path(REGISTRY).read_text())["entries"]
        stored = store / next(e for e in phi if e["id"] == "phi-4")["archived"]["storage_path"]
        stored.write_bytes(stored.read_bytes() + b"appended")
        checked = run_cli("--catalog", CATALOG, "validate", "--registry", REGISTRY, "--store", str(store))
        assert checked.exit_code == 1
        assert [line.split("\t")[1:3] for line in checked.stdout.splitlines()] == [["phi-4", "digest-mismatch"]]
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store))
        assert result.exit_code == 1
        assert "phi-4: stored bytes hash to" in result.output
        assert not (out / "site").exists()
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_length_mismatch_is_not_published(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        size = (SOURCES / "phi-4.md").stat().st_size
        registry = edited_registry(tmp_path, "phi-4", "archived.byte_length", size + 1)
        result = run_cli("--out", str(out), "site", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 1
        assert f"phi-4: stored {size} bytes, recorded {size + 1}" in result.output
        assert not (out / "site").exists()
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_rebuild_prunes_a_removed_card(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store)).exit_code == 0
        (out / "bria-3-2.scorecard.json").unlink()
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store))
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (out / "site" / "summaries").iterdir()) == [
            "apertus", "bielik-v3-11b", "phi-4", "smollm3-3b",
        ]
        assert (out / "site" / "summaries" / "phi-4" / "index.html").is_file()
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_broken_link_exits_one_and_lists_it(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        link_dangling_from(monkeypatch, "phi-4")
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 1
        assert "site\tsummaries/phi-4/index.html\tbroken-link\t" in result.output
        assert result.output.count("\tbroken-link\t") == 1
        assert "site not published: 1 broken link(s)" in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_archived_html_is_published_as_text(self, tmp_path):
        out = tmp_path / "out"
        source = tmp_path / "phi-4.html"
        source.write_bytes(b"<p>Phi-4 training data</p><script>alert(document.cookie)</script>\n")
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        archived = run_cli(
            "archive", str(source), "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        )
        assert archived.exit_code == 0, archived.output
        digest = archived.output.splitlines()[0]
        # The card pins the archived HTML, as site requires of a card's archived copy.
        assessment = tmp_path / "phi-4.csv"
        pinned = (Path(ASSESSMENTS) / "phi-4.csv").read_text()
        assessment.write_text(re.sub(r"(?m)^archived_copy_digest: .*$", f"archived_copy_digest: {digest}", pinned))
        run_cli("--catalog", CATALOG, "--out", str(out), "score", str(assessment))
        assert json.loads(registry.read_text())["entries"][0]["archived"]["media_type"] == "text/html"
        result = run_cli("--out", str(out), "site", "--registry", str(registry), "--store", str(store))
        assert result.exit_code == 0, result.output
        site_root = out / "site"
        assert sorted(
            p.relative_to(site_root).as_posix() for p in site_root.rglob("*") if p.suffix in (".html", ".htm")
        ) == ["index.html", "summaries/phi-4/index.html"]
        copy = site_root / "summaries" / "phi-4" / f"archived-{digest[:12]}.txt"
        assert hashlib.sha256(copy.read_bytes()).hexdigest() == digest
        detail = (copy.parent / "index.html").read_text(encoding="utf-8")
        assert f'<a href="{copy.name}">Archived copy</a>' in detail

    def test_title_is_not_an_option(self, tmp_path):
        result = run_cli("--out", str(tmp_path / "out"), "site", "--registry", REGISTRY, "--title", "x")
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_missing_store_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store)).exit_code == 0
        before = tree_bytes(out / "site")
        missing = tmp_path / "no-such-store"
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(missing))
        assert result.exit_code == 2
        assert "Invalid value for '--store'" in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_unreadable_object_keeps_the_previous_site(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        args = ("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store))
        assert run_cli(*args).exit_code == 0
        before = tree_bytes(out / "site")
        fail_reading(monkeypatch, store / "objects" / PHI_DIGEST[:2] / PHI_DIGEST)
        result = run_cli(*args)
        assert result.exit_code == 1
        assert result.stderr == (
            f"Error: site not published: phi-4: archived object objects/55/{PHI_DIGEST} cannot be read: "
            "[Errno 5] Input/output error\n"
        )
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_cards_naming_a_file_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--cards", REGISTRY)
        assert result.exit_code == 2
        assert f"Error: Invalid value for '--cards': Directory {REGISTRY!r} is a file.\n" in result.stderr
        assert tree_bytes(out / "site") == before

    def test_empty_store_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store)).exit_code == 0
        before = tree_bytes(out / "site")
        empty = tmp_path / "empty-store"
        empty.mkdir()
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(empty))
        assert result.exit_code == 1
        apertus = next(e for e in json.loads(Path(REGISTRY).read_text())["entries"] if e["id"] == "apertus")
        assert (
            f"Error: site not published: apertus: archived object {apertus['archived']['storage_path']} is missing"
            in result.output
        )
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_card_pinning_another_archived_copy_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        store = fixture_store(tmp_path)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store)).exit_code == 0
        before = tree_bytes(out / "site")
        # phi-4's assessment pinned to Apertus's archived copy, which validate does not see.
        apertus = "362aaffd6c198591b70f9223ac193c23ee7a0d65473866cb84148e898e461e50"
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        text = (Path(ASSESSMENTS) / "phi-4.csv").read_text()
        (assessments / "phi-4.csv").write_text(
            re.sub(r"(?m)^archived_copy_digest: .*$", f"archived_copy_digest: {apertus}", text)
        )
        checked = run_cli(
            "--catalog", CATALOG, "validate",
            "--assessments", str(assessments), "--registry", REGISTRY, "--store", str(store),
        )
        assert checked.exit_code == 0, checked.output
        assert run_cli("--catalog", CATALOG, "--out", str(out), "score", str(assessments)).exit_code == 0
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--store", str(store))
        assert result.exit_code == 1
        card = out / "phi-4.scorecard.json"
        assert (
            f"Error: site not published: {card}: the card pins archived copy 362aaffd6c19..., "
            "registry entry 'phi-4' records 554cceafcdba..."
        ) in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_card_matching_two_entries_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        registry = duplicated_summary(tmp_path)
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert (
            "Error: site not published: registry has 1 finding(s), first duplicate-summary at phi-4-again: "
            "provider 'Microsoft' and model 'Phi-4' are already registered as 'phi-4'"
        ) in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_registry_with_a_finding_keeps_the_previous_site(self, tmp_path):
        out = tmp_path / "out"
        self.build_cards(out)
        assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
        before = tree_bytes(out / "site")
        data = json.loads(Path(REGISTRY).read_text())
        phi = next(entry for entry in data["entries"] if entry["id"] == "phi-4")
        script = {**phi["meta"], "model": "Script", "source_url": "javascript:alert(1)"}
        data["entries"] += [
            {**phi, "id": "script", "meta": script},
            {**phi, "id": "Bad Slug", "meta": {**phi["meta"], "model": "Other"}},
        ]
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(data))
        checked = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert checked.exit_code == 1
        findings = [line.split("\t")[1:3] for line in checked.stdout.splitlines()]
        assert findings == [["script", "bad-source-url"], ["Bad Slug", "bad-slug"]]
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert [line.split("\t")[1:3] for line in result.stdout.splitlines()] == findings
        assert "site not published: registry has 2 finding(s), first bad-source-url at script: " in result.output
        assert tree_bytes(out / "site") == before
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []

    def test_methodology_is_an_unknown_option(self, tmp_path):
        fragment = tmp_path / "method.html"
        fragment.write_text("<h1>Methodology</h1>")
        out = tmp_path / "out"
        result = run_cli("--out", str(out), "site", "--registry", REGISTRY, "--methodology", str(fragment))
        assert result.exit_code == 2
        assert "No such option" in result.output and "--methodology" in result.output
        assert not out.exists()


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """An ``--out`` directory with the fixture cards and the site built from them."""
    out = tmp_path_factory.mktemp("published") / "out"
    run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
    assert run_cli("--out", str(out), "site", "--registry", REGISTRY).exit_code == 0
    return out


class TestArchivedNotAnObject:
    """Only null or an absent key means an entry has no archived copy: every other ``archived`` value that
    is not an object is malformed, in ``validate``, ``archive`` and ``site`` alike."""

    VALUES = pytest.mark.parametrize("value", [False, 0, "", [], {}], ids=["false", "0", "empty-string", "list", "object"])

    def registry(self, tmp_path, value):
        data = json.loads(Path(REGISTRY).read_text())
        entry = next(entry for entry in data["entries"] if entry["id"] == "smollm3-3b")
        entry["archived"], entry["meta"]["archived_copy_digest"] = value, None
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data, indent=2))
        return path

    @VALUES
    def test_validate_reports_one_malformed_registry(self, tmp_path, value):
        registry = self.registry(tmp_path, value)
        result = run_cli("--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        assert [line.split("\t")[2] for line in result.stdout.splitlines()] == ["malformed-registry"]
        reason = "missing field 'fetched_at'" if value == {} else f"archived must be an object or null, got {value!r}"
        assert result.stdout.rstrip("\n").endswith(f"\t{reason}")
        assert "1 finding(s)" in result.stderr

    @VALUES
    def test_archive_refuses_and_changes_nothing(self, tmp_path, value):
        registry, store = self.registry(tmp_path, value), tmp_path / "store"
        before = registry.read_bytes()
        source = tmp_path / "new.md"
        source.write_text("# New model: public summary of training content\n")
        result = run_cli(
            "archive", str(source), "--slug", "new-model", "--provider", "New", "--model", "New",
            "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {registry}: ")
        assert registry.read_bytes() == before
        assert not store.exists()

    @VALUES
    def test_site_refuses_and_keeps_the_site(self, tmp_path, published, value):
        registry, out = self.registry(tmp_path, value), tmp_path / "out"
        shutil.copytree(published, out)
        before = tree_bytes(out)
        result = run_cli("--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert result.stderr.startswith(f"Error: {registry}: ")
        assert tree_bytes(out) == before


class TestConfigPrecedence:
    def test_config_file_supplies_paths(self, tmp_path):
        """``score``, ``compare`` and ``site`` driven by a config file write the bytes the same flags write."""
        out, flagged = tmp_path / "out", tmp_path / "flagged"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nout: {out}\nformat: html\nregistry: {REGISTRY}\n")
        for command in (["score", ASSESSMENTS], ["compare"], ["site"]):
            result = run_cli("--config", str(cfg), *command)
            assert result.exit_code == 0, result.output
            flags = ["--registry", REGISTRY] if command == ["site"] else []
            result = run_cli("--catalog", CATALOG, "--out", str(flagged), "--format", "html", *command, *flags)
            assert result.exit_code == 0, result.output
        assert (out / "phi-4.report.html").exists() and (out / "comparison.html").exists()
        assert (out / "site" / "index.html").exists()
        assert tree_bytes(out) == tree_bytes(flagged)

    def test_flag_overrides_config_file(self, tmp_path):
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nout: {out_cfg}\n")
        result = run_cli(
            "--config", str(cfg), "--out", str(out_flag),
            "score", str(Path(ASSESSMENTS) / "phi-4.csv"),
        )
        assert result.exit_code == 0
        assert (out_flag / "phi-4.scorecard.json").exists()
        assert not out_cfg.exists()

    def test_aggregation_flag_changes_scores(self, tmp_path):
        out_pooled, out_mean = tmp_path / "pooled", tmp_path / "mean"
        run_cli("--catalog", CATALOG, "--out", str(out_pooled), "score", ASSESSMENTS)
        run_cli(
            "--catalog", CATALOG, "--aggregation", "mean", "--out", str(out_mean),
            "score", ASSESSMENTS,
        )
        pooled = json.loads((out_pooled / "smollm3-3b.scorecard.json").read_text())
        mean = json.loads((out_mean / "smollm3-3b.scorecard.json").read_text())
        assert pooled["config"]["overall_strategy"] == "pooled-weighted"
        assert mean["config"]["overall_strategy"] == "mean-of-sections"
        assert pooled["overall"] != mean["overall"]

    @pytest.mark.parametrize(
        "flag,expected",
        [
            ([], ("pooled-weighted", "mean-of-sections")),
            (["--aggregation", "mean"], ("mean-of-dimensions", "mean-of-sections")),
        ],
        ids=["file-only", "flag"],
    )
    def test_aggregation_flag_beats_the_strategy_keys(self, tmp_path, flag, expected):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nout: {out}\naggregation: mean\nsection_group_strategy: pooled-weighted\n")
        result = run_cli("--config", str(cfg), *flag, "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert result.exit_code == 0, result.output
        config = json.loads((out / "phi-4.scorecard.json").read_text())["config"]
        assert (config["section_group_strategy"], config["overall_strategy"]) == expected

    def test_config_file_supplies_validate_inputs(self, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        (assessments / "broken.csv").write_text("not an assessment\n")
        registry = tmp_path / "registry.json"
        registry.write_text("{not json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nassessments: {assessments}\nregistry: {registry}\n")
        result = run_cli("--config", str(cfg), "validate")
        assert result.exit_code == 1
        codes = [line.split("\t")[2] for line in result.output.splitlines() if "\t" in line]
        assert codes == ["malformed-assessment", "malformed-registry"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery: value\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code != 0
        assert "unknown config line" in result.output

    def test_severity_bands_key_is_unknown(self, tmp_path):
        # The severity classes are fixed; the key that once set them is refused like any other.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nseverity_bands: High:80,Moderate:50,Low:0\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 1
        assert f"{cfg}:2: unknown config line 'severity_bands: High:80,Moderate:50,Low:0'" in result.output


class TestConfigValues:
    @pytest.mark.parametrize(
        "line",
        [
            "section_group_strategy: bogus",
            "overall_strategy: bogus",
            "grade_scale: A:x",
            "grade_scale: A:10,B:90",
            "grade_scale: A:50,A:0",
            'grade_scale: x"><script>alert(1)</script>:50,ok:0',
            "grade_scale: :0",
            "grade_scale: A:1e1000000,F:0",
            "grade_scale: A:5_0,F:0",
            "grade_scale: A:.5,F:0",
            "grade_scale: A:5E1,F:0",
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\n{line}\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 2
        assert f"Invalid value for {line.split(':')[0]}:" in result.output

    @pytest.mark.parametrize(
        "key,command",
        [
            ("catalog", "catalog-stats"),
            ("out", "catalog-stats"),
            ("assessments", "validate"),
            ("registry", "validate"),
            ("store", "validate"),
        ],
    )
    def test_nul_byte_in_a_value_is_refused(self, tmp_path, key, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# a path with a NUL byte\n" + f"{key}: a\0b\n".encode())
        group = [] if key == "catalog" else ["--catalog", CATALOG]
        result = run_cli(*group, "--config", str(cfg), command)
        assert result.exit_code == 1
        assert f"{cfg}:2: the value of {key} holds a NUL byte" in result.output

    @pytest.mark.parametrize(
        "key,value,command",
        [
            ("catalog", "missing.txt", "catalog-stats"),
            ("format", "xml", "catalog-stats"),
            ("aggregation", "median", "catalog-stats"),
            ("registry", "missing.json", "validate"),
            ("assessments", "missing", "validate"),
            ("store", "missing", "site"),
        ],
    )
    def test_bad_option_value_gives_the_flags_message(self, tmp_path, key, value, command):
        value = str(tmp_path / value) if "missing" in value else value
        group = [] if key == "catalog" else ["--catalog", CATALOG]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}: {value}\n")
        from_file = run_cli(*group, "--config", str(cfg), command)
        flag = [f"--{key}", value]
        from_flag = run_cli(*group, *(flag + [command] if command == "catalog-stats" else [command] + flag))
        assert from_file.exit_code == from_flag.exit_code == 2
        assert from_file.output == from_flag.output
        assert f"Invalid value for '--{key}'" in from_file.output

    @pytest.mark.parametrize(
        "char",
        ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"],
        ids=["line-separator", "paragraph-separator", "next-line", "vertical-tab", "form-feed", "file-separator"],
    )
    def test_only_a_line_feed_ends_a_line(self, tmp_path, char):
        # str.splitlines() breaks at each of these; the config reader does not.
        catalog = tmp_path / f"catalog{char}.txt"
        catalog.write_bytes(Path(CATALOG).read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {catalog}\n", encoding="utf-8")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 0, result.output
        assert "Total\t242" in result.output

    def test_repeated_key_is_refused(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {tmp_path / 'missing.txt'}\ncatalog: {CATALOG}\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 1
        assert f"Error: {cfg}:2: catalog is set more than once\n" in result.output
        assert "Total" not in result.output


class TestCatalogStats:
    def test_counts_output(self):
        result = run_cli("--catalog", CATALOG, "catalog-stats")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert "Document\t30" in lines
        assert "Total\t242" in lines

    def test_catalog_naming_a_directory_is_a_usage_error(self):
        result = run_cli("--catalog", ASSESSMENTS, "catalog-stats")
        assert result.exit_code == 2
        assert f"Error: Invalid value for '--catalog': File {ASSESSMENTS!r} is a directory.\n" in result.stderr
        assert result.stdout == ""


class TestGradeScaleConfig:
    def test_custom_grade_scale_from_config_file(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"catalog: {CATALOG}\nout: {out}\n"
            "grade_scale: Pass:50,Fail:0\n"
        )
        result = run_cli("--config", str(cfg), "score", str(Path(ASSESSMENTS) / "apertus.csv"))
        assert result.exit_code == 0, result.output
        card = json.loads((out / "apertus.scorecard.json").read_text())
        assert card["grades"] == {"Transparency": "Pass", "Usefulness": "Pass"}
        assert card["config"]["grade_scale"][0] == ["Pass", "50"]

    @pytest.mark.parametrize("scale,entry", [("A,F:0", "A"), ("A:50,F", "F"), ("A:50,,F:0", "")])
    def test_grade_scale_entry_without_a_colon_is_named(self, tmp_path, scale, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\ngrade_scale: {scale}\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code == 2
        assert result.stderr.endswith(f"Error: Invalid value for grade_scale: entry {entry!r} must be LABEL:MIN\n")
        assert result.stdout == ""

    def test_bad_grade_scale_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\ngrade_scale: A:10,B:90\n")
        result = run_cli("--config", str(cfg), "catalog-stats")
        assert result.exit_code != 0


class TestConsoleEntryPoint:
    def test_module_invocation_in_subprocess(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "summaryqa", "--catalog", CATALOG, "catalog-stats"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Total\t242" in proc.stdout

    def test_import_leaves_the_http_stack_unloaded(self):
        import subprocess
        import sys

        heavy = ("urllib.request", "http.client", "email.parser", "ssl")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, summaryqa.cli; print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_subprocess_validate_exit_codes(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "summaryqa",
                "--catalog", CATALOG,
                "validate", "--assessments", ASSESSMENTS, "--registry", REGISTRY,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert "0 finding(s)" in proc.stderr


class TestEntryPoint:
    """``cli.main`` as in-process runners call it, and the words and statuses the command line keeps."""

    def test_abbreviated_option_is_not_an_option(self):
        result = run_cli("--catalog", CATALOG, "--agg", "mean", "catalog-stats")
        assert result.exit_code == 2
        assert "No such option '--agg'" in result.output
        assert "Total" not in result.output

    @pytest.mark.parametrize("args", [["-h"], ["--catalog", CATALOG, "catalog-stats", "-h"]], ids=["group", "command"])
    def test_h_is_not_an_option(self, args):
        result = run_cli(*args)
        assert result.exit_code == 2
        assert "No such option '-h'" in result.output

    def test_no_command_exits_2_with_the_usage(self):
        result = run_cli()
        assert result.exit_code == 2
        assert result.output.startswith("usage: summaryqa [OPTIONS] COMMAND [ARGS]...\n")
        assert "Error: Missing command." in result.output

    def test_help_lists_every_command(self):
        result = run_cli("--help")
        assert result.exit_code == 0
        for command in ("archive", "catalog-stats", "compare", "score", "site", "validate"):
            assert command in result.output

    def test_option_value_after_an_equals_sign_is_the_value(self):
        joined = run_cli(f"--catalog={CATALOG}", "catalog-stats")
        assert joined.exit_code == 0 and "Total\t242" in joined.output
        assert joined.output == run_cli("--catalog", CATALOG, "catalog-stats").output

    def test_repeated_option_takes_its_last_value(self, tmp_path):
        registry, store = tmp_path / "registry.json", tmp_path / "store"
        result = run_cli(
            "--catalog", str(tmp_path / "absent.txt"), "--catalog", CATALOG,
            "archive", str(SOURCES / "phi-4.md"), "--slug", "first", "--slug", "phi-4", "--provider", "Microsoft",
            "--model", "Phi-4", "--registry", str(registry), "--store", str(store),
        )
        assert result.exit_code == 0, result.output
        assert [entry["id"] for entry in json.loads(registry.read_text())["entries"]] == ["phi-4"]

    def test_double_dash_before_the_command_ends_the_options(self):
        result = run_cli("--catalog", CATALOG, "--", "catalog-stats")
        assert result.exit_code == 0, result.output
        assert "Total\t242" in result.output

    def test_extra_word_is_a_usage_error(self):
        result = run_cli("--catalog", CATALOG, "catalog-stats", "extra")
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: Got unexpected extra argument (extra)\n")
        assert "Total" not in result.output

    def test_unknown_command_is_a_usage_error(self):
        result = run_cli("--catalog", CATALOG, "catalog-statistics")
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: No such command 'catalog-statistics'.\n")

    @pytest.mark.parametrize(
        "args,usage",
        [
            (["--help"], "usage: summaryqa [OPTIONS] COMMAND [ARGS]...\n"),
            (["--bogus"], "usage: summaryqa [OPTIONS] COMMAND [ARGS]...\nTry 'summaryqa --help' for help.\n"),
            (["archive", "--help"], "usage: summaryqa archive [OPTIONS] URL\n"),
            (["score", "--bogus"], "usage: summaryqa score [OPTIONS] SOURCE\nTry 'summaryqa score --help' for help.\n"),
            (["compare", "--help"], "usage: summaryqa compare [OPTIONS] CARDS_DIR\n"),
            (["validate", "--help"], "usage: summaryqa validate [OPTIONS]\n"),
        ],
        ids=["group-help", "group-error", "archive-help", "score-error", "compare-help", "validate-help"],
    )
    def test_usage_line_comes_first(self, args, usage):
        result = run_cli(*args)
        assert (result.stdout if "--help" in args else result.stderr).startswith(usage)

    def test_main_returns_the_status_in_process(self, capsys):
        def status(*args):
            return cli.main(args=list(args), prog_name="summaryqa", standalone_mode=False)

        assert status("--catalog", CATALOG, "catalog-stats") == 0
        assert "Total\t242" in capsys.readouterr().out
        assert status("catalog-stats") == 1
        assert capsys.readouterr().err == "Error: --catalog is required (flag or config file)\n"
        assert status("--catalog", CATALOG, "--agg", "mean", "catalog-stats") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: summaryqa [OPTIONS] COMMAND [ARGS]...\n")
        assert err.endswith("Error: No such option '--agg'.\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
    @pytest.mark.parametrize("command", ["version", "catalog-stats", "compare"])
    def test_write_error_on_stdout_is_one_error_line(self, tmp_path, command):
        if command == "compare":
            run_cli("--catalog", CATALOG, "--out", str(tmp_path), "score", ASSESSMENTS)
        args = {
            "version": ["--version"],
            "catalog-stats": ["--catalog", CATALOG, "catalog-stats"],
            "compare": ["--format", "csv", "compare", str(tmp_path)],
        }[command]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "summaryqa", *args], stdout=full, stderr=subprocess.PIPE, text=True, timeout=60
            )
        assert proc.returncode == 1
        assert proc.stderr == "Error: cannot write standard output: [Errno 28] No space left on device\n"

    def test_closed_pipe_ends_quietly_with_status_1(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "summaryqa", "--catalog", CATALOG, "catalog-stats"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


LAYERS = tuple(f"summaryqa.{layer}" for layer in ("catalog", "assessment", "scoring", "reporting", "registry", "site"))
# The layers that make score cards; the commands that only read cards load none of them.
ASSESSMENT_SIDE = ("summaryqa.catalog", "summaryqa.assessment", "summaryqa.scoring")
# --version and --help load no argument parser, no locale and no date types.
SHELL_UNLOADED = ("argparse", "gettext", "locale", "datetime")


def loaded_modules(*args):
    """Exit status and loaded modules of ``python -m summaryqa ARGS`` in a fresh interpreter."""
    code = (
        "import json, runpy, sys\n"
        "status = None\n"
        "try:\n"
        "    runpy.run_module('summaryqa', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    return status, set(modules)


class TestStartup:
    """Each command imports only the layers it runs."""

    @pytest.mark.parametrize(
        "command,unloaded",
        [
            ("--version", (*LAYERS, "summaryqa.base", *SHELL_UNLOADED)),
            ("--help", (*LAYERS, "summaryqa.base", *SHELL_UNLOADED)),
            ("catalog-stats", tuple(m for m in LAYERS if m != "summaryqa.catalog")),
            ("archive", (*(m for m in LAYERS if m != "summaryqa.registry"), "fractions", "csv")),
            ("validate", ("summaryqa.scoring", "summaryqa.reporting", "summaryqa.site")),
            ("score", ("summaryqa.registry", "summaryqa.site", "html.parser")),
            ("compare", (*ASSESSMENT_SIDE, "summaryqa.registry", "summaryqa.site", "html.parser")),
            ("site", (*ASSESSMENT_SIDE, "html.parser")),
            ("bad-option", (*LAYERS, "summaryqa.base", *SHELL_UNLOADED)),
            ("bad-command", (*LAYERS, "summaryqa.base", *SHELL_UNLOADED)),
        ],
    )
    def test_command_loads_only_its_layers(self, tmp_path, command, unloaded):
        """Value types are NamedTuples, and the shell reads the command line itself, so no command
        loads ``dataclasses`` or an option-parsing library either.  A command loads ``summaryqa.commands``
        and its own module of it; ``--version``, ``--help`` and a usage error load neither."""
        unloaded = (*unloaded, "dataclasses", "click", "argparse")
        out = tmp_path / "out"
        args = {
            "--version": ["--version"],
            "--help": ["--help"],
            "bad-option": ["--catalog", CATALOG, "--bogus", "validate"],
            "bad-command": ["--catalog", CATALOG, "validation"],
            "catalog-stats": ["--catalog", CATALOG, "catalog-stats"],
            "archive": [
                "archive", str(SOURCES / "phi-4.md"),
                "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
                "--registry", str(tmp_path / "registry.json"), "--store", str(tmp_path / "store"),
            ],
            "validate": [
                "--catalog", CATALOG,
                "validate", "--assessments", ASSESSMENTS, "--registry", REGISTRY, "--store", str(tmp_path),
            ],
            "score": ["--catalog", CATALOG, "--out", str(out), "--format", "html", "score", ASSESSMENTS],
            "compare": ["--out", str(out), "--format", "html", "compare"],
            "site": ["--out", str(out), "site", "--registry", REGISTRY],
        }[command]
        if command in ("compare", "site"):
            run_cli("--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        status, modules = loaded_modules(*args)
        # validate finds the objects missing from the empty store
        assert status == (2 if command.startswith("bad-") else 0 if command != "validate" else 1)
        assert sorted(modules.intersection(unloaded)) == []
        shell = command.startswith(("-", "bad-"))
        own = set() if shell else {"summaryqa.commands", f"summaryqa.commands.{command.replace('-', '_')}"}
        assert {m for m in modules if m.startswith("summaryqa.commands")} == own

    def test_shared_module_is_a_leaf(self):
        """``summaryqa.base`` loads only ``errors`` of the package, and no parser or hash library."""
        code = "import sys, summaryqa.base; loaded = sorted(sys.modules); import json; print(json.dumps(loaded))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stdout))
        assert {m for m in modules if m.startswith("summaryqa")} == {"summaryqa", "summaryqa.base", "summaryqa.errors"}
        assert sorted(modules.intersection(("fractions", "csv", "json", "hashlib", "dataclasses"))) == []

    def test_package_exports_resolve_on_first_access(self):
        """Importing the package loads no submodule."""
        code = "import sys, summaryqa; print(sorted(m for m in sys.modules if m.startswith('summaryqa.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_each_command_is_a_module(self):
        """``cli.COMMANDS`` names the modules under ``summaryqa/commands/``, in ``--help``'s order, and each
        holds its option table and a function of its name, whose docstring is its ``--help`` text."""
        from importlib import import_module

        import summaryqa.commands
        from summaryqa.cli import COMMANDS, _Option

        package = Path(summaryqa.commands.__file__).parent
        modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
        assert COMMANDS == tuple(module.replace("_", "-") for module in modules)
        for name in modules:
            command = import_module(f"summaryqa.commands.{name}")
            assert all(isinstance(option, _Option) for option in command.OPTIONS)
            assert getattr(command, name).__doc__.strip()
            help_text = run_cli(name.replace("_", "-"), "--help")
            assert help_text.exit_code == 0, help_text.output
            assert getattr(command, name).__doc__.strip().splitlines()[0] in help_text.stdout

    def test_choice_lists_match_their_layers(self):
        """The group options spell out ``reporting.FORMATS``, so that reading them loads no layer."""
        import summaryqa.cli as cli_module
        from summaryqa.reporting import FORMATS

        assert cli_module.FORMATS == FORMATS
