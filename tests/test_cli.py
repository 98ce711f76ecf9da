"""CLI behavior: exit codes, outputs, config precedence, full pipeline."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from summaryqa.catalog import reference_catalog_path
from summaryqa.cli import cli

REPO = Path(__file__).resolve().parent.parent
CATALOG = str(reference_catalog_path())
ASSESSMENTS = str(REPO / "fixtures" / "assessments")
REGISTRY = str(REPO / "fixtures" / "registry.json")
SOURCES = REPO / "fixtures" / "sources"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    result = runner.invoke(cli, list(args), catch_exceptions=False, **kwargs)
    return result


class TestValidate:
    def test_clean_fixtures_exit_zero(self, runner):
        result = run(
            runner,
            "--catalog", CATALOG,
            "validate", "--assessments", ASSESSMENTS, "--registry", REGISTRY,
        )
        assert result.exit_code == 0, result.output
        finding_lines = [l for l in result.output.splitlines() if "\t" in l]
        assert finding_lines == []

    def test_duplicate_id_exit_nonzero(self, runner, tmp_path):
        text = Path(CATALOG).read_text()
        # Two metrics with the same id, injected after parse by raw edit:
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace("id: F0.1.2", "id: F0.1.1", 1))
        result = run(runner, "--catalog", str(bad), "validate")
        assert result.exit_code == 1
        assert "duplicate metric id" in result.output or "duplicate-id" in result.output

    def test_missing_verdict_lists_metric_ids(self, runner, tmp_path):
        assessments = tmp_path / "assessments"
        assessments.mkdir()
        source = Path(ASSESSMENTS) / "apertus.csv"
        lines = source.read_text().splitlines()
        # Drop one applicable verdict row (keep header block + csv header).
        dropped = next(i for i, l in enumerate(lines) if l.startswith("F1.1.a.1,"))
        del lines[dropped]
        (assessments / "apertus.csv").write_text("\n".join(lines) + "\n")
        result = run(runner, "--catalog", CATALOG, "validate", "--assessments", str(assessments))
        assert result.exit_code == 1
        assert "missing-verdict" in result.output
        assert "F1.1.a.1" in result.output

    def test_findings_are_tab_separated(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(Path(CATALOG).read_text().replace("weight: 2\n", "weight: 0\n", 1))
        result = run(runner, "--catalog", str(bad), "validate")
        assert result.exit_code == 1
        first = result.output.splitlines()[0]
        assert first.count("\t") == 3

    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"kind":"registry","entries":[{"id":"x"}]}', "missing field 'meta'"),
            ("{not json", "Expecting property name enclosed in double quotes"),
        ],
        ids=["entry-without-meta", "not-json"],
    )
    def test_malformed_registry_is_a_finding(self, runner, tmp_path, text, reason):
        registry = tmp_path / "registry.json"
        registry.write_text(text)
        result = run(runner, "--catalog", CATALOG, "validate", "--registry", str(registry))
        assert result.exit_code == 1
        source, locus, code, message = result.output.splitlines()[0].split("\t")
        assert (source, locus, code) == ("registry", str(registry), "malformed-registry")
        assert reason in message


class TestScoreAndCompare:
    def test_score_directory_writes_cards(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        assert result.exit_code == 0, result.output
        cards = sorted(p.name for p in out.glob("*.scorecard.json"))
        assert cards == [
            "apertus.scorecard.json",
            "bielik-v3-11b.scorecard.json",
            "bria-3-2.scorecard.json",
            "phi-4.scorecard.json",
            "smollm3-3b.scorecard.json",
        ]

    def test_score_is_deterministic(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(runner, "--catalog", CATALOG, "--out", str(out_a), "score", ASSESSMENTS)
        run(runner, "--catalog", CATALOG, "--out", str(out_b), "score", ASSESSMENTS)
        for path_a in sorted(out_a.glob("*")):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_score_single_file_html_report(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run(
            runner,
            "--catalog", CATALOG, "--out", str(out), "--format", "html",
            "score", str(Path(ASSESSMENTS) / "apertus.csv"),
        )
        assert result.exit_code == 0
        assert (out / "apertus.scorecard.json").exists()
        assert (out / "apertus.report.html").exists()

    def test_compare_five_columns(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        result = run(runner, "--out", str(out), "compare")
        assert result.exit_code == 0
        data = json.loads((out / "comparison.json").read_text())
        assert len(data["columns"]) == 5

    def test_compare_to_stdout_without_out(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        result = run(runner, "--format", "csv", "compare", str(out))
        assert result.exit_code == 0
        assert result.output.startswith("Section,Group,")

    def test_compare_without_cards_fails(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(cli, ["compare", str(empty)])
        assert result.exit_code != 0

    def test_compare_mixed_catalog_versions_fails(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        card = out / "apertus.scorecard.json"
        card.write_text(card.read_text().replace("aia-training-disclosure/1.0.0", "other/9"))
        result = runner.invoke(cli, ["--out", str(out), "compare"])
        assert result.exit_code != 0
        assert "different catalogs" in result.output

    def test_compare_malformed_card_fails_cleanly(self, runner, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        card = out / "broken.scorecard.json"
        card.write_text('{"kind":"scorecard"}')
        result = run(runner, "--out", str(out), "compare")
        assert result.exit_code == 1
        assert f"{card}: missing field 'meta'" in result.output

    def test_grade_fixed_points_in_cards(self, runner, tmp_path):
        out = tmp_path / "out"
        run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)
        apertus = json.loads((out / "apertus.scorecard.json").read_text())
        assert apertus["grades"]["Usefulness"] == "A+"
        phi = json.loads((out / "phi-4.scorecard.json").read_text())
        assert phi["grades"]["Transparency"] == "D"


class TestArchive:
    def test_archive_local_file_records_digest(self, runner, tmp_path):
        registry = tmp_path / "registry.json"
        store = tmp_path / "store"
        source = SOURCES / "apertus.pdf"
        result = run(
            runner,
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

    def test_duplicate_slug_rejected(self, runner, tmp_path):
        registry = tmp_path / "registry.json"
        store = tmp_path / "store"
        args = [
            "archive", str(SOURCES / "phi-4.md"),
            "--slug", "phi-4", "--provider", "Microsoft", "--model", "Phi-4",
            "--registry", str(registry), "--store", str(store),
        ]
        assert runner.invoke(cli, args).exit_code == 0
        result = runner.invoke(cli, args)
        assert result.exit_code != 0
        assert "already contains slug" in result.output


class TestSite:
    def build_cards(self, runner, out):
        run(runner, "--catalog", CATALOG, "--out", str(out), "score", ASSESSMENTS)

    def test_site_build_and_link_check(self, runner, tmp_path):
        out = tmp_path / "out"
        self.build_cards(runner, out)
        result = run(runner, "--out", str(out), "site", "--registry", REGISTRY)
        assert result.exit_code == 0, result.output
        assert (out / "site" / "index.html").exists()
        details = list((out / "site" / "summaries").glob("*/index.html"))
        assert len(details) == 5

    def test_site_detects_unmatched_card(self, runner, tmp_path):
        out = tmp_path / "out"
        self.build_cards(runner, out)
        card = out / "apertus.scorecard.json"
        card.write_text(card.read_text().replace("Swiss AI Initiative", "Somebody Else"))
        result = runner.invoke(cli, ["--out", str(out), "site", "--registry", REGISTRY])
        assert result.exit_code != 0
        assert "no registry entry" in result.output

    def test_site_malformed_registry_fails_cleanly(self, runner, tmp_path):
        out = tmp_path / "out"
        self.build_cards(runner, out)
        registry = tmp_path / "registry.json"
        registry.write_text("{not json")
        result = run(runner, "--out", str(out), "site", "--registry", str(registry))
        assert result.exit_code == 1
        assert f"{registry}: Expecting property name" in result.output


class TestConfigPrecedence:
    def test_config_file_supplies_paths(self, runner, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nout: {out}\nformat: csv\n")
        result = run(runner, "--config", str(cfg), "score", str(Path(ASSESSMENTS) / "phi-4.csv"))
        assert result.exit_code == 0, result.output
        assert (out / "phi-4.report.csv").exists()

    def test_flag_overrides_config_file(self, runner, tmp_path):
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\nout: {out_cfg}\n")
        result = run(
            runner, "--config", str(cfg), "--out", str(out_flag),
            "score", str(Path(ASSESSMENTS) / "phi-4.csv"),
        )
        assert result.exit_code == 0
        assert (out_flag / "phi-4.scorecard.json").exists()
        assert not out_cfg.exists()

    def test_aggregation_flag_changes_scores(self, runner, tmp_path):
        out_pooled, out_mean = tmp_path / "pooled", tmp_path / "mean"
        run(runner, "--catalog", CATALOG, "--out", str(out_pooled), "score", ASSESSMENTS)
        run(
            runner, "--catalog", CATALOG, "--aggregation", "mean", "--out", str(out_mean),
            "score", ASSESSMENTS,
        )
        pooled = json.loads((out_pooled / "smollm3-3b.scorecard.json").read_text())
        mean = json.loads((out_mean / "smollm3-3b.scorecard.json").read_text())
        assert pooled["config"]["overall_strategy"] == "pooled-weighted"
        assert mean["config"]["overall_strategy"] == "mean-of-sections"
        assert pooled["overall"] != mean["overall"]

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery: value\n")
        result = runner.invoke(cli, ["--config", str(cfg), "catalog-stats"])
        assert result.exit_code != 0
        assert "unknown config line" in result.output


class TestConfigValues:
    @pytest.mark.parametrize(
        "line",
        [
            "section_group_strategy: bogus",
            "overall_strategy: bogus",
            "grade_scale: A:x",
            "grade_scale: A:10,B:90",
            "severity_bands: High:x,Low:0",
        ],
    )
    def test_bad_value_names_its_key(self, runner, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\n{line}\n")
        result = run(runner, "--config", str(cfg), "catalog-stats")
        assert result.exit_code == 2
        assert f"Invalid value for {line.split(':')[0]}:" in result.output


class TestCatalogStats:
    def test_counts_output(self, runner):
        result = run(runner, "--catalog", CATALOG, "catalog-stats")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert "Document\t30" in lines
        assert "Total\t242" in lines


class TestGradeScaleConfig:
    def test_custom_grade_scale_from_config_file(self, runner, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"catalog: {CATALOG}\nout: {out}\n"
            "grade_scale: Pass:50,Fail:0\n"
            "severity_bands: Good:90,Bad:0\n"
        )
        result = run(runner, "--config", str(cfg), "score", str(Path(ASSESSMENTS) / "apertus.csv"))
        assert result.exit_code == 0, result.output
        card = json.loads((out / "apertus.scorecard.json").read_text())
        assert card["grades"] == {"Transparency": "Pass", "Usefulness": "Pass"}
        assert card["config"]["grade_scale"][0] == ["Pass", "50"]

    def test_bad_grade_scale_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog: {CATALOG}\ngrade_scale: A:10,B:90\n")
        result = runner.invoke(cli, ["--config", str(cfg), "catalog-stats"])
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
