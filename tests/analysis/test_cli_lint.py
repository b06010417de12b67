"""End-to-end tests of ``repro lint``."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_repo_lints_clean_text(capsys):
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_fixture_exits_nonzero_with_findings(capsys):
    code = main(
        [
            "lint",
            "--root", str(FIXTURES / "layering"),
            "--rules", "layering/import-dag",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/paths/uses_cluster.py:3" in out
    assert "[layering/import-dag]" in out


def test_json_output_shape(capsys):
    code = main(
        [
            "lint",
            "--root", str(FIXTURES / "determinism"),
            "--rules", "determinism/set-iteration",
            "--format", "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["format_version"] == 1
    assert payload["counts"]["error"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "determinism/set-iteration"
    assert finding["path"] == "src/repro/similarity/unstable.py"
    assert finding["line"] == 5
    assert finding["severity"] == "error"
    assert finding["hint"]


def test_output_file_written(tmp_path, capsys):
    report = tmp_path / "lint.json"
    code = main(
        [
            "lint",
            "--root", str(FIXTURES / "picklability"),
            "--rules", "picklability/unpicklable-task",
            "--output", str(report),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["counts"]["error"] == 1


def test_min_severity_filters_text(capsys):
    # The determinism fixture has one error and two warnings.
    assert (
        main(
            [
                "lint",
                "--root", str(FIXTURES / "determinism"),
                "--rules",
                "determinism/set-iteration,determinism/unkeyed-sort",
                "--min-severity", "error",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "set-iteration" in out
    assert "unkeyed-sort" not in out


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "layering/import-dag" in out
    assert "picklability/unpicklable-task" in out


def test_unknown_rule_is_usage_error(capsys):
    code = main(["lint", "--root", str(REPO_ROOT), "--rules", "no/such"])
    capsys.readouterr()
    assert code == 2


def test_missing_root_is_usage_error(tmp_path, capsys):
    code = main(["lint", "--root", str(tmp_path / "nowhere")])
    capsys.readouterr()
    assert code == 2
