"""The repository must satisfy its own contracts.

This is the enforcement point for the architecture rules: any
error-severity finding on the real tree fails the build (warnings are
tolerated; they are advisory by design).
"""

from pathlib import Path

from repro.analysis import Severity, load_config, run_lint, rule_catalogue

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_has_no_error_findings():
    result = run_lint(REPO_ROOT, config=load_config(REPO_ROOT))
    errors = [f for f in result.findings if f.severity >= Severity.ERROR]
    assert not errors, "\n" + "\n".join(f.render() for f in errors)


def test_repo_scan_covers_the_tree():
    result = run_lint(REPO_ROOT)
    # The package has ~100 modules; a collapsed scan would mean the
    # loader looked at the wrong root.
    assert result.n_modules > 50


def test_rule_catalogue_covers_all_families():
    ids = {entry["id"] for entry in rule_catalogue()}
    assert {
        "layering/import-dag",
        "determinism/set-iteration",
        "determinism/unkeyed-sort",
        "determinism/dict-keys-iteration",
        "exceptions/broad-except",
        "exceptions/swallowed-interrupt",
        "metrics/unregistered",
        "metrics/unused",
        "metrics/kind-mismatch",
        "metrics/dynamic-name",
        "config/undocumented",
        "config/unreachable",
        "config/flag-missing",
        "config/stale-entry",
        "picklability/unpicklable-task",
        "lifecycle/fsync-before-rename",
        "privateapi/scipy-private-module",
        "taint/unseeded-rng",
    } <= ids
