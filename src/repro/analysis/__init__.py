"""repro.analysis: AST-based static analysis enforcing project contracts.

The pipeline's cross-cutting guarantees — the layering DAG, the
byte-identical-parallelism determinism contract, the never-swallow-
``DeadlineExceeded`` exception discipline, the obs metric-name registry,
the ``DistinctConfig``-to-docs/CLI surface, the picklability of
process-pool task functions, seeded RNGs, and atomic renames confined to
the checkpoint writer — are enforced mechanically here instead of by
review-time vigilance. See ``docs/static_analysis.md`` for the rule
catalogue and ``repro lint`` for the CLI entry point.

::

    from repro.analysis import run_lint, load_config

    result = run_lint(repo_root, config=load_config(repo_root))
    assert result.ok, [f.render() for f in result.findings]
"""

from repro.analysis.config import (
    AllowEntry,
    LintConfig,
    default_config,
    load_config,
)
from repro.analysis.engine import Rule, all_rules, register, rule_catalogue, run_lint
from repro.analysis.findings import Finding, LintResult, Severity
from repro.analysis.project import ModuleInfo, Project, load_project
from repro.analysis.report import format_json, format_text

__all__ = [
    "AllowEntry",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "default_config",
    "format_json",
    "format_text",
    "load_config",
    "load_project",
    "register",
    "rule_catalogue",
    "run_lint",
]
