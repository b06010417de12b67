"""Lint configuration: the project's contract tables, knobs, allowlists.

:func:`default_config` encodes this repository's architecture — the
layering DAG, the determinism-sensitive packages, the sanctioned broad
``except`` sites, the metric-name registry location, and the
``DistinctConfig``-to-CLI surface map. :func:`load_config` merges
user overrides from ``pyproject.toml``::

    [tool.repro-lint]
    severity = { "determinism/unkeyed-sort" = "info" }

    [[tool.repro-lint.allow]]
    rule = "layering/import-dag"
    path = "src/repro/eval/legacy.py"
    reason = "re-export kept for an old public import path"

Allowlist entries require a non-empty ``reason`` — an unjustified
exemption is itself a config error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.findings import Severity

#: Layering ranks: an import must go strictly downward (importer rank >
#: imported rank). The DAG, bottom-up:
#: ``reldb -> paths -> config -> data -> similarity -> cluster/ml
#: -> core -> graph -> eval -> ingest -> analysis -> cli -> repro``
#: (package root).
DEFAULT_LAYER_RANKS: dict[str, int] = {
    "reldb": 10,
    "paths": 20,
    "config": 25,
    "data": 28,
    "similarity": 30,
    "cluster": 40,
    "ml": 40,
    "core": 50,
    "graph": 55,
    "eval": 60,
    "ingest": 62,
    "analysis": 65,
    "cli": 70,
    "repro": 80,  # package root: __init__ / __main__ re-exports
}

#: Cross-cutting packages may be imported from any layer, but may
#: themselves import only the packages listed here.
DEFAULT_CROSS_CUTTING: dict[str, tuple[str, ...]] = {
    "errors": (),
    "obs": ("errors",),
    "resilience": ("errors", "obs"),
    "perf": ("errors", "obs", "resilience"),
}

#: Packages whose iteration order feeds the byte-identical-parallelism
#: guarantee (see docs/performance.md) or checkpoint/replay stability.
DEFAULT_DETERMINISM_SCOPE: tuple[str, ...] = (
    "similarity",
    "paths",
    "cluster",
    "core",
    "perf",
    "resilience",
    "ingest",
)

#: Modules allowed to catch broad ``Exception``: the error-policy engine
#: and the process-pool boundary (worker errors travel back as data).
DEFAULT_EXCEPTION_SANCTIONED: tuple[str, ...] = (
    "repro.resilience.policy",
    "repro.perf.parallel",
)

#: DistinctConfig fields reachable from a CLI flag (field -> flag).
DEFAULT_CONFIG_FLAG_MAP: dict[str, str] = {
    "n_positive": "--positive",
    "n_negative": "--negative",
    "svm_C": "--svm-c",
    "min_sim": "--min-sim",
}

#: DistinctConfig fields deliberately not exposed as CLI flags; each must
#: still be documented in docs/api.md.
DEFAULT_CONFIG_PROGRAMMATIC: tuple[str, ...] = (
    "reference_relation",
    "object_relation",
    "object_key",
    "name_attribute",
    "path_config",
    "max_token_count",
    "min_refs",
    "max_refs",
    "svm_C_grid",
    "svm_cv_folds",
    "svm_loss",
    "svm_class_weight",
    "svm_tol",
    "svm_max_epochs",
    "svm_retries",
    "clamp_negative_weights",
    "normalize_weights",
    "seed",
)


@dataclass(frozen=True)
class AllowEntry:
    """One path-scoped exemption, with its justification."""

    rule: str
    path: str  # fnmatch glob against the repo-relative path
    reason: str


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules parameterize on."""

    package: str = "repro"
    severity_overrides: dict[str, Severity] = field(default_factory=dict)
    allowlist: tuple[AllowEntry, ...] = ()

    # layering/import-dag
    layer_ranks: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_RANKS)
    )
    cross_cutting: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_CROSS_CUTTING)
    )

    # determinism/*
    determinism_scope: tuple[str, ...] = DEFAULT_DETERMINISM_SCOPE

    # exceptions/*
    exception_sanctioned: tuple[str, ...] = DEFAULT_EXCEPTION_SANCTIONED

    # metrics/*
    metrics_registry_module: str = "repro.obs.names"
    metrics_registry_name: str = "REGISTERED_METRICS"
    metrics_defining_modules: tuple[str, ...] = (
        "repro.obs.metrics",
        "repro.obs.names",
    )

    # config/*
    config_module: str = "repro.config"
    config_class: str = "DistinctConfig"
    config_docs_file: str = "docs/api.md"
    cli_module: str = "repro.cli"
    config_flag_map: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_CONFIG_FLAG_MAP)
    )
    config_programmatic_only: tuple[str, ...] = DEFAULT_CONFIG_PROGRAMMATIC

    # picklability/*
    parallel_map_names: tuple[str, ...] = ("ordered_process_map",)

    def severity_for(self, rule: str, default: Severity) -> Severity:
        return self.severity_overrides.get(rule, default)


def default_config() -> LintConfig:
    """The contract tables of this repository."""
    return LintConfig()


def _parse_overrides(table: dict) -> dict:
    """Validated constructor kwargs from a ``[tool.repro-lint]`` table."""
    changes: dict = {}
    severity = table.get("severity", {})
    if severity:
        if not isinstance(severity, dict):
            raise ValueError("[tool.repro-lint] severity must be a table")
        changes["severity_overrides"] = {
            str(rule): Severity.coerce(value) for rule, value in severity.items()
        }
    allow = table.get("allow", [])
    if allow:
        entries = []
        for raw in allow:
            rule = str(raw.get("rule", "")).strip()
            path = str(raw.get("path", "")).strip()
            reason = str(raw.get("reason", "")).strip()
            if not rule or not path:
                raise ValueError(
                    "[[tool.repro-lint.allow]] entries need 'rule' and 'path'"
                )
            if not reason:
                raise ValueError(
                    f"allowlist entry for {rule} on {path} has no 'reason'; "
                    "every exemption must carry its justification"
                )
            entries.append(AllowEntry(rule=rule, path=path, reason=reason))
        changes["allowlist"] = tuple(entries)
    return changes


def load_config(repo_root: str | Path) -> LintConfig:
    """Default config merged with ``pyproject.toml`` overrides, if any."""
    config = default_config()
    pyproject = Path(repo_root) / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        import tomllib
    except ImportError:  # py3.10: stdlib tomllib is 3.11+; skip overrides
        return config
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro-lint", {})
    if not table:
        return config
    return replace(config, **_parse_overrides(table))
