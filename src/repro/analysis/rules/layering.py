"""layering/import-dag: the package dependency DAG.

Every internal import must go strictly *down* the layer ranks declared in
:data:`repro.analysis.config.DEFAULT_LAYER_RANKS` (``reldb`` at the
bottom, the CLI at the top). Cross-cutting packages (``errors``, ``obs``,
``resilience``, ``perf``) are importable from any layer but are
themselves constrained to the dependencies listed for them — the
observability layer must never grow a dependency on the pipeline it
observes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.engine import register
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ModuleInfo, Project


def _imported_modules(info: ModuleInfo, package: str) -> Iterator[tuple[str, int]]:
    """Yield (dotted internal module, line) for every internal import."""
    prefix = package + "."
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package or alias.name.startswith(prefix):
                    yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against this module's package
                base = info.module.split(".")
                # level=1 strips the module name itself; __init__ modules
                # are already named after their package, so strip one less.
                strip = node.level - (1 if info.path.name == "__init__.py" else 0)
                base = base[: len(base) - strip] if strip < len(base) else base[:1]
                target = ".".join(base + (node.module or "").split("."))
                yield target.rstrip("."), node.lineno
            elif node.module and (
                node.module == package or node.module.startswith(prefix)
            ):
                yield node.module, node.lineno


def _package_of(dotted: str, package: str) -> str:
    parts = dotted.split(".")
    if parts[0] != package or len(parts) == 1 or parts[1] == "__main__":
        return package
    return parts[1]


@register(
    "layering/import-dag",
    "internal imports must follow the layer DAG (reldb -> ... -> cli); "
    "cross-cutting packages only import their declared dependencies",
    Severity.ERROR,
)
def check_layering(project: Project, config: LintConfig) -> Iterator[Finding]:
    ranks = config.layer_ranks
    cross = config.cross_cutting
    for info in project.modules:
        src_pkg = info.package
        src_known = src_pkg in ranks or src_pkg in cross
        if not src_known:
            yield Finding(
                rule="layering/import-dag",
                severity=Severity.WARNING,
                path=info.rel_path,
                line=1,
                message=(
                    f"package {src_pkg!r} is not in the layering table; "
                    "its imports cannot be checked"
                ),
                hint="add the package to layer_ranks or cross_cutting in "
                     "repro.analysis.config",
            )
            continue
        for target, lineno in _imported_modules(info, config.package):
            dst_pkg = _package_of(target, config.package)
            if dst_pkg == src_pkg:
                continue
            if src_pkg in cross:
                if dst_pkg not in cross[src_pkg]:
                    yield Finding(
                        rule="layering/import-dag",
                        severity=Severity.ERROR,
                        path=info.rel_path,
                        line=lineno,
                        message=(
                            f"cross-cutting package {src_pkg!r} may only "
                            f"import {{{', '.join(cross[src_pkg]) or 'nothing internal'}}}, "
                            f"not {dst_pkg!r}"
                        ),
                        hint="cross-cutting infrastructure must stay "
                             "dependency-free of the pipeline it serves",
                    )
                continue
            if dst_pkg in cross:
                continue  # anyone may use cross-cutting infrastructure
            if dst_pkg not in ranks:
                yield Finding(
                    rule="layering/import-dag",
                    severity=Severity.WARNING,
                    path=info.rel_path,
                    line=lineno,
                    message=(
                        f"import of unranked package {dst_pkg!r} "
                        "cannot be layer-checked"
                    ),
                    hint="add the package to layer_ranks in "
                         "repro.analysis.config",
                )
                continue
            if ranks[src_pkg] <= ranks[dst_pkg]:
                yield Finding(
                    rule="layering/import-dag",
                    severity=Severity.ERROR,
                    path=info.rel_path,
                    line=lineno,
                    message=(
                        f"{src_pkg!r} (layer {ranks[src_pkg]}) may not import "
                        f"{dst_pkg!r} (layer {ranks[dst_pkg]}): imports must "
                        "go strictly down the DAG "
                        "reldb -> paths -> similarity -> cluster/ml "
                        "-> core -> eval -> cli"
                    ),
                    hint="move the shared code down a layer, invert the "
                         "dependency, or relocate this module to the layer "
                         "it actually belongs to",
                )
