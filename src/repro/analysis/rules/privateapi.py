"""privateapi/*: private scipy modules stay inside the sparse-product module.

- ``privateapi/scipy-private-module`` (error) — an import of a private
  scipy module (a dotted component with one leading underscore, such as
  ``scipy.sparse._sparsetools``) anywhere outside
  :data:`SPARSE_PRODUCT_MODULE`. Private modules carry no compatibility
  promise and their compiled kernels do not check their inputs;
  ``repro.perf.csr`` (``matmul``) holds the one use, pinned byte for
  byte against scipy's public ``@`` by its tests, so every other module
  multiplies through it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.engine import register
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project

#: The one module allowed to import private scipy modules.
SPARSE_PRODUCT_MODULE = "repro.perf.csr"


def _private(dotted: str) -> bool:
    """A scipy name with a private component (``_x``, not ``__x__``)."""
    parts = dotted.split(".")
    return parts[0] == "scipy" and any(
        part.startswith("_") and not part.startswith("__") for part in parts[1:]
    )


def _private_imports(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Yield (dotted private scipy name, line) for every import of one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _private(alias.name):
                    yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if _private(dotted):
                    yield dotted, node.lineno


@register(
    "privateapi/scipy-private-module",
    f"private scipy module imported outside {SPARSE_PRODUCT_MODULE}; "
    "multiply through repro.perf.csr.matmul, whose tests pin the private "
    "kernels to scipy's public product",
    Severity.ERROR,
)
def check_scipy_private_module(
    project: Project, config: LintConfig
) -> Iterator[Finding]:
    for info in project.modules:
        if info.module == SPARSE_PRODUCT_MODULE:
            continue
        for name, line in _private_imports(info.tree):
            yield Finding(
                rule="privateapi/scipy-private-module",
                severity=Severity.ERROR,
                path=info.rel_path,
                line=line,
                message=(
                    f"{name} imported outside {SPARSE_PRODUCT_MODULE}; private "
                    "scipy modules change without notice"
                ),
                hint="multiply through repro.perf.csr.matmul, or use "
                     "scipy's public API",
            )
