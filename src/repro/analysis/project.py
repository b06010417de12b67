"""Loading a project into analyzable form: paths, module names, ASTs.

The engine hands rules a :class:`Project` — every parsed module of the
package under ``<repo_root>/src/<package>/`` plus access to non-Python
repo files (docs, ``pyproject.toml``) that some rules cross-check
against. Modules are discovered in sorted path order so every lint run
visits them identically.

Inline suppressions
-------------------
A finding can be silenced at its site with a justification comment on
the offending line (or on a comment-only line directly above it), as
``repro.cluster.linkage`` does for a sort over plain ints::

    # lint: allow[determinism/unkeyed-sort] cluster ids are plain int
    for other in sorted((set(stats_a) | set(stats_b)) - {a, b}):

``allow[*]`` silences every rule on that line. The engine counts
suppressed findings so they stay visible in the summary.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*allow\[([^\]]+)\]")


def dotted_name(expr: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def tail_matches(name: str, pattern: str) -> bool:
    """True when ``name``'s dotted tail is ``pattern``."""
    return name == pattern or name.endswith("." + pattern)


@dataclass
class ParseFailure:
    """A file that could not be parsed (reported as its own finding)."""

    rel_path: str
    line: int
    message: str


@dataclass
class ModuleInfo:
    """One parsed source module."""

    path: Path
    rel_path: str  # repo-relative, forward slashes
    module: str  # dotted name, e.g. "repro.eval.runner"
    source: str
    tree: ast.Module
    #: line number -> rule ids allowed there ("*" allows all)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The top-level subpackage this module belongs to.

        ``repro.eval.runner`` -> ``eval``; bare top-level modules
        (``repro.cli``, ``repro.config``) map to their own name; the
        package root (``repro``, ``repro.__main__``) maps to the
        package name itself.
        """
        parts = self.module.split(".")
        if len(parts) == 1 or parts[1] == "__main__":
            return parts[0]
        return parts[1]

    def is_suppressed(self, rule: str, line: int) -> bool:
        allowed = self.suppressions.get(line)
        if allowed is None:
            return False
        return "*" in allowed or rule in allowed


def _collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    suppressions: dict[int, set[str]] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {
            part.strip() for part in match.group(1).split(",") if part.strip()
        }
        if not rules:
            continue
        suppressions.setdefault(lineno, set()).update(rules)
        # A comment-only line covers the next line (the flagged statement).
        if text.lstrip().startswith("#"):
            suppressions.setdefault(lineno + 1, set()).update(rules)
    return {line: frozenset(rules) for line, rules in suppressions.items()}


@dataclass
class Project:
    """Everything the rules see: parsed modules plus repo-file access."""

    repo_root: Path
    package: str
    modules: list[ModuleInfo] = field(default_factory=list)
    parse_failures: list[ParseFailure] = field(default_factory=list)

    @property
    def src_root(self) -> Path:
        return self.repo_root / "src" / self.package

    def by_module(self, dotted: str) -> ModuleInfo | None:
        for info in self.modules:
            if info.module == dotted:
                return info
        return None

    def read_text(self, rel_path: str) -> str | None:
        """Contents of a repo file (``docs/api.md``), or None if absent."""
        path = self.repo_root / rel_path
        try:
            return path.read_text()
        except OSError:
            return None


def _module_name(package: str, rel_to_pkg: Path) -> str:
    parts = list(rel_to_pkg.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def load_project(repo_root: str | Path, package: str = "repro") -> Project:
    """Parse every module of ``<repo_root>/src/<package>/``.

    Files that fail to parse are recorded in ``parse_failures`` instead
    of aborting the run, so one syntax error does not hide every other
    finding.
    """
    repo_root = Path(repo_root).resolve()
    project = Project(repo_root=repo_root, package=package)
    src_root = project.src_root
    if not src_root.is_dir():
        raise FileNotFoundError(f"no package directory at {src_root}")
    for path in sorted(src_root.rglob("*.py")):
        rel_path = path.relative_to(repo_root).as_posix()
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            project.parse_failures.append(
                ParseFailure(
                    rel_path=rel_path,
                    line=exc.lineno or 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        project.modules.append(
            ModuleInfo(
                path=path,
                rel_path=rel_path,
                module=_module_name(package, path.relative_to(src_root)),
                source=source,
                tree=tree,
                suppressions=_collect_suppressions(source),
            )
        )
    return project
