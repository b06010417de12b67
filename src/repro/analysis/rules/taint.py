"""taint/unseeded-rng: randomness must be seeded in reproducible code.

- ``taint/unseeded-rng`` (error) — ``random.Random()`` /
  ``default_rng()`` constructed with no seed, or seeded from a parameter
  whose default is ``None`` (the caller that forgets the kwarg silently
  gets run-to-run jitter). Pin with ``Random(0 if seed is None else
  seed)`` or require the argument.

Scope: the determinism-critical packages plus ``eval`` and ``obs`` —
the layers that assemble checkpoint payloads and wire formats.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.engine import register
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, dotted_name, tail_matches


def _param_defaults_none(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Parameter names whose default is the literal ``None``."""
    args = func.args
    names: set[str] = set()
    positional = args.posonlyargs + args.args
    for arg, default in zip(
        positional[len(positional) - len(args.defaults):], args.defaults
    ):
        if isinstance(default, ast.Constant) and default.value is None:
            names.add(arg.arg)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if isinstance(kw_default, ast.Constant) and kw_default.value is None:
            names.add(arg.arg)
    return names


def _assigned_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        names.add(element.id)
    return names


_RNG_CONSTRUCTORS = ("Random", "default_rng")


@register(
    "taint/unseeded-rng",
    "RNG constructed without a pinned seed (no argument, or a seed "
    "parameter defaulting to None) in determinism-critical code",
    Severity.ERROR,
)
def check_unseeded_rng(
    project: Project, config: LintConfig
) -> Iterator[Finding]:
    scope = frozenset(config.determinism_scope) | {"eval", "obs"}
    for info in project.modules:
        if info.package not in scope:
            continue
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
            node
            for node in ast.walk(info.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        contexts: list[
            tuple[ast.AST, set[str], str]
        ] = [(info.tree, set(), "<module>")]
        for func in functions:
            maybe_none = _param_defaults_none(func) - _assigned_names(func)
            contexts.append((func, maybe_none, func.name))
        seen: set[int] = set()
        for owner, maybe_none, where in reversed(contexts):
            # Innermost context wins: reversed() visits functions before
            # the module, and `seen` keeps each call site single-owner.
            for sub in ast.walk(owner):
                if not isinstance(sub, ast.Call) or id(sub) in seen:
                    continue
                name = dotted_name(sub.func) or ""
                if not any(
                    tail_matches(name, ctor) for ctor in _RNG_CONSTRUCTORS
                ):
                    continue
                seen.add(id(sub))
                if not sub.args and not sub.keywords:
                    yield Finding(
                        rule="taint/unseeded-rng",
                        severity=Severity.ERROR,
                        path=info.rel_path,
                        line=sub.lineno,
                        message=(
                            f"{name}() constructed without a seed in "
                            f"{where}; every run draws a different "
                            "sequence"
                        ),
                        hint="thread an explicit seed (DistinctConfig."
                             "seed) through to this constructor",
                    )
                elif (
                    len(sub.args) == 1
                    and not sub.keywords
                    and isinstance(sub.args[0], ast.Name)
                    and sub.args[0].id in maybe_none
                ):
                    yield Finding(
                        rule="taint/unseeded-rng",
                        severity=Severity.ERROR,
                        path=info.rel_path,
                        line=sub.lineno,
                        message=(
                            f"{name}({sub.args[0].id}) in {where} seeds "
                            "from a parameter whose default is None — "
                            "callers that omit it get run-to-run jitter"
                        ),
                        hint=f"pin the fallback: "
                             f"{name}(0 if {sub.args[0].id} is None else "
                             f"{sub.args[0].id})",
                    )
