"""lifecycle/*: atomic renames stay inside the checkpoint module.

- ``lifecycle/fsync-before-rename`` (error) — ``os.replace`` /
  ``os.rename`` anywhere outside :data:`ATOMIC_WRITE_MODULE`.
  Rename-without-fsync is how a checkpoint survives the process but not
  the machine; ``repro.resilience.checkpoint`` (``write_json_atomic``)
  holds the one fsync-then-rename sequence, pinned by its tests, so
  every other module writes through it instead of renaming by hand.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.engine import register
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, dotted_name, tail_matches

#: The one module allowed to rename files into place.
ATOMIC_WRITE_MODULE = "repro.resilience.checkpoint"

_RENAMES = ("os.replace", "os.rename")


@register(
    "lifecycle/fsync-before-rename",
    f"os.replace/os.rename outside {ATOMIC_WRITE_MODULE}; write through "
    "write_json_atomic, which fsyncs before renaming (rename-without-"
    "fsync loses the write on power failure)",
    Severity.ERROR,
)
def check_fsync_before_rename(
    project: Project, config: LintConfig
) -> Iterator[Finding]:
    for info in project.modules:
        if info.module == ATOMIC_WRITE_MODULE:
            continue
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            if any(tail_matches(name, rename) for rename in _RENAMES):
                yield Finding(
                    rule="lifecycle/fsync-before-rename",
                    severity=Severity.ERROR,
                    path=info.rel_path,
                    line=node.lineno,
                    message=(
                        f"{name}() outside {ATOMIC_WRITE_MODULE}; the "
                        "renamed file is not known to be fsynced"
                    ),
                    hint="write through repro.resilience.checkpoint."
                         "write_json_atomic (fsync, then rename)",
                )
