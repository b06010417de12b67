"""Prefix-shared propagation over many join paths at once.

The path set is heavily prefix-redundant: all 17 live default DBLP paths
start with ``Publish -> Publications``, and deeper paths extend shorter
ones. Propagating each path independently
recomputes the shared prefixes' forward levels over and over.

:func:`propagate_trie` arranges the paths in a step trie and runs the
forward pass once per trie node, then runs the (cheap, per-path) backward
dynamic program using the stored forward levels. Results are *identical* to
:meth:`PropagationEngine.propagate` per path — asserted by the equivalence
property test — at roughly the cost of the distinct prefixes instead of the
sum of path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paths.joinpath import JoinPath
from repro.paths.propagation import PropagationEngine, PropagationResult
from repro.reldb.joins import JoinStep


@dataclass
class _TrieNode:
    """One shared prefix. ``paths`` are the full paths ending exactly here."""

    step: JoinStep | None
    children: dict[JoinStep, "_TrieNode"] = field(default_factory=dict)
    paths: list[JoinPath] = field(default_factory=list)


def _build_trie(paths: list[JoinPath]) -> _TrieNode:
    root = _TrieNode(step=None)
    for path in paths:
        node = root
        for step in path.steps:
            child = node.children.get(step)
            if child is None:
                child = _TrieNode(step=step)
                node.children[step] = child
            node = child
        node.paths.append(path)
    return root


def propagate_trie(
    engine: PropagationEngine, paths: list[JoinPath], origin_row: int
) -> dict[JoinPath, PropagationResult]:
    """Propagate ``origin_row`` along every path, sharing prefix work.

    All paths must share the engine's database and start at the same
    relation. Returns one :class:`PropagationResult` per input path,
    identical to propagating each path individually.
    """
    if not paths:
        return {}
    starts = {p.start_relation for p in paths}
    if len(starts) > 1:
        # lint: allow[determinism/unkeyed-sort] relation names are plain str
        raise ValueError(f"paths start at different relations: {sorted(starts)}")

    root = _build_trie(paths)
    start_relation = paths[0].start_relation
    results: dict[JoinPath, PropagationResult] = {}

    # Depth-first walk; ``levels`` and ``revs`` are the stacks of forward
    # level dicts and backward-DP dicts along the current prefix (index 0 =
    # origin level). Both directions depend only on the prefix, so both are
    # computed once per trie node.
    def visit(node: _TrieNode, levels: list[dict[int, float]], revs: list[dict[int, float]]) -> None:
        for path in node.paths:
            results[path] = PropagationResult(
                path=path,
                origin_row=origin_row,
                forward=levels[-1],
                backward=revs[-1],
                level_sizes=[len(level) for level in levels],
            )
        for child in node.children.values():
            next_level = engine._forward_step(
                child.step, levels[-1], start_relation, origin_row
            )
            next_rev = engine._backward_step(
                child.step,
                next_level,
                revs[-1],
                start_relation,
                origin_row,
                gather_into_origin_level=(len(levels) == 1),
            )
            levels.append(next_level)
            revs.append(next_rev)
            visit(child, levels, revs)
            levels.pop()
            revs.pop()

    visit(root, [{origin_row: 1.0}], [{origin_row: 1.0}])
    return results
