"""The step trie: many join paths arranged by their shared prefixes.

The path set is heavily prefix-redundant: all 14 paths the pipeline
propagates on the default DBLP budget (the 17 live ones less the three
whose features are their prefix's) start with ``Publish ->
Publications``, and deeper paths extend shorter ones. Propagating each path independently would recompute the shared
prefixes' levels over and over. :func:`_build_trie` arranges the paths in
a trie of join steps, so batched propagation
(:func:`repro.paths.batch.batch_profile_matrices`) runs each forward and
backward step once per trie node — at the cost of the distinct prefixes
instead of the sum of path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paths.joinpath import JoinPath
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
