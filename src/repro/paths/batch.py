"""Batched sparse propagation: all references of one name at once.

Walking one reference at a time over Python dicts (the paper's reading,
kept as the test suite's scalar oracle) costs references times tuples
visited. But one forward step is a linear map of the
mass vector, identical for every reference of a name (the *per-origin*
part — the origin tuple is not an intermediate stop — is a rank-limited
perturbation). Stacking the references' mass vectors as the rows of a
sparse matrix ``M`` turns each step into a single SpMM:

- **forward**: ``M_k = M_{k-1} @ T(step_k)`` where ``T`` is the
  row-normalized CSR transition of :mod:`repro.perf.transitions`;
- **backward**: ``R_k = R_{k-1} @ T(step_k.reverse()).T``, restricted to
  the rows the forward pass reached (the backward DP's per-level domain).

Both matrices of a step are built once over the whole relations, extended
when a relation grows, and shared by every name
(:attr:`PropagationEngine.steps`). A
name's global exclusions only drop its own rows from partner lists, so a
step whose destination (or, for the reverse split, source) relation has
exclusions gets a masked, renormalized copy that lives for one call.

Per-origin exclusion is applied as sparse corrections on top of the
origin-free products, once per level whose relation is the start
relation (``o_r`` is reference ``r``'s origin row, ``d_i`` the filtered
partner count of row ``i``; partner lists and counts are read off the
rows of the run's step matrices):

- *forward*: the generic product both routed mass into ``o_r`` and
  counted it in the split denominators. For every source row ``i``
  joining to ``o_r`` with ``d_i >= 2``, the remaining partners each gain
  ``M[r, i] / (d_i (d_i - 1))`` — added as one extra SpMM
  ``U @ T`` with ``U[r, i] = M[r, i] / (d_i - 1)`` — and the ``(r, o_r)``
  entry is then zeroed exactly (rows with ``d_i == 1`` lose their mass,
  as in the scalar definition).
- *backward*: entries ``R_k[r, o_r]`` at intermediate start-relation
  levels are zeroed (the backward DP never computes a rev value for the
  origin there), so by the time a later level gathers *from* the origin
  its contribution is already zero and only the denominator needs
  fixing: for every row ``t`` whose reverse partners include ``o_r``
  with ``d_t >= 2``, scale ``R_k[r, t]`` by ``d_t / (d_t - 1)``.

Both corrections touch O(origin fanout) entries per reference — no
cancellation-prone subtractions — so batched results match the scalar
oracle to floating-point reassociation tolerance (the property suite
asserts <= 1e-12). They run for all references
at once: every origin's partner list is gathered from the step matrix's
CSR arrays, and one ``searchsorted`` over the level's ``row * width +
column`` keys finds which of those entries the level holds.

Every operation acts on each reference's row alone, so a reference's
forward, backward and trace rows are the same bytes whatever batch it
propagates in (property-tested).

The walk shares prefixes across paths through the step trie of
:mod:`repro.paths.trie`. Final per-path backward matrices are masked to
the forward support pattern (backward weights exist only for
forward-reached neighbors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import PropagationEngine, _EMPTY_SET
from repro.paths.trie import _TrieNode, _build_trie
from repro.perf.transitions import _keep, without_columns, without_rows

__all__ = ["BatchedProfiles", "batch_profile_matrices", "merge_batched"]

#: Work accounting. ``propagation.tuples_visited`` counts the nonzeros
#: of each forward and backward level, summed over references (one
#: reference's row holds exactly the tuples a one-reference walk
#: materializes at that level). ``spmm`` counts sparse
#: matrix products; ``origin_corrections`` counts corrected entries.
_BATCH_RUNS = counter("propagation.batch.runs")
_BATCH_SPMM = counter("propagation.batch.spmm")
_TUPLES_VISITED = counter("propagation.tuples_visited")
_BATCH_CORRECTIONS = counter("propagation.batch.origin_corrections")


@dataclass
class BatchedProfiles:
    """Stacked neighbor profiles of one path for a batch of references.

    ``forward[k, t]`` is ``Prob_P(r_k -> t)`` and ``backward[k, t]`` is
    ``Prob_P(t -> r_k)`` for ``rows[k]``'s reference; columns span the
    *full* end relation (row id == column id), and the backward pattern
    is a subset of the forward pattern.
    """

    path: JoinPath
    rows: list[int]
    forward: sparse.csr_matrix
    backward: sparse.csr_matrix


class _BatchContext:
    """Per-run state: engine access, origin bookkeeping, the run's steps.

    Step matrices come from the engine's shared store; the masked copies
    a step needs under this run's exclusions are kept here, so they never
    outlive the run.
    """

    def __init__(self, engine: PropagationEngine, origin_rows: list[int]) -> None:
        self.engine = engine
        self.db = engine.db
        self.origins = np.asarray(list(origin_rows), dtype=np.int64)
        self.n_refs = len(origin_rows)
        self._forward: dict = {}
        self._backward: dict = {}

    def n_rows(self, relation: str) -> int:
        return len(self.db.table(relation).rows)

    def forward(self, step) -> sparse.csr_matrix:
        """``T(step)``: each row split over its exclusion-filtered partners."""
        matrix = self._forward.get(step)
        if matrix is None:
            matrix = self.engine.steps.get(self.db, step).forward
            excluded = self.engine.exclusions.get(step.dst_relation)
            if excluded:
                matrix = without_columns(matrix, excluded)
            self._forward[step] = matrix
        return matrix

    def backward(self, step) -> sparse.csr_matrix:
        """``T(step.reverse()).T`` under the run's exclusions."""
        matrix = self._backward.get(step)
        if matrix is None:
            matrix = self.engine.steps.get(self.db, step).backward
            excluded = self.engine.exclusions.get(step.src_relation)
            if excluded:
                matrix = without_rows(matrix, excluded)
            self._backward[step] = matrix
        return matrix


def _entry_rows(matrix: sparse.csr_matrix) -> np.ndarray:
    """The row of every stored entry, in storage order."""
    return np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))


def _positions(
    matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Where entry ``(rows[k], cols[k])`` sits in ``matrix.data``, or -1
    where it is not stored (indices must be sorted).

    With sorted indices, ``row * width + col`` ascends through the
    storage, so one ``searchsorted`` finds every entry.
    """
    width = matrix.shape[1]
    stored = _entry_rows(matrix) * width + matrix.indices
    wanted = rows * width + cols
    pos = np.searchsorted(stored, wanted)
    found = pos < len(stored)
    found[found] = stored[pos[found]] == wanted[found]
    return np.where(found, pos, -1)


def _canonical(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    matrix = matrix.tocsr()
    matrix.sort_indices()
    matrix.eliminate_zeros()
    return matrix


def _restricted(matrix: sparse.csr_matrix, keep: np.ndarray) -> sparse.csr_matrix:
    """``matrix`` with only the entries where ``keep`` holds."""
    indptr, indices = _keep(matrix, keep)
    out = sparse.csr_matrix((matrix.data[keep], indices, indptr), shape=matrix.shape)
    out.has_sorted_indices = matrix.has_sorted_indices
    return out


def _zero_origin_column(
    matrix: sparse.csr_matrix, origins: np.ndarray
) -> sparse.csr_matrix:
    """``matrix`` without entry ``(r, origins[r])`` of any reference row."""
    pos = _positions(matrix, np.arange(len(origins), dtype=np.int64), origins)
    pos = pos[pos >= 0]
    if not len(pos):
        return matrix
    keep = np.ones(matrix.nnz, dtype=bool)
    keep[pos] = False
    return _restricted(matrix, keep)


def _origin_partner_entries(
    ctx: _BatchContext,
    matrix: sparse.csr_matrix,
    partners: sparse.csr_matrix,
    excluded: frozenset[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry ``(r, c)`` of ``matrix`` whose column ``c`` is a
    partner of reference ``r``'s origin (a column of row ``o_r`` of
    ``partners``), skipping references whose origin is in ``excluded``.

    Returns the entries' rows, columns and positions in ``matrix.data``,
    in row order and, within a row, column order.
    """
    lengths = np.diff(partners.indptr)[ctx.origins]
    if excluded:
        lengths[np.isin(ctx.origins, list(excluded))] = 0
    rows = np.repeat(np.arange(ctx.n_refs, dtype=np.int64), lengths)
    firsts = np.cumsum(lengths) - lengths
    offsets = np.arange(len(rows)) - np.repeat(firsts, lengths)
    cols = partners.indices[np.repeat(partners.indptr[ctx.origins], lengths) + offsets]
    pos = _positions(matrix, rows, cols.astype(np.int64))
    found = pos >= 0
    return rows[found], cols[found], pos[found]


def _forward_step_batch(
    ctx: _BatchContext, step, current: sparse.csr_matrix, start_relation: str
) -> sparse.csr_matrix:
    """One forward step for every reference: one SpMM plus the
    per-origin correction when the step lands on the start relation."""
    transition = ctx.forward(step)
    nxt = (current @ transition).tocsr()
    _BATCH_SPMM.inc()
    if step.dst_relation == start_relation:
        nxt = _forward_origin_fix(ctx, step, current, nxt, transition)
    nxt = _canonical(nxt)
    _TUPLES_VISITED.inc(nxt.nnz)
    return nxt


def _forward_origin_fix(
    ctx: _BatchContext,
    step,
    current: sparse.csr_matrix,
    nxt: sparse.csr_matrix,
    transition: sparse.csr_matrix,
) -> sparse.csr_matrix:
    """Redistribute the mass the generic product routed via each origin.

    See the module docstring for the algebra. References whose origin is
    globally excluded need no fix: the generic transition already
    dropped the origin from every partner list.
    """
    current = _canonical(current)
    rows, cols, pos = _origin_partner_entries(
        ctx,
        current,
        ctx.forward(step.reverse()),
        ctx.engine.exclusions.get(step.dst_relation, _EMPTY_SET),
    )
    degree = np.diff(transition.indptr)[cols].astype(np.float64)
    split = degree >= 2.0
    if split.any():
        values = current.data[pos[split]] / (degree[split] - 1.0)
        update = sparse.csr_matrix(
            (values, (rows[split], cols[split])), shape=current.shape
        )
        nxt = (nxt + update @ transition).tocsr()
        _BATCH_SPMM.inc()
        _BATCH_CORRECTIONS.inc(len(values))
    return _zero_origin_column(_canonical(nxt), ctx.origins)


def _backward_step_batch(
    ctx: _BatchContext,
    step,
    level: sparse.csr_matrix,
    prev_rev: sparse.csr_matrix,
    start_relation: str,
    gather_into_origin_level: bool,
) -> sparse.csr_matrix:
    """One backward-DP step for every reference.

    The product covers every destination row adjacent to the previous
    level; it is restricted to this level's union forward support, the
    DP's domain (rev values exist only for forward-reached tuples).
    """
    rev = (prev_rev @ ctx.backward(step)).tocsr()
    _BATCH_SPMM.inc()
    support = np.zeros(rev.shape[1], dtype=bool)
    support[level.indices] = True
    rev.data[~support[rev.indices]] = 0.0
    if not gather_into_origin_level and step.src_relation == start_relation:
        rev = _backward_origin_fix(ctx, step, rev)
    if step.dst_relation == start_relation:
        # The DP never computes a rev value for the origin at an
        # intermediate start-relation level (the forward pass dropped it
        # from the level), so later gathers must see exactly zero there.
        rev = _zero_origin_column(_canonical(rev), ctx.origins)
    rev = _canonical(rev)
    _TUPLES_VISITED.inc(rev.nnz)
    return rev


def _backward_origin_fix(
    ctx: _BatchContext, step, rev: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Fix the gather denominators where the origin was a reverse partner.

    The origin's *numerator* contribution is already zero (its rev entry
    was zeroed at the previous level), so dropping it from the partner
    list only rescales: ``rev[r, t] *= d_t / (d_t - 1)`` for every row
    ``t`` joining to ``o_r`` with ``d_t >= 2`` (``d_t == 1`` means the
    origin was the sole partner and the generic value is already zero).
    """
    rev = _canonical(rev)
    _, cols, pos = _origin_partner_entries(
        ctx,
        rev,
        ctx.forward(step),
        ctx.engine.exclusions.get(step.src_relation, _EMPTY_SET),
    )
    degree = np.diff(ctx.forward(step.reverse()).indptr)[cols].astype(np.float64)
    split = degree >= 2.0
    if not split.any():
        return rev
    pos, degree = pos[split], degree[split]
    scale = degree / (degree - 1.0)
    values = rev.data[pos]
    rev.data[pos] = values + values * (scale - 1.0)
    _BATCH_CORRECTIONS.inc(len(pos))
    return rev


def _finalize(
    path: JoinPath,
    origin_rows: list[int],
    forward: sparse.csr_matrix,
    rev: sparse.csr_matrix,
) -> BatchedProfiles:
    """Per-path output: backward masked to the forward support pattern.

    The backward pattern usually equals the forward one already, and is
    then kept as it is.
    """
    if np.array_equal(rev.indptr, forward.indptr) and np.array_equal(
        rev.indices, forward.indices
    ):
        backward = rev
    else:
        in_forward = _positions(forward, _entry_rows(rev), rev.indices) >= 0
        backward = _restricted(rev, in_forward)
    return BatchedProfiles(
        path=path, rows=list(origin_rows), forward=forward, backward=backward
    )


def _visited_pattern(
    levels: list[sparse.csr_matrix], shape: tuple[int, int]
) -> sparse.csr_matrix:
    """The union of ``levels``' nonzero patterns, as boolean CSR.

    Patterns are ``(n_refs, n_relation_rows)``; a set bit means the
    reference's walk put nonzero mass on that tuple at some forward
    level. Delta ingest intersects these with the rows a delta touched to
    find exactly the references whose profiles can change.
    """
    width = shape[1]
    keys = np.sort(
        np.concatenate([_entry_rows(level) * width + level.indices for level in levels])
    )
    # A sorted scan, not ``np.unique``, which hashes and is far slower here.
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=shape[0]), out=indptr[1:])
    pattern = sparse.csr_matrix(
        (np.ones(len(keys), dtype=bool), keys % width, indptr), shape=shape
    )
    pattern.has_sorted_indices = True
    return pattern


def batch_profile_matrices(
    engine: PropagationEngine,
    paths: list[JoinPath],
    origin_rows: list[int],
    trace: dict[str, sparse.csr_matrix] | None = None,
) -> dict[JoinPath, BatchedProfiles]:
    """Stacked (forward, backward) profile matrices for every path.

    Row ``k`` of each matrix is reference ``origin_rows[k]``'s profile
    along the path, propagated alone as §2.2 defines it (to reassociation
    tolerance), with columns over the full end relation.
    Prefix work is shared across paths through the step trie, and level
    work is shared across references through the SpMM formulation.

    ``trace``, when given a dict, is filled with the
    per-relation visited patterns of every forward level (including the
    origin level) — the raw material of dirty-reference detection. Each
    relation's pattern is one union taken after the walk, over its
    levels and any pattern the dict already held for it.
    """
    if not paths:
        return {}
    starts = {p.start_relation for p in paths}
    if len(starts) > 1:
        # lint: allow[determinism/unkeyed-sort] relation names are plain str
        raise ValueError(f"paths start at different relations: {sorted(starts)}")
    _BATCH_RUNS.inc()
    ctx = _BatchContext(engine, origin_rows)
    start_relation = paths[0].start_relation
    n_start = ctx.n_rows(start_relation)
    ones = np.ones(ctx.n_refs, dtype=np.float64)
    ref_ids = np.arange(ctx.n_refs, dtype=np.int64)
    initial = sparse.csr_matrix(
        (ones, (ref_ids, ctx.origins)), shape=(ctx.n_refs, n_start)
    )
    initial.sort_indices()
    visited: dict[str, list[sparse.csr_matrix]] = {start_relation: [initial]}

    results: dict[JoinPath, BatchedProfiles] = {}
    root = _build_trie(paths)

    def visit(
        node: _TrieNode, forward: sparse.csr_matrix, rev: sparse.csr_matrix, depth: int
    ) -> None:
        for path in node.paths:
            results[path] = _finalize(path, origin_rows, forward, rev)
        for child in node.children.values():
            nxt = _forward_step_batch(ctx, child.step, forward, start_relation)
            if trace is not None:
                visited.setdefault(child.step.dst_relation, []).append(nxt)
            nxt_rev = _backward_step_batch(
                ctx,
                child.step,
                nxt,
                rev,
                start_relation,
                gather_into_origin_level=(depth == 0),
            )
            visit(child, nxt, nxt_rev, depth + 1)

    try:
        visit(root, initial, initial.copy(), 0)
    finally:
        # ``visit`` refers to itself through its closure cell. Clearing
        # the cell breaks that cycle, so the batch's matrices are freed
        # now rather than whenever the cyclic collector next runs.
        del visit
    if trace is not None:
        for relation, levels in visited.items():
            if relation in trace:
                levels.append(trace[relation])
            trace[relation] = _visited_pattern(levels, levels[0].shape)
    return results


def merge_batched(
    rows: list[int], groups: list[dict[JoinPath, BatchedProfiles]]
) -> dict[JoinPath, BatchedProfiles]:
    """Stack per-group batched matrices back into one batch over ``rows``.

    ``groups`` hold disjoint subsets of ``rows`` (e.g. one batch per
    ambiguous name when training pairs span names); all groups must come
    from the same database so the per-path column spaces line up.
    """
    position = {row: k for k, row in enumerate(rows)}
    merged: dict[JoinPath, BatchedProfiles] = {}
    for path in groups[0]:
        order = [row for group in groups for row in group[path].rows]
        inverse = np.empty(len(rows), dtype=np.int64)
        for j, row in enumerate(order):
            inverse[position[row]] = j
        forward = sparse.vstack(
            [group[path].forward for group in groups], format="csr"
        )[inverse]
        backward = sparse.vstack(
            [group[path].backward for group in groups], format="csr"
        )[inverse]
        merged[path] = BatchedProfiles(
            path=path,
            rows=list(rows),
            forward=_canonical(forward),
            backward=_canonical(backward),
        )
    return merged
