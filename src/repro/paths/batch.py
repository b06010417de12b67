"""Batched sparse propagation: all references of one name at once.

:class:`~repro.paths.propagation.PropagationEngine` walks one reference
at a time over Python dicts, so its cost grows with references times
tuples visited. But one forward step is a linear map of the
mass vector, identical for every reference of a name (the *per-origin*
part — the origin tuple is not an intermediate stop — is a rank-limited
perturbation). Stacking the references' mass vectors as the rows of a
sparse matrix ``M`` turns each step into a single SpMM:

- **forward**: ``M_k = M_{k-1} @ T(step_k)`` where ``T`` is the
  row-normalized CSR transition of :mod:`repro.perf.transitions`;
- **backward**: ``R_k = R_{k-1} @ T(step_k.reverse()).T``, restricted to
  the rows the forward pass reached (the scalar DP's per-level domain).

Both matrices of a step are built once per database epoch over the whole
relations and shared by every name (:attr:`PropagationEngine.steps`). A
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
  as in the scalar engine).
- *backward*: entries ``R_k[r, o_r]`` at intermediate start-relation
  levels are zeroed (the scalar DP never computes a rev value for the
  origin there), so by the time a later level gathers *from* the origin
  its contribution is already zero and only the denominator needs
  fixing: for every row ``t`` whose reverse partners include ``o_r``
  with ``d_t >= 2``, scale ``R_k[r, t]`` by ``d_t / (d_t - 1)``.

Both corrections touch O(origin fanout) entries per reference — no
cancellation-prone subtractions — so batched results match the scalar
engine to floating-point reassociation tolerance (the property suite
asserts <= 1e-12; the bench gates at 1e-9).

The walk shares prefixes across paths through the same step trie as
:func:`repro.paths.trie.propagate_trie`. Final per-path backward
matrices are masked to the forward support pattern, reproducing
:class:`~repro.paths.profiles.NeighborProfile` semantics (backward
weights exist only for forward-reached neighbors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import PropagationEngine, _EMPTY_SET
from repro.paths.trie import _TrieNode, _build_trie
from repro.perf.transitions import without_columns, without_rows

__all__ = ["BatchedProfiles", "batch_profile_matrices", "merge_batched"]

#: Work accounting. ``propagation.tuples_visited`` keeps the scalar
#: engine's definition: the nonzeros of each forward and backward level,
#: summed over references (one reference's row holds exactly the tuples
#: the scalar walk materializes at that level). ``spmm`` counts sparse
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
    is a subset of the forward pattern — the same contract as stacking
    :class:`~repro.paths.profiles.NeighborProfile` objects through
    :func:`repro.similarity.vectorized.profile_matrices`, up to the
    wider (but value-identical) column space, which the pair kernels
    never depend on.
    """

    path: JoinPath
    rows: list[int]
    forward: sparse.csr_matrix
    backward: sparse.csr_matrix

    def weights_for(self, k: int) -> dict[int, tuple[float, float]]:
        """Reference ``rows[k]``'s profile as a NeighborProfile-style dict."""
        fwd = self.forward.getrow(k).tocoo()
        back_row = self.backward.getrow(k)
        back = dict(zip(back_row.indices.tolist(), back_row.data.tolist()))
        return {
            int(t): (float(v), float(back.get(int(t), 0.0)))
            for t, v in zip(fwd.col, fwd.data)
        }


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


def _partners(matrix: sparse.csr_matrix, row: int) -> np.ndarray:
    """Column ids of one row's entries: its filtered partner list."""
    return matrix.indices[matrix.indptr[row]:matrix.indptr[row + 1]]


def _degree(matrix: sparse.csr_matrix, row: int) -> float:
    """One row's filtered partner count."""
    return float(matrix.indptr[row + 1] - matrix.indptr[row])


def _support_rows(matrix: sparse.csr_matrix) -> np.ndarray:
    """Distinct nonzero column ids (the union support across references)."""
    if matrix.nnz == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(matrix.indices).astype(np.int64)


def _entries_at(matrix: sparse.csr_matrix, cols: np.ndarray) -> np.ndarray:
    """``matrix[r, cols[r]]`` for every row ``r`` (indices must be sorted)."""
    out = np.zeros(matrix.shape[0])
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for r in range(matrix.shape[0]):
        lo, hi = indptr[r], indptr[r + 1]
        pos = lo + np.searchsorted(indices[lo:hi], cols[r])
        if pos < hi and indices[pos] == cols[r]:
            out[r] = data[pos]
    return out


def _add_entries(
    matrix: sparse.csr_matrix,
    rows: list[int],
    cols: list[int],
    values: list[float],
) -> sparse.csr_matrix:
    """``matrix`` plus a sparse update, canonicalized (sorted, no zeros)."""
    update = sparse.csr_matrix(
        (
            np.asarray(values, dtype=np.float64),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        ),
        shape=matrix.shape,
    )
    out = (matrix + update).tocsr()
    out.sort_indices()
    out.eliminate_zeros()
    return out


def _canonical(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    matrix = matrix.tocsr()
    matrix.sort_indices()
    matrix.eliminate_zeros()
    return matrix


def _zero_origin_column(
    matrix: sparse.csr_matrix, origins: np.ndarray
) -> sparse.csr_matrix:
    """Exactly zero entry ``(r, origins[r])`` for every reference row."""
    current = _entries_at(matrix, origins)
    hot = np.flatnonzero(current)
    if not len(hot):
        return matrix
    return _add_entries(
        matrix,
        hot.tolist(),
        origins[hot].tolist(),
        (-current[hot]).tolist(),
    )


def _forward_step_batch(
    ctx: _BatchContext, step, current: sparse.csr_matrix, start_relation: str
) -> sparse.csr_matrix:
    """Batched :meth:`PropagationEngine._forward_step`: one SpMM plus the
    per-origin correction when the step lands on the start relation."""
    transition = ctx.forward(step)
    nxt = (current @ transition).tocsr()
    _BATCH_SPMM.inc()
    if ctx.engine.exclude_origin and step.dst_relation == start_relation:
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
    excluded_dst = ctx.engine.exclusions.get(step.dst_relation, _EMPTY_SET)
    reverse = ctx.forward(step.reverse())
    current = _canonical(current)
    indptr, indices, data = current.indptr, current.indices, current.data
    u_rows: list[int] = []
    u_cols: list[int] = []
    u_vals: list[float] = []
    for r in range(ctx.n_refs):
        origin = int(ctx.origins[r])
        if origin in excluded_dst:
            continue
        lo, hi = indptr[r], indptr[r + 1]
        if lo == hi:
            continue
        row_cols = indices[lo:hi]
        row_vals = data[lo:hi]
        for i in _partners(reverse, origin).tolist():
            pos = np.searchsorted(row_cols, i)
            if pos >= len(row_cols) or row_cols[pos] != i:
                continue
            degree = _degree(transition, i)
            if degree >= 2.0:
                u_rows.append(r)
                u_cols.append(i)
                u_vals.append(float(row_vals[pos]) / (degree - 1.0))
    if u_vals:
        update = sparse.csr_matrix(
            (u_vals, (u_rows, u_cols)), shape=current.shape
        )
        nxt = (nxt + update @ transition).tocsr()
        _BATCH_SPMM.inc()
        _BATCH_CORRECTIONS.inc(len(u_vals))
    return _zero_origin_column(_canonical(nxt), ctx.origins)


def _backward_step_batch(
    ctx: _BatchContext,
    step,
    level: sparse.csr_matrix,
    prev_rev: sparse.csr_matrix,
    start_relation: str,
    gather_into_origin_level: bool,
) -> sparse.csr_matrix:
    """Batched :meth:`PropagationEngine._backward_step`.

    The product covers every destination row adjacent to the previous
    level; it is restricted to this level's union forward support, the
    scalar DP's domain (rev values exist only for forward-reached
    tuples).
    """
    rev = (prev_rev @ ctx.backward(step)).tocsr()
    _BATCH_SPMM.inc()
    rev.data[~np.isin(rev.indices, _support_rows(level))] = 0.0
    if (
        ctx.engine.exclude_origin
        and not gather_into_origin_level
        and step.src_relation == start_relation
    ):
        rev = _backward_origin_fix(ctx, step, rev)
    if ctx.engine.exclude_origin and step.dst_relation == start_relation:
        # The scalar DP never computes a rev value for the origin at an
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
    excluded_prev = ctx.engine.exclusions.get(step.src_relation, _EMPTY_SET)
    forward = ctx.forward(step)
    reverse = ctx.forward(step.reverse())
    rev = _canonical(rev)
    indptr, indices, data = rev.indptr, rev.indices, rev.data
    u_rows: list[int] = []
    u_cols: list[int] = []
    u_vals: list[float] = []
    for r in range(ctx.n_refs):
        origin = int(ctx.origins[r])
        if origin in excluded_prev:
            continue
        lo, hi = indptr[r], indptr[r + 1]
        if lo == hi:
            continue
        row_cols = indices[lo:hi]
        row_vals = data[lo:hi]
        for t in _partners(forward, origin).tolist():
            pos = np.searchsorted(row_cols, t)
            if pos >= len(row_cols) or row_cols[pos] != t:
                continue
            degree = _degree(reverse, t)
            if degree >= 2.0:
                scale = degree / (degree - 1.0)
                u_rows.append(r)
                u_cols.append(t)
                u_vals.append(float(row_vals[pos]) * (scale - 1.0))
    if not u_vals:
        return rev
    _BATCH_CORRECTIONS.inc(len(u_vals))
    return _add_entries(rev, u_rows, u_cols, u_vals)


def _finalize(
    path: JoinPath,
    origin_rows: list[int],
    forward: sparse.csr_matrix,
    rev: sparse.csr_matrix,
) -> BatchedProfiles:
    """Per-path output: backward masked to the forward support pattern."""
    pattern = forward.copy()
    pattern.data = np.ones_like(pattern.data)
    backward = _canonical(rev.multiply(pattern))
    return BatchedProfiles(
        path=path, rows=list(origin_rows), forward=forward, backward=backward
    )


def _trace_add(
    trace: dict[str, sparse.csr_matrix], relation: str, matrix: sparse.csr_matrix
) -> None:
    """OR ``matrix``'s nonzero pattern into the relation's visited pattern.

    Patterns are boolean ``(n_refs, n_relation_rows)`` CSR matrices; a set
    bit means the reference's walk put nonzero mass on that tuple at some
    forward level. Delta ingest intersects these with the rows a delta
    touched to find exactly the references whose profiles can change.
    """
    pattern = sparse.csr_matrix(
        (
            np.ones(matrix.nnz, dtype=bool),
            matrix.indices.copy(),
            matrix.indptr.copy(),
        ),
        shape=matrix.shape,
    )
    prev = trace.get(relation)
    if prev is not None:
        pattern = prev.maximum(pattern).tocsr()
    trace[relation] = pattern


def batch_profile_matrices(
    engine: PropagationEngine,
    paths: list[JoinPath],
    origin_rows: list[int],
    trace: dict[str, sparse.csr_matrix] | None = None,
) -> dict[JoinPath, BatchedProfiles]:
    """Stacked (forward, backward) profile matrices for every path.

    Row ``k`` of each matrix equals the profile
    ``engine.propagate(path, origin_rows[k])`` would produce (to
    reassociation tolerance), with columns over the full end relation.
    Prefix work is shared across paths through the step trie, and level
    work is shared across references through the SpMM formulation.

    ``trace``, when given a dict, is filled with the
    per-relation visited patterns of every forward level (including the
    origin level) — the raw material of dirty-reference detection.
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
    if trace is not None:
        _trace_add(trace, start_relation, initial)

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
                _trace_add(trace, child.step.dst_relation, nxt)
            nxt_rev = _backward_step_batch(
                ctx,
                child.step,
                nxt,
                rev,
                start_relation,
                gather_into_origin_level=(depth == 0),
            )
            visit(child, nxt, nxt_rev, depth + 1)

    visit(root, initial, initial.copy(), 0)
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
