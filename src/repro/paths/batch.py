"""Batched sparse propagation: any set of references at once.

Walking one reference at a time over Python dicts (the paper's reading,
kept as the test suite's scalar oracle) costs references times tuples
visited. But one forward step is a linear map of the mass vector,
identical for every reference; what differs per reference is only which
tuples it may not stop on. Stacking the references' mass vectors as the
rows of a sparse matrix ``M`` turns each step into a single SpMM:

- **forward**: ``M_k = M_{k-1} @ T(step_k)`` where ``T`` is the
  row-normalized CSR transition of :mod:`repro.perf.transitions`;
- **backward**: ``R_k = R_{k-1} @ T(step_k.reverse()).T``, restricted to
  the rows the forward pass reached (the backward DP's per-level domain).

Both matrices of a step are built once over the whole relations,
extended when a relation grows, and shared by every name (the
pipeline's :class:`repro.perf.transitions.StepMatrices`). The products
never see an exclusion.

Levels are arrays, not scipy matrices: each ``M_k`` and ``R_k`` is a
:class:`repro.perf.csr.Csr`, the ``indptr``/``indices``/``data`` of a
canonical CSR matrix (sorted, duplicate-free indices in every row, no
stored zeros). The products are small (on the evaluation world a
forward product averages about 710 left-hand and 1,430 output entries),
so scipy's ``@`` would spend more on wrapping (two checked matrix
objects, index-dtype lookups, then ``tocsr``/``sort_indices``/
``eliminate_zeros``) than on arithmetic. Every product is one call to
:func:`repro.perf.csr.matmul`, which runs scipy's compiled kernels on the
arrays; it is the one user of the private ``scipy.sparse._sparsetools``,
held byte for byte to the public ``@`` by its tests. The masks (the
backward support, the exclusions and the final backward-on-forward
restriction) compact the arrays directly, so every level, output and
trace is canonical by construction and the pair kernel reads them
without checking again.

Each reference carries its own *excluded rows*: its name's object rows
(:attr:`repro.core.references.NameReferences.exclusions`, the union of
the members' for a pooled group in calibration), and, on the start
relation, its origin tuple, which is no intermediate stop. References
with equal exclusions share a group, so a name's exclusions are held
once however many of its references the batch holds. A relation's excluded rows of reference
``r`` are dropped from every partner list, numerator and denominator
alike, by corrections on top of the exclusion-free products. Write ``d``
for a tuple's partner count across a step and ``k`` for how many of
those partners ``r`` excludes:

- *forward, at a level that lands on a relation with exclusions*: the
  generic product routed mass into the excluded rows and counted them
  in the split denominators. For every source row ``i`` with
  ``d_i > k``, the remaining partners each gain
  ``M[r, i] k / (d_i (d_i - k))``, added as one extra SpMM ``U @ T``
  with ``U[r, i] = M[r, i] k / (d_i - k)``; the excluded entries
  ``(r, e)`` are then dropped (rows with ``d_i == k`` lose their mass,
  as in the scalar definition).
- *backward, at a level that lands on a relation with exclusions*: the
  entries ``(r, e)`` are dropped. The backward DP never computes a rev
  value for an excluded tuple, and in a mixed batch the union support
  can hold a row another reference excludes.
- *backward, at a step leaving a relation with exclusions*: the
  excluded rows' rev entries are already zero (dropped at the level
  that landed on them), so dropping them from a partner list only
  rescales: ``R_k[r, t] *= d_t / (d_t - k)``, or ``0`` when
  ``d_t == k``. The origin counts here only past the first level: the
  first backward step gathers *into* the origin.

Where a reference's origin and name exclusions meet on one relation,
the union of the two is dropped. The corrections touch only entries
whose source row has an excluded partner, with no cancellation-prone
subtractions, so batched results match the scalar oracle to
floating-point reassociation tolerance (the property suite asserts
<= 1e-12). They run for all references at once: the excluded rows'
partner lists are gathered from the step matrix's CSR arrays, and one
``searchsorted`` over ``owner * width + column`` keys finds the entries
of a level they touch.

Every operation acts on each reference's row alone, so a reference's
forward, backward and trace rows are the same bytes whatever batch it
propagates in, alone, with its own name or with other names
(property-tested).

The walk shares prefixes across paths through the step trie of
:mod:`repro.paths.trie`. Final per-path backward matrices are masked to
the forward support pattern (backward weights exist only for
forward-reached neighbors).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import Exclusions
from repro.paths.trie import _TrieNode, _build_trie
from repro.perf.csr import Csr, index_dtype, matmul
from repro.perf.transitions import StepMatrices, StepPair
from repro.reldb.database import Database

__all__ = ["BatchedProfiles", "batch_profile_matrices"]

#: Work accounting. ``propagation.tuples_visited`` counts the nonzeros
#: of each forward and backward level, summed over references (one
#: reference's row holds exactly the tuples a one-reference walk
#: materializes at that level). ``spmm`` counts sparse
#: matrix products; ``origin_corrections`` counts the entries the
#: exclusion corrections moved or rescaled.
_BATCH_RUNS = counter("propagation.batch.runs")
_BATCH_SPMM = counter("propagation.batch.spmm")
_TUPLES_VISITED = counter("propagation.tuples_visited")
_BATCH_CORRECTIONS = counter("propagation.batch.origin_corrections")


@dataclass
class BatchedProfiles:
    """Stacked neighbor profiles of one path for a batch of references.

    ``fwd[k, t]`` is ``Prob_P(r_k -> t)`` and ``back[k, t]`` is
    ``Prob_P(t -> r_k)`` for ``rows[k]``'s reference; columns span the
    *full* end relation (row id == column id), and the backward pattern
    is a subset of the forward pattern. Both are canonical CSR arrays;
    :attr:`forward` and :attr:`backward` view them as scipy matrices.
    """

    path: JoinPath
    rows: list[int]
    fwd: Csr
    back: Csr

    @property
    def forward(self) -> sparse.csr_matrix:
        return self.fwd.tocsr()

    @property
    def backward(self) -> sparse.csr_matrix:
        return self.back.tocsr()


def _member(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``values`` occur in the sorted array ``keys``."""
    pos = np.searchsorted(keys, values)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == values[found]
    return found


class _BatchContext:
    """Per-run state: the step store, each reference's origin and exclusions.

    ``group[k]`` numbers reference ``k``'s exclusions (equal mappings
    share a number). ``excluded[relation]`` holds the sorted keys
    ``group * n_rows(relation) + row`` of the in-range excluded rows of
    every group; ids outside the relation are ignored.
    """

    def __init__(
        self,
        db: Database,
        steps: StepMatrices,
        start_relation: str,
        origin_rows: list[int],
        exclusions: Sequence[Exclusions] | None,
    ) -> None:
        self.db = db
        self.steps = steps
        self.start = start_relation
        self.origins = np.asarray(list(origin_rows), dtype=np.int64)
        self.n_refs = len(self.origins)
        if exclusions is not None and len(exclusions) != self.n_refs:
            raise ValueError(
                f"{len(exclusions)} exclusion sets for {self.n_refs} references"
            )
        self.group = np.zeros(self.n_refs, dtype=np.int64)
        groups: dict[frozenset, int] = {}
        for k, excluded in enumerate(exclusions or ()):
            key = frozenset(
                (relation, frozenset(rows)) for relation, rows in excluded.items()
            )
            self.group[k] = groups.setdefault(key, len(groups))
        parts: dict[str, list[np.ndarray]] = {}
        for key, group in groups.items():
            for relation, rows in key:
                n = self.n_rows(relation)
                ids = np.fromiter((i for i in rows if 0 <= i < n), dtype=np.int64)
                if len(ids):
                    parts.setdefault(relation, []).append(group * n + ids)
        self.excluded = {
            relation: np.unique(np.concatenate(keys)) for relation, keys in parts.items()
        }
        # References whose origin is one of their own excluded rows.
        self.origin_excluded = np.zeros(self.n_refs, dtype=bool)
        if start_relation in self.excluded:
            self.origin_excluded = _member(
                self.group * self.n_rows(start_relation) + self.origins,
                self.excluded[start_relation],
            )

    def n_rows(self, relation: str) -> int:
        return len(self.db.table(relation))

    def step(self, step) -> StepPair:
        """The shared, exclusion-free matrices of ``step``."""
        return self.steps.get(self.db, step)


def _entry_rows(matrix: Csr) -> np.ndarray:
    """The row of every stored entry, in storage order."""
    return np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))


def _entry_keys(matrix: Csr) -> np.ndarray:
    """``row * width + column`` of every stored entry; ascending when the
    indices are sorted."""
    return _entry_rows(matrix) * matrix.shape[1] + matrix.indices


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in the sorted array ``keys``."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def _indptr_from_keys(keys: np.ndarray, like: Csr) -> np.ndarray:
    """The ``indptr`` of the sorted ``row * width + column`` keys
    ``keys`` over ``like``'s shape, in its index dtype."""
    indptr = np.zeros(like.shape[0] + 1, dtype=like.indptr.dtype)
    np.cumsum(np.bincount(keys // like.shape[1], minlength=like.shape[0]), out=indptr[1:])
    return indptr


def _restricted(matrix: Csr, keep: np.ndarray) -> Csr:
    """``matrix`` with only the entries where ``keep`` holds."""
    before = np.zeros(len(keep) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(keep, out=before[1:])
    return Csr(before[matrix.indptr], matrix.indices[keep], matrix.data[keep], matrix.shape)


def _added(a: Csr, b: Csr) -> Csr:
    """``a + b`` over one shape: an entry of both sums its two values, as
    scipy's ``+`` does, and a sum of exactly zero is dropped."""
    keys = np.concatenate([_entry_keys(a), _entry_keys(b)])
    values = np.concatenate([a.data, b.data])
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = _run_starts(keys)
    sums = np.add.reduceat(values, starts)
    keys = keys[starts]
    nonzero = sums != 0.0
    keys, sums = keys[nonzero], sums[nonzero]
    return Csr(
        _indptr_from_keys(keys, a),
        (keys % a.shape[1]).astype(a.indices.dtype),
        sums,
        a.shape,
    )


def _partner_keys(
    partners: sparse.csr_matrix, owners: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``owners[k] * width + p`` for every partner ``p`` of ``rows[k]``
    (a column of that row of ``partners``), in input and partner order."""
    lengths = np.diff(partners.indptr)[rows]
    firsts = np.cumsum(lengths) - lengths
    offsets = np.arange(int(lengths.sum())) - np.repeat(firsts, lengths)
    columns = partners.indices[np.repeat(partners.indptr[rows], lengths) + offsets]
    return np.repeat(owners, lengths) * partners.shape[1] + columns


def _excluded_partner_counts(
    ctx: _BatchContext,
    relation: str,
    partners: sparse.csr_matrix,
    rows: np.ndarray,
    columns: np.ndarray,
    origin: bool,
) -> np.ndarray:
    """For every entry ``(rows[k], columns[k])``: how many rows of
    ``relation`` that reference ``rows[k]`` excludes are partners of
    tuple ``columns[k]``.

    ``partners`` lists each row of ``relation``'s partners (the step from
    ``relation`` to the entries' relation), so the counts come from the
    excluded rows' own partner lists. With ``origin``, each reference's
    origin counts too, unless it is already one of its excluded rows.
    """
    width = partners.shape[1]
    counts = np.zeros(len(rows))
    keys = ctx.excluded.get(relation)
    if keys is not None:
        n = ctx.n_rows(relation)
        touched = np.sort(_partner_keys(partners, keys // n, keys % n))
        starts = _run_starts(touched)
        multiplicity = np.diff(np.append(starts, len(touched)))
        touched = touched[starts]
        wanted = ctx.group[rows] * width + columns
        hit = _member(wanted, touched)
        counts[hit] += multiplicity[np.searchsorted(touched, wanted[hit])]
    if origin:
        live = np.flatnonzero(~ctx.origin_excluded)
        # Owners ascend and partner lists are sorted: the keys ascend.
        touched = _partner_keys(partners, live, ctx.origins[live])
        counts += _member(rows * width + columns, touched)
    return counts


def _without_excluded(ctx: _BatchContext, level: Csr, relation: str, origin: bool) -> Csr:
    """``level`` (over ``relation``) without any entry ``(r, e)`` of a row
    ``e`` reference ``r`` excludes; with ``origin``, without ``(r, o_r)``."""
    rows = _entry_rows(level)
    if origin:
        drop = level.indices == ctx.origins[rows]
    else:
        drop = np.zeros(level.nnz, dtype=bool)
    keys = ctx.excluded.get(relation)
    if keys is not None:
        drop |= _member(ctx.group[rows] * level.shape[1] + level.indices, keys)
    if not drop.any():
        return level
    return _restricted(level, ~drop)


def _forward_step_batch(ctx: _BatchContext, step, current: Csr) -> Csr:
    """One forward step for every reference: one SpMM plus the exclusion
    correction when the step lands on a relation with exclusions."""
    transition = ctx.step(step).forward
    nxt = matmul(current, transition)
    _BATCH_SPMM.inc()
    origin = step.dst_relation == ctx.start
    if origin or step.dst_relation in ctx.excluded:
        nxt = _forward_exclusion_fix(ctx, step, current, nxt, transition, origin)
    _TUPLES_VISITED.inc(nxt.nnz)
    return nxt


def _forward_exclusion_fix(
    ctx: _BatchContext,
    step,
    current: Csr,
    nxt: Csr,
    transition: sparse.csr_matrix,
    origin: bool,
) -> Csr:
    """Redistribute the mass the generic product routed into excluded rows.

    See the module docstring for the algebra. A source row with one
    partner either keeps it or loses its mass, so only rows with two or
    more partners can need ``U``.
    """
    degree = np.diff(transition.indptr)[current.indices].astype(np.float64)
    multi = np.flatnonzero(degree >= 2.0)
    if len(multi):
        rows = _entry_rows(current)[multi]
        columns = current.indices[multi]
        k = _excluded_partner_counts(
            ctx,
            step.dst_relation,
            ctx.step(step.reverse()).forward,
            rows,
            columns,
            origin,
        )
        split = (k > 0.0) & (k < degree[multi])
        if split.any():
            pick = multi[split]
            k = k[split]
            values = current.data[pick] * k / (degree[pick] - k)
            indptr = np.zeros(current.shape[0] + 1, dtype=current.indptr.dtype)
            np.cumsum(np.bincount(rows[split], minlength=current.shape[0]), out=indptr[1:])
            update = Csr(indptr, columns[split], values, current.shape)
            nxt = _added(nxt, matmul(update, transition))
            _BATCH_SPMM.inc()
            _BATCH_CORRECTIONS.inc(len(values))
    return _without_excluded(ctx, nxt, step.dst_relation, origin)


def _backward_step_batch(
    ctx: _BatchContext,
    step,
    level: Csr,
    prev_rev: Csr,
    gather_into_origin_level: bool,
) -> Csr:
    """One backward-DP step for every reference.

    The product covers every destination row adjacent to the previous
    level; it is restricted to this level's union forward support, the
    DP's domain (rev values exist only for forward-reached tuples).
    """
    rev = matmul(prev_rev, ctx.step(step).backward)
    _BATCH_SPMM.inc()
    support = np.zeros(rev.shape[1], dtype=bool)
    support[level.indices] = True
    supported = support[rev.indices]
    if not supported.all():
        rev = _restricted(rev, supported)
    origin = not gather_into_origin_level and step.src_relation == ctx.start
    if origin or step.src_relation in ctx.excluded:
        rev = _backward_exclusion_fix(ctx, step, rev, origin)
    lands_on_start = step.dst_relation == ctx.start
    if lands_on_start or step.dst_relation in ctx.excluded:
        rev = _without_excluded(ctx, rev, step.dst_relation, lands_on_start)
    _TUPLES_VISITED.inc(rev.nnz)
    return rev


def _backward_exclusion_fix(ctx: _BatchContext, step, rev: Csr, origin: bool) -> Csr:
    """Fix the gather denominators where an excluded row was a reverse
    partner: ``rev[r, t] *= d_t / (d_t - k)``, or drop the entry when
    ``d_t == k``.

    The excluded rows' *numerator* contributions are already zero (their
    rev entries were dropped at the previous level). A row with one
    reverse partner needs nothing: either it keeps the partner, or its
    sole partner is excluded and its value is already zero. ``rev`` is
    this step's own level, so its values are rescaled in place.
    """
    degree = np.diff(ctx.step(step.reverse()).forward.indptr)[rev.indices]
    multi = np.flatnonzero(degree >= 2)
    if not len(multi):
        return rev
    k = _excluded_partner_counts(
        ctx,
        step.src_relation,
        ctx.step(step).forward,
        _entry_rows(rev)[multi],
        rev.indices[multi],
        origin,
    )
    hit = k > 0.0
    if not hit.any():
        return rev
    pos, k = multi[hit], k[hit]
    degree = degree[pos].astype(np.float64)
    lost = degree == k
    dropped = pos[lost]
    pos, degree, k = pos[~lost], degree[~lost], k[~lost]
    scale = degree / (degree - k)
    values = rev.data[pos]
    rev.data[pos] = values + values * (scale - 1.0)
    _BATCH_CORRECTIONS.inc(len(pos))
    if len(dropped):
        keep = np.ones(rev.nnz, dtype=bool)
        keep[dropped] = False
        rev = _restricted(rev, keep)
    return rev


def _finalize(path: JoinPath, origin_rows: list[int], forward: Csr, rev: Csr) -> BatchedProfiles:
    """Per-path output: backward masked to the forward support pattern.

    The backward pattern usually equals the forward one already, and is
    then kept as it is.
    """
    if np.array_equal(rev.indptr, forward.indptr) and np.array_equal(
        rev.indices, forward.indices
    ):
        backward = rev
    else:
        backward = _restricted(rev, _member(_entry_keys(rev), _entry_keys(forward)))
    return BatchedProfiles(path=path, rows=list(origin_rows), fwd=forward, back=backward)


def _visited_pattern(levels: list[Csr]) -> Csr:
    """The union of ``levels``' nonzero patterns, as boolean CSR.

    Patterns are ``(n_refs, n_relation_rows)``; a set bit means the
    reference's walk put nonzero mass on that tuple at some forward
    level. Delta ingest intersects these with the rows a delta touched to
    find exactly the references whose profiles can change.
    """
    first = levels[0]
    keys = np.sort(np.concatenate([_entry_keys(level) for level in levels]))
    # A sorted scan, not ``np.unique``, which hashes and is far slower here.
    keys = keys[_run_starts(keys)]
    return Csr(
        _indptr_from_keys(keys, first),
        (keys % first.shape[1]).astype(first.indices.dtype),
        np.ones(len(keys), dtype=bool),
        first.shape,
    )


def batch_profile_matrices(
    db: Database,
    steps: StepMatrices,
    paths: list[JoinPath],
    origin_rows: list[int],
    exclusions: Sequence[Exclusions] | None = None,
    trace: dict[str, Csr] | None = None,
) -> dict[JoinPath, BatchedProfiles]:
    """Stacked (forward, backward) profile matrices for every path.

    ``steps`` holds the exclusion-free step matrices of ``db``, built on
    first use. Row ``k`` of each matrix is reference ``origin_rows[k]``'s
    profile along the path, propagated alone under ``exclusions[k]``
    (relation -> row ids treated as absent; no exclusions when
    ``exclusions`` is None) as §2.2 defines it, to reassociation
    tolerance, with columns over the full end relation. References of any number of names mix
    in one batch. Prefix work is shared across paths through the step
    trie, and level work is shared across references through the SpMM
    formulation.

    ``trace``, when given a dict, is filled with the
    per-relation visited patterns of every forward level (including the
    origin level) — the raw material of dirty-reference detection.

    Without rows or paths there is nothing to walk: the result is empty
    and no batch runs.
    """
    if not paths or len(origin_rows) == 0:
        return {}
    starts = {p.start_relation for p in paths}
    if len(starts) > 1:
        # lint: allow[determinism/unkeyed-sort] relation names are plain str
        raise ValueError(f"paths start at different relations: {sorted(starts)}")
    _BATCH_RUNS.inc()
    start_relation = paths[0].start_relation
    ctx = _BatchContext(db, steps, start_relation, origin_rows, exclusions)
    shape = (ctx.n_refs, ctx.n_rows(start_relation))
    if ctx.origins.min() < 0 or ctx.origins.max() >= shape[1]:
        raise ValueError(f"origin rows outside {start_relation!r} ({shape[1]} rows)")
    idx = index_dtype(max(shape))
    initial = Csr(
        np.arange(ctx.n_refs + 1, dtype=idx),
        ctx.origins.astype(idx),
        np.ones(ctx.n_refs, dtype=np.float64),
        shape,
    )
    visited: dict[str, list[Csr]] = {start_relation: [initial]}
    # The first backward step gathers from the origins, less those a
    # reference excludes itself.
    initial_rev = _restricted(initial, ~ctx.origin_excluded)

    results: dict[JoinPath, BatchedProfiles] = {}
    root = _build_trie(paths)

    def visit(node: _TrieNode, forward: Csr, rev: Csr, depth: int) -> None:
        for path in node.paths:
            results[path] = _finalize(path, origin_rows, forward, rev)
        for child in node.children.values():
            nxt = _forward_step_batch(ctx, child.step, forward)
            if trace is not None:
                visited.setdefault(child.step.dst_relation, []).append(nxt)
            nxt_rev = _backward_step_batch(
                ctx, child.step, nxt, rev, gather_into_origin_level=(depth == 0)
            )
            visit(child, nxt, nxt_rev, depth + 1)

    try:
        visit(root, initial, initial_rev, 0)
    finally:
        # ``visit`` refers to itself through its closure cell. Clearing
        # the cell breaks that cycle, so the batch's matrices are freed
        # now rather than whenever the cyclic collector next runs.
        del visit
    if trace is not None:
        for relation, levels in visited.items():
            trace[relation] = _visited_pattern(levels)
    return results
