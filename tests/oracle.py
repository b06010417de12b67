"""The scalar reference for pair features and step matrices.

One :func:`~repro.similarity.resemblance.set_resemblance` and one
:func:`~repro.similarity.randomwalk.walk_probability` call per (pair,
path), over profiles propagated one reference at a time
(:meth:`~repro.paths.profiles.ProfileBuilder.profiles_for`). This is the
paper's definition read literally; the production route
(:func:`repro.core.features.compute_pair_features`) must match it to
floating-point reassociation tolerance.

:func:`assert_rows_are_partner_splits` holds a step matrix to the scalar
engine's partner lists (:meth:`PropagationEngine._partners`) row by row.

:func:`optimality` measures how far a fitted
:class:`~repro.ml.svm.LinearSVM` is from the squared-hinge optimum.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import PairFeatures
from repro.ml.svm import GRADIENT_TOL
from repro.similarity.randomwalk import walk_probability
from repro.similarity.resemblance import set_resemblance


def scalar_pair_features(builder, pairs: list[tuple[int, int]]) -> PairFeatures:
    """Pair features from the scalar propagation and per-pair kernels."""
    paths = builder.paths
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    for k, (row_a, row_b) in enumerate(pairs):
        profiles_a = builder.profiles_for(row_a)
        profiles_b = builder.profiles_for(row_b)
        for p, path in enumerate(paths):
            resem[k, p] = set_resemblance(profiles_a[path], profiles_b[path])
            walk[k, p] = walk_probability(profiles_a[path], profiles_b[path])
    return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)


def assert_rows_are_partner_splits(matrix, engine, step) -> None:
    """Row ``i`` of ``matrix`` is ``1/|P(i)|`` on exactly ``_partners``."""
    src_table = engine.db.table(step.src_relation)
    src_pos = src_table.schema.position(step.src_attribute)
    dst_index = engine.db.index(step.dst_relation, step.dst_attribute)
    excluded = engine.exclusions.get(step.dst_relation, frozenset())
    assert matrix.shape == (len(src_table), len(engine.db.table(step.dst_relation)))
    for row in range(matrix.shape[0]):
        partners = list(
            engine._partners(step, src_table, src_pos, dst_index, excluded, row)
        )
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        assert matrix.indices[lo:hi].tolist() == partners
        if partners:
            assert (matrix.data[lo:hi] == 1.0 / len(partners)).all()


def optimality(svm, X, y):
    """(gradient norm, solver tolerance, KKT duality gap) at the fitted model.

    The dual point is the one the primal optimum implies for the squared
    hinge, ``alpha_i = 2 C_i max(0, 1 - y_i f_i)``; its gap to the primal
    objective is zero exactly at the optimum.
    """
    Xa = np.hstack([X, np.ones((len(y), 1))])
    w = np.append(svm.weights_, svm.bias_)
    costs = svm._per_example_cost(y)
    alpha = 2.0 * costs * np.maximum(1.0 - y * (Xa @ w), 0.0)
    v = (alpha * y) @ Xa
    grad = w - v
    g0 = -2.0 * (costs * y) @ Xa
    dual = np.sum(alpha) - 0.5 * v @ v - np.sum(alpha**2 / (4.0 * costs))
    tol = GRADIENT_TOL * max(1.0, float(np.linalg.norm(g0)))
    return float(np.linalg.norm(grad)), tol, svm.primal_objective(X, y) - dual
