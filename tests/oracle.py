"""The scalar reference for pair features.

One :func:`~repro.similarity.resemblance.set_resemblance` and one
:func:`~repro.similarity.randomwalk.walk_probability` call per (pair,
path), over profiles propagated one reference at a time
(:meth:`~repro.paths.profiles.ProfileBuilder.profiles_for`). This is the
paper's definition read literally; the production route
(:func:`repro.core.features.compute_pair_features`) must match it to
floating-point reassociation tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import PairFeatures
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
