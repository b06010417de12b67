"""Neighbor profiles: the per-(reference, path) output of propagation.

A reference's profile along a path is the weighted neighbor-tuple set
``NB_P(r)`` of §2.1/Definition 1 together with its connection strengths
(§2.2): for each neighbor row id ``t``, ``(Prob_P(r->t), Prob_P(t->r))``.
The pipeline holds them stacked, one sparse row per reference
(:class:`repro.paths.batch.BatchedProfiles`), and the pair kernel in
:mod:`repro.similarity.vectorized` consumes them in that form.

:class:`ProfileBuilder` computes them for a set of references over a set
of paths, each reference under its own exclusions.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.paths.joinpath import JoinPath
from repro.paths.propagation import Exclusions, PropagationEngine
from repro.reldb.database import Database


class ProfileBuilder:
    """Computes neighbor profiles for many references over many paths.

    All references of a batch propagate at once, as stacked sparse
    matrices. ``exclusions`` are the builder's default: a name's object
    rows for :meth:`repro.core.distinct.Distinct.profile_builder`, which
    every reference takes unless :meth:`matrices_for` is given one
    mapping per reference, as a batch that spans names is.
    """

    def __init__(
        self,
        db: Database,
        paths: list[JoinPath],
        exclusions: Exclusions | None = None,
    ) -> None:
        self.db = db
        self.paths = list(paths)
        self.exclusions = {k: frozenset(v) for k, v in (exclusions or {}).items()}
        self.engine = PropagationEngine(db)

    def matrices_for(
        self,
        origin_rows: list[int],
        exclusions: Sequence[Exclusions] | None = None,
    ):
        """Batched profile matrices for the given references, per path.

        The batched backend (:mod:`repro.paths.batch`): one sparse
        matrix pair per path covering *all* the references at once,
        computed as a handful of SpMM products over the engine's step
        matrices. ``exclusions[k]`` is reference ``origin_rows[k]``'s;
        without it every reference takes the builder's.
        """
        from repro.paths.batch import batch_profile_matrices

        if exclusions is None:
            exclusions = [self.exclusions] * len(origin_rows)
        return batch_profile_matrices(self.engine, self.paths, origin_rows, exclusions)
