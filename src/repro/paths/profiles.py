"""Neighbor profiles: the per-(reference, path) output of propagation.

A reference's profile along a path is the weighted neighbor-tuple set
``NB_P(r)`` of §2.1/Definition 1 together with its connection strengths
(§2.2): for each neighbor row id ``t``, ``(Prob_P(r->t), Prob_P(t->r))``.
The pipeline holds them stacked, one sparse row per reference
(:class:`repro.paths.batch.BatchedProfiles`), and the pair kernel in
:mod:`repro.similarity.vectorized` consumes them in that form.

:meth:`ProfileBuilder.matrices_for` is the pipeline's one way into
propagation (:attr:`repro.core.distinct.Distinct.profiles`): fit,
resolution, calibration, ingest, greedy assignment and explanations all
propagate through it, each reference under the exclusions its caller
hands it (:attr:`repro.core.references.NameReferences.exclusions`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.paths.batch import BatchedProfiles, batch_profile_matrices
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import Exclusions
from repro.perf.csr import Csr
from repro.perf.transitions import StepMatrices
from repro.reldb.database import Database


class ProfileBuilder:
    """Computes neighbor profiles for many references over many paths.

    All references of a batch propagate at once, as stacked sparse
    matrices over ``steps``, the exclusion-free step matrices of ``db``
    (a fresh store unless given one; a pipeline hands every builder its
    own shared store, so each step is built once whatever the names).
    """

    def __init__(
        self,
        db: Database,
        paths: list[JoinPath],
        steps: StepMatrices | None = None,
    ) -> None:
        self.db = db
        self.paths = list(paths)
        self.steps = StepMatrices() if steps is None else steps

    def matrices_for(
        self,
        origin_rows: list[int],
        exclusions: Sequence[Exclusions],
        trace: dict[str, Csr] | None = None,
    ) -> dict[JoinPath, BatchedProfiles]:
        """Batched profile matrices for the given references, per path.

        One sparse matrix pair per path covering *all* the references at
        once (:func:`repro.paths.batch.batch_profile_matrices`), reference
        ``origin_rows[k]`` propagating under ``exclusions[k]``; ``trace``
        collects the visited patterns. No rows, no batch.
        """
        return batch_profile_matrices(
            self.db, self.steps, self.paths, origin_rows, exclusions, trace
        )
