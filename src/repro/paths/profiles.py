"""Neighbor profiles: the per-(reference, path) output of propagation.

A :class:`NeighborProfile` is the weighted neighbor-tuple set ``NB_P(r)`` of
§2.1/Definition 1 together with its connection strengths (§2.2): for each
neighbor row id ``t`` it stores ``(Prob_P(r->t), Prob_P(t->r))``. The
similarity measures in :mod:`repro.similarity` consume pairs of profiles.

:class:`ProfileBuilder` computes and caches profiles for a set of references
over a set of paths, sharing one :class:`PropagationEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import Exclusions, PropagationEngine, PropagationResult
from repro.reldb.database import Database

_CACHE_HITS = counter("profiles.cache_hits")
_CACHE_MISSES = counter("profiles.cache_misses")


@dataclass
class NeighborProfile:
    """Weighted neighborhood of one reference along one path.

    ``weights[t] = (forward, backward)`` for every neighbor row id ``t`` in
    the path's end relation.
    """

    path: JoinPath
    origin_row: int
    weights: dict[int, tuple[float, float]]

    @classmethod
    def from_result(cls, result: PropagationResult) -> "NeighborProfile":
        weights = {
            t: (fwd, result.backward.get(t, 0.0))
            for t, fwd in result.forward.items()
        }
        return cls(path=result.path, origin_row=result.origin_row, weights=weights)

    @property
    def support(self) -> set[int]:
        """Row ids of the neighbor tuples (``NB_P(r)``)."""
        return set(self.weights)

    def forward(self, row_id: int) -> float:
        return self.weights.get(row_id, _ZERO_PAIR)[0]

    def backward(self, row_id: int) -> float:
        return self.weights.get(row_id, _ZERO_PAIR)[1]

    def forward_mass(self) -> float:
        return sum(fwd for fwd, _ in self.weights.values())

    def __len__(self) -> int:
        return len(self.weights)

    def is_empty(self) -> bool:
        return not self.weights


_ZERO_PAIR = (0.0, 0.0)


class ProfileBuilder:
    """Computes neighbor profiles for many references over many paths.

    :meth:`matrices_for` is what the pipeline runs: all references of a
    batch at once, as stacked sparse matrices. :meth:`profiles_for` walks
    one reference at a time and caches the profiles by
    ``(path, origin_row)``; it is the reference the tests compare the
    batched matrices against. Both belong to one name's exclusions, so
    building one `ProfileBuilder` per ambiguous name is the intended usage.
    """

    def __init__(
        self,
        db: Database,
        paths: list[JoinPath],
        exclusions: Exclusions | None = None,
        exclude_origin: bool = True,
    ) -> None:
        self.db = db
        self.paths = list(paths)
        self.engine = PropagationEngine(db, exclusions, exclude_origin=exclude_origin)
        self._cache: dict[tuple[JoinPath, int], NeighborProfile] = {}

    def profile(self, path: JoinPath, origin_row: int) -> NeighborProfile:
        key = (path, origin_row)
        cached = self._cache.get(key)
        if cached is None:
            _CACHE_MISSES.inc()
            cached = NeighborProfile.from_result(self.engine.propagate(path, origin_row))
            self._cache[key] = cached
        else:
            _CACHE_HITS.inc()
        return cached

    def profiles_for(self, origin_row: int) -> dict[JoinPath, NeighborProfile]:
        """Profiles of one reference along every configured path.

        Misses are computed for all paths at once via the prefix-sharing
        trie walk (:mod:`repro.paths.trie`), which is substantially cheaper
        than per-path propagation on prefix-heavy path sets.
        """
        missing = [p for p in self.paths if (p, origin_row) not in self._cache]
        if missing:
            from repro.paths.trie import propagate_trie

            _CACHE_MISSES.inc(len(missing))
            for path, result in propagate_trie(
                self.engine, missing, origin_row
            ).items():
                self._cache[(path, origin_row)] = NeighborProfile.from_result(result)
        _CACHE_HITS.inc(len(self.paths) - len(missing))
        return {path: self._cache[(path, origin_row)] for path in self.paths}

    def warm(self, origin_rows: list[int]) -> None:
        """Precompute all profiles for the given references."""
        for row in origin_rows:
            self.profiles_for(row)

    def matrices_for(self, origin_rows: list[int]):
        """Batched profile matrices for the given references, per path.

        The batched backend (:mod:`repro.paths.batch`): one sparse
        matrix pair per path covering *all* the references at once,
        value-equivalent to stacking :meth:`profiles_for` outputs but
        computed as a handful of SpMM products over the engine's step
        matrices instead of per-reference dict walks. Bypasses the
        per-reference profile cache (the batch is the unit of work).
        """
        from repro.paths.batch import batch_profile_matrices

        return batch_profile_matrices(self.engine, self.paths, origin_rows)

    @property
    def cache_size(self) -> int:
        return len(self._cache)
