"""Merge-tree bookkeeping for agglomerative clustering."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Merge:
    """One merge event: clusters ``left`` and ``right`` became ``merged``."""

    left: int
    right: int
    merged: int
    similarity: float


@dataclass
class Dendrogram:
    """The full merge history over ``n_leaves`` initial singleton clusters.

    Leaves are clusters ``0..n_leaves-1``; merge ``k`` creates cluster
    ``n_leaves + k``. :meth:`cut` replays a prefix of the history: the
    clustering the merge loop would have stopped at for one threshold.

    Merges are recorded in the order the loop made them, which is not
    always by decreasing similarity: under the collective walk (alone or
    in the composite), a merge can raise its cluster's similarity to a
    third cluster above the merge's own (a reversal).
    """

    n_leaves: int
    merges: list[Merge] = field(default_factory=list)

    def record(self, left: int, right: int, similarity: float) -> int:
        merged = self.n_leaves + len(self.merges)
        self.merges.append(Merge(left, right, merged, similarity))
        return merged

    def cut(self, min_similarity: float) -> list[set[int]]:
        """Flat clusters (sets of leaf indices) of the merges before the
        first one whose similarity is below ``min_similarity``.

        For a history the merge loop recorded at ``min_sim = 0``, this is
        the clustering :class:`~repro.cluster.AgglomerativeClusterer`
        makes at ``min_sim = s = min_similarity``, merge for merge:

        - *The s-run makes the 0-run's merges up to the first below s.*
          While the 0-run's best pair is at least ``s``, both runs hold
          the same clusters, and every pair at least ``s`` has the same
          value in both (the same folds made it) and ties with the same
          pairs. The pairs below ``s`` are ``-inf`` only in the s-run,
          and they are never the best. So both runs pick the same pair,
          and the s-run stops where the 0-run's best first falls below
          ``s``.
        - *No later merge could be kept either.* A replay that skips
          each merge below ``s``, and each merge whose child was never
          formed, keeps nothing after that first merge ``m_j``: let
          ``m_k`` be the first kept merge after it. Both of its children
          were then formed by merges before ``m_j`` or are leaves, and
          were not merged again before ``m_k``, so both stood as clusters
          at step ``j``. A pair's similarity depends only on its two
          clusters, for every measure here, so it did not change from
          step ``j`` to step ``k``, and the loop's pick at step ``j``
          gives ``sim(m_k) <= sim(m_j) < s``: ``m_k`` would not have been
          kept.
        """
        members: dict[int, set[int]] = {i: {i} for i in range(self.n_leaves)}
        for merge in self.merges:
            if merge.similarity < min_similarity:
                break
            members[merge.merged] = members.pop(merge.left) | members.pop(merge.right)
        return sorted(members.values(), key=lambda s: (-len(s), min(s)))

    @property
    def n_merges(self) -> int:
        return len(self.merges)
