"""Explaining pair similarities: which join paths say "same person"?

For a pair of references, the combined similarity (Eq 1) is a weighted sum
of per-path measures — which makes every merge decision decomposable into
path-level contributions. This is the interpretability story of learning
*per-path* weights instead of a black-box pair classifier: an analyst can
see that two references were merged because they share two frequent
coauthors (contribution 0.041) and a venue (0.003), not because of an
opaque score.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distinct import Distinct
from repro.core.features import compute_pair_features
from repro.errors import NotFittedError
from repro.similarity.combine import geometric_mean


@dataclass
class PathContribution:
    """One join path's share of a pair's combined similarity."""

    path: str  # human-readable description
    resemblance: float
    walk_probability: float
    resem_weight: float
    walk_weight: float

    @property
    def resem_contribution(self) -> float:
        return self.resemblance * self.resem_weight

    @property
    def walk_contribution(self) -> float:
        return self.walk_probability * self.walk_weight

    @property
    def total_contribution(self) -> float:
        return self.resem_contribution + self.walk_contribution


@dataclass
class PairExplanation:
    """The decomposed similarity of one reference pair."""

    name: str
    row_a: int
    row_b: int
    combined_resemblance: float
    combined_walk: float
    composite_similarity: float
    contributions: list[PathContribution]

    def top(self, k: int = 5) -> list[PathContribution]:
        """The k paths contributing most to the combined similarity."""
        return sorted(
            self.contributions, key=lambda c: -c.total_contribution
        )[:k]

    def render(self, k: int = 5) -> str:
        lines = [
            f"{self.name}: refs {self.row_a} vs {self.row_b} — "
            f"composite similarity {self.composite_similarity:.5f} "
            f"(resem {self.combined_resemblance:.5f}, "
            f"walk {self.combined_walk:.5f})",
        ]
        for contribution in self.top(k):
            if contribution.total_contribution <= 0:
                continue
            lines.append(
                f"  {contribution.total_contribution:+.5f}  {contribution.path}"
                f"  (resem {contribution.resemblance:.4f} x w {contribution.resem_weight:.4f}"
                f", walk {contribution.walk_probability:.5f} x w {contribution.walk_weight:.4f})"
            )
        if len(lines) == 1:
            lines.append("  no positive path contributions (dissimilar pair)")
        return "\n".join(lines)


def explain_pair(
    distinct: Distinct, name: str, row_a: int, row_b: int
) -> PairExplanation:
    """Decompose the combined similarity of one pair of references.

    Both rows must carry ``name`` (the same exclusions as resolution apply).
    """
    if distinct.db is None or distinct.paths_ is None:
        raise NotFittedError("fit the pipeline before explaining pairs")
    if distinct.resem_model_ is None or distinct.walk_model_ is None:
        raise NotFittedError("explanations use the supervised models")

    features = compute_pair_features(distinct.profile_builder(name), [(row_a, row_b)])
    resem_values, walk_values = distinct._combined_pair_values(features, True)

    clamp = distinct.config.clamp_negative_weights
    resem_weights = distinct.resem_model_.align_to(features.paths).combiner(clamp)
    walk_weights = distinct.walk_model_.align_to(features.paths).combiner(clamp)
    if distinct.config.normalize_weights:
        resem_weights = resem_weights.normalized()
        walk_weights = walk_weights.normalized()

    contributions = [
        PathContribution(
            path=path.describe(),
            resemblance=float(features.resemblance[0, i]),
            walk_probability=float(features.walk[0, i]),
            resem_weight=float(resem_weights.weights[i]),
            walk_weight=float(walk_weights.weights[i]),
        )
        for i, path in enumerate(features.paths)
    ]
    return PairExplanation(
        name=name,
        row_a=row_a,
        row_b=row_b,
        combined_resemblance=float(resem_values[0]),
        combined_walk=float(walk_values[0]),
        composite_similarity=geometric_mean(
            float(resem_values[0]), float(walk_values[0])
        ),
        contributions=contributions,
    )
