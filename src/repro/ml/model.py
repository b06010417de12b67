"""PathWeightModel: the learned per-join-path weighting of Eq 1.

One model is trained per similarity measure (set resemblance, random walk).
It stores the raw-space linear weights keyed by join-path signature, so it
can be serialized, inspected ("which linkage types matter?"), and re-applied
to any path list that carries the same signatures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.paths.joinpath import JoinPath


@dataclass
class PathWeightModel:
    """Signed raw-space weights per path signature, plus a bias.

    ``measure`` labels which similarity the model scores ("resemblance" or
    "walk"). :meth:`repro.core.distinct.Distinct.combiners` turns the
    weights into the non-negative Eq-1 similarity combiner;
    :meth:`decision_value` applies the full signed model (weights and
    bias) as a classifier score.
    """

    measure: str
    signatures: list[str]
    weights: list[float]
    bias: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.signatures) != len(self.weights):
            raise ValueError("one weight per path signature required")

    # -- use ------------------------------------------------------------------

    def decision_value(self, features) -> float:
        features = np.asarray(features, dtype=float)
        return float(features @ np.asarray(self.weights) + self.bias)

    def align_to(self, paths: list[JoinPath]) -> "PathWeightModel":
        """Reorder/subset the model to match ``paths`` (by signature).

        Paths unknown to the model get weight 0 — they simply do not
        contribute to the combined similarity.
        """
        known = dict(zip(self.signatures, self.weights))
        signatures = [p.signature() for p in paths]
        weights = [known.get(sig, 0.0) for sig in signatures]
        return PathWeightModel(
            measure=self.measure,
            signatures=signatures,
            weights=weights,
            bias=self.bias,
            metadata=dict(self.metadata),
        )

    def top_paths(self, k: int = 5) -> list[tuple[str, float]]:
        """The k most positively weighted path signatures (inspection)."""
        order = sorted(
            zip(self.signatures, self.weights), key=lambda sw: sw[1], reverse=True
        )
        return order[:k]

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "signatures": list(self.signatures),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PathWeightModel":
        return cls(
            measure=payload["measure"],
            signatures=list(payload["signatures"]),
            weights=[float(w) for w in payload["weights"]],
            bias=float(payload.get("bias", 0.0)),
            metadata=dict(payload.get("metadata", {})),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "PathWeightModel":
        return cls.from_dict(json.loads(Path(path).read_text()))
