"""Agglomerative clustering of references (§4 of the paper).

The engine (:mod:`repro.cluster.agglomerative`) is generic: it repeatedly
merges the most similar pair of clusters until the best similarity drops
below ``min_sim``, driven by any :class:`ClusterMeasure`, over one dense
similarity array per name. DISTINCT's measure (:mod:`repro.cluster.composite`)
is the geometric mean of average-link set resemblance and collective
random-walk probability; classic Single/Complete/Average-link measures
(:mod:`repro.cluster.linkage`) are provided for the §4.1 comparison. Every
measure keeps its cluster–cluster aggregates as dense arrays that a merge
folds row into row (§4.2).
"""

from repro.cluster.agglomerative import (
    AgglomerativeClusterer,
    ClusteringResult,
    ClusterMeasure,
)
from repro.cluster.linkage import (
    AverageLinkMeasure,
    CompleteLinkMeasure,
    SingleLinkMeasure,
)
from repro.cluster.composite import CompositeMeasure
from repro.cluster.dendrogram import Dendrogram, Merge

__all__ = [
    "AgglomerativeClusterer",
    "ClusteringResult",
    "ClusterMeasure",
    "SingleLinkMeasure",
    "CompleteLinkMeasure",
    "AverageLinkMeasure",
    "CompositeMeasure",
    "Dendrogram",
    "Merge",
]
