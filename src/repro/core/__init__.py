"""The DISTINCT methodology: the paper's primary contribution, end to end.

:class:`repro.core.distinct.Distinct` is the facade: ``fit(db)`` learns the
per-join-path weights from an automatically constructed training set, and
``resolve(name)`` clusters the references carrying ``name`` into one cluster
per real-world entity.
"""

from repro.core.references import (
    NameReferences,
    exclusions_for_name,
    extract_references,
    live_paths,
    reference_counts_by_name,
)
from repro.core.features import PairFeatures, compute_pair_features
from repro.core.distinct import Distinct, NameResolution
from repro.core.variants import VariantSpec, FIG4_VARIANTS

__all__ = [
    "NameReferences",
    "extract_references",
    "exclusions_for_name",
    "live_paths",
    "reference_counts_by_name",
    "PairFeatures",
    "compute_pair_features",
    "Distinct",
    "NameResolution",
    "VariantSpec",
    "FIG4_VARIANTS",
]
