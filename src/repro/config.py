"""Configuration for the DISTINCT pipeline.

One :class:`DistinctConfig` drives the whole methodology: which relation
holds the references, how join paths are enumerated, how the automatic
training set is built, the SVM hyperparameters, and the clustering
threshold. Defaults match the DBLP schema and the paper's setup (1000+1000
training pairs, linear-kernel SVM, agglomerative clustering with min-sim).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.paths.enumerate import PathEnumerationConfig


def default_path_config() -> PathEnumerationConfig:
    """Default path budget: up to 5 hops, which covers the coauthor,
    author's-other-papers, proceedings/conference/year/location/publisher and
    conference-sibling paths (27 enumerated on DBLP, 17 once
    :func:`repro.core.references.live_paths` drops the ten that enter the
    reference's own, excluded author row). Three of the 17 have their
    prefix's features (:func:`repro.core.references.shared_paths`), so 14
    are propagated and scored. The 7-hop budget including
    coauthors-of-coauthors is available via :func:`deep_path_config` and is
    studied in the path ablation bench."""
    return PathEnumerationConfig(
        max_hops=5, max_sibling_expansions=2, max_start_revisits=2
    )


def deep_path_config() -> PathEnumerationConfig:
    """7-hop budget reaching the coauthor-of-coauthor path (47 paths on DBLP,
    28 live, 5 of them sharing their prefix's features)."""
    return PathEnumerationConfig(
        max_hops=7, max_sibling_expansions=3, max_start_revisits=3
    )


@dataclass(frozen=True)
class DistinctConfig:
    """All knobs of the DISTINCT pipeline.

    Schema binding
    --------------
    ``reference_relation`` holds the references (rows to cluster);
    ``object_relation``/``object_key``/``name_attribute`` locate the named
    objects. Defaults bind to the DBLP schema; the music-domain example
    rebinds them.

    Learning (§3)
    -------------
    ``n_positive``/``n_negative`` training pairs from rare names
    (``max_token_count``, ``min_refs``, ``max_refs`` control rarity), linear
    SVM with cost ``svm_C``.

    Clustering (§4)
    ---------------
    ``min_sim`` is the merge-stopping threshold. The default was calibrated
    once on a held-out synthetic world (seed different from the bench seed)
    and is deliberately *not* tuned per name.
    """

    # schema binding
    reference_relation: str = "Publish"
    object_relation: str = "Authors"
    object_key: str = "author_key"
    name_attribute: str = "name"

    # join paths
    path_config: PathEnumerationConfig = field(default_factory=default_path_config)

    # automatic training set
    n_positive: int = 1000
    n_negative: int = 1000
    max_token_count: int = 2
    min_refs: int = 2
    max_refs: int = 30

    # SVM. ``svm_C=None`` selects C per measure by cross-validated accuracy
    # over ``svm_C_grid`` (one-standard-error rule). The two measures live on
    # very different raw scales, so one fixed C underfits one of them: walk
    # features are ~1e-3, and their CV accuracy levels off only near 1e6.
    svm_C: float | None = None
    svm_C_grid: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
    svm_cv_folds: int = 3

    # clustering
    min_sim: float = 0.006

    # determinism
    seed: int = 0

    def with_options(self, **changes) -> "DistinctConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
