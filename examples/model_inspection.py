"""Inspecting and persisting the learned per-path weight models.

DISTINCT's learned model is interpretable: one signed weight per join path,
per similarity measure. This example fits the pipeline, prints the full
weight table (which linkage types matter, which are ignored — §3's
observation that "some important join paths have high positive weights,
whereas others have weights close to zero"), saves both models to JSON, and
reloads them into a fresh pipeline without retraining.

Run:  python examples/model_inspection.py
"""

import tempfile
from pathlib import Path

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.world import world_to_database
from repro.eval.reporting import format_table
from repro.ml.model import PathWeightModel


def main() -> None:
    specs = [AmbiguousNameSpec("Wei Wang", (10, 6))]
    world = generate_world(
        GeneratorConfig(
            seed=13,
            n_communities=8,
            regular_entities_per_community=25,
            rare_entities=60,
            background_papers_per_community_year=5,
        ),
        specs,
    )
    db, _ = world_to_database(world)
    # min_sim is recalibrated slightly upward for this deliberately small
    # world: with fewer background papers, incidental venue overlap weighs
    # more than in the full-size Table-1 world the default was tuned on.
    config = DistinctConfig(n_positive=300, n_negative=300, svm_C=10.0, min_sim=0.012)
    distinct = Distinct(config).fit(db)

    rows = []
    for path, w_resem, w_walk in zip(
        distinct.paths_,
        distinct.resem_model_.weights,
        distinct.walk_model_.weights,
    ):
        rows.append([path.describe(), w_resem, w_walk])
    rows.sort(key=lambda r: -abs(r[1]))
    print(
        format_table(
            ["join path", "w(P) resemblance", "w(P) walk"],
            rows,
            title="Learned per-path weights (sorted by |resemblance weight|)",
            float_format="{:+.4f}",
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        resem_path = Path(tmp) / "resem_model.json"
        walk_path = Path(tmp) / "walk_model.json"
        distinct.resem_model_.save(resem_path)
        distinct.walk_model_.save(walk_path)
        print(f"\nmodels saved to {tmp}/")

        # A fresh pipeline can reuse the models without retraining: it
        # re-enumerates the paths from the schema and aligns the weights.
        fresh = Distinct.from_models(
            db,
            PathWeightModel.load(resem_path),
            PathWeightModel.load(walk_path),
            config,
        )
        resolution = fresh.resolve("Wei Wang")
        print(
            f"reloaded pipeline resolves 'Wei Wang' into "
            f"{resolution.n_clusters} clusters (expected 2)"
        )


if __name__ == "__main__":
    main()
