"""Live join paths: the ones the exclusion rule leaves carrying mass.

Every profile builder excludes the object rows of the references it
profiles, so a path whose first hop enters the reference's own
``Authors`` row is empty by construction. :func:`live_paths` drops those
paths at enumeration. These tests pin, on the tier-1 CLI world
(``repro generate --scale 0.3 --seed 5``, 150 + 150 training pairs at
C = 10), that the dropped columns were exactly zero, that old models
with every enumerated signature still resolve identically, and that the
six Fig-4 results did not move.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Distinct, DistinctConfig, deep_path_config
from repro.cli import main
from repro.core.references import live_paths
from repro.core.variants import FIG4_VARIANTS
from repro.data.dblp_schema import prepare_dblp_database
from repro.data.world import load_ground_truth
from repro.eval.experiment import run_experiment
from repro.ml.model import PathWeightModel
from repro.paths.enumerate import enumerate_paths
from repro.reldb.csvio import load_database

#: (best min_sim, average pairwise F1) per Fig-4 variant on the CLI world,
#: recorded when every enumerated path was still resolved.
CLI_WORLD_FIG4 = {
    "distinct": (0.006, 0.6965809463031758),
    "unsup_combined": (0.01, 0.7620832812589766),
    "sup_resem": (0.1, 0.8604437147933671),
    "sup_walk": (0.003, 0.8503346092913882),
    "unsup_resem": (0.1, 0.49150446877280596),
    "unsup_walk": (0.003, 0.3585197798621791),
}

OWN_AUTHOR_HOP = "Publish[author_key=author_key]Authors"


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-world")
    assert main(["generate", "--out", str(out), "--scale", "0.3", "--seed", "5"]) == 0
    db = prepare_dblp_database(load_database(out))
    names = json.loads((out / "ambiguous_names.json").read_text())
    truth = load_ground_truth(out / "truth.json")
    config = DistinctConfig(n_positive=150, n_negative=150, svm_C=10.0)
    return db, names, truth, Distinct(config).fit(db)


def _unfiltered(distinct: Distinct) -> Distinct:
    """The same pipeline resolving every enumerated path."""
    full = Distinct(distinct.config)
    full.db = distinct.db
    full.paths_ = enumerate_paths(
        full.db.schema, full.config.reference_relation, full.config.path_config
    )
    return full


def test_filter_drops_exactly_the_own_author_paths(cli_world):
    db, _, _, fitted = cli_world
    for path_config, n_enumerated, n_live in (
        (fitted.config.path_config, 27, 17),
        (deep_path_config(), 47, 28),
    ):
        enumerated = enumerate_paths(db.schema, "Publish", path_config)
        live = live_paths(enumerated, fitted.config)
        assert (len(enumerated), len(live)) == (n_enumerated, n_live)
        dropped = [p for p in enumerated if p not in live]
        assert all(p.signature().startswith(OWN_AUTHOR_HOP) for p in dropped)
        assert not any(p.signature().startswith(OWN_AUTHOR_HOP) for p in live)
    assert fitted.paths_ == live_paths(
        enumerate_paths(db.schema, "Publish", fitted.config.path_config), fitted.config
    )
    assert fitted.n_enumerated_paths_ == 27


def test_dropped_columns_are_zero_for_every_pair(cli_world):
    _, names, _, fitted = cli_world
    full = _unfiltered(fitted)
    dead = [i for i, p in enumerate(full.paths_) if p not in fitted.paths_]
    alive = [i for i, p in enumerate(full.paths_) if p in fitted.paths_]
    assert len(dead) == 10

    feature_sets = [full._training_features(fitted.training_set_)]
    feature_sets += [full.prepare(name).features for name in names]
    for features in feature_sets:
        assert features.n_pairs > 0
        assert not features.resemblance[:, dead].any()
        assert not features.walk[:, dead].any()

    # The live columns are the filtered pipeline's values, bit for bit.
    for name, features in zip(names, feature_sets[1:]):
        live = fitted.prepare(name).features
        np.testing.assert_array_equal(features.resemblance[:, alive], live.resemblance)
        np.testing.assert_array_equal(features.walk[:, alive], live.walk)


def test_model_with_every_enumerated_signature_resolves_identically(cli_world, tmp_path):
    db, names, _, fitted = cli_world
    enumerated = _unfiltered(fitted).paths_
    paths = {}
    for model in (fitted.resem_model_, fitted.walk_model_):
        # A model trained on every enumerated path: weight 0 on the dead
        # ones, which carry only zero features.
        old = model.align_to(enumerated)
        assert len(old.signatures) == 27
        paths[model.measure] = tmp_path / f"{model.measure}.json"
        old.save(paths[model.measure])

    loaded = Distinct.from_models(
        db,
        PathWeightModel.load(paths["resemblance"]),
        PathWeightModel.load(paths["walk"]),
        fitted.config,
    )
    assert loaded.paths_ == fitted.paths_
    assert len(loaded.resem_model_.signatures) == 17
    for name in names:
        assert loaded.resolve(name).clusters == fitted.resolve(name).clusters


def test_fig4_results_on_the_cli_world_are_pinned(cli_world):
    _, names, truth, fitted = cli_world
    results = run_experiment(fitted, truth, names, list(FIG4_VARIANTS))
    observed = {key: (r.min_sim, r.avg_f1) for key, r in results.items()}
    assert observed.keys() == CLI_WORLD_FIG4.keys()
    for key, (min_sim, f1) in CLI_WORLD_FIG4.items():
        assert observed[key][0] == min_sim, key
        assert observed[key][1] == pytest.approx(f1, abs=1e-12), key
