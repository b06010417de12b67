"""The paper's clusterings, pinned.

Each name's clustering is reduced to a canonical hash of its sorted
clusters (sorted row ids within a cluster, clusters sorted). The hashes
were recorded once and must never be re-pinned to absorb a change: a
moved hash means a refactor changed which references DISTINCT merges,
and that is a bug to investigate.

- the tier-1 CLI world (``repro generate --scale 0.3 --seed 5``, fitted
  with 150 + 150 training pairs at C = 10), every ambiguous name;
- under the ``slow`` marker, the ten Table-2 names of the Table-1 world
  at generator seed 7, fitted with 100 + 100 pairs and the default
  cross-validated C grid.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.cli import main
from repro.data.dblp_schema import prepare_dblp_database
from repro.data.world import world_to_database
from repro.reldb.csvio import load_database

CLI_WORLD_HASHES = {
    "Hui Fang": "31aac85a524a4284",
    "Ajay Gupta": "822ee399d0d3adea",
    "Joseph Hellerstein": "c39e98fce038c13c",
    "Rakesh Kumar": "c3859d990dc1ed6b",
    "Michael Wagner": "3e7eaba779884db8",
    "Bing Liu": "27bdf977bcde4c76",
    "Jim Smith": "a30f6cade3eb1f61",
    "Lei Wang": "c6160d55d171c963",
    "Wei Wang": "8828fb2979dc5817",
    "Bin Yu": "dec410e5b16eed58",
}

TABLE2_HASHES = {
    "Hui Fang": "457b3e72a28b266e",
    "Ajay Gupta": "0636ae75fba4730e",
    "Joseph Hellerstein": "ce13ad034adf919f",
    "Rakesh Kumar": "e8a4710ca191706d",
    "Michael Wagner": "7024c98a45a30776",
    "Bing Liu": "6983e3c3e149b65d",
    "Jim Smith": "b17df6978fbc90f9",
    "Lei Wang": "a5ee6dd865efb142",
    "Wei Wang": "a9ace801588bcf92",
    "Bin Yu": "28df2aa8b73066cf",
}


def cluster_hash(clusters) -> str:
    canonical = sorted(sorted(int(row) for row in cluster) for cluster in clusters)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:16]


def resolved_hashes(distinct: Distinct, names) -> dict[str, str]:
    return {name: cluster_hash(distinct.resolve(name).clusters) for name in names}


def cli_world_hashes(tmp_path) -> dict[str, str]:
    assert main(["generate", "--out", str(tmp_path), "--scale", "0.3", "--seed", "5"]) == 0
    db = prepare_dblp_database(load_database(tmp_path))
    names = json.loads((tmp_path / "ambiguous_names.json").read_text())
    config = DistinctConfig(n_positive=150, n_negative=150, svm_C=10.0)
    return resolved_hashes(Distinct(config).fit(db), names)


def table2_hashes() -> dict[str, str]:
    world = generate_world(GeneratorConfig(seed=7, scale=1.0, rare_entities=120))
    db, _ = world_to_database(world)
    config = DistinctConfig(n_positive=100, n_negative=100)
    return resolved_hashes(Distinct(config).fit(db), world.ambiguous_names)


def test_cli_world_clusterings_are_pinned(tmp_path):
    assert cli_world_hashes(tmp_path) == CLI_WORLD_HASHES


@pytest.mark.slow
def test_table2_clusterings_are_pinned():
    assert table2_hashes() == TABLE2_HASHES
