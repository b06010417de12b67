"""Property tests of the shared-path rule
(:func:`repro.core.references.shared_paths`).

A live path that ends by crossing a foreign-key edge and coming straight
back has its prefix's features, so the pipeline never propagates or
scores it: :func:`repro.core.features.compute_pair_features` copies the
prefix's columns. These tests hold every copied column to the scalar
oracle's values *of the path itself* (``tests/oracle.py``), to 1e-12:

- on generator worlds with and without citations, the hand-built
  ``tests/minidb.py`` database and the music store, each with appended
  rows that leave a tuple with no child (a conference with no
  proceedings, a proceedings with no paper, a paper with no author, an
  author with no paper);
- under exclusions as the pipeline builds them: one name's references
  (``prepare_references``), a pooled group of two names
  (:meth:`~repro.core.references.NameReferences.pooled`, as calibration
  pools them), and a mixed-name batch where each reference propagates
  under its own name's exclusions (as in training).

They also show that the paths the rule leaves out can differ from their
prefix: the proceedings' papers' authorship rows (which drop the origin
under its own paper), the conference's proceedings' papers (a
proceedings may hold no paper), the proceedings' papers' citations (a
paper may have none), and a sibling expansion back into the object
relation (two names exclude different objects of one group).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DistinctConfig, deep_path_config
from repro.core.distinct import Distinct
from repro.core.references import (
    NameReferences,
    extract_references,
    live_paths,
    reference_counts_by_name,
    shared_paths,
)
from repro.data.dblp_schema import prepare_dblp_database
from repro.data.generator import GeneratorConfig, generate_world
from repro.data.music import generate_music_database, music_distinct_config
from repro.data.world import world_to_database
from repro.ml.trainingset import TrainingPair, TrainingSet
from repro.paths.enumerate import enumerate_paths
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.delta import Delta, apply_delta

from tests.minidb import build_minidb
from tests.oracle import (
    NeighborProfile,
    ScalarPropagation,
    set_resemblance,
    walk_probability,
)

ATOL = 1e-12

#: The default DBLP budget's shared paths, by signature: positions 6, 8
#: and 9 of ``Distinct.paths_`` share the columns of positions 2, 3 and 4.
PUB = "Publish[paper_key=paper_key]Publications"
PROC = PUB + "[proc_key=proc_key]Proceedings"
COAUTHOR = PUB + "[paper_key=paper_key]Publish[author_key=author_key]Authors"
CONF = PROC + "[conf_key=conf_key]Conferences"
DEFAULT_SHARED = {
    PROC + "[proc_key=proc_key]Publications": PROC,
    COAUTHOR + "[author_key=author_key]Publish": COAUTHOR,
    CONF + "[conf_key=conf_key]Proceedings": CONF,
}

#: Paths that end on a one-to-many step the rule does not share.
PROC_PAPERS = PROC + "[proc_key=proc_key]Publications"
NOT_SHARED = {
    "the proceedings' papers' authorship rows": PROC_PAPERS
    + "[paper_key=paper_key]Publish",
    "the conference's proceedings' papers": CONF
    + "[conf_key=conf_key]Proceedings[proc_key=proc_key]Publications",
    "the proceedings' papers' citations": PROC_PAPERS + "[paper_key=cited]Cites",
}


def _next_key(db, relation: str) -> int:
    return max(row[0] for row in db.table(relation).rows) + 1


def _with_childless_dblp_rows(db):
    """``db`` plus a conference with no proceedings, a proceedings with
    no paper, a paper with no author (in a proceedings that has papers)
    and an author with no paper."""
    conf = db.table("Conferences").row(0)[0]
    proc = db.table("Publications").row(0)[2]
    delta = Delta()
    delta.add("Conferences", (_next_key(db, "Conferences"), "Empty Conf", "Nobody"))
    delta.add("Proceedings", (_next_key(db, "Proceedings"), conf, 2001, "Nowhere"))
    delta.add("Publications", (_next_key(db, "Publications"), "No authors", proc))
    delta.add("Authors", (_next_key(db, "Authors"), "Lone Author"))
    apply_delta(db, delta)
    return db


def _with_childless_music_rows(db):
    """``db`` plus an album with no track, a track with no credit (on an
    album that has tracks) and an artist with no credit."""
    album = db.table("Tracks").row(0)[2]
    delta = Delta()
    delta.add("Albums", (_next_key(db, "Albums"), "Silence", "Sub Pola", 1999, "ambient"))
    delta.add("Tracks", (_next_key(db, "Tracks"), "uncredited", album))
    delta.add("Artists", (_next_key(db, "Artists"), "Lone Artist"))
    apply_delta(db, delta)
    return db


@lru_cache(maxsize=None)
def _pipeline(world: str) -> Distinct:
    """A pipeline over one test world, its paths enumerated (no models:
    features need none)."""
    config = DistinctConfig()
    if world == "minidb":
        db = _with_childless_dblp_rows(build_minidb(with_citations=True))
    elif world == "music":
        config = music_distinct_config()
        db = _with_childless_music_rows(generate_music_database()[0])
    else:
        citations = world == "dblp-citations"
        generated = generate_world(
            GeneratorConfig(seed=11, scale=0.05, with_citations=citations)
        )
        db, _ = world_to_database(generated, with_citations=citations, prepared=False)
        db = _with_childless_dblp_rows(prepare_dblp_database(db))
    distinct = Distinct(config)
    distinct.db = db
    distinct._enumerate_paths()
    return distinct


@lru_cache(maxsize=None)
def _names(world: str) -> tuple[str, ...]:
    """The world's names carrying at least two references."""
    distinct = _pipeline(world)
    counts = reference_counts_by_name(distinct.db, distinct.config)
    return tuple(sorted(name for name, n in counts.items() if n >= 2))


_PROFILES: dict[tuple, NeighborProfile] = {}


def _scalar(world: str, path, row: int, exclusions) -> NeighborProfile:
    """The oracle's profile of reference ``row`` along ``path``."""
    key = (world, path, row, tuple(sorted(exclusions.items())))
    if key not in _PROFILES:
        result = ScalarPropagation(_pipeline(world).db, exclusions).propagate(path, row)
        _PROFILES[key] = NeighborProfile.from_result(result)
    return _PROFILES[key]


@st.composite
def batches(draw):
    """A world, and a batch built as the pipeline builds one: ``(world,
    mode, features, exclusions of each row)``."""
    world = draw(st.sampled_from(("minidb", "dblp", "dblp-citations", "music")))
    distinct = _pipeline(world)
    mode = draw(st.sampled_from(("own", "pooled", "mixed")))
    n_names = 1 if mode == "own" else 2
    names = draw(
        st.lists(st.sampled_from(_names(world)), min_size=n_names, max_size=n_names,
                 unique=True)
    )
    members = []
    for name in names:
        refs = extract_references(distinct.db, name, distinct.config)
        rows = draw(st.lists(st.sampled_from(refs.rows), min_size=1 if mode != "own"
                             else 2, max_size=5, unique=True))
        members.append(NameReferences(name, rows, refs.object_rows, refs.exclusions))
    if mode == "mixed":
        rows = [(row, m) for m in members for row in m.rows]
        training = TrainingSet(
            pairs=[
                TrainingPair(a, b, ma.name, mb.name, 1 if ma is mb else -1)
                for i, (a, ma) in enumerate(rows)
                for b, mb in rows[i + 1:]
            ],
            rare_names=names,
        )
        features = distinct._training_features(training)
        exclusions = {row: m.exclusions for row, m in rows}
    else:
        refs = members[0] if mode == "own" else NameReferences.pooled("pool", members)
        features = distinct.prepare_references(refs).features
        exclusions = {row: refs.exclusions for row in refs.rows}
    return world, mode, features, exclusions


class TestSharedColumnsEqualTheirOwnPaths:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_every_shared_column_matches_the_scalar_oracle(self, batch):
        world, mode, features, exclusions = batch
        distinct = _pipeline(world)
        shared = distinct.shared_paths_
        assert shared
        assert features.paths == distinct.paths_
        for p, path in enumerate(features.paths):
            if path not in shared:
                continue
            for k, (a, b) in enumerate(features.pairs.tolist()):
                profile_a = _scalar(world, path, a, exclusions[a])
                profile_b = _scalar(world, path, b, exclusions[b])
                assert features.resemblance[k, p] == pytest.approx(
                    set_resemblance(profile_a, profile_b), abs=ATOL
                ), (world, mode, path.describe(), a, b)
                assert features.walk[k, p] == pytest.approx(
                    walk_probability(profile_a, profile_b), abs=ATOL
                ), (world, mode, path.describe(), a, b)

    def test_shared_columns_are_their_prefix_columns(self):
        distinct = _pipeline("dblp")
        features = distinct.prepare_references(
            extract_references(distinct.db, _names("dblp")[0], distinct.config)
        ).features
        column = {path: p for p, path in enumerate(features.paths)}
        for path, prefix in distinct.shared_paths_.items():
            assert prefix == type(path)(path.steps[:-1])
            for values in (features.resemblance, features.walk):
                assert values[:, column[path]].tobytes() == (
                    values[:, column[prefix]].tobytes()
                )


class TestPathsTheRuleKeeps:
    @pytest.mark.parametrize("label", sorted(NOT_SHARED))
    def test_differs_from_its_prefix_on_some_pair(self, label):
        """On the mini database (citations schema, no citation rows, an
        empty proceedings, an authorless paper), "Wei Wang"'s references
        3 and 8 share a proceedings, yet each of these paths tells them
        apart from its prefix."""
        distinct = _pipeline("minidb")
        by_signature = {path.signature(): path for path in distinct.paths_}
        path = by_signature[NOT_SHARED[label]]
        prefix = type(path)(path.steps[:-1])
        assert path not in distinct.shared_paths_
        assert prefix in by_signature.values()
        refs = extract_references(distinct.db, "Wei Wang", distinct.config)
        features = distinct.prepare_references(refs).features
        p, q = distinct.paths_.index(path), distinct.paths_.index(prefix)
        gaps = np.maximum(
            np.abs(features.resemblance[:, p] - features.resemblance[:, q]),
            np.abs(features.walk[:, p] - features.walk[:, q]),
        )
        k = int(np.argmax(gaps))
        assert gaps[k] > 1e-3, label
        # The route's values are the paths' own, not a kernel artefact.
        a, b = features.pairs[k].tolist()
        for column, walked in ((p, path), (q, prefix)):
            profile_a = _scalar("minidb", walked, a, refs.exclusions)
            profile_b = _scalar("minidb", walked, b, refs.exclusions)
            assert features.resemblance[k, column] == pytest.approx(
                set_resemblance(profile_a, profile_b), abs=ATOL
            )
            assert features.walk[k, column] == pytest.approx(
                walk_probability(profile_a, profile_b), abs=ATOL
            )


def _grouped_objects_pipeline() -> Distinct:
    """Objects grouped under a parent, so a sibling expansion can end on
    the object relation: ``Refs -> Papers`` and ``Refs -> Objects ->
    Groups``. Objects 0, 1 and 2 ("X", "Y", "Z") share group 0; paper 0
    holds references 0 (X) and 1 (Y), paper 1 references 2 (X) and 3
    (Z)."""
    schema = Schema()
    schema.add_relation(RelationSchema("Groups", [Attribute("group_key", kind="key")]))
    schema.add_relation(RelationSchema("Papers", [Attribute("paper_key", kind="key")]))
    schema.add_relation(
        RelationSchema(
            "Objects",
            [
                Attribute("obj_key", kind="key"),
                Attribute("name", kind="text"),
                Attribute("group_key", kind="fk"),
            ],
        )
    )
    schema.add_relation(
        RelationSchema(
            "Refs", [Attribute("paper_key", kind="fk"), Attribute("obj_key", kind="fk")]
        )
    )
    schema.add_foreign_key(ForeignKey("Objects", "group_key", "Groups", "group_key"))
    schema.add_foreign_key(ForeignKey("Refs", "paper_key", "Papers", "paper_key"))
    schema.add_foreign_key(ForeignKey("Refs", "obj_key", "Objects", "obj_key"))
    db = Database(schema)
    db.insert("Groups", (0,))
    for paper in (0, 1):
        db.insert("Papers", (paper,))
    for key, name in enumerate(("X", "Y", "Z")):
        db.insert("Objects", (key, name, 0))
    for row in ((0, 0), (0, 1), (1, 0), (1, 2)):
        db.insert("Refs", row)
    config = DistinctConfig(
        reference_relation="Refs", object_relation="Objects", object_key="obj_key"
    )
    distinct = Distinct(config)
    distinct.db = db
    distinct._enumerate_paths()
    return distinct


class TestSiblingExpansionIntoTheObjectRelation:
    def test_two_names_split_a_group_differently(self):
        """References 0 (X) and 1 (Y), each under its own name's
        exclusions, both reach group 0, and each splits it over the two
        objects it does not exclude: resemblance 1/3 along the path that
        comes back into ``Objects``, against 1 along its prefix."""
        distinct = _grouped_objects_pipeline()
        by_describe = {path.describe(): path for path in distinct.paths_}
        path = by_describe["Refs~Papers~Refs~Objects~Groups~Objects"]
        prefix = by_describe["Refs~Papers~Refs~Objects~Groups"]
        assert path not in distinct.shared_paths_
        features = distinct._training_features(
            TrainingSet(pairs=[TrainingPair(0, 1, "X", "Y", -1)], rare_names=["X", "Y"])
        )
        p, q = distinct.paths_.index(path), distinct.paths_.index(prefix)
        assert features.resemblance[0, q] == pytest.approx(1.0, abs=ATOL)
        assert features.resemblance[0, p] == pytest.approx(1 / 3, abs=ATOL)
        profiles = [
            NeighborProfile.from_result(
                ScalarPropagation(
                    distinct.db,
                    extract_references(distinct.db, name, distinct.config).exclusions,
                ).propagate(path, row)
            )
            for row, name in ((0, "X"), (1, "Y"))
        ]
        assert features.resemblance[0, p] == pytest.approx(
            set_resemblance(*profiles), abs=ATOL
        )
        assert features.walk[0, p] == pytest.approx(walk_probability(*profiles), abs=ATOL)


class TestSharedPathMap:
    def _shared(self, db, config, path_config=None):
        paths = live_paths(
            enumerate_paths(
                db.schema, config.reference_relation, path_config or config.path_config
            ),
            config,
        )
        return paths, shared_paths(paths, config)

    def test_default_dblp_budget_shares_paths_6_8_and_9(self):
        config = DistinctConfig()
        paths, shared = self._shared(build_minidb(), config)
        assert len(paths) == 17
        assert {p.signature(): q.signature() for p, q in shared.items()} == DEFAULT_SHARED
        position = {path: k for k, path in enumerate(paths)}
        assert {position[p]: position[q] for p, q in shared.items()} == {6: 2, 8: 3, 9: 4}

    @pytest.mark.parametrize(
        "world, n_shared, n_live",
        [("deep", 5, 28), ("citations", 7, 47), ("music", 2, 12)],
    )
    def test_shared_counts(self, world, n_shared, n_live):
        config, path_config = DistinctConfig(), None
        if world == "deep":
            db, path_config = build_minidb(), deep_path_config()
        elif world == "citations":
            db = build_minidb(with_citations=True)
        else:
            db, config = generate_music_database()[0], music_distinct_config()
        paths, shared = self._shared(db, config, path_config)
        assert (len(shared), len(paths)) == (n_shared, n_live)
        for path, prefix in shared.items():
            assert prefix.steps == path.steps[:-1]
            assert path.steps[-1].is_reverse_of(path.steps[-2])
            assert path.steps[-2].cardinality == "n1"
