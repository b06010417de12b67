import pytest

from repro.core.explain import explain_pair
from repro.errors import NotFittedError


@pytest.fixture(scope="module")
def ww_rows(fitted, small_db):
    _, truth = small_db
    return truth, truth.rows_of_name["Wei Wang"]


class TestExplainPair:
    def test_equivalent_pair_has_positive_similarity(self, fitted, ww_rows):
        truth, rows = ww_rows
        by_entity = {}
        for row in rows:
            by_entity.setdefault(truth.entity_of_row[row], []).append(row)
        same = next(v for v in by_entity.values() if len(v) >= 2)
        explanation = explain_pair(fitted, "Wei Wang", same[0], same[1])
        assert explanation.composite_similarity > 0.0
        assert explanation.combined_resemblance > 0.0

    def test_contribution_sum_matches_combined(self, fitted, ww_rows):
        truth, rows = ww_rows
        explanation = explain_pair(fitted, "Wei Wang", rows[0], rows[1])
        resem_sum = sum(c.resem_contribution for c in explanation.contributions)
        walk_sum = sum(c.walk_contribution for c in explanation.contributions)
        assert resem_sum == pytest.approx(explanation.combined_resemblance, abs=1e-9)
        assert walk_sum == pytest.approx(explanation.combined_walk, abs=1e-9)

    def test_combined_values_equal_the_resolution_matrices(self, fitted, ww_rows):
        truth, rows = ww_rows
        resolution = fitted.resolve("Wei Wang")
        for i, j in ((0, 1), (2, 7), (0, len(rows) - 1)):
            a, b = resolution.rows[i], resolution.rows[j]
            explanation = explain_pair(fitted, "Wei Wang", a, b)
            assert explanation.combined_resemblance == pytest.approx(
                resolution.resem_matrix[i, j], abs=1e-12
            )
            assert explanation.combined_walk == pytest.approx(
                resolution.walk_matrix[i, j], abs=1e-12
            )

    def test_one_contribution_per_path(self, fitted, ww_rows):
        truth, rows = ww_rows
        explanation = explain_pair(fitted, "Wei Wang", rows[0], rows[1])
        assert len(explanation.contributions) == len(fitted.paths_)

    def test_top_sorted_descending(self, fitted, ww_rows):
        truth, rows = ww_rows
        explanation = explain_pair(fitted, "Wei Wang", rows[0], rows[-1])
        top = explanation.top(4)
        totals = [c.total_contribution for c in top]
        assert totals == sorted(totals, reverse=True)

    def test_coauthor_path_dominates_for_equivalent_pair(self, fitted, ww_rows):
        truth, rows = ww_rows
        by_entity = {}
        for row in rows:
            by_entity.setdefault(truth.entity_of_row[row], []).append(row)
        same = next(v for v in by_entity.values() if len(v) >= 4)
        # Among several same-entity pairs, the strongest contributor should
        # usually be a path through Authors.
        hits = 0
        pairs = [(same[0], same[1]), (same[1], same[2]), (same[2], same[3])]
        for a, b in pairs:
            explanation = explain_pair(fitted, "Wei Wang", a, b)
            best = explanation.top(1)[0]
            hits += "Authors" in best.path
        assert hits >= 2

    def test_render(self, fitted, ww_rows):
        truth, rows = ww_rows
        text = explain_pair(fitted, "Wei Wang", rows[0], rows[1]).render()
        assert "composite similarity" in text
        assert "Wei Wang" in text

    def test_render_dissimilar_pair_message(self, fitted, small_db):
        _, truth = small_db
        rows = truth.rows_of_name["Wei Wang"]
        # Find a cross-entity pair with zero similarity if one exists;
        # otherwise the render still works.
        explanation = explain_pair(fitted, "Wei Wang", rows[0], rows[-1])
        assert isinstance(explanation.render(), str)

    def test_unfitted_raises(self):
        from repro import Distinct, DistinctConfig

        with pytest.raises(NotFittedError):
            explain_pair(Distinct(DistinctConfig()), "X", 0, 1)
