import json

import numpy as np
import pytest

from truncflow.errors import EmptyCluster, IndexRange
from truncflow.manifold import random_orthogonal
from truncflow.measures import (
    TrainingSet,
    check_cluster_separation,
    compute_moments,
)
from truncflow.model import push
from truncflow.scenarios import make_separated_config, state_from_arrays

RNG = np.random.default_rng(99)
EYE3, ZERO3 = np.eye(3), np.zeros(3)


def pushed(rotation, beta, pts):
    """The rows z_i = R(x_i + beta) that `push` reports for one layer."""
    return push(rotation[None], beta[None], pts)[0][0]


class TestPushforward:
    """Moments are taken of the pushed points z = R(x + beta)."""

    def test_identity(self):
        pts = RNG.normal(size=(4, 3))
        np.testing.assert_array_equal(pushed(EYE3, ZERO3, pts), pts)
        np.testing.assert_array_equal(compute_moments(EYE3, ZERO3, pts).i1, pts.mean(axis=0))

    def test_beta_cancels_single_point(self):
        x = RNG.normal(size=3)
        r = random_orthogonal(3, RNG).mat
        np.testing.assert_allclose(pushed(r, -x, x[None, :]), np.zeros((1, 3)), atol=1e-12)
        np.testing.assert_allclose(compute_moments(r, -x, x[None, :]).i1, np.zeros(3), atol=1e-12)

    def test_isometry(self):
        r, beta = random_orthogonal(4, RNG).mat, RNG.normal(size=4)
        pts = RNG.normal(size=(6, 4))
        z = pushed(r, beta, pts)
        np.testing.assert_allclose(
            np.linalg.norm(z, axis=1), np.linalg.norm(pts + beta, axis=1), rtol=1e-12
        )
        np.testing.assert_allclose(compute_moments(r, beta, pts).i1, z.mean(axis=0), rtol=0, atol=1e-14)


class TestComputeMoments:
    def test_all_positive(self):
        pts = np.abs(RNG.normal(size=(5, 3))) + 0.5
        mom = compute_moments(EYE3, ZERO3, pts)
        np.testing.assert_array_equal(mom.j0, np.ones(3))
        np.testing.assert_array_equal(mom.j0_perp, np.zeros(3))
        assert list(mom.j1_by_sector) == [(True, True, True)]
        np.testing.assert_allclose(mom.j1_by_sector[(True, True, True)], mom.i1, rtol=1e-12)

    def test_all_negative(self):
        pts = -np.abs(RNG.normal(size=(5, 3))) - 0.5
        mom = compute_moments(EYE3, ZERO3, pts)
        np.testing.assert_array_equal(mom.j0_perp, np.ones(3))
        assert list(mom.j1_by_sector) == [(False, False, False)]

    def test_truncated_fraction_counts(self):
        # 4 points, 3 of them with first coordinate <= 0
        pts = np.array([[-1.0, 1.0], [-2.0, 1.0], [0.0, 1.0], [3.0, 1.0]])
        mom = compute_moments(np.eye(2), np.zeros(2), pts)
        assert mom.j0_perp[0] == pytest.approx(3.0 / 4.0)
        assert mom.j0_perp[1] == 0.0

    def test_invariants_random(self):
        for _ in range(200):
            q = int(RNG.integers(1, 5))
            n = int(RNG.integers(1, 9))
            r, beta = random_orthogonal(q, RNG).mat, RNG.normal(size=q)
            pts = RNG.normal(size=(n, q)) * 2
            mom = compute_moments(r, beta, pts)
            assert mom.i0 == 1.0
            np.testing.assert_allclose(mom.j0 + mom.j0_perp, np.ones(q), atol=1e-15)
            assert np.all(mom.j0 >= 0) and np.all(mom.j0 <= 1)
            assert np.all(mom.j0_perp >= 0) and np.all(mom.j0_perp <= 1)
            # exact rational structure: n * j0_perp is an integer count
            np.testing.assert_allclose(
                np.round(mom.j0_perp * n), mom.j0_perp * n, atol=1e-9
            )
            # sector partition: first moments sum to the free first moment
            total = sum(mom.j1_by_sector.values())
            np.testing.assert_allclose(total, mom.i1, atol=1e-12)
            # second moments sum to the full second moment
            z = pushed(r, beta, pts)
            np.testing.assert_allclose(
                sum(mom.j2_by_sector.values()), z.T @ z / n, atol=1e-12
            )
            assert len(mom.j1_by_sector) <= n  # only occupied sectors stored

    def test_sector_sums_match_per_point_loop(self):
        for _ in range(50):
            q = int(RNG.integers(1, 5))
            n = int(RNG.integers(1, 12))
            r, beta = random_orthogonal(q, RNG).mat, RNG.normal(size=q)
            pts = RNG.normal(size=(n, q)) * 2
            mom = compute_moments(r, beta, pts)
            j1, j2 = {}, {}
            for z in pushed(r, beta, pts):
                key = tuple(bool(b) for b in z > 0.0)
                j1[key] = j1.get(key, 0.0) + z / n
                j2[key] = j2.get(key, 0.0) + np.outer(z, z) / n
            assert set(mom.j1_by_sector) == set(j1) == set(mom.j2_by_sector)
            for key in j1:
                np.testing.assert_allclose(mom.j1_by_sector[key], j1[key], rtol=0, atol=1e-13)
                np.testing.assert_allclose(mom.j2_by_sector[key], j2[key], rtol=0, atol=1e-13)

    def test_empty_raises(self):
        with pytest.raises(EmptyCluster):
            compute_moments(np.eye(2), np.zeros(2), np.zeros((0, 2)))

    def test_mask_not_of_the_cluster_shape_rejected(self):
        # a short mask would give moments over its rows alone: it is named, as frozen masks are
        pts = RNG.normal(size=(3, 2))
        for mask, got in ((np.ones((2, 2), bool), r"bool of shape \(2, 2\)"),
                          (np.ones((3, 2)), r"float64 of shape \(3, 2\)"),
                          ([[True, True]] * 3, "list")):
            with pytest.raises(ValueError, match=rf"^mask is {got}; expected bool of shape \(3, 2\)$"):
                compute_moments(np.eye(2), np.zeros(2), pts, mask)


class TestClusterSeparation:
    def test_separated_construction(self):
        state, data = make_separated_config(3, n_per=4, seed=11)
        ok, violations = check_cluster_separation(state, data)
        assert ok and violations == []

    def test_one_cluster_cannot_be_partially_truncated(self):
        # at Q = 1 no point lies in a mixed sector: partial truncation is refused at entry, named,
        # while full truncation still builds
        with pytest.raises(ValueError, match="^q = 1 "):
            make_separated_config(1, n_per=3)
        state, data = make_separated_config(1, n_per=3, truncation="full")
        assert state.depth == data.q == 1

    def test_all_positive_placement_is_separated(self):
        from truncflow.scenarios import make_equilibrium_data, named_initial_state

        data, labels = make_equilibrium_data(3, "all-positive", seed=2)
        state = named_initial_state("all-positive", data, labels)
        ok, _ = check_cluster_separation(state, data)
        assert ok

    def test_violation_reported(self):
        state, data = make_separated_config(2, n_per=3, seed=12)
        clusters = [c.copy() for c in data.clusters]
        # drag one point of cluster 1 into layer 0's truncation region
        corner = -state.betas[0]
        clusters[1][0] = corner - 1.0
        bad = TrainingSet(clusters)
        ok, violations = check_cluster_separation(state, bad)
        assert not ok
        assert (0, 1, 0) in violations

    def test_many_violations_match_per_point_loop(self):
        # overlapping clusters violate separation at many points; the
        # vectorized check must list the same triples in the same order,
        # each point chained through the layers before the one it is tested at,
        # and one push of all points must find what one push per cluster finds
        from truncflow.model import chained_truncation
        from truncflow.verify import _random_state_and_data

        rng = np.random.default_rng(13)
        for _ in range(20):
            state, data = _random_state_and_data(int(rng.integers(2, 5)), 8, rng)
            expected = [
                (k, l, i)
                for k, (r, beta) in enumerate(zip(state.rotations, state.betas))
                for l, pts in enumerate(data.clusters) if l != k
                for i, x in enumerate(pts)
                if not np.all(r @ (chained_truncation(state, x, 0, k) + beta) > 0.0)
            ]
            per_cluster = sorted(
                (k, l, i)
                for l, pts in enumerate(data.clusters)
                for k, nu in enumerate(push(state.rotations, state.betas, pts)[1]) if k != l
                for i in np.flatnonzero(~np.all(nu, axis=1)).tolist()
            )
            ok, violations = check_cluster_separation(state, data)
            assert len(expected) > 1
            assert not ok and violations == expected == per_cluster
            assert all(type(v) is int for triple in violations for v in triple)

    def test_more_layers_than_clusters_rejected(self):
        # a third layer over two clusters has no cluster of its own: the check names the depth,
        # as effective_rhs does, even where no point is truncated
        data = TrainingSet([np.ones((2, 2)), 2.0 * np.ones((1, 2))])
        state = state_from_arrays([np.eye(2)] * 3, [np.zeros(2)] * 3, np.eye(2), np.zeros((2, 2)))
        with pytest.raises(IndexRange, match="^depth 3 exceeds the 2 clusters$"):
            check_cluster_separation(state, data)


class TestTrainingSet:
    def test_non_finite_point_rejected_naming_it(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^cluster 1 point 2 coordinate 0 is .*, not finite"):
                TrainingSet([np.ones((2, 2)), [[0.0, 1.0], [1.0, 0.0], [bad, 1.0]]])

    def test_clusters_are_a_read_only_tuple(self):
        data = TrainingSet([RNG.normal(size=(3, 2)), RNG.normal(size=(1, 2))])
        assert isinstance(data.clusters, tuple)
        with pytest.raises(ValueError):
            data.clusters[0][0, 0] = 1.0

    def test_clusters_are_read_only_views_of_points(self):
        data = TrainingSet([RNG.normal(size=(3, 2)), RNG.normal(size=(1, 2))])
        assert data.points.shape == (4, 2) and data.counts == [3, 1] and data.total == 4
        for l, c in enumerate(data.clusters):
            assert np.shares_memory(c, data.points) and not c.flags.writeable
            np.testing.assert_array_equal(c, data.points[data.offsets[l]:data.offsets[l + 1]])
        assert not data.points.flags.writeable
        clusters, points = data.locate(np.arange(4))
        assert clusters.tolist() == [0, 0, 0, 1] and points.tolist() == [0, 1, 2, 0]

    def test_the_callers_arrays_stay_theirs(self):
        # writing through the base of the views passed in leaves the validated points as they were
        base = RNG.normal(size=(5, 2))
        kept = base.copy()
        data = TrainingSet([base[:3], base[3:]])
        assert base.flags.writeable
        base[0, 0] = np.nan
        np.testing.assert_array_equal(data.points, kept)
        np.testing.assert_array_equal(data.clusters[0], kept[:3])


class TestTrainingSetIO:
    def test_round_trip(self, tmp_path):
        data = TrainingSet([RNG.normal(size=(3, 2)), RNG.normal(size=(4, 2))])
        labels = RNG.normal(size=(2, 2))
        doc = data.to_dict(labels)
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        loaded, loaded_labels = TrainingSet.load(path)
        assert loaded.q == 2 and loaded.counts == [3, 4] and loaded.total == 7
        for a, b in zip(loaded.clusters, data.clusters):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            TrainingSet.from_dict({"q": 3, "clusters": [[[0.0, 1.0]], [[2.0, 3.0]]]})
        with pytest.raises(ValueError):
            TrainingSet.from_dict({"clusters": [[[0.0, 1.0]]], "labels": [[1.0]]})

    @pytest.mark.parametrize("doc, key", [
        ({"q": 1}, "clusters"),
        ({"clusters": [[[0.0], [np.nan]]]}, "clusters"),
        ({"q": 1.0, "clusters": [[[0.0]]]}, "q"),
        ({"q": True, "clusters": [[[0.0]]]}, "q"),
        ({"clusters": [[[0.0]]], "labels": [[np.nan]]}, "labels"),
        ({"clusters": [[[0.0]]], "labels": [["one"]]}, "labels"),
        ({"q": 1, "clusters": 5}, "clusters"),
    ])
    def test_schema_errors_start_with_their_key(self, doc, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainingSet.from_dict(doc)
