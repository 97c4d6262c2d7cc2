import numpy as np
import pytest

from truncflow.errors import EmptyCluster, IndexRange
from truncflow.manifold import OrthogonalMatrix, random_orthogonal
from truncflow.measures import TrainingSet
from truncflow.model import (
    LayerParams,
    ModelState,
    SectorMask,
    chained_truncation,
    classify_sector,
    euclidean_cost,
    push,
    standard_cost,
    truncation_map,
)
from truncflow.scenarios import state_from_arrays

RNG = np.random.default_rng(42)


def identity_layer(q, beta=None):
    return LayerParams(OrthogonalMatrix(np.eye(q)), np.zeros(q) if beta is None else np.asarray(beta, float))


class TestHeavisideMask:
    def test_signs(self):
        assert SectorMask.from_vector([1.0, -1.0]).bits == (True, False)

    def test_zero_counts_as_truncated(self):
        assert SectorMask.from_vector([0.0, 5.0]).bits == (False, True)

    def test_all_cases(self):
        assert SectorMask.from_vector([-2.0, -0.1]).all_false()
        assert SectorMask.from_vector([2.0, 0.1]).all_true()
        assert SectorMask.from_vector([2.0, -0.1]).is_off_diagonal()


class TestTruncationMap:
    def test_positive_fixed_point(self):
        out = truncation_map(identity_layer(2), [2.0, 3.0])
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_negative_maps_to_minus_beta(self):
        layer = identity_layer(2)
        out = truncation_map(layer, [-1.0, -2.0])
        np.testing.assert_array_equal(out, -layer.beta)
        layer2 = identity_layer(2, beta=[0.5, -0.25])
        out2 = truncation_map(layer2, [-1.0, -2.0])
        np.testing.assert_array_equal(out2, [-0.5, 0.25])

    def test_coordinatewise(self):
        out = truncation_map(identity_layer(2), [2.0, -3.0])
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_idempotent(self):
        for _ in range(30):
            q = int(RNG.integers(1, 6))
            layer = LayerParams(random_orthogonal(q, RNG), RNG.normal(size=q))
            x = RNG.normal(size=q) * 2
            once = truncation_map(layer, x)
            np.testing.assert_allclose(truncation_map(layer, once), once, atol=1e-12)

    def test_diagonal_scale_invariance(self):
        # truncation through W = D R (D positive diagonal) equals the R-truncation
        for _ in range(100):
            q = int(RNG.integers(1, 5))
            r = random_orthogonal(q, RNG)
            beta = RNG.normal(size=q)
            d = np.exp(RNG.normal(size=q))
            x = RNG.normal(size=q) * 2
            w = d[:, None] * r.mat
            via_w = np.linalg.solve(w, np.maximum(w @ (x + beta), 0.0)) - beta
            via_r = truncation_map(LayerParams(r, beta), x)
            np.testing.assert_allclose(via_w, via_r, atol=1e-12)

    def test_rows_match_points(self):
        layer = LayerParams(random_orthogonal(3, RNG), RNG.normal(size=3))
        pts = RNG.normal(size=(5, 3)) * 2
        rows = truncation_map(layer, pts)
        for x, row in zip(pts, rows):
            np.testing.assert_allclose(truncation_map(layer, x), row, rtol=0, atol=1e-14)

    def test_fixed_point_set_exact(self):
        layer = LayerParams(random_orthogonal(3, RNG), RNG.normal(size=3))
        x = RNG.normal(size=3)
        mask = classify_sector(layer, x)
        if mask.all_true():
            np.testing.assert_array_equal(truncation_map(layer, x), x)


class TestClassifySector:
    def test_constructed_all_true(self):
        layer = identity_layer(2, beta=[5.0, 5.0])
        assert classify_sector(layer, [1.0, 1.0]).all_true()

    def test_mixed(self):
        assert classify_sector(identity_layer(2), [-1.0, 1.0]).bits == (False, True)


class TestChainedTruncation:
    def test_single_layer_range(self):
        layers = [identity_layer(2, beta=[0.3, -0.1]) for _ in range(3)]
        x = np.array([0.5, -0.7])
        np.testing.assert_array_equal(
            chained_truncation(layers, x, 1, 2), truncation_map(layers[1], x)
        )

    def test_empty_range(self):
        layers = [identity_layer(2)]
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(chained_truncation(layers, x, 1, 1), x)

    def test_identity_on_all_positive(self):
        layers = [LayerParams(OrthogonalMatrix(np.eye(3)), 10.0 * np.ones(3)) for _ in range(3)]
        x = RNG.normal(size=3)
        np.testing.assert_allclose(chained_truncation(layers, x), x, rtol=0, atol=1e-14)

    def test_bad_range(self):
        layers = [identity_layer(2)]
        with pytest.raises(IndexRange):
            chained_truncation(layers, [0.0, 0.0], 0, 2)
        with pytest.raises(IndexRange):
            chained_truncation(layers, [0.0, 0.0], -1, 1)


class TestPush:
    def test_matches_a_per_point_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            q, depth = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rotations = np.array([random_orthogonal(q, rng).mat for _ in range(depth)])
            betas = rng.normal(size=(depth, q))
            pts = 1.5 * rng.normal(size=(int(rng.integers(1, 7)), q))
            zs, nus, t, z_dots = push(rotations, betas, pts)
            assert z_dots is None and len(zs) == len(nus) == depth
            for i, x in enumerate(pts):
                for k in range(depth):
                    z = rotations[k] @ (x + betas[k])
                    np.testing.assert_allclose(zs[k][i], z, rtol=0, atol=1e-12)
                    x = rotations[k].T @ np.maximum(z, 0.0) - betas[k]
                np.testing.assert_allclose(t[i], x, rtol=0, atol=1e-12)
                np.testing.assert_allclose(push(rotations, betas, pts[i])[2], x, rtol=0, atol=1e-12)
            for z, nu in zip(zs, nus):
                np.testing.assert_array_equal(nu, z > 0.0)


def random_state_and_set(q, n_per=3, depth=None, rng=RNG):
    depth = q if depth is None else depth
    rots = [random_orthogonal(q, rng).mat for _ in range(depth)]
    betas = [rng.normal(size=q) for _ in range(depth)]
    w = np.eye(q) + 0.2 * rng.normal(size=(q, q))
    labels = rng.normal(size=(q, q))
    state = state_from_arrays(rots, betas, w, labels)
    data = TrainingSet([rng.normal(size=(n_per, q)) for _ in range(q)])
    return state, data


class TestCosts:
    def test_zero_cost_at_interpolation(self):
        # single-point clusters sitting at the pulled labels, identity layers
        q = 2
        labels = np.array([[3.0, 4.0], [5.0, 6.0]])
        state = state_from_arrays([np.eye(q)] * q, [np.zeros(q)] * q, np.eye(q), labels)
        data = TrainingSet([labels[0][None, :], labels[1][None, :]])
        assert euclidean_cost(state, data) == 0.0

    def test_single_cluster_identity(self):
        labels = np.array([[4.0]])
        state = state_from_arrays([np.eye(1)], [np.zeros(1)], np.eye(1), labels)
        data = TrainingSet([np.array([[1.0]])])
        assert euclidean_cost(state, data) == pytest.approx(0.5 * (1.0 - 4.0) ** 2)

    def test_brute_force_agreement(self):
        for _ in range(20):
            q = int(RNG.integers(2, 5))
            state, data = random_state_and_set(q)
            expected = 0.0
            for l, pts in enumerate(data.clusters):
                for x in pts:
                    out = x.copy()
                    for lp in state.layers:
                        out = lp.rotation.mat.T @ np.maximum(lp.rotation.mat @ (out + lp.beta), 0.0) - lp.beta
                    expected += 0.5 * np.sum((out - state.pulled_labels[l]) ** 2) / len(pts)
            assert euclidean_cost(state, data) == pytest.approx(expected, rel=1e-12)

    def test_standard_equals_euclidean_for_identity_output(self):
        for _ in range(20):
            q = int(RNG.integers(2, 4))
            rots = [random_orthogonal(q, RNG).mat for _ in range(q)]
            betas = [RNG.normal(size=q) for _ in range(q)]
            labels = RNG.normal(size=(q, q))
            state = state_from_arrays(rots, betas, np.eye(q), labels)
            data = TrainingSet([RNG.normal(size=(3, q)) for _ in range(q)])
            assert standard_cost(state, data) == pytest.approx(euclidean_cost(state, data), rel=1e-12)

    def test_standard_scales_quadratically(self):
        # with output map 2*I the pullback metric is 4x the Euclidean one
        q = 3
        rots = [random_orthogonal(q, RNG).mat for _ in range(q)]
        betas = [RNG.normal(size=q) for _ in range(q)]
        labels = RNG.normal(size=(q, q))
        data = TrainingSet([RNG.normal(size=(3, q)) for _ in range(q)])
        s2 = state_from_arrays(rots, betas, 2.0 * np.eye(q), labels)
        assert standard_cost(s2, data) == pytest.approx(4.0 * euclidean_cost(s2, data), rel=1e-12)

    def test_fully_collapsed_standard_cost(self):
        # every cluster chain-collapses onto -beta of its own layer:
        # cost = (1/2) sum_l |W(-beta_l) - y_l|^2
        from truncflow.scenarios import make_separated_config

        base, data = make_separated_config(3, n_per=4, seed=21, truncation="full")
        w = np.eye(3) + 0.1 * RNG.normal(size=(3, 3))
        labels = RNG.normal(size=(3, 3))
        state = ModelState(base.layers, w, labels)
        expected = 0.5 * sum(
            np.sum((w @ (-state.layers[l].beta) - labels[l]) ** 2) for l in range(3)
        )
        assert standard_cost(state, data) == pytest.approx(expected, rel=1e-12)

    def test_empty_cluster_raises(self):
        with pytest.raises(EmptyCluster):
            TrainingSet([np.zeros((0, 2)), np.zeros((3, 2))])

    def test_nonnegative(self):
        state, data = random_state_and_set(3)
        assert euclidean_cost(state, data) >= 0.0


class TestModelState:
    def test_pulled_labels_solve(self):
        q = 3
        w = np.eye(q) + 0.3 * RNG.normal(size=(q, q))
        labels = RNG.normal(size=(q, q))
        state = state_from_arrays([np.eye(q)] * q, [np.zeros(q)] * q, w, labels)
        for l in range(q):
            resid = np.linalg.norm(w @ state.pulled_labels[l] - labels[l])
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(labels[l]))

    def test_singular_output_map_rejected(self):
        q = 2
        with pytest.raises(ValueError):
            state_from_arrays([np.eye(q)], [np.zeros(q)], np.zeros((q, q)), np.zeros((q, q)))

    def test_non_finite_inputs_rejected(self):
        q = 2
        with pytest.raises(ValueError, match="^output_map has a non-finite entry"):
            state_from_arrays([np.eye(q)], [np.zeros(q)], [[np.nan, 0.0], [0.0, 1.0]], np.zeros((q, q)))
        with pytest.raises(ValueError, match="^labels have a non-finite entry"):
            state_from_arrays([np.eye(q)], [np.zeros(q)], np.eye(q), [[0.0, 1.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="^beta has a non-finite entry"):
            state_from_arrays([np.eye(q)], [[0.0, np.nan]], np.eye(q), np.zeros((q, q)))

    def test_one_beta_per_rotation(self):
        with pytest.raises(ValueError, match="^2 rotations but 1 betas"):
            state_from_arrays([np.eye(2)] * 2, [np.zeros(2)], np.eye(2), np.zeros((2, 2)))

    def test_depth_can_differ_from_q(self):
        q = 3
        state = state_from_arrays([np.eye(q)] * 2, [np.zeros(q)] * 2, np.eye(q), np.zeros((q, q)))
        assert state.depth == 2 and state.dim == 3

    def test_derived_state_checks_rotations_in_its_layers_view(self):
        state, _ = random_state_and_set(3)
        derived = state.derive(state.rotations * 1.001, state.betas + 1.0)
        assert derived.pulled_labels is state.pulled_labels
        np.testing.assert_array_equal(derived.betas, state.betas + 1.0)
        with pytest.raises(ValueError, match="not orthogonal"):
            derived.layers
        with pytest.raises(ValueError):
            state.derive(state.rotations[:1], state.betas)

    def test_with_layer_replaces_one_layer(self):
        state, _ = random_state_and_set(3)
        layer = LayerParams(random_orthogonal(3, RNG), RNG.normal(size=3))
        out = state.with_layer(1, layer)
        assert out.layers[1] is layer
        np.testing.assert_array_equal(out.rotations[1], layer.rotation.mat)
        np.testing.assert_array_equal(out.betas[[0, 2]], state.betas[[0, 2]])
        with pytest.raises(ValueError):
            state.with_layer(0, identity_layer(2))
