import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import truncflow.model
from truncflow.cli import ScenarioConfig, run_scenario
from truncflow.errors import EmptyCluster, IndexRange
from truncflow.flows import effective_rhs, general_rhs, moment_form_rhs
from truncflow.manifold import OrthogonalMatrix, antisym_project, expm_antisym, random_rotations
from truncflow.measures import TrainingSet, check_cluster_separation
from truncflow.model import (
    LayerParams,
    ModelState,
    chained_truncation,
    euclidean_cost,
    images_cost,
    push,
    standard_cost,
)
from truncflow.oracle import assert_kink_free, fd_grad_beta, fd_grad_rotation, fd_gradients
from truncflow.scenarios import (
    INITIAL_STATES,
    make_equilibrium_data,
    make_one_dim_state,
    make_separated_config,
    named_initial_state,
    state_from_arrays,
)
from truncflow.verify import _random_state_and_data

RNG = np.random.default_rng(42)

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def layers_state(rotations, betas) -> ModelState:
    """A state holding the given layers, with identity output map and zero labels."""
    q = len(betas[0])
    return state_from_arrays(rotations, betas, np.eye(q), np.zeros((q, q)))


def identity_state(q, beta=None, depth=1):
    beta = np.zeros(q) if beta is None else np.asarray(beta, float)
    return layers_state([np.eye(q)] * depth, [beta] * depth)


def one_layer_map(r, beta, x):
    """Layer (r, beta)'s truncation map: the one-layer chain."""
    return chained_truncation(layers_state([r], [beta]), x, 0, 1)


def activities(x, q=None):
    """The identity layer's activity rows for the point or rows x, as push reports them."""
    x = np.asarray(x, dtype=float)
    q = x.shape[-1] if q is None else q
    return push(np.eye(q)[None], np.zeros((1, q)), x)[1][0]


@st.composite
def states_and_points(draw):
    """A state of 1-3 layers in Q = 1-4 (rotations exp(A) of drawn generators) and two points."""
    q, depth = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.floats(-3.0, 3.0, allow_subnormal=False)
    gens = draw(arrays(float, (depth, q, q), elements=entries))
    betas = draw(arrays(float, (depth, q), elements=entries))
    points = draw(arrays(float, (2, q), elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    state = layers_state([expm_antisym(antisym_project(g)).mat for g in gens], list(betas))
    return state, points[0], points[1]


class TestHeavisideMask:
    """A coordinate is active iff its pushed value is strictly positive."""

    def test_signs(self):
        np.testing.assert_array_equal(activities([1.0, -1.0]), [True, False])

    def test_zero_counts_as_truncated(self):
        np.testing.assert_array_equal(activities([0.0, 5.0]), [False, True])

    def test_all_cases(self):
        none, every, mixed = activities([[-2.0, -0.1], [2.0, 0.1], [2.0, -0.1]])
        assert not any(none) and all(every) and any(mixed) and not all(mixed)


class TestTruncationMap:
    """Layer k's truncation map is the chain over the range (k, k + 1)."""

    def test_positive_fixed_point(self):
        out = chained_truncation(identity_state(2), [2.0, 3.0], 0, 1)
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_negative_maps_to_minus_beta(self):
        out = chained_truncation(identity_state(2), [-1.0, -2.0], 0, 1)
        np.testing.assert_array_equal(out, [0.0, 0.0])
        out2 = chained_truncation(identity_state(2, beta=[0.5, -0.25]), [-1.0, -2.0], 0, 1)
        np.testing.assert_array_equal(out2, [-0.5, 0.25])

    def test_coordinatewise(self):
        out = chained_truncation(identity_state(2), [2.0, -3.0], 0, 1)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    @PROPERTY
    @given(states_and_points())
    def test_idempotent(self, drawn):
        # tau o tau = tau for every layer's map
        state, x, _ = drawn
        for k in range(state.depth):
            once = chained_truncation(state, x, k, k + 1)
            np.testing.assert_allclose(chained_truncation(state, once, k, k + 1), once, rtol=0, atol=1e-12)

    @PROPERTY
    @given(states_and_points())
    def test_one_lipschitz(self, drawn):
        # |tau(x) - tau(y)| <= |x - y|: R is an isometry and relu is 1-Lipschitz
        state, x, y = drawn
        for k in range(state.depth):
            gap = np.linalg.norm(chained_truncation(state, x, k, k + 1) - chained_truncation(state, y, k, k + 1))
            assert gap <= np.linalg.norm(x - y) * (1.0 + 1e-12) + 1e-12

    def test_diagonal_scale_invariance(self):
        # truncation through W = D R (D positive diagonal) equals the R-truncation
        for _ in range(100):
            q = int(RNG.integers(1, 5))
            r = random_rotations(1, q, RNG)[0]
            beta = RNG.normal(size=q)
            d = np.exp(RNG.normal(size=q))
            x = RNG.normal(size=q) * 2
            w = d[:, None] * r
            via_w = np.linalg.solve(w, np.maximum(w @ (x + beta), 0.0)) - beta
            np.testing.assert_allclose(via_w, one_layer_map(r, beta, x), atol=1e-12)

    def test_rows_match_points(self):
        r, beta = random_rotations(1, 3, RNG)[0], RNG.normal(size=3)
        pts = RNG.normal(size=(5, 3)) * 2
        rows = one_layer_map(r, beta, pts)
        for x, row in zip(pts, rows):
            np.testing.assert_allclose(one_layer_map(r, beta, x), row, rtol=0, atol=1e-14)

    def test_fixed_point_set_exact(self):
        # a point whose pushed coordinates are all positive is fixed, up to rounding
        r = random_rotations(1, 3, RNG)[0]
        x = RNG.normal(size=3)
        beta = r.T @ np.array([0.5, 1.0, 2.0]) - x  # R(x + beta) = (0.5, 1, 2)
        assert all(push(r[None], beta[None], x)[1][0])
        np.testing.assert_allclose(one_layer_map(r, beta, x), x, rtol=0, atol=1e-14)


class TestClassifySector:
    """A point's sector in a layer is push's activity row z > 0."""

    def test_constructed_all_true(self):
        assert all(push(np.eye(2)[None], np.full((1, 2), 5.0), [1.0, 1.0])[1][0])

    def test_mixed(self):
        np.testing.assert_array_equal(activities([-1.0, 1.0]), [False, True])


class TestChainedTruncation:
    def test_single_layer_range(self):
        state = identity_state(2, beta=[0.3, -0.1], depth=3)
        x = np.array([0.5, -0.7])
        np.testing.assert_array_equal(
            chained_truncation(state, x, 1, 2),
            np.eye(2).T @ np.maximum(np.eye(2) @ (x + state.betas[1]), 0.0) - state.betas[1],
        )

    def test_empty_range(self):
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(chained_truncation(identity_state(2), x, 1, 1), x)

    def test_identity_on_all_positive(self):
        state = identity_state(3, beta=10.0 * np.ones(3), depth=3)
        x = RNG.normal(size=3)
        np.testing.assert_allclose(chained_truncation(state, x), x, rtol=0, atol=1e-14)

    def test_bad_range(self):
        with pytest.raises(IndexRange):
            chained_truncation(identity_state(2), [0.0, 0.0], 0, 2)
        with pytest.raises(IndexRange):
            chained_truncation(identity_state(2), [0.0, 0.0], -1, 1)

    def test_bad_range_names_it_and_the_depth(self):
        # the rule chained_projectors and the finite-difference oracle share
        for lo, hi in ((0, 3), (-1, 1), (2, 1)):
            with pytest.raises(IndexRange, match=rf"^invalid layer range \[{lo}, {hi}\) for depth 2$"):
                chained_truncation(identity_state(2, depth=2), [0.0, 0.0], lo, hi)

    def test_point_of_another_length_rejected(self):
        for x in ([1.0, 2.0, 3.0], np.ones((4, 3)), 1.0):
            with pytest.raises(ValueError, match=r"^point has shape \(.*\); expected \(2,\) or \(N, 2\)$"):
                chained_truncation(identity_state(2), x)

    def test_non_finite_point_rejected_naming_it(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^point coordinate 0 is .*, not finite$"):
                chained_truncation(identity_state(2), [bad, 1.0])
            with pytest.raises(ValueError, match="^point 2 coordinate 1 is .*, not finite$"):
                chained_truncation(identity_state(2), [[0.0, 1.0], [1.0, 0.0], [1.0, bad]])


class TestPush:
    def test_matches_a_per_point_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            q, depth = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rotations = random_rotations(depth, q, rng)
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

    def test_one_stacked_layer_equals_separate_pushes(self):
        # a layer given as S variants, rotations (S, Q, Q) and betas (S, 1, Q): every slice of
        # every output, forward-mode rates included, is bit for bit the push of that variant
        rng = np.random.default_rng(12)
        for _ in range(30):
            q, depth, n = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
            layer, variants = int(rng.integers(depth)), int(rng.integers(1, 5))
            rotations = np.array(random_rotations(depth, q, rng))  # a writable copy: one layer is swapped below
            betas = rng.normal(size=(depth, q))
            pts = 1.5 * rng.normal(size=(n, q))
            field = (rng.normal(size=(depth, q)),
                     np.array([antisym_project(rng.normal(size=(q, q))).mat for _ in range(depth)]))
            stack_r = random_rotations(variants, q, rng)
            stack_b = rng.normal(size=(variants, 1, q))
            rots, bets = list(rotations), list(betas)
            rots[layer], bets[layer] = stack_r, stack_b
            zs, nus, t, z_dots = push(rots, bets, pts, field=field)
            assert t.shape == (variants, n, q)
            for v in range(variants):
                rotations[layer], betas[layer] = stack_r[v], stack_b[v, 0]
                zs_v, nus_v, t_v, z_dots_v = push(rotations, betas, pts, field=field)
                for k in range(depth):
                    below = k < layer  # the layers below the stacked one ran once, unstacked
                    for stacked, alone in ((zs, zs_v), (nus, nus_v), (z_dots, z_dots_v)):
                        assert np.array_equal(stacked[k] if below else stacked[k][v], alone[k])
                assert np.array_equal(t[v], t_v)

    def test_float_masks_are_bool_masks(self):
        # a frozen mask set given as floats (1.0 active, 0.0 truncated) is the same push bit for
        # bit as the bool masks: coordinates, images and forward-mode rates
        rng = np.random.default_rng(13)
        for _ in range(30):
            q, depth, n = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
            rotations = random_rotations(depth, q, rng)
            betas = rng.normal(size=(depth, q))
            pts = 1.5 * rng.normal(size=(n, q))
            field = (rng.normal(size=(depth, q)),
                     np.array([antisym_project(rng.normal(size=(q, q))).mat for _ in range(depth)]))
            masks = [rng.random((n, q)) < 0.5 for _ in range(depth)]
            zs, _, t, z_dots = push(rotations, betas, pts, masks, field)
            zs_f, _, t_f, z_dots_f = push(rotations, betas, pts, [m.astype(float) for m in masks], field)
            assert t.tobytes() == t_f.tobytes()
            for a, b in zip(zs + z_dots, zs_f + z_dots_f):
                assert a.tobytes() == b.tobytes()


def random_state_and_set(q, n_per=3, depth=None, rng=RNG):
    depth = q if depth is None else depth
    rots = random_rotations(depth, q, rng)
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
            rots = random_rotations(q, q, RNG)
            betas = [RNG.normal(size=q) for _ in range(q)]
            labels = RNG.normal(size=(q, q))
            state = state_from_arrays(rots, betas, np.eye(q), labels)
            data = TrainingSet([RNG.normal(size=(3, q)) for _ in range(q)])
            assert standard_cost(state, data) == pytest.approx(euclidean_cost(state, data), rel=1e-12)

    def test_standard_scales_quadratically(self):
        # with output map 2*I the pullback metric is 4x the Euclidean one
        q = 3
        rots = random_rotations(q, q, RNG)
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

    def test_stacked_images_give_one_cost_per_slice(self):
        # images (S, N, Q) or (S1, S2, N, Q): each cost is its slice's float, bit for bit
        for q in (1, 2, 3, 4):
            state, data = random_state_and_set(q, n_per=int(RNG.integers(1, 6)))
            images = RNG.normal(size=(2, 3, data.total, q))
            costs = images_cost(state, data, images)
            assert costs.shape == (2, 3)
            for i in range(2):
                assert np.array_equal(images_cost(state, data, images[i]), costs[i])
                for j in range(3):
                    alone = images_cost(state, data, images[i, j])
                    assert type(alone) is float and alone == costs[i, j]
            assert images_cost(state, data, chained_truncation(state, data.points)) == euclidean_cost(state, data)

    def test_empty_stencil_stack_gives_no_costs(self):
        # an (0, N, Q) stack, as push returns for a layer of no variants, prices to an empty array
        for q in (1, 2, 3):
            state, data = random_state_and_set(q)
            costs = images_cost(state, data, np.empty((0, data.total, q)))
            assert isinstance(costs, np.ndarray) and costs.shape == (0,)


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
        with pytest.raises(ValueError, match="^labels has a non-finite entry"):
            state_from_arrays([np.eye(q)], [np.zeros(q)], np.eye(q), [[0.0, 1.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="^beta has a non-finite entry"):
            state_from_arrays([np.eye(q)], [[0.0, np.nan]], np.eye(q), np.zeros((q, q)))

    def test_one_beta_per_rotation(self):
        with pytest.raises(ValueError, match=r"^beta has shape \(1, 2\), expected \(2, Q\)$"):
            state_from_arrays([np.eye(2)] * 2, [np.zeros(2)], np.eye(2), np.zeros((2, 2)))

    def test_constructors_copy_the_callers_arrays(self):
        q = 2
        base = np.vstack([np.eye(q) + 0.1, 1.0 + np.arange(2.0 * q).reshape(q, q), [0.5, -0.5]])
        w, labels, beta = base[:q], base[q:2 * q], base[2 * q]
        state = ModelState([LayerParams(OrthogonalMatrix(np.eye(q)), beta)], w, labels)
        lp = LayerParams(OrthogonalMatrix(np.eye(q)), beta)
        kept = base.copy()
        assert base.flags.writeable and w.flags.writeable and beta.flags.writeable
        base[:] = np.nan
        np.testing.assert_array_equal(state.output_map, kept[:q])
        np.testing.assert_array_equal(state.labels, kept[q:2 * q])
        np.testing.assert_array_equal(state.betas[0], kept[2 * q])
        np.testing.assert_array_equal(lp.beta, kept[2 * q])

    def test_depth_can_differ_from_q(self):
        q = 3
        state = state_from_arrays([np.eye(q)] * 2, [np.zeros(q)] * 2, np.eye(q), np.zeros((q, q)))
        assert state.depth == 2 and state.dim == 3

    def test_a_rotation_off_the_group_is_named_by_its_layer(self):
        # built from arrays, and by `checked`, which the integrators call at entry and per step
        off = np.array([[1.0, 0.1], [0.0, 1.0]])
        message = r"^rotation 1 is not orthogonal: \|\|R\^T R - I\|\| = 1\.418e-01$"
        with pytest.raises(ValueError, match=message):
            state_from_arrays([np.eye(2), off], np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        state = state_from_arrays([np.eye(2)] * 2, np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        assert state.checked() is state
        with pytest.raises(ValueError, match=message):
            state.derive(np.stack([np.eye(2), off]), state.betas).checked()

    def test_derived_state_checks_rotations_in_its_layers_view(self):
        state, _ = random_state_and_set(3)
        derived = state.derive(state.rotations * 1.001, state.betas + 1.0)
        assert derived.pulled_labels is state.pulled_labels
        np.testing.assert_array_equal(derived.betas, state.betas + 1.0)
        with pytest.raises(ValueError, match="not orthogonal"):
            derived.layers
        with pytest.raises(ValueError):
            state.derive(state.rotations[:1], state.betas)


I2, I3, Z2 = np.eye(2), np.eye(3), np.zeros((2, 2))
OFF = np.array([[1.0, 0.1], [0.0, 1.0]])  # ||R^T R - I|| = 1.418e-01
NAN_ROTATION = np.array([[1.0, 0.0], [np.nan, 1.0]])
INF_ROTATION = np.array([[1.0, np.inf], [0.0, 1.0]])
NEAR_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]])  # passes the rank test, not the reconstruction

# (rotations, betas, output map, labels) that state_from_arrays rejects, with the message it gave
# when each layer was wrapped in an OrthogonalMatrix and a LayerParams before the state was built
REJECTED = {
    "rotation-1-off": (([I2, OFF], Z2, I2, Z2), "rotation 1 is not orthogonal: ||R^T R - I|| = 1.418e-01"),
    "rotation-0-off-before-a-bad-shape": (([OFF, I3], Z2, I2, Z2),
                                          "rotation 0 is not orthogonal: ||R^T R - I|| = 1.418e-01"),
    "rotation-0-nan": (([NAN_ROTATION, I2], Z2, I2, Z2), "rotation 0 is not orthogonal: ||R^T R - I|| = nan"),
    "rotation-1-nan": (([I2, NAN_ROTATION], Z2, I2, Z2), "rotation 1 is not orthogonal: ||R^T R - I|| = nan"),
    "rotation-inf": (([INF_ROTATION], [[0.0, 0.0]], I2, Z2), "rotation 0 is not orthogonal: ||R^T R - I|| = inf"),
    "beta-nan": (([I2], [[0.0, np.nan]], I2, Z2), "beta has a non-finite entry at (0, 1): nan"),
    "beta-inf": (([I2, I2], [[0.0, 0.0], [np.inf, 0.0]], I2, Z2), "beta has a non-finite entry at (1, 0): inf"),
    "beta-not-numbers": (([I2], "x", I2, Z2),
                         "beta must be an array of numbers: could not convert string to float: 'x'"),
    "one-beta-for-two-rotations": (([I2] * 2, [np.zeros(2)], I2, Z2), "beta has shape (1, 2), expected (2, Q)"),
    "betas-longer-than-q": (([I2] * 2, np.zeros((2, 3)), I2, Z2), "beta has shape (3,), expected (2,)"),
    "betas-longer-than-q-rotation-off": (([OFF] * 2, np.zeros((2, 3)), I2, Z2),
                                         "rotation 0 is not orthogonal: ||R^T R - I|| = 1.418e-01"),
    "rotation-not-square": (([np.zeros((2, 3))], np.zeros((1, 2)), I2, Z2),
                            "expected a square matrix, got shape (2, 3)"),
    "rotations-of-two-sizes": (([I2, I3], Z2, I2, Z2), "beta has shape (2,), expected (3,)"),
    "rotations-of-two-sizes-first-larger": (([I3, I2], np.zeros((2, 3)), I3, np.zeros((3, 3))),
                                            "beta has shape (3,), expected (2,)"),
    "rotations-one-matrix": ((I2, Z2, I2, Z2), "expected a square matrix, got shape (2,)"),
    "rotation-scalar": (([1.0], [[0.0]], np.eye(1), np.zeros((1, 1))), "expected a square matrix, got shape ()"),
    "rotation-not-numbers": (([[["a", "b"], ["c", "d"]]], [[0.0, 0.0]], I2, Z2),
                             "could not convert string to float: 'a'"),
    "no-layers": (([], np.zeros((0, 2)), I2, Z2), "need at least one layer"),
    "no-layers-no-q": (([], [], I2, Z2), "beta has shape (0,), expected (0, Q)"),
    "q-0": ((np.zeros((1, 0, 0)), np.zeros((1, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
            "expected a square matrix, got shape (0, 0)"),
    "output-map-shape": (([I2], [[0.0, 0.0]], I3, Z2), "output_map has shape (3, 3), expected (2, 2)"),
    "labels-shape": (([I2], [[0.0, 0.0]], I2, np.zeros((2, 3))), "labels has shape (2, 3), expected (2, 2)"),
    "output-map-nan": (([I2], [[0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]], Z2),
                       "output_map has a non-finite entry at (0, 0): nan"),
    "labels-inf": (([I2], [[0.0, 0.0]], I2, [[0.0, 1.0], [np.inf, 0.0]]),
                   "labels has a non-finite entry at (1, 0): inf"),
    "output-map-zero": (([I2], [[0.0, 0.0]], Z2, Z2), "output_map is numerically singular"),
    "output-map-rank-1": (([I2], [[0.0, 0.0]], np.ones((2, 2)), Z2), "output_map is numerically singular"),
    "output-map-near-rank-1": (([I2], [[0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-13]], Z2),
                               "output_map is numerically singular"),
    "reconstruction": (([I2], [[0.0, 0.0]], NEAR_SINGULAR, [[0.1, 0.7], [0.3, 0.2]]),
                       "pulled labels failed the reconstruction check"),
}


class TestOneStateRule:
    """Every state passes one rule over its stacked arrays, built from arrays or from LayerParams."""

    def test_arrays_and_layer_params_give_the_same_state(self):
        # bit for bit, and the pulled labels are those of numpy's wrappers, which the rule bypasses
        rng = np.random.default_rng(2024)
        for q in range(1, 6):
            for depth in range(1, q + 1):
                for _ in range(6):
                    rots = random_rotations(depth, q, rng)
                    betas = rng.normal(size=(depth, q))
                    w = np.eye(q) + 0.3 * rng.normal(size=(q, q))
                    labels = 3.0 * rng.normal(size=(q, q))
                    arrays_state = state_from_arrays(rots, betas, w, labels)
                    layers = [LayerParams(OrthogonalMatrix(r), beta) for r, beta in zip(rots, betas)]
                    layers_state = ModelState(layers, w, labels)
                    numpy_ytil = np.linalg.solve(w, labels.T).T
                    for name in ("rotations", "betas", "output_map", "labels", "pulled_labels"):
                        a, b = getattr(arrays_state, name), getattr(layers_state, name)
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                        assert not a.flags.writeable and not b.flags.writeable
                    assert arrays_state.pulled_labels.tobytes() == numpy_ytil.tobytes()
        # the near-singular output map that passes both tests: the same pulled labels too
        labels = [[1.0, 2.0], [3.0, -1.0]]
        state = state_from_arrays([I2], [[0.0, 0.0]], NEAR_SINGULAR, labels)
        assert state.pulled_labels.tobytes() == np.linalg.solve(NEAR_SINGULAR, np.transpose(labels)).T.tobytes()

    @pytest.mark.parametrize("case", list(REJECTED))
    def test_rejection_names_the_fault_as_before(self, case):
        args, message = REJECTED[case]
        with pytest.raises(ValueError) as raised:
            state_from_arrays(*args)
        assert str(raised.value) == message

    def test_layer_params_rejections_as_before(self):
        lp2, lp3 = LayerParams(OrthogonalMatrix(I2), [0.0, 0.0]), LayerParams(OrthogonalMatrix(I3), [0.0] * 3)
        for args, message in [(([], I2, Z2), "need at least one layer"),
                              (([lp2, lp3], I2, Z2), "all layers must share the same dimension"),
                              (([lp2], Z2, Z2), "output_map is numerically singular"),
                              (([lp2], I3, Z2), "output_map has shape (3, 3), expected (2, 2)")]:
            with pytest.raises(ValueError) as raised:
                ModelState(*args)
            assert str(raised.value) == message

    @pytest.mark.parametrize("sv", [[np.nan, np.nan], [1.0, np.nan], [np.nan, 1.0]])
    def test_nan_singular_value_rejects(self, monkeypatch, sv):
        # the gufunc returns NaN where np.linalg.svd raises LinAlgError, so the rank test fails on it
        monkeypatch.setattr(truncflow.model, "_svd", lambda w, signature: np.array(sv))
        with pytest.raises(ValueError, match="^output_map is numerically singular$"):
            state_from_arrays([I2], [[0.0, 0.0]], I2, Z2)

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), slice(None)])
    def test_nan_residual_rejects(self, monkeypatch, where):
        # likewise a NaN from the solve, in one pulled label or all of them
        solve = truncflow.model._solve

        def nan_solve(w, y, signature):
            x = solve(w, y, signature=signature)
            x[where] = np.nan
            return x

        monkeypatch.setattr(truncflow.model, "_solve", nan_solve)
        with pytest.raises(ValueError, match="^pulled labels failed the reconstruction check$"):
            state_from_arrays([I2], [[0.0, 0.0]], I2, [[1.0, 2.0], [3.0, 4.0]])

    def test_checked_names_a_nan_rotation(self):
        state = state_from_arrays([I2] * 3, np.zeros((3, 2)), I2, Z2)
        rotations = np.array(state.rotations)
        rotations[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"^rotation 2 is not orthogonal: \|\|R\^T R - I\|\| = nan$"):
            state.derive(rotations, state.betas).checked()

    @staticmethod
    def count_wrappers(monkeypatch) -> dict:
        counts = {}
        for cls in (OrthogonalMatrix, LayerParams):
            def counting(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
                counts[name] += 1
                init(self, *args, **kwargs)
            counts[cls.__name__] = 0
            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    def test_states_from_arrays_wrap_no_layer(self, monkeypatch, tmp_path):
        # every builder of a state from arrays, and the CLI's explicit init through a whole run
        rng = np.random.default_rng(5)
        counts = self.count_wrappers(monkeypatch)
        built = [state_from_arrays(random_rotations(3, 3, rng), rng.normal(size=(3, 3)), I3, I3)]
        built += [make_separated_config(3, n_per=4, seed=0)[0],
                  make_separated_config(3, n_per=4, seed=0, truncation="full")[0],
                  make_separated_config(1, n_per=4, seed=0, truncation="full")[0],
                  make_one_dim_state([1.0, 2.0, 3.0], 2.5, 0.5)[0],
                  _random_state_and_data(3, 6, rng)[0]]
        for kind in INITIAL_STATES:
            data, labels = make_equilibrium_data(2, "fully-truncated" if kind == "fully-truncated" else "all-positive")
            built.append(named_initial_state(kind, data, labels))
        doc = {"q": 2, "mode": "effective", "s_end": 0.05, "output": str(tmp_path / "out"),
               "data": {"q": 2, "clusters": [[[5.0, 5.2], [5.3, 5.1]], [[8.0, 8.1], [8.2, 7.9]]],
                        "labels": [[5.1, 5.15], [8.1, 8.0]]},
               "init": {"kind": "explicit", "rotations": [I2.tolist()] * 2, "betas": [[-4.0, -3.9]] * 2,
                        "output_map": I2.tolist()}}
        summary = run_scenario(ScenarioConfig.from_dict(doc))
        assert counts == {"OrthogonalMatrix": 0, "LayerParams": 0}
        assert len(built) == 6 + len(INITIAL_STATES) and summary["final_cost"] >= 0.0
        # the wrappers are still built where asked for: ModelState.layers and its constructor's input
        state = ModelState(built[0].layers, I3, I3)
        assert counts == {"OrthogonalMatrix": 3, "LayerParams": 3} and state.depth == 3


# every entry below the integrators that takes a state and a training set (the integrators'
# own test is in test_integrate.py), called with the defaults
LAYERED_ENTRIES = {
    "effective_rhs": effective_rhs,
    "general_rhs": general_rhs,
    "moment_form_rhs": moment_form_rhs,
    "check_cluster_separation": check_cluster_separation,
    "assert_kink_free": lambda state, data: assert_kink_free(state, data, 1e-5),
    "fd_gradients": fd_gradients,
    "fd_grad_beta": lambda state, data: fd_grad_beta(state, data, 0),
    "fd_grad_rotation": lambda state, data: fd_grad_rotation(state, data, 0),
    "euclidean_cost": euclidean_cost,
    "standard_cost": standard_cost,
}


class TestCheckData:
    @pytest.mark.parametrize("entry", list(LAYERED_ENTRIES))
    def test_state_and_data_of_different_q_rejected(self, entry):
        # a Q = 2 state on Q = 3 data is named at entry, not by a broadcast deep inside numpy
        state, _ = make_separated_config(2, n_per=4, seed=0)
        _, data = make_separated_config(3, n_per=4, seed=0)
        with pytest.raises(ValueError, match=r"^state and data differ in Q: state.dim = 2, data.q = 3$"):
            LAYERED_ENTRIES[entry](state, data)
