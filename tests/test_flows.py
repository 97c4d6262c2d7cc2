import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import truncflow.flows
from truncflow.errors import BadOrdering, EmptyCluster, IndexRange, LabelInsideData, SingularGram
from truncflow.flows import (
    CollapsedState,
    FrozenMasks,
    _acting,
    _descent_field,
    _general_plan,
    chained_projectors,
    clustered_explicit,
    clustered_rhs,
    collapsed_rhs,
    conserved_quantity,
    effective_rhs,
    general_rhs,
    moment_form_rhs,
    one_dim_flow,
)
from truncflow.manifold import AntisymmetricMatrix, antisym_project, expm_antisym, random_rotations
from truncflow.measures import TrainingSet, check_cluster_separation
from truncflow.model import chained_truncation, push
from truncflow.oracle import fd_grad_beta, fd_grad_collapsed, fd_grad_rotation, rk4_array
from truncflow.scenarios import make_separated_config, state_from_arrays
from truncflow.verify import _random_state_and_data

RNG = np.random.default_rng(2024)

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
ENTRIES = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def states_and_data(draw, q_min=2):
    """Q = q_min-4 clusters of 1-6 points, L <= Q layers (rotations exp(A) of drawn generators).

    Half the draws give every cluster one size, so the separated field takes its stacked plan
    entry, at any L, and its per-cluster entries otherwise.
    """
    q = draw(st.integers(q_min, 4))
    depth = draw(st.integers(1, q))
    gens = draw(arrays(float, (depth, q, q), elements=ENTRIES))
    betas = draw(arrays(float, (depth, q), elements=ENTRIES))
    labels = draw(arrays(float, (q, q), elements=ENTRIES))
    shared = draw(st.integers(1, 6)) if draw(st.booleans()) else None
    sizes = [shared or draw(st.integers(1, 6)) for _ in range(q)]
    clusters = [draw(arrays(float, (n, q), elements=ENTRIES)) for n in sizes]
    rotations = [expm_antisym(antisym_project(g)).mat for g in gens]
    return state_from_arrays(rotations, betas, np.eye(q), labels), TrainingSet(clusters)


class TestEffectiveRhs:
    def test_untruncated_equilibrium(self):
        q = 2
        state = state_from_arrays([np.eye(q)] * q, [10.0 * np.ones(q)] * q, np.eye(q), RNG.normal(size=(q, q)))
        data = TrainingSet([np.abs(RNG.normal(size=(4, q))) for _ in range(q)])
        beta_dots, omegas = effective_rhs(state, data)
        for layer in range(q):
            bd, om = beta_dots[layer], omegas[layer]
            assert np.all(bd == 0.0) and np.linalg.norm(om) == 0.0

    def test_fully_truncated_rate(self):
        # all points truncated: beta_dot = -(beta + ytilde), Omega = 0
        q = 2
        labels = RNG.normal(size=(q, q))
        betas = [RNG.normal(size=q) for _ in range(q)]
        state = state_from_arrays([np.eye(q)] * q, betas, np.eye(q), labels)
        data = TrainingSet([-np.abs(RNG.normal(size=(4, q))) - 20.0 for _ in range(q)])
        beta_dots, omegas = effective_rhs(state, data)
        for layer in range(q):
            bd, om = beta_dots[layer], omegas[layer]
            np.testing.assert_allclose(bd, -(betas[layer] + state.pulled_labels[layer]), atol=1e-12)
            assert np.linalg.norm(om) == 0.0

    def test_zero_gap_annihilates_bias_velocity(self):
        # beta = -ytilde kills the bias equation for any truncation pattern;
        # the rotation velocity persists (rotating mass toward the negative
        # orthant still lowers |relu(z)|^2 / 2) and must match the oracle
        from truncflow.model import ModelState

        base, data = make_separated_config(3, n_per=5, seed=77)
        w = base.output_map
        labels = np.vstack([w @ (-lp.beta) for lp in base.layers])
        state = ModelState(base.layers, w, labels)
        beta_dots, omegas = effective_rhs(state, data)
        for layer in range(state.depth):
            bd, om = beta_dots[layer], omegas[layer]
            np.testing.assert_allclose(bd, np.zeros(state.dim), atol=1e-10)
            fd_o = fd_grad_rotation(state, data, layer, step=1e-5)
            assert np.linalg.norm(om - fd_o.mat) <= 1e-5 * max(np.linalg.norm(fd_o.mat), 1e-3)

    def test_hand_expanded_two_by_two(self):
        # single point z = (0.5, -0.3) in sector (1, 0), v = (1, 2):
        # Omega_01 = (z0 v1 + v0 z1)/2 - z0 z1 / 2 = 0.35 + 0.075 = 0.425
        q = 2
        labels = np.array([[1.0, 2.0], [5.0, 5.0]])
        state = state_from_arrays([np.eye(q)] * q, [np.zeros(q)] * q, np.eye(q), labels)
        data = TrainingSet([np.array([[0.5, -0.3]]), np.array([[1.0, 1.0]])])
        beta_dots, omegas = effective_rhs(state, data)
        np.testing.assert_allclose(omegas[0], [[0.0, 0.425], [-0.425, 0.0]], atol=1e-15)
        np.testing.assert_allclose(beta_dots[0], [0.0, -2.0], atol=1e-15)

    def test_matches_fd_oracle(self):
        for seed in range(5):
            state, data = make_separated_config(int(RNG.integers(2, 4)), n_per=5, seed=seed)
            beta_dots, omegas = effective_rhs(state, data)
            for layer in range(state.depth):
                bd, om = beta_dots[layer], omegas[layer]
                fd_b = fd_grad_beta(state, data, layer, step=1e-5)
                fd_o = fd_grad_rotation(state, data, layer, step=1e-5)
                assert np.linalg.norm(bd + fd_b) <= 1e-5 * max(np.linalg.norm(fd_b), 1e-4)
                assert np.linalg.norm(om - fd_o.mat) <= 1e-5 * max(np.linalg.norm(fd_o.mat), 1e-4)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_each_layer_reads_only_its_own_parameters(self, q):
        # the separation assumption: layer k is driven by cluster k alone, so moving
        # another layer's beta and rotation leaves layer k's velocity bit for bit
        rng = np.random.default_rng(q)
        for seed in range(5):
            state, data = make_separated_config(q, n_per=5, seed=seed)
            beta_dots, omegas = effective_rhs(state, data)
            for j in range(state.depth):
                rotations, betas = state.rotations.copy(), state.betas.copy()
                betas[j] += 1e-3 * rng.normal(size=q)
                rotations[j] = expm_antisym(antisym_project(1e-3 * rng.normal(size=(q, q)))).mat @ rotations[j]
                moved = state.derive(rotations, betas)
                assert check_cluster_separation(moved, data)[0]
                moved_beta_dots, moved_omegas = effective_rhs(moved, data)
                for k in range(state.depth):
                    if k != j:
                        assert np.array_equal(moved_beta_dots[k], beta_dots[k]), (seed, j, k)
                        assert np.array_equal(moved_omegas[k], omegas[k]), (seed, j, k)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_pushes_no_point(self, q, monkeypatch):
        # each layer reads its own cluster's raw coordinates, so the separated field never
        # carries points through the layers that separation makes the identity
        cases = []
        for seed in range(3):
            state, data = make_separated_config(q, n_per=4, seed=seed)
            masks = push(state.rotations, state.betas, data.points)[1]
            cases.append((state, data, masks, effective_rhs(state, data), effective_rhs(state, data, masks)))

        def refuse(*args, **kwargs):
            raise AssertionError("effective_rhs pushed points through the layers")

        monkeypatch.setattr("truncflow.flows.push", refuse)
        for state, data, masks, free, frozen in cases:
            assert all(np.array_equal(a, b) for a, b in zip(effective_rhs(state, data), free))
            assert all(np.array_equal(a, b) for a, b in zip(effective_rhs(state, data, masks), frozen))

    def test_each_layer_reads_only_its_own_cluster(self):
        # moving the points of every cluster j != k, those beyond the depth included, leaves
        # layer k's velocity bit for bit, unfrozen and at frozen masks over all points; with
        # equal sizes the layers are one stacked plan entry, which must read only its own
        # cluster's rows too
        rng = np.random.default_rng(61)
        for equal_sizes in [False] * 20 + [True] * 20:
            q = int(rng.integers(2, 5))
            if equal_sizes:
                depth = int(rng.integers(1, q + 1))
                sizes = np.full(q, rng.integers(1, 8))
            else:
                depth = int(rng.integers(1, q))
                sizes = rng.choice(np.arange(1, 8), size=q, replace=False)
            rotations = random_rotations(depth, q, rng)
            state = state_from_arrays(rotations, rng.normal(size=(depth, q)), np.eye(q), rng.normal(size=(q, q)))
            clusters = [rng.normal(size=(n, q)) for n in sizes]
            data = TrainingSet(clusters)
            masks = [rng.random(data.points.shape) < 0.5 for _ in range(depth)]
            for k in range(depth):
                moved = TrainingSet([c if j == k else c + rng.normal(size=c.shape) for j, c in enumerate(clusters)])
                for frozen in (None, masks):
                    want, got = effective_rhs(state, data, frozen), effective_rhs(state, moved, frozen)
                    assert np.array_equal(got[0][k], want[0][k]) and np.array_equal(got[1][k], want[1][k]), (q, k)

    @staticmethod
    def per_cluster_field(state, data, frozen_masks=None):
        """The separated field through one plan entry per acting cluster, as unequal sizes take
        it, and the number of those entries."""
        plan, zs = [], []
        for k in range(state.depth):
            zs.append((data.clusters[k] + state.betas[k]) @ state.rotations[k].T)
            mask = zs[k] > 0.0 if frozen_masks is None else frozen_masks[k][data.rows(k)]
            if not mask.all():
                plan.append((k, [_acting(k, slice(None), mask)]))
        return _descent_field(state, plan, zs), len(plan)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_stacked_entry_equals_per_cluster_entries(self, q, monkeypatch):
        # clusters of one size make one (L, n, Q) plan entry at any L; its field equals the
        # per-cluster entries' bit for bit, unfrozen and frozen, at L = 1, L = q and L < q, also
        # where some layer's cluster is all active there (that layer leaves the stack) or every one is
        rng = np.random.default_rng(70 + q)
        entries = []
        sweep = truncflow.flows._descent_field

        def recording(state, plan, zs):
            entries.append([zs[acting[0][0]][acting[0][1]].ndim for _, acting in plan])
            return sweep(state, plan, zs)

        monkeypatch.setattr(truncflow.flows, "_descent_field", recording)
        for depth in range(1, q + 1):
            for n in (1, 3, 6):
                data = TrainingSet(rng.normal(size=(q, n, q)))
                for identity in ([], [0], [depth - 1], list(range(depth))):
                    betas = rng.normal(size=(depth, q))
                    betas[identity] = 100.0  # those layers' clusters all active: the identity
                    rotations = random_rotations(depth, q, rng)
                    state = state_from_arrays(rotations, betas, np.eye(q), rng.normal(size=(q, q)))
                    masks = [rng.random(data.points.shape) < 0.5 for _ in range(depth)]
                    for k in identity:
                        masks[k][:] = True
                    for frozen in (None, masks):
                        entries.clear()
                        got = effective_rhs(state, data, frozen)
                        want, acting = self.per_cluster_field(state, data, frozen)
                        assert entries == [[3] if acting else []]
                        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), \
                            (depth, n, identity, frozen is None)

    def test_empty_cluster(self):
        q = 2
        state = state_from_arrays([np.eye(q)] * q, [np.zeros(q)] * q, np.eye(q), np.zeros((q, q)))
        with pytest.raises(EmptyCluster):
            TrainingSet([np.zeros((0, q)), np.zeros((2, q))])


class TestMomentFormRhs:
    def test_equals_effective(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = int(rng.integers(2, 5))
            state, data = _random_state_and_data(q, 8, rng)
            b1, o1 = effective_rhs(state, data)
            b2, o2 = moment_form_rhs(state, data)
            for layer in range(state.depth):
                assert np.max(np.abs(b1[layer] - b2[layer])) <= 1e-12
                assert np.max(np.abs(o1[layer] - o2[layer])) <= 1e-12

    def test_pure_sectors_give_zero_rotation(self):
        q = 2
        state = state_from_arrays([np.eye(q)] * q, [np.zeros(q)] * q, np.eye(q), RNG.normal(size=(q, q)))
        up = np.abs(RNG.normal(size=(3, q))) + 0.1
        down = -np.abs(RNG.normal(size=(3, q))) - 0.1
        data = TrainingSet([np.vstack([up, down]), up])
        _, omegas = moment_form_rhs(state, data)
        assert np.linalg.norm(omegas[0]) == 0.0


class TestFieldContract:
    """Every layered RHS returns plain arrays stacked like the state, with
    exactly antisymmetric generators."""

    @pytest.mark.parametrize("rhs", [effective_rhs, general_rhs, moment_form_rhs])
    def test_stacked_antisymmetric(self, rhs):
        rng = np.random.default_rng(41)
        for _ in range(50):
            state, data = _random_state_and_data(int(rng.integers(1, 5)), 6, rng)
            beta_dots, omegas = rhs(state, data)
            assert beta_dots.shape == state.betas.shape
            assert omegas.shape == state.rotations.shape
            assert np.array_equal(omegas, -omegas.swapaxes(1, 2))

    @PROPERTY
    @given(states_and_data(), st.data())
    def test_frozen_masks_agree_across_forms(self, drawn, draw):
        # frozen sign patterns, here unrelated to the points, override the computed
        # ones in the per-point and the moment form alike; masks[k] is layer k over all
        # points, and both forms read cluster k's rows of it
        state, data = drawn
        masks = [draw.draw(arrays(bool, data.points.shape)) for _ in range(state.depth)]
        b1, o1 = effective_rhs(state, data, masks)
        b2, o2 = moment_form_rhs(state, data, masks)
        scale = 1.0 + max(np.max(np.abs(b1)), np.max(np.abs(o1)))
        assert np.max(np.abs(b1 - b2)) <= 1e-12 * scale
        assert np.max(np.abs(o1 - o2)) <= 1e-12 * scale

    def test_masks_from_push_go_straight_back(self):
        # frozen at push's own activity list, a field is its unfrozen self bit for bit: the
        # general one anywhere, the separated forms where earlier layers fix cluster k
        rng = np.random.default_rng(47)
        for i in range(20):
            for rhs, (state, data) in [
                (general_rhs, _random_state_and_data(int(rng.integers(2, 5)), 6, rng)),
                (effective_rhs, make_separated_config(int(rng.integers(2, 5)), n_per=4, seed=i)),
                (moment_form_rhs, make_separated_config(int(rng.integers(2, 5)), n_per=4, seed=50 + i)),
            ]:
                masks = push(state.rotations, state.betas, data.points)[1]
                frozen, free = rhs(state, data, masks), rhs(state, data)
                assert all(np.array_equal(a, b) for a, b in zip(frozen, free)), rhs.__name__

    @PROPERTY
    @given(states_and_data(q_min=1), st.data())
    def test_a_planned_mask_set_is_the_per_call_field(self, drawn, draw):
        # masks planned once (FrozenMasks) give both fields bit for bit what the same masks as a
        # plain list, planned on each call, give: at Q = 1-4, depth 1-Q, clusters of one size
        # or not, on the call that builds the plan and on later ones at other states
        state, data = drawn
        masks = [draw.draw(arrays(bool, data.points.shape)) for _ in range(state.depth)]
        planned = FrozenMasks(masks, data)
        moved = state.derive(state.rotations, state.betas + 0.5)
        for rhs in (effective_rhs, general_rhs):
            for at in (state, moved, state):
                want, got = rhs(at, data, list(masks)), rhs(at, data, planned)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), rhs.__name__

    def test_masks_planned_for_other_data_are_planned_again(self):
        # a mask set's plans serve only the data and depth it was made for; the field plans the
        # masks anew for any other, here the same points split into other clusters, or masks of
        # more layers than the state
        rng = np.random.default_rng(48)
        points = rng.normal(size=(6, 2))
        data, other = TrainingSet([points[:2], points[2:]]), TrainingSet([points[:4], points[4:]])
        state = state_from_arrays(random_rotations(2, 2, rng), rng.normal(size=(2, 2)),
                                  np.eye(2), rng.normal(size=(2, 2)))
        masks = [rng.random(points.shape) < 0.5 for _ in range(2)]
        deeper = masks + [rng.random(points.shape) < 0.5]
        for rhs in (effective_rhs, general_rhs):
            for frozen in (FrozenMasks(masks, other), FrozenMasks(deeper, data)):
                want, got = rhs(state, data, masks), rhs(state, data, frozen)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), rhs.__name__

    @staticmethod
    def malformed_setup():
        """A depth-2 state on three clusters of 2, 3 and 4 points, and its push masks."""
        rng = np.random.default_rng(49)
        data = TrainingSet([rng.normal(size=(n, 3)) for n in (2, 3, 4)])
        state = state_from_arrays(random_rotations(2, 3, rng), rng.normal(size=(2, 3)),
                                  np.eye(3), rng.normal(size=(3, 3)))
        return state, data, push(state.rotations, state.betas, data.points)[1]

    @pytest.mark.parametrize("rhs", [effective_rhs, general_rhs, moment_form_rhs])
    def test_masks_short_of_a_row_rejected(self, rhs):
        # masks of N - 1 rows would leave the last cluster's last point out of its sector
        state, data, masks = self.malformed_setup()
        with pytest.raises(ValueError, match=r"frozen mask 0 is bool of shape \(8, 3\); expected bool of shape \(9, 3\)"):
            rhs(state, data, [mask[:-1] for mask in masks])

    @pytest.mark.parametrize("rhs", [effective_rhs, general_rhs, moment_form_rhs])
    def test_masks_of_another_shape_rejected(self, rhs):
        state, data, masks = self.malformed_setup()
        with pytest.raises(ValueError, match=r"frozen mask 1 is bool of shape \(3, 9\); expected bool of shape \(9, 3\)"):
            rhs(state, data, [masks[0], masks[1].T])

    @pytest.mark.parametrize("rhs", [effective_rhs, general_rhs, moment_form_rhs])
    def test_masks_not_boolean_arrays_rejected(self, rhs):
        state, data, masks = self.malformed_setup()
        with pytest.raises(ValueError, match=r"frozen mask 0 is float64 of shape \(9, 3\); expected bool"):
            rhs(state, data, [mask.astype(float) for mask in masks])
        with pytest.raises(ValueError, match=r"frozen mask 1 is list; expected bool"):
            rhs(state, data, [masks[0], masks[1].tolist()])

    @pytest.mark.parametrize("rhs", [effective_rhs, general_rhs, moment_form_rhs])
    def test_fewer_masks_than_layers_rejected(self, rhs):
        state, data, masks = self.malformed_setup()
        with pytest.raises(IndexRange, match="1 frozen masks for 2 layers"):
            rhs(state, data, masks[:1])

    def test_frozen_masks_checked_where_they_enter(self):
        # a mask set checks its masks once, when it is made
        _, data, masks = self.malformed_setup()
        with pytest.raises(ValueError, match="frozen mask 1 is int64"):
            FrozenMasks([masks[0], masks[1].astype(np.int64)], data)

    def test_depth_beyond_clusters_rejected(self):
        q = 2
        state = state_from_arrays([np.eye(q)] * 3, [np.zeros(q)] * 3, np.eye(q), np.zeros((q, q)))
        data = TrainingSet([np.ones((2, q)), np.ones((2, q))])
        for rhs in (effective_rhs, moment_form_rhs):
            with pytest.raises(IndexRange):
                rhs(state, data)


def separated_setup(rng, sizes, depth: int, identity=()):
    """A state of `depth` layers on Q = len(sizes) clusters of those sizes, and masks that truncate
    each cluster k at layer k alone: random bits on its rows there, every other row active, and
    every row active at the layers in `identity`."""
    q = len(sizes)
    data = TrainingSet([rng.normal(size=(n, q)) for n in sizes])
    rotations = random_rotations(depth, q, rng)
    state = state_from_arrays(rotations, rng.normal(size=(depth, q)), np.eye(q), rng.normal(size=(q, q)))
    masks = [np.ones(data.points.shape, dtype=bool) for _ in range(depth)]
    for k in range(min(depth, q)):
        if k not in identity:
            masks[k][data.rows(k)] = rng.random((sizes[k], q)) < 0.5
    return state, data, masks


def per_cluster_general_field(state, data, masks):
    """The general field through its per-cluster plan of `masks`, at push's coordinates."""
    pushed = push(state.rotations, state.betas, data.points, masks)[0]
    return _descent_field(state, _general_plan(masks, data), pushed)


class TestGeneralRhs:
    @PROPERTY
    @given(st.integers(1, 4), st.data())
    def test_separated_masks_sweep_the_stacked_entry(self, q, draw):
        # masks that truncate each cluster k at layer k alone, over clusters 0..depth-1 of one
        # size, at any depth: the general field sweeps the separated field's stacked entry over
        # push's coordinates, bit for bit its per-cluster plan's field, planned once or on the
        # call, also where some layer or every layer is all active
        depth = draw.draw(st.integers(1, q), label="depth")
        n = draw.draw(st.sampled_from([1, 3, 6]), label="n")
        identity = draw.draw(st.sampled_from([(), (0,), (depth - 1,), tuple(range(depth))]), label="identity")
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        sizes = [n] * depth + [int(m) for m in rng.integers(1, 8, size=q - depth)]
        state, data, masks = separated_setup(rng, sizes, depth, identity)
        planned = FrozenMasks(masks, data)
        assert planned.separated
        want = per_cluster_general_field(state, data, masks)
        for frozen in (planned, list(masks)):
            got = general_rhs(state, data, frozen)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_separated_states_sweep_the_stacked_entry(self):
        # unfrozen, on separated states whose own masks are separated: the per-cluster plan's field
        for i in range(12):
            state, data = make_separated_config(2 + i % 3, n_per=(1, 3, 6)[i % 3], seed=200 + i)
            masks = push(state.rotations, state.betas, data.points)[1]
            assert FrozenMasks(masks, data).separated
            want = per_cluster_general_field(state, data, masks)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(general_rhs(state, data), want))

    def test_separated_masks_are_separated_states(self):
        # on push's masks, FrozenMasks lists check_cluster_separation's violations and answers as it
        # does: at Q = 1-4 and depth <= Q, over clusters of one size or not, on separated configs
        # whose biases are nudged by 0, 5 or 20 (clusters 20 apart) and on unstructured states; at
        # depth Q + 1 the set is not separated, even where it truncates nothing, and the check raises
        rng = np.random.default_rng(72)
        answers = []
        for i in range(240):
            q = int(rng.integers(2 if i % 3 else 1, 5))  # a separated config needs Q >= 2
            if i % 3:
                full, whole = make_separated_config(q, n_per=6, seed=i)
                data = TrainingSet([c[:n] for c, n in zip(whole.clusters, rng.integers(1, 7, size=q))]
                                   if i % 3 == 1 else whole.clusters)
                depth = int(rng.integers(1, q + 1))
                nudge = rng.choice([0.0, 5.0, 20.0]) * rng.normal(size=(depth, q))
                state = state_from_arrays(full.rotations[:depth], full.betas[:depth] + nudge, full.output_map,
                                          full.labels)
            else:
                state, data = _random_state_and_data(q, 6, rng)
            planned = FrozenMasks(push(state.rotations, state.betas, data.points)[1], data)
            ok, violations = check_cluster_separation(state, data)
            assert planned.violations == violations and planned.separated == ok, i
            answers.append(ok)
        assert 80 < sum(answers) < 160  # both answers are common
        positive = TrainingSet([np.ones((2, 2)), 2.0 * np.ones((1, 2))])
        deeper = [(state_from_arrays([np.eye(2)] * 3, [np.zeros(2)] * 3, np.eye(2), np.zeros((2, 2))), positive)]
        for i in range(24):
            q = int(rng.integers(1, 5))
            state, data = _random_state_and_data(q, 6, rng)
            beta = rng.normal(size=q) + (100.0 if i % 2 else 0.0)  # half the extra layers truncate nothing
            deeper.append((state_from_arrays([*state.rotations, random_rotations(1, q, rng)[0]], [*state.betas, beta],
                                             state.output_map, state.labels), data))
        for state, data in deeper:
            assert not FrozenMasks(push(state.rotations, state.betas, data.points)[1], data).separated
            with pytest.raises(IndexRange, match=f"^depth {state.depth} exceeds the {data.q} clusters$"):
                check_cluster_separation(state, data)

    def test_only_separated_masks_take_the_separated_plan(self, monkeypatch):
        # separated masks take the separated field's plan, over clusters of one size or of two; one
        # truncated foreign row, or more layers than clusters, and the general field sweeps its
        # per-cluster plan; both bit for bit that plan's field
        rng = np.random.default_rng(71)
        swept, sweep = [], truncflow.flows._descent_field
        monkeypatch.setattr(truncflow.flows, "_descent_field",
                            lambda state, plan, zs: swept.append(plan) or sweep(state, plan, zs))
        state, data, masks = separated_setup(rng, [4, 4, 4], 3)
        foreign = [mask.copy() for mask in masks]
        foreign[1][data.rows(2).start + 3, 2] = False  # cluster 2's last point, truncated at layer 1
        cases = [(state, data, masks, True), (*separated_setup(rng, [4, 5, 4], 3), True),
                 (state, data, foreign, False), (*separated_setup(rng, [4, 4], 3), False)]
        for at, on, frozen, separated in cases:
            planned = FrozenMasks(frozen, on)
            got = general_rhs(at, on, planned)
            assert planned.separated == separated
            assert swept[-1] is (planned.effective if separated else planned.general)
            want = per_cluster_general_field(at, on, frozen)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert not FrozenMasks(cases[1][2], cases[1][1]).stacked

    def test_reduces_to_effective_on_separated(self):
        for seed in range(10):
            state, data = make_separated_config(int(RNG.integers(2, 4)), n_per=4, seed=100 + seed)
            b1, o1 = effective_rhs(state, data)
            b2, o2 = general_rhs(state, data)
            for layer in range(state.depth):
                assert np.max(np.abs(b1[layer] - b2[layer])) <= 1e-10
                assert np.max(np.abs(o1[layer] - o2[layer])) <= 1e-10

    @PROPERTY
    @given(states_and_data(), st.data())
    def test_separated_is_general_at_the_separated_pattern(self, drawn, draw):
        # the separation assumption as a mask: every (layer l, cluster c != l) block all
        # active, cluster l's rows at layer l from the frozen masks
        state, data = drawn
        masks = [draw.draw(arrays(bool, data.points.shape)) for _ in range(state.depth)]
        pattern = [np.ones(data.points.shape, dtype=bool) for _ in range(state.depth)]
        for k in range(state.depth):
            pattern[k][data.rows(k)] = masks[k][data.rows(k)]
        b1, o1 = effective_rhs(state, data, masks)
        b2, o2 = general_rhs(state, data, pattern)
        scale = 1.0 + max(np.max(np.abs(b1)), np.max(np.abs(o1)))
        assert np.max(np.abs(b1 - b2)) <= 1e-12 * scale
        assert np.max(np.abs(o1 - o2)) <= 1e-12 * scale

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_exactly_zero_at_the_collapse_point(self, q):
        # each cluster's mismatch starts at its own (topmost acting) layer, where it is
        # exactly zero; starting it from the final images leaves the other layers' round-off
        state, data = make_separated_config(q, n_per=4, seed=3, truncation="full")
        beta_dots, omegas = general_rhs(state, data)
        assert np.all(beta_dots == 0.0) and np.all(omegas == 0.0)

    def test_effective_does_not_call_general_by_name(self, monkeypatch):
        # a tracer that rebinds flows.general_rhs must count one separated field call once
        state, data = make_separated_config(3, n_per=4, seed=0)
        want = effective_rhs(state, data)

        def rebound(*args, **kwargs):
            raise AssertionError("effective_rhs went through the module name general_rhs")

        monkeypatch.setattr("truncflow.flows.general_rhs", rebound)
        got = effective_rhs(state, data)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_all_positive_is_flat(self):
        q = 3
        state = state_from_arrays([np.eye(q)] * q, [20.0 * np.ones(q)] * q, np.eye(q), RNG.normal(size=(q, q)))
        data = TrainingSet([np.abs(RNG.normal(size=(3, q))) for _ in range(q)])
        for bd, om in zip(*general_rhs(state, data)):
            assert np.all(bd == 0.0) and np.linalg.norm(om) == 0.0

    def test_matches_per_point_suffix_products(self):
        # reference: each point's residual pulled back through the product of
        # the truncation Jacobians of layers l+1..L (chained_projectors)
        rng = np.random.default_rng(53)
        for _ in range(20):
            state, data = _random_state_and_data(int(rng.integers(2, 5)), 6, rng)
            depth = state.depth
            want_b = np.zeros(state.betas.shape)
            want_o = np.zeros(state.rotations.shape)
            for l_cl, pts in enumerate(data.clusters):
                for x in pts:
                    images = [chained_truncation(state, x, 0, k) for k in range(depth + 1)]
                    resid = images[depth] - state.pulled_labels[l_cl]
                    for l in range(depth):
                        r, beta = state.rotations[l], state.betas[l]
                        suffix = chained_projectors(state, images[l + 1], l + 1, depth)[0]
                        c = r @ (suffix.T @ resid)
                        a = r @ (images[l] + beta)
                        nu = np.diag((a > 0.0).astype(float))
                        sym = 0.5 * (np.outer(a, c) + np.outer(c, a))
                        want_b[l] += r.T @ (np.diag(1.0 - np.diag(nu)) @ c) / len(pts)
                        want_o[l] -= (nu @ sym - sym @ nu) / len(pts)
            beta_dots, omegas = general_rhs(state, data)
            assert np.max(np.abs(beta_dots - want_b)) <= 1e-12
            assert np.max(np.abs(omegas - want_o)) <= 1e-12

    def test_matches_fd_on_mixed_data(self):
        rng = np.random.default_rng(17)
        state, data = _random_state_and_data(3, 5, rng)
        beta_dots, omegas = general_rhs(state, data)
        for layer in range(state.depth):
            fd_b = fd_grad_beta(state, data, layer, step=1e-5)
            fd_o = fd_grad_rotation(state, data, layer, step=1e-5)
            bd, om = beta_dots[layer], omegas[layer]
            assert np.linalg.norm(bd + fd_b) <= 1e-5 * max(np.linalg.norm(fd_b), 1e-3)
            assert np.linalg.norm(om - fd_o.mat) <= 1e-5 * max(np.linalg.norm(fd_o.mat), 1e-3)


def test_directional_derivative_pairing():
    # for random antisymmetric w: d/de C(exp(e w) R)|_0 = tr(w Omega)
    from truncflow.manifold import retract
    from truncflow.model import ModelState, euclidean_cost

    rng = np.random.default_rng(88)
    for seed in range(6):
        state, data = make_separated_config(int(rng.integers(2, 4)), n_per=4, seed=900 + seed)
        layer = int(rng.integers(0, state.depth))
        om = effective_rhs(state, data)[1][layer]
        g = rng.normal(size=(state.dim, state.dim))
        w = AntisymmetricMatrix(0.5 * (g - g.T))
        eps = 1e-6
        costs = []
        for step in (eps, -eps):
            rotations = state.rotations.copy()
            rotations[layer] = retract(state.layers[layer].rotation, w, step).mat
            costs.append(euclidean_cost(state.derive(rotations, state.betas), data))
        fd = (costs[0] - costs[1]) / (2 * eps)
        analytic = float(np.trace(w.mat @ om))
        assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-3)


class TestChainedProjectors:
    def test_all_positive_point(self):
        q = 3
        state = state_from_arrays([np.eye(q)] * q, [10.0 * np.ones(q)] * q, np.eye(q), np.zeros((q, q)))
        p_plus, p_minus = chained_projectors(state, np.ones(q))
        np.testing.assert_allclose(p_plus, np.eye(q), atol=1e-12)
        for pm in p_minus:
            np.testing.assert_allclose(pm, np.zeros((q, q)), atol=1e-12)

    def test_fully_truncated_single_layer(self):
        q = 2
        state = state_from_arrays([np.eye(q)], [np.zeros(q)], np.eye(q), np.zeros((q, q)))
        p_plus, p_minus = chained_projectors(state, -np.ones(q), 0, 1)
        np.testing.assert_allclose(p_plus, np.zeros((q, q)), atol=1e-12)
        np.testing.assert_allclose(p_minus[0], np.eye(q), atol=1e-12)

    def test_point_of_another_shape_rejected(self):
        # one point of length Q: a longer one, or rows of points, are named by their shape
        state = state_from_arrays([np.eye(2)], [np.zeros(2)], np.eye(2), np.zeros((2, 2)))
        for x in ([1.0, 2.0, 3.0], np.ones((3, 2))):
            with pytest.raises(ValueError, match=r"^point has shape \(.*\); expected \(2,\)$"):
                chained_projectors(state, x)

    def test_non_finite_point_rejected_naming_it(self):
        state = state_from_arrays([np.eye(2)], [np.zeros(2)], np.eye(2), np.zeros((2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^point coordinate 1 is .*, not finite$"):
                chained_projectors(state, [1.0, bad])

    def test_bad_range_names_it_and_the_depth(self):
        state = state_from_arrays([np.eye(2)] * 2, [np.zeros(2)] * 2, np.eye(2), np.zeros((2, 2)))
        for lo, hi in ((0, 3), (-1, 1), (2, 1)):
            with pytest.raises(IndexRange, match=rf"^invalid layer range \[{lo}, {hi}\) for depth 2$"):
                chained_projectors(state, np.ones(2), lo, hi)

    @PROPERTY
    @given(states_and_data(), st.data())
    def test_reconstruction_identity(self, drawn, draw):
        # the chain over [lo, hi) equals its projector expansion p_plus x - sum_k p_minus_k beta_k
        state, _ = drawn
        x = draw.draw(arrays(float, state.dim, elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
        lo = draw.draw(st.integers(0, state.depth))
        hi = draw.draw(st.integers(lo, state.depth))
        p_plus, p_minus = chained_projectors(state, x, lo, hi)
        recon = p_plus @ x
        for k, pm in zip(range(lo, hi), p_minus):
            recon = recon - pm @ state.betas[k]
        assert np.max(np.abs(recon - chained_truncation(state, x, lo, hi))) <= 1e-10


class TestCollapsed:
    def test_stationary_at_interpolation(self):
        q = 3
        w = RNG.normal(size=(q, q)) + 2 * np.eye(q)
        b = RNG.normal(size=(q, q))
        cs = CollapsedState(b, w, -(w @ b))
        b_dot, w_dot = collapsed_rhs(cs.b_matrix, cs.w_out, cs.y_matrix)
        assert np.all(b_dot == 0.0) and np.all(w_dot == 0.0)

    def test_constructor_copies_the_callers_arrays(self):
        base = RNG.normal(size=(3, 2, 2))
        kept = base.copy()
        cs = CollapsedState(*base)
        assert base.flags.writeable
        base[:] = 0.0
        for got, want in zip((cs.b_matrix, cs.w_out, cs.y_matrix), kept):
            np.testing.assert_array_equal(got, want)

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValueError, match="^b_matrix has shape"):
            CollapsedState(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))

    def test_zero_output_map(self):
        q = 2
        b, y = RNG.normal(size=(q, q)), RNG.normal(size=(q, q))
        cs = CollapsedState(b, np.zeros((q, q)), y)
        b_dot, w_dot = collapsed_rhs(cs.b_matrix, cs.w_out, cs.y_matrix)
        np.testing.assert_array_equal(b_dot, np.zeros((q, q)))
        np.testing.assert_allclose(w_dot, -(y @ b.T), atol=1e-15)

    def test_matches_fd(self):
        for _ in range(5):
            cs = CollapsedState(RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)))
            b_grad, w_grad = fd_grad_collapsed(cs, step=1e-5)
            b_dot, w_dot = collapsed_rhs(cs.b_matrix, cs.w_out, cs.y_matrix)
            assert np.linalg.norm(b_dot + b_grad) <= 1e-6 * max(1.0, np.linalg.norm(b_grad))
            assert np.linalg.norm(w_dot + w_grad) <= 1e-6 * max(1.0, np.linalg.norm(w_grad))

    def test_fd_vanishes_at_stationary_point(self):
        q = 2
        w = np.eye(q) + 0.2 * RNG.normal(size=(q, q))
        b = RNG.normal(size=(q, q))
        cs = CollapsedState(b, w, -(w @ b))
        b_grad, w_grad = fd_grad_collapsed(cs, step=1e-5)
        assert np.max(np.abs(b_grad)) <= 1e-8
        assert np.max(np.abs(w_grad)) <= 1e-8

    def test_conserved_quantity_values(self):
        r = random_rotations(1, 3, RNG)[0]
        cs = CollapsedState(r, r, np.zeros((3, 3)))
        np.testing.assert_allclose(conserved_quantity(cs), np.zeros((3, 3)), atol=1e-14)
        cs2 = CollapsedState(2 * np.eye(3), np.eye(3), np.zeros((3, 3)))
        np.testing.assert_allclose(conserved_quantity(cs2), 3 * np.eye(3), atol=1e-14)
        cs3 = CollapsedState(RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)), np.zeros((3, 3)))
        inv = conserved_quantity(cs3)
        assert np.max(np.abs(inv - inv.T)) == 0.0

    def test_non_finite_state_rejected(self):
        for name, args in (("b_matrix", ([[np.nan]], [[1.0]], [[0.0]])),
                           ("w_out", ([[1.0]], [[np.inf]], [[0.0]])),
                           ("y_matrix", ([[1.0]], [[1.0]], [[np.nan]]))):
            with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
                CollapsedState(*args)


class TestClusteredExplicit:
    def test_s_zero(self):
        q, n = 2, 5
        w0, x = RNG.normal(size=(q, q)), RNG.normal(size=(q, n))
        y = RNG.normal(size=(q, n))
        np.testing.assert_allclose(clustered_explicit(w0, x, y, 0.0), w0, atol=1e-12)

    def test_fixed_point(self):
        q, n = 3, 6
        x = RNG.normal(size=(q, n))
        y = RNG.normal(size=(q, n))
        proj = x.T @ np.linalg.inv(x @ x.T)
        w0 = y @ proj
        for s in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(clustered_explicit(w0, x, y, s), w0, atol=1e-10)

    def test_identity_data_against_ode(self):
        q = 2
        w0, y = RNG.normal(size=(q, q)), RNG.normal(size=(q, q))
        x = np.eye(q)
        w_flat = w0.reshape(-1)
        s_prev = 0.0
        for s in np.linspace(0.0, 4.0, 21):
            expected = w0 * np.exp(-s / q) + y @ np.eye(q) * (1 - np.exp(-s / q))
            got = clustered_explicit(w0, x, y, s)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            if s > s_prev:
                w_flat = rk4_array(
                    lambda w: clustered_rhs(w.reshape(q, q), x, y).reshape(-1),
                    w_flat, s - s_prev, step=1e-4,
                )
                s_prev = s
            assert np.linalg.norm(got - w_flat.reshape(q, q)) <= 1e-6

    def test_non_finite_input_rejected(self):
        x, y = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
        with pytest.raises(ValueError, match="^W0 has a non-finite entry"):
            clustered_explicit([[np.nan, 0.0], [0.0, 1.0]], x, y, 1.0)
        x[1, 2] = np.inf
        with pytest.raises(ValueError, match="^X has a non-finite entry"):
            clustered_explicit(np.eye(2), x, y, 1.0)
        for s in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^s must be finite, got "):
                clustered_explicit(np.eye(2), RNG.normal(size=(2, 3)), y, s)

    def test_singular_gram(self):
        x = np.zeros((2, 3))
        with pytest.raises(SingularGram):
            clustered_explicit(np.eye(2), x, np.zeros((2, 3)), 1.0)


class TestOneDimFlow:
    def test_canonical_gap(self):
        flow = one_dim_flow([1.0, 2.0], 5.0, 1.0)
        assert flow.initial_truncated == 1
        assert flow.breakpoints[0] == pytest.approx(2.0 * np.log(4.0 / 3.0), rel=1e-15)

    def test_frozen_below_data(self):
        flow = one_dim_flow([1.0, 2.0], 5.0, 0.0)
        assert flow.frozen
        assert flow.gap(10.0) == pytest.approx(5.0)

    def test_final_rate_is_one(self):
        flow = one_dim_flow([1.0, 2.0], 5.0, 1.0)
        s_last = flow.breakpoints[-1]
        for ds in (0.5, 1.0, 2.0):
            expected = np.exp(-ds) * (5.0 - 2.0)
            assert flow.gap(s_last + ds) == pytest.approx(expected, rel=1e-12)

    def test_segment_structure(self):
        flow = one_dim_flow([-1.0, 0.5, 2.0], 4.0, 0.6)
        assert flow.initial_truncated == 2
        rates = [seg.rate for seg in flow.segments]
        assert rates == [2.0 / 3.0, 1.0]

    def test_bad_inputs(self):
        with pytest.raises(BadOrdering):
            one_dim_flow([2.0, 1.0], 5.0, 0.0)
        with pytest.raises(LabelInsideData):
            one_dim_flow([1.0, 2.0], 1.5, 0.0)
        with pytest.raises(LabelInsideData):
            one_dim_flow([1.0, 2.0], 5.0, 6.0)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="^points must hold at least one point"):
            one_dim_flow([], 5.0, 1.0)

    @pytest.mark.parametrize("args, name", [
        (([1.0, np.nan], 5.0, 1.0), "points"),
        (([1.0, 2.0], np.nan, 1.0), "y"),
        (([0.0, 1.0], 3.0, np.nan), "b0"),
    ])
    def test_non_finite_inputs_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            one_dim_flow(*args)

    def test_matches_ode(self):
        # cross-check the recursion against direct integration of the
        # piecewise rate equation d(gap)/ds = -(n(b)/N) gap
        flow = one_dim_flow([0.2, 0.9, 1.7], 3.0, 0.3)

        def rate(b):
            return sum(1 for p in [0.2, 0.9, 1.7] if p <= b) / 3.0

        gap, s, h = 3.0 - 0.3, 0.0, 1e-5
        for _ in range(int(2.0 / h)):
            b = 3.0 - gap
            gap += h * (-rate(b) * gap)
            s += h
        assert flow.gap(s) == pytest.approx(gap, rel=1e-3)
