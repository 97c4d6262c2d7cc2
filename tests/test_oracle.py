from itertools import combinations

import numpy as np
import pytest

from truncflow.errors import NearKink
from truncflow.flows import CollapsedState, effective_rhs
from truncflow.manifold import AntisymmetricMatrix, OrthogonalMatrix, retract
from truncflow.measures import TrainingSet
from truncflow.model import ModelState, euclidean_cost
from truncflow.oracle import (
    assert_kink_free,
    fd_grad_beta,
    fd_grad_collapsed,
    fd_grad_rotation,
    fd_gradients,
    reference_integrate,
    rk4_array,
)
from truncflow.scenarios import make_separated_config, state_from_arrays
from truncflow.verify import _random_state_and_data

RNG = np.random.default_rng(55)


class TestFDSettings:
    def test_step_bounds(self):
        state, data = make_separated_config(2, n_per=3, seed=1)
        cs = CollapsedState(np.eye(2), np.eye(2), np.eye(2))
        for fd in (lambda step: fd_grad_beta(state, data, 0, step=step),
                   lambda step: fd_grad_rotation(state, data, 0, step=step),
                   lambda step: fd_grad_collapsed(cs, step=step)):
            for step in (1e-10, 0.1):
                with pytest.raises(ValueError, match="step"):
                    fd(step)
        with pytest.raises(TypeError):  # central differences only: no scheme knob
            fd_grad_beta(state, data, 0, scheme="forward")


class TestKinkGuard:
    def test_rejects_boundary_adjacent_point(self):
        q = 2
        state = state_from_arrays([np.eye(q)], [np.zeros(q)], np.eye(q), np.zeros((q, q)))
        data = TrainingSet([np.array([[1e-7, 1.0]]), np.array([[1.0, 1.0]])])
        with pytest.raises(NearKink):
            assert_kink_free(state, data, 1e-5)
        with pytest.raises(NearKink):
            fd_grad_beta(state, data, 0, step=1e-5)

    def test_accepts_clear_configuration(self):
        state, data = make_separated_config(2, n_per=3, seed=1)
        assert_kink_free(state, data, 1e-5)

    def test_rejects_last_cluster_at_top_layer(self):
        # the only coordinate inside the band is the last cluster's, at the last layer
        q = 2
        state = state_from_arrays([np.eye(q)] * 2, [np.zeros(q), np.array([-1.0, 0.0])],
                                  np.eye(q), np.zeros((q, q)))
        data = TrainingSet([np.array([[3.0, 3.0], [2.0, 4.0]]), np.array([[4.0, 2.0], [1.0 + 1e-7, 2.0]])])
        below = state_from_arrays([np.eye(q)], [np.zeros(q)], np.eye(q), np.zeros((q, q)))
        assert_kink_free(below, data, 1e-5)  # layer 0 alone clears every point
        with pytest.raises(NearKink, match="at layer 1 "):
            assert_kink_free(state, data, 1e-5)


def one_stencil_at_a_time(state, data, layer, step):
    """Central differences over `euclidean_cost` of `derive`d states, one stencil per cost:
    the layer's beta gradient and its o(Q) generator, as the oracle's stacks must give them."""
    q = state.dim
    beta_grad = np.zeros(q)
    for r in range(q):
        delta = np.zeros(q)
        delta[r] = step
        plus, minus = state.betas.copy(), state.betas.copy()
        plus[layer] += delta
        minus[layer] -= delta
        beta_grad[r] = (euclidean_cost(state.derive(state.rotations, plus), data)
                        - euclidean_cost(state.derive(state.rotations, minus), data)) / (2 * step)
    rotation, g = OrthogonalMatrix(state.rotations[layer]), np.zeros((q, q))
    for i, j in combinations(range(q), 2):
        gen = np.zeros((q, q))
        gen[i, j], gen[j, i] = 1.0, -1.0
        plus, minus = state.rotations.copy(), state.rotations.copy()
        plus[layer] = retract(rotation, AntisymmetricMatrix(gen), step).mat
        minus[layer] = retract(rotation, AntisymmetricMatrix(gen), -step).mat
        d = (euclidean_cost(state.derive(plus, state.betas), data)
             - euclidean_cost(state.derive(minus, state.betas), data)) / (2 * step)
        g[i, j], g[j, i] = -0.5 * d, 0.5 * d
    return beta_grad, g


class TestStackedStencils:
    """Each layer's stencils go up as one stacked push; the gradients stay bit for bit those of
    one full cost per stencil, also when `fd_gradients` prices every layer after one check."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_equal_one_stencil_at_a_time(self, q):
        rng = np.random.default_rng((56, q))
        checked = {"separated": 0, "unstructured": 0}
        for i in range(8):
            draws = (("separated", make_separated_config(q, n_per=int(rng.integers(2, 7)), seed=i)),
                     ("unstructured", _random_state_and_data(q, 6, rng)))
            for kind, (state, data) in draws:
                for step in (1e-5, 1e-3):
                    try:
                        assert_kink_free(state, data, step)
                    except NearKink:
                        with pytest.raises(NearKink):  # all layers at once: the same one check
                            fd_gradients(state, data, step=step)
                        continue
                    all_layers = fd_gradients(state, data, step=step)
                    for layer, (fd_b, fd_o) in zip(range(state.depth), all_layers, strict=True):
                        beta_grad, g = one_stencil_at_a_time(state, data, layer, step)
                        assert np.array_equal(fd_grad_beta(state, data, layer, step=step), beta_grad)
                        assert np.array_equal(fd_grad_rotation(state, data, layer, step=step).mat, g)
                        assert fd_b.tobytes() == beta_grad.tobytes() and fd_o.mat.tobytes() == g.tobytes()
                    checked[kind] += 1
        assert min(checked.values()) >= 4, checked

    def test_one_coordinate_has_no_rotation_stencils(self):
        # at Q = 1, o(1) = {0}: the layer's push carries the two beta stencils alone
        state = state_from_arrays([np.eye(1)] * 2, [[0.3], [-0.2]], np.eye(1), [[5.0]])
        data = TrainingSet([np.array([[0.1], [-0.5], [1.0]])])
        for layer, (fd_b, fd_o) in enumerate(fd_gradients(state, data)):
            beta_grad, g = one_stencil_at_a_time(state, data, layer, 1e-5)
            assert fd_b.tobytes() == beta_grad.tobytes() == fd_grad_beta(state, data, layer).tobytes()
            assert fd_o.mat.tobytes() == g.tobytes() == fd_grad_rotation(state, data, layer).mat.tobytes()

    def test_collapsed_equals_one_state_per_stencil(self):
        rng = np.random.default_rng(57)
        for q in (1, 2, 3, 4):
            cs = CollapsedState(rng.normal(size=(q, q)), rng.normal(size=(q, q)), rng.normal(size=(q, q)))
            for step in (1e-5, 1e-3):
                b_grad, w_grad = np.zeros((q, q)), np.zeros((q, q))
                for i in range(q):
                    for j in range(q):
                        db = np.zeros((q, q))
                        db[i, j] = step
                        b_grad[i, j] = (CollapsedState(cs.b_matrix + db, cs.w_out, cs.y_matrix).cost()
                                        - CollapsedState(cs.b_matrix - db, cs.w_out, cs.y_matrix).cost()) / (2 * step)
                        w_grad[i, j] = (CollapsedState(cs.b_matrix, cs.w_out + db, cs.y_matrix).cost()
                                        - CollapsedState(cs.b_matrix, cs.w_out - db, cs.y_matrix).cost()) / (2 * step)
                fd_b, fd_w = fd_grad_collapsed(cs, step=step)
                assert np.array_equal(fd_b, b_grad) and np.array_equal(fd_w, w_grad)


class TestSecondOrderConvergence:
    def test_beta_stencil_exact_for_piecewise_quadratic(self):
        # at fixed masks the cost is quadratic in beta, so the central
        # stencil is exact up to rounding at any admissible step
        state, data = make_separated_config(3, n_per=5, seed=2, kink_margin=2e-2)
        layer = 1
        bd = effective_rhs(state, data)[0][layer]
        for step in (2e-4, 1e-5):
            fd = fd_grad_beta(state, data, layer, step=step)
            assert np.linalg.norm(bd + fd) <= 1e-8 * max(1.0, np.linalg.norm(fd))

    def test_rotation_gradient_second_order(self):
        # along exp(eps w) R the cost is trigonometric: halving the step
        # shrinks the truncation error about fourfold
        state, data = make_separated_config(2, n_per=5, seed=6, kink_margin=2e-2)
        om = effective_rhs(state, data)[1][0]
        errs = []
        for step in (4e-4, 2e-4):
            fd = fd_grad_rotation(state, data, 0, step=step)
            errs.append(np.linalg.norm(om - fd.mat))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0


class TestReferenceIntegrate:
    def test_equilibrium_constant(self):
        state, data = make_separated_config(2, n_per=3, seed=4, truncation="full")

        out = reference_integrate(effective_rhs, state, data, 0.05, step=1e-3)
        for k in range(2):
            assert np.array_equal(out.layers[k].beta, state.layers[k].beta)

    def test_exponential_decay(self):
        # fully truncated single-coordinate flow integrates to e^{-s}
        state = state_from_arrays([np.eye(1)], [np.array([0.5])], np.eye(1), np.array([[1.0]]))
        data = TrainingSet([np.array([[-3.0], [-2.0]])])

        out = reference_integrate(effective_rhs, state, data, 1.0, step=1e-4)
        gap0 = 0.5 + 1.0
        assert abs(out.layers[0].beta[0] + 1.0 - gap0 * np.exp(-1.0)) <= 1e-9

    def test_rk4_array_linear(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        y0 = np.array([1.0, 1.0])
        out = rk4_array(lambda y: a @ y, y0, 1.0, step=1e-3)
        import scipy.linalg

        np.testing.assert_allclose(out, scipy.linalg.expm(a) @ y0, atol=1e-9)
