"""Independent ground truth: finite-difference gradients and reference integration.

Everything here deliberately avoids the analytic right-hand sides it is
used to check.  Gradients come from central differences of the costs;
trajectories from a plain fixed-step 4th-order loop with retraction.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import NearKink
from .flows import CollapsedState
from .manifold import AntisymmetricMatrix, OrthogonalMatrix, retract
from .measures import TrainingSet
from .model import ModelState, euclidean_cost


def _check_step(step: float) -> None:
    """The central-difference increment must lie in [1e-9, 1e-2]."""
    if not (1e-9 <= step <= 1e-2):
        raise ValueError(f"step {step} outside [1e-9, 1e-2]")


def assert_kink_free(state: ModelState, data: TrainingSet, step: float) -> None:
    """Raise NearKink unless every chained coordinate clears the stencil band.

    A parameter perturbation of size `step` moves a layer's pushed
    coordinates by at most step * max(1, |z|): truncation maps are
    1-Lipschitz in the point, and a rotation perturbed by exp(eps w) moves
    z = R(t + beta) by at most eps |z|.  Requiring |z_r| >= 10 * step *
    max(1, |z|) therefore keeps every central-difference stencil strictly
    on one side of every activation boundary.
    """
    for pts in data.clusters:
        images = np.asarray(pts, dtype=float)
        for r, beta in zip(state.rotations, state.betas):
            z = (images + beta) @ r.T
            margin = 10.0 * step * np.maximum(1.0, np.linalg.norm(z, axis=1, keepdims=True))
            if np.any(np.abs(z) < margin):
                gap = float(np.min(np.abs(z) / margin))
                raise NearKink(
                    f"a pushed-forward coordinate sits at {gap:.3f} of the "
                    f"required clearance 10 * step * max(1, |z|) from an activation boundary"
                )
            images = np.maximum(z, 0.0) @ r - beta


def fd_grad_beta(state: ModelState, data: TrainingSet, layer: int,
                 step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the Euclidean cost in the layer's beta."""
    _check_step(step)
    assert_kink_free(state, data, step)
    q = state.dim
    grad = np.zeros(q)
    for r in range(q):
        delta = np.zeros(q)
        delta[r] = step
        plus, minus = state.betas.copy(), state.betas.copy()
        plus[layer] += delta
        minus[layer] -= delta
        grad[r] = (euclidean_cost(state.derive(state.rotations, plus), data)
                   - euclidean_cost(state.derive(state.rotations, minus), data)) / (2 * step)
    return grad


def fd_grad_rotation(state: ModelState, data: TrainingSet, layer: int,
                     step: float = 1e-5) -> AntisymmetricMatrix:
    """Descent generator of the Euclidean cost on o(Q), by central differences.

    For each basis generator w_ij = e_i e_j^T - e_j e_i^T, i < j, the derivative
    d_ij = d/de C(exp(e w_ij) R)|_0 is estimated centrally; the returned G
    satisfies tr(w_ij G) = d_ij, i.e. G is minus the o(Q)-restricted
    gradient and should match the analytic Omega.
    """
    _check_step(step)
    assert_kink_free(state, data, step)
    q = state.dim
    rotation = OrthogonalMatrix(state.rotations[layer])
    g = np.zeros((q, q))
    for i, j in combinations(range(q), 2):
        gen = np.zeros((q, q))
        gen[i, j], gen[j, i] = 1.0, -1.0
        omega = AntisymmetricMatrix(gen)
        plus, minus = state.rotations.copy(), state.rotations.copy()
        plus[layer] = retract(rotation, omega, step).mat
        minus[layer] = retract(rotation, omega, -step).mat
        d = (euclidean_cost(state.derive(plus, state.betas), data)
             - euclidean_cost(state.derive(minus, state.betas), data)) / (2 * step)
        g[i, j], g[j, i] = -0.5 * d, 0.5 * d
    return AntisymmetricMatrix(g)


def fd_grad_collapsed(cs: CollapsedState, step: float = 1e-5):
    """Entrywise central differences of the collapsed cost in (B, W)."""
    _check_step(step)
    q = cs.dim
    b_grad = np.zeros((q, q))
    w_grad = np.zeros((q, q))
    for i in range(q):
        for j in range(q):
            db = np.zeros((q, q))
            db[i, j] = step
            b_grad[i, j] = (
                CollapsedState(cs.b_matrix + db, cs.w_out, cs.y_matrix).cost()
                - CollapsedState(cs.b_matrix - db, cs.w_out, cs.y_matrix).cost()
            ) / (2 * step)
            w_grad[i, j] = (
                CollapsedState(cs.b_matrix, cs.w_out + db, cs.y_matrix).cost()
                - CollapsedState(cs.b_matrix, cs.w_out - db, cs.y_matrix).cost()
            ) / (2 * step)
    return b_grad, w_grad


def rk4_array(f, y0: np.ndarray, s_end: float, step: float = 1e-4) -> np.ndarray:
    """Plain fixed-step classical RK4 on a flat array ODE y' = f(y)."""
    y = np.asarray(y0, dtype=float).copy()
    s = 0.0
    while s < s_end - 1e-13:
        h = min(step, s_end - s)
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
    return y


def reference_integrate(rhs, state0: ModelState, data: TrainingSet, s_end: float,
                        step: float = 1e-4) -> ModelState:
    """Fixed-step 4th-order integration of a layered flow, with retraction.

    `rhs(state, data)` returns the velocities stacked like the state,
    beta_dots (L, Q) and omegas (L, Q, Q).  Every stage validates what it
    changes (each generator, each retracted rotation, the finiteness of the
    betas) and shares the output map and labels with `state0`.  Used as a
    high-accuracy cross-check of the adaptive integrator and of closed forms;
    it carries no event logic and no step control.
    """

    def advance(rotations, betas, beta_dots, omegas, dt):
        rotations = [retract(r, AntisymmetricMatrix(omega), dt) for r, omega in zip(rotations, omegas)]
        betas = betas + dt * beta_dots
        if not np.all(np.isfinite(betas)):
            raise ValueError("beta has a non-finite entry")
        return rotations, state0.derive(np.array([r.mat for r in rotations]), betas)

    # the validated rotations are carried from step to step
    state, rotations = state0, [OrthogonalMatrix(r) for r in state0.rotations]
    s = 0.0
    while s < s_end - 1e-13:
        h = min(step, s_end - s)
        b1, o1 = rhs(state, data)
        b2, o2 = rhs(advance(rotations, state.betas, b1, o1, 0.5 * h)[1], data)
        b3, o3 = rhs(advance(rotations, state.betas, b2, o2, 0.5 * h)[1], data)
        b4, o4 = rhs(advance(rotations, state.betas, b3, o3, h)[1], data)
        rotations, state = advance(rotations, state.betas, (b1 + 2 * b2 + 2 * b3 + b4) / 6.0,
                                   (o1 + 2 * o2 + 2 * o3 + o4) / 6.0, h)
        s += h
    return state
