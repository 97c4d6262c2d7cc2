"""Independent ground truth: finite-difference gradients and reference integration.

Everything here deliberately avoids the analytic right-hand sides it is
used to check.  Gradients come from central differences of the costs;
trajectories from a plain fixed-step 4th-order loop with retraction.

All the stencils of one layer, beta's and the rotation's, are priced in one
push: they differ from the state only at that layer, so they go up as one
stacked layer, rotations (S, Q, Q) and betas (S, 1, Q), over the points the
layers below carried once, and `images_cost` returns one cost per stencil.
Each cost is bit for bit the Euclidean cost of its stencil state alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import NearKink
from .flows import CollapsedState
from .manifold import AntisymmetricMatrix, OrthogonalMatrix, retract, retract_stack
from .measures import TrainingSet
from .model import ModelState, check_data, images_cost, layer_range, push


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
    on one side of every activation boundary.  All points are checked at
    once, layer by layer; the reported gap is the smallest over the points
    of the first layer that falls short.  A state whose Q is not the data's raises ValueError
    (:func:`~truncflow.model.check_data`); the state may have more layers than the data has
    clusters.
    """
    check_data(state, data)
    for layer, z in enumerate(push(state.rotations, state.betas, data.points)[0]):
        margin = 10.0 * step * np.maximum(1.0, np.linalg.norm(z, axis=1, keepdims=True))
        if np.any(np.abs(z) < margin):
            gap = float(np.min(np.abs(z) / margin))
            raise NearKink(
                f"a pushed-forward coordinate at layer {layer} sits at {gap:.3f} of the "
                f"required clearance 10 * step * max(1, |z|) from an activation boundary"
            )


def _fd_layer(state: ModelState, data: TrainingSet, layer: int,
              step: float) -> tuple[np.ndarray, AntisymmetricMatrix]:
    """Both central-difference gradients of `layer`, beta's and the rotation's generator: its 2Q
    beta stencils and Q(Q-1) rotation stencils are one stacked layer, one push, one cost each."""
    q = state.dim
    rotation, beta = OrthogonalMatrix(state.rotations[layer]).mat, state.betas[layer]
    pairs = list(combinations(range(q), 2))
    m = len(pairs)
    gens = np.zeros((2 * m, q, q))
    for n, (i, j) in enumerate(pairs):
        gens[n, i, j], gens[n, j, i] = 1.0, -1.0
    gens[m:] = -gens[:m]  # exp(e (-w)) = exp(-e w): the minus stencils
    deltas = step * np.eye(q)
    rotations, betas = list(state.rotations), list(state.betas)
    rotations[layer] = np.concatenate([np.broadcast_to(rotation, (2 * q, q, q)),
                                       retract_stack(np.broadcast_to(rotation, gens.shape), gens, step)])
    betas[layer] = np.concatenate([beta + deltas, beta - deltas, np.broadcast_to(beta, (2 * m, q))])[:, None, :]
    costs = images_cost(state, data, push(rotations, betas, data.points)[2])
    beta_plus, beta_minus, rotation_plus, rotation_minus = np.split(costs, [q, 2 * q, 2 * q + m])
    d = (rotation_plus - rotation_minus) / (2 * step)
    g = np.zeros((q, q))
    for (i, j), d_ij in zip(pairs, d.tolist()):
        g[i, j], g[j, i] = -0.5 * d_ij, 0.5 * d_ij
    return (beta_plus - beta_minus) / (2 * step), AntisymmetricMatrix(g)


def _fd_checked(state: ModelState, data: TrainingSet, layer: int, step: float):
    """:func:`_fd_layer` of one layer, after checking the step, that the layer is one of the
    state's (:func:`~truncflow.model.layer_range`, so -1 or `depth` raises IndexRange) and the
    stencil band."""
    _check_step(step)
    layer_range(state.depth, layer, layer + 1)
    assert_kink_free(state, data, step)
    return _fd_layer(state, data, layer, step)


def fd_grad_beta(state: ModelState, data: TrainingSet, layer: int,
                 step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the Euclidean cost in the layer's beta."""
    return _fd_checked(state, data, layer, step)[0]


def fd_grad_rotation(state: ModelState, data: TrainingSet, layer: int,
                     step: float = 1e-5) -> AntisymmetricMatrix:
    """Descent generator of the Euclidean cost on o(Q), by central differences.

    For each basis generator w_ij = e_i e_j^T - e_j e_i^T, i < j, the derivative
    d_ij = d/de C(exp(e w_ij) R)|_0 is estimated centrally; the returned G
    satisfies tr(w_ij G) = d_ij, i.e. G is minus the o(Q)-restricted
    gradient and should match the analytic Omega.
    """
    return _fd_checked(state, data, layer, step)[1]


def fd_gradients(state: ModelState, data: TrainingSet, step: float = 1e-5):
    """Every layer's (:func:`fd_grad_beta`, :func:`fd_grad_rotation`) pair, bit for bit, with the
    stencil band checked once for the state: the check does not depend on the layer."""
    _check_step(step)
    assert_kink_free(state, data, step)
    return [_fd_layer(state, data, layer, step) for layer in range(state.depth)]


def fd_grad_collapsed(cs: CollapsedState, step: float = 1e-5):
    """Entrywise central differences of the collapsed cost (1/2) tr |W B + Y|^2 in (B, W).

    The 4 Q^2 stencils are stacked (S, Q, Q) products, one sum per stencil."""
    _check_step(step)
    q = cs.dim
    b, w, y = cs.b_matrix, cs.w_out, cs.y_matrix
    deltas = (step * np.eye(q * q)).reshape(q * q, q, q)  # entry (i, j) at index i * q + j

    def costs(e):
        return 0.5 * (e * e).reshape(q * q, -1).sum(axis=-1)

    b_grad = (costs(w @ (b + deltas) + y) - costs(w @ (b - deltas) + y)) / (2 * step)
    w_grad = (costs((w + deltas) @ b + y) - costs((w - deltas) @ b + y)) / (2 * step)
    return b_grad.reshape(q, q), w_grad.reshape(q, q)


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
