"""Right-hand sides and closed forms for every gradient flow in the package.

Conventions.  All flows are descent flows of a cost C: beta evolves by
``beta_dot = -dC/dbeta`` and each rotation by ``dR/ds = Omega R`` where
Omega is minus the antisymmetric part of (dC/dR) R^T, so that
``dC/ds = -sum(|beta_dot|^2) - sum(tr(Omega^T Omega))`` holds exactly along
orbits.  For a pushed-forward point z = R(x + beta) with activity mask
nu = (z > 0) and v = R(beta + ytilde), the per-point generator is the
commutator

    [diag(nu), M(z) - z z^T / 2],      M(z) = (z v^T + v z^T) / 2,

which vanishes on the fully positive and fully truncated sectors.  The
quadratic term z z^T / 2 is required for the commutator to equal the true
o(Q)-restricted gradient; central finite differences confirm it.

Field contract.  The layered flows move all layers together, so their
velocity is one tangent vector shaped like the state:
``rhs(state, data, frozen_masks=None) -> (beta_dots, omegas)`` with plain
arrays beta_dots (L, Q) and omegas (L, Q, Q), each omegas[k] exactly
antisymmetric.  `frozen_masks[k]` is layer k's boolean (N, Q) activity
pattern over the rows of `data.points`: `frozen_masks` is the `nus` list
that `model.push` returns for all points, and goes straight back into
`push`.  The patterns replace the computed ones.  Generators are validated as
:class:`~truncflow.manifold.AntisymmetricMatrix` only where they cross the
public boundary (`retract`, the finite-difference oracle).
The collapsed field takes and returns plain arrays too,
``collapsed_rhs(b, w, y) -> (b_dot, w_dot)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrdering,
    IndexRange,
    LabelInsideData,
    SingularGram,
)
from .measures import TrainingSet, compute_moments
from .model import ModelState, push


def _commutator_with_mask(nu: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """[diag(nu), S] for symmetric S, computed entrywise: (nu_i - nu_j) S_ij."""
    return (nu[:, None] - nu[None, :]) * sym


def _summed_commutators(nu: np.ndarray, a: np.ndarray, c: np.ndarray, quad=None) -> np.ndarray:
    """Sum over rows of [diag(nu_i), (a_i c_i^T + c_i a_i^T)/2 - quad_i quad_i^T / 2].

    Expanding the commutator entrywise and summing gives two rank-reduced
    accumulations whose explicit antisymmetrization keeps the result exactly
    antisymmetric in floating point.
    """
    m1 = (nu * a).T @ c
    m2 = (nu * c).T @ a
    out = 0.5 * ((m1 - m1.T) + (m2 - m2.T))
    if quad is not None:
        m3 = (nu * quad).T @ quad
        out = out - 0.5 * (m3 - m3.T)
    return out


def effective_rhs(state: ModelState, data: TrainingSet, frozen_masks=None):
    """Descent velocities of every layer under cluster separation, stacked like the state.

    Layer k is driven by its own cluster k only: beta_dot_k =
    -R_k^T J0perp R_k (beta_k + ytilde_k) with J0perp the diagonal of truncated
    fractions, and Omega_k accumulates the per-point commutators of points in
    mixed (off-diagonal) sectors.  Returns (beta_dots (L, Q), omegas (L, Q, Q)).

    `frozen_masks[k]` (layer k's (N, Q) rows over `data.points`; only cluster
    k's rows are read) overrides the computed activity patterns, which
    evaluates the smooth extension of one sector configuration; integrators
    use this so that no stage of a step samples the field across a boundary.
    """
    if state.depth > data.q:
        raise IndexRange(f"depth {state.depth} exceeds the {data.q} clusters")
    beta_dots = np.empty(state.betas.shape)
    omegas = np.empty(state.rotations.shape)
    for k, (r, beta) in enumerate(zip(state.rotations, state.betas)):
        v = r @ (beta + state.pulled_labels[k])
        z = (data.clusters[k] + beta) @ r.T
        pos = (z > 0.0) if frozen_masks is None else frozen_masks[k][data.rows(k)]
        j0_perp = 1.0 - pos.mean(axis=0)
        beta_dots[k] = -(r.T @ (j0_perp * v))
        npos = pos.sum(axis=1)
        mixed = (npos > 0) & (npos < state.dim)
        zm = z[mixed]
        cm = np.broadcast_to(v, zm.shape)
        omegas[k] = _summed_commutators(pos[mixed].astype(float), zm, cm, zm) / z.shape[0]
    return beta_dots, omegas


def moment_form_rhs(state: ModelState, data: TrainingSet, frozen_masks=None):
    """Same contract as :func:`effective_rhs`, computed through cluster moments.

    Omega_ij = sum over occupied mixed sectors nu of
    (nu_i - nu_j) * ( (J1_i v_j + v_i J1_j) / 2 - J2_ij / 2 ).
    """
    if state.depth > data.q:
        raise IndexRange(f"depth {state.depth} exceeds the {data.q} clusters")
    beta_dots = np.empty(state.betas.shape)
    omegas = np.zeros(state.rotations.shape)
    for k, (r, beta) in enumerate(zip(state.rotations, state.betas)):
        v = r @ (beta + state.pulled_labels[k])
        mask = None if frozen_masks is None else frozen_masks[k][data.rows(k)]
        mom = compute_moments(r, beta, data.clusters[k], mask)
        beta_dots[k] = -(r.T @ (mom.j0_perp * v))
        for bits, j1 in mom.j1_by_sector.items():
            if all(bits) or not any(bits):  # the pure sectors contribute nothing
                continue
            j2 = mom.j2_by_sector[bits]
            sym = 0.5 * (np.outer(j1, v) + np.outer(v, j1)) - 0.5 * j2
            omegas[k] += _commutator_with_mask(np.array(bits, dtype=float), sym)
    return beta_dots, omegas


def general_rhs(state: ModelState, data: TrainingSet, frozen_masks=None):
    """Descent velocities for every layer without any separation assumption.

    Same contract as :func:`effective_rhs`, but every cluster contributes to
    every layer through the chained truncation.  `push` carries each point
    up through the layers; an adjoint sweep then pulls its final mismatch
    g = t_L - ytilde back one layer at a time: with c = R_l g (as rows,
    g @ R_l^T), layer l picks up beta_dot_l += R_l^T Hperp_l c and
    Omega_l -= [H_l, (a c^T + c a^T)/2] with a = R_l(t_l + beta_l) its pushed
    coordinates, and g becomes R_l^T H_l c, the mismatch pulled back through
    layer l's truncation Jacobian.  One push carries all points, frozen at
    `frozen_masks`; the adjoint sweep runs on each cluster's rows as a batch.
    """
    beta_dots = np.zeros(state.betas.shape)
    omegas = np.zeros(state.rotations.shape)
    pushed, masks, t, _ = push(state.rotations, state.betas, data.points, frozen_masks)
    nus = [m.astype(float) for m in masks]  # one cast per layer, not one per product
    for l_cl, pts in enumerate(data.clusters):
        weight, rows = 1.0 / len(pts), data.rows(l_cl)
        # adjoint sweep: g is the mismatch pulled back through the layers above l
        g = t[rows] - state.pulled_labels[l_cl]
        for l in range(state.depth - 1, -1, -1):
            r, nu = state.rotations[l], nus[l][rows]
            c = g @ r.T
            beta_dots[l] += weight * np.sum(((1.0 - nu) * c) @ r, axis=0)
            omegas[l] -= weight * _summed_commutators(nu, pushed[l][rows], c)
            g = (nu * c) @ r
    return beta_dots, omegas


def chained_projectors(state: ModelState, point, lo: int = 0, hi: int | None = None):
    """Projector expansion of the chained truncation over layers [lo, hi).

    Returns (p_plus, p_minus_list) with tau^(lo..hi-1)(x) =
    p_plus @ x - sum_k p_minus_list[k - lo] @ beta_k, the activity masks
    being evaluated along the chain started at layer lo.
    """
    if hi is None:
        hi = state.depth
    if not (0 <= lo <= hi <= state.depth):
        raise IndexRange(f"invalid layer range [{lo}, {hi}) for depth {state.depth}")
    q = state.dim
    t = np.asarray(point, dtype=float)
    p_plus = np.eye(q)
    p_minus: list[np.ndarray] = []
    for k in range(lo, hi):
        r, beta = state.rotations[k], state.betas[k]
        z = r @ (t + beta)
        nu = (z > 0.0).astype(float)
        d = r.T @ (nu[:, None] * r)
        d_perp = r.T @ ((1.0 - nu)[:, None] * r)
        p_minus = [d @ pm for pm in p_minus]
        p_minus.append(d_perp)
        p_plus = d @ p_plus
        t = r.T @ (nu * z) - beta
    return p_plus, p_minus


@dataclass(frozen=True)
class CollapsedState:
    """Bias matrix B = [beta_0 ... beta_{Q-1}], output map W, label matrix Y."""

    b_matrix: np.ndarray
    w_out: np.ndarray
    y_matrix: np.ndarray

    def __post_init__(self):
        b = np.array(self.b_matrix, dtype=float)  # private copies: the caller's arrays stay theirs
        w = np.array(self.w_out, dtype=float)
        y = np.array(self.y_matrix, dtype=float)
        q = b.shape[0]
        for name, m in (("b_matrix", b), ("w_out", w), ("y_matrix", y)):
            if m.shape != (q, q):
                raise ValueError(f"{name} has shape {m.shape}, expected ({q}, {q})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has a non-finite entry")
            m.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "w_out", w)
        object.__setattr__(self, "y_matrix", y)

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]

    def cost(self) -> float:
        """Standard cost of fully collapsed data: (1/2) tr |W B + Y|^2."""
        e = self.w_out @ self.b_matrix + self.y_matrix
        return 0.5 * float(np.sum(e * e))


def collapsed_rhs(b: np.ndarray, w: np.ndarray, y: np.ndarray):
    """Gradient-descent velocities (B_dot, W_dot) of the collapsed standard cost at the arrays (B, W, Y)."""
    e = w @ b + y
    return -(w.T @ e), -(e @ b.T)


def conserved_quantity(cs: CollapsedState) -> np.ndarray:
    """B B^T - W^T W, constant along the collapsed flow; symmetric by construction."""
    return cs.b_matrix @ cs.b_matrix.T - cs.w_out.T @ cs.w_out


def _expm_sym(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return (vecs * np.exp(vals)) @ vecs.T


def clustered_explicit(w0, x0, y_ext, s: float) -> np.ndarray:
    """Closed-form output-map flow for data fixed by every truncation map.

    W(s) = W(0) e^{-(s/N) X X^T} + Y P (1 - e^{-(s/N) X X^T}) where
    P = X^T (X X^T)^{-1}; as s grows W(s) converges to Y P, the least-squares
    interpolant of the labels on the data.
    """
    w0 = np.asarray(w0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    y_ext = np.asarray(y_ext, dtype=float)
    q, n = x0.shape
    if w0.shape != (q, q) or y_ext.shape != (q, n):
        raise ValueError("shape mismatch: need W0 (Q,Q), X (Q,N), Y_ext (Q,N)")
    for name, m in (("W0", w0), ("X", x0), ("Y_ext", y_ext)):
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} has a non-finite entry")
    gram = x0 @ x0.T
    vals = np.linalg.eigvalsh(gram)
    if vals[0] <= 1e-10 * vals[-1]:
        ratio = vals[0] / vals[-1] if vals[-1] > 0 else 0.0
        raise SingularGram(f"X X^T is numerically singular (eig_min/eig_max = {ratio:.3e})")
    decay = _expm_sym(-(s / n) * gram)
    proj = x0.T @ np.linalg.inv(gram)
    return w0 @ decay + (y_ext @ proj) @ (np.eye(q) - decay)


def clustered_rhs(w, x0, y_ext) -> np.ndarray:
    """ODE the closed form solves: dW/ds = -(1/N)(W X - Y_ext) X^T."""
    n = x0.shape[1]
    return -((w @ x0 - y_ext) @ x0.T) / n


@dataclass(frozen=True)
class OneDimSegment:
    """One piecewise-exponential phase: gap(s) = e^{-rate (s - s_start)} gap_start."""

    s_start: float
    s_end: float  # inf on the last segment
    truncated: int
    rate: float
    gap_start: float


@dataclass(frozen=True)
class OneDimFlow:
    """Exact 1-D bias flow: event times and closed-form segments.

    `breakpoints[k]` is the time the (initial_truncated + 1 + k)-th data
    point is reached; after all N points are truncated the gap to the label
    decays at rate 1.
    """

    points: tuple[float, ...]
    label: float
    b0: float
    n_total: int
    initial_truncated: int
    frozen: bool
    breakpoints: tuple[float, ...]
    segments: tuple[OneDimSegment, ...]

    def gap(self, s: float) -> float:
        """y - b(s)."""
        if self.frozen:
            return self.label - self.b0
        for seg in self.segments:
            if s < seg.s_end or seg.s_end == np.inf:
                return float(np.exp(-seg.rate * (s - seg.s_start)) * seg.gap_start)
        raise AssertionError("unreachable: final segment is unbounded")


def one_dim_flow(points, y: float, b0: float) -> OneDimFlow:
    """Piecewise-exponential solution of the single-coordinate bias flow.

    The moving threshold b starts at b0 and is attracted to the label y at
    rate (number of points <= b)/n, n = len(points); each time b reaches the
    next data point the rate steps up by 1/n.  Requires strictly increasing
    points and y > max(points).
    """
    xs = [float(p) for p in points]
    for name, value in (("points", xs), ("y", y), ("b0", b0)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    n = len(xs)
    if any(b >= a for a, b in zip(xs[1:], xs[:-1])):
        raise BadOrdering("points must be strictly increasing")
    if y <= xs[-1]:
        raise LabelInsideData(f"label {y} must exceed the largest point {xs[-1]}")
    if b0 >= y:
        raise LabelInsideData(f"threshold b0 = {b0} must start below the label {y}")
    n_trunc = sum(1 for p in xs if p <= b0)
    if n_trunc == 0:
        return OneDimFlow(
            points=tuple(xs), label=y, b0=b0, n_total=n,
            initial_truncated=0, frozen=True, breakpoints=(), segments=(),
        )
    segments = []
    breakpoints = []
    s_cur, b_cur, k = 0.0, float(b0), n_trunc
    while k < n:
        # time to reach the next data point at rate k/n
        s_next = s_cur + (n / k) * np.log((y - b_cur) / (y - xs[k]))
        segments.append(OneDimSegment(s_cur, s_next, k, k / n, y - b_cur))
        breakpoints.append(s_next)
        s_cur, b_cur, k = s_next, xs[k], k + 1
    segments.append(OneDimSegment(s_cur, np.inf, n, 1.0, y - b_cur))
    return OneDimFlow(
        points=tuple(xs), label=y, b0=b0, n_total=n,
        initial_truncated=n_trunc, frozen=False,
        breakpoints=tuple(breakpoints), segments=tuple(segments),
    )
