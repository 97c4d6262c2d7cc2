"""Scenario builders: named initial states, separated configurations, and
a collapse scenario whose convergence hypotheses are verifiable by sampling.
"""

from __future__ import annotations

import numpy as np

from .manifold import AntisymmetricMatrix, OrthogonalMatrix, expm_antisym, random_orthogonal
from .measures import TrainingSet
from .model import LayerParams, ModelState, finite_array


INITIAL_STATES = ("identity", "random-orthogonal", "all-positive", "fully-truncated")


def state_from_arrays(rotations, betas, output_map, labels) -> ModelState:
    betas = finite_array(betas, "beta", (len(rotations), "Q"))  # one beta per rotation
    layers = [LayerParams(OrthogonalMatrix(r, f"rotation {k}"), b)
              for k, (r, b) in enumerate(zip(rotations, betas))]
    return ModelState(layers, output_map, labels)


def named_initial_state(kind: str, data: TrainingSet, labels, output_map=None,
                        depth: int | None = None, seed: int = 0) -> ModelState:
    """Build a ModelState from a named generator.

    identity            R = I, beta = 0.
    random-orthogonal   random rotations (from `seed`), beta = 0.
    all-positive        R = I, beta placed so every point of every cluster is
                        strictly inside every layer's positive sector.
    fully-truncated     R = I, beta = -ytilde per layer: the zero-gradient
                        collapse point; with compatible data every cluster is
                        fully truncated onto its pulled label.
    """
    q = data.q
    depth = q if depth is None else depth
    w = np.eye(q) if output_map is None else np.asarray(output_map, dtype=float)
    y = np.asarray(labels, dtype=float)
    if kind == "identity":
        betas = [np.zeros(q)] * depth
        rots = [np.eye(q)] * depth
    elif kind == "random-orthogonal":
        rng = np.random.default_rng(seed)
        rots = [random_orthogonal(q, rng).mat for _ in range(depth)]
        betas = [np.zeros(q)] * depth
    elif kind == "all-positive":
        shift = -data.points.min(axis=0) + 1.0
        rots = [np.eye(q)] * depth
        betas = [shift] * depth
    elif kind == "fully-truncated":  # ModelState solves the pulled labels, and checks W
        state = state_from_arrays([np.eye(q)] * depth, np.zeros((depth, q)), w, y)
        return state.derive(state.rotations, -state.pulled_labels[:depth])
    else:
        raise ValueError(f"unknown initial-state generator {kind!r}; choose from {INITIAL_STATES}")
    return state_from_arrays(rots, betas, w, y)


def _orthonormal_completion(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of R^Q."""
    q, k = cols.shape
    basis = [cols[:, i] for i in range(k)]
    for i in range(q):
        v = np.zeros(q)
        v[i] = 1.0
        for b in basis:
            v = v - np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == q:
            break
    return np.column_stack(basis)


def rotation_mapping(src: np.ndarray, dst: np.ndarray) -> OrthogonalMatrix:
    """An orthogonal R with R @ src = dst, for column sets with equal Grams."""

    def oriented_qr(m):
        qf, rf = np.linalg.qr(m)
        signs = np.sign(np.diag(rf))
        signs[signs == 0] = 1.0
        return qf * signs

    qs = _orthonormal_completion(oriented_qr(src))
    qd = _orthonormal_completion(oriented_qr(dst))
    return OrthogonalMatrix(qd @ qs.T)


def make_separated_config(q: int, n_per: int = 5, seed: int = 0,
                          kink_margin: float = 5e-3, truncation: str = "partial"):
    """A cluster-separated configuration with wide margins.

    Clusters sit at D e_l; each layer's rotation maps the directions towards
    the other clusters into the interior of the positive orthant, and its
    corner sits relative to its own cluster so that cluster is partially
    truncated (truncation="partial") or fully truncated with the bias at its
    zero-gradient collapse point (truncation="full"), while every other
    cluster and every truncated image stays strictly positive.  Points keep
    at least `kink_margin` distance from activation boundaries in their own
    layer's frame.

    Returns (state, data).
    """
    if truncation not in ("partial", "full"):
        raise ValueError("truncation must be 'partial' or 'full'")
    if truncation == "partial" and q < 2:
        raise ValueError(f"q = {q} has no mixed sector to truncate partially: need q >= 2")
    rng = np.random.default_rng(seed)
    d_sep, spread = 20.0, 0.5
    centers = d_sep * np.eye(q)
    # target frame: unit vectors a*ones + e_j/sqrt(2) with pairwise dot 1/2,
    # strictly positive entries (a solves q a^2 + sqrt(2) a - 1/2 = 0)
    a = (-np.sqrt(2.0) + np.sqrt(2.0 + 2.0 * q)) / (2.0 * q)

    rotations, betas, clusters = [], [], []
    for l in range(q):
        others = [j for j in range(q) if j != l]
        if others:
            src = np.column_stack([(np.eye(q)[:, j] - np.eye(q)[:, l]) / np.sqrt(2.0) for j in others])
            dst = np.column_stack([a * np.ones(q) + np.eye(q)[:, i] / np.sqrt(2.0) for i in range(len(others))])
            rot = rotation_mapping(src, dst)
        else:
            rot = OrthogonalMatrix(np.eye(q))
        for _attempt in range(100):
            corner_shift = 0.1 * spread * rng.normal(size=q)
            if truncation == "full":
                corner_shift = corner_shift - 4.0 * spread * np.ones(q)
            pts = []
            guard = 0
            while len(pts) < n_per and guard < 100 * n_per:
                guard += 1
                x = centers[l] + spread * rng.normal(size=q)
                z = rot.mat @ (x - centers[l]) + corner_shift
                if truncation == "full" and np.max(z) > -kink_margin:
                    continue
                if np.min(np.abs(z)) >= kink_margin:
                    pts.append(x)
            if len(pts) < n_per:
                continue
            if truncation == "partial":
                # the layer must actually act: retry until a mixed point exists
                z = (np.array(pts) - centers[l]) @ rot.mat.T + corner_shift
                npos = np.sum(z > 0.0, axis=1)
                if not np.any((npos > 0) & (npos < q)):
                    continue
            break
        else:
            raise RuntimeError("could not draw a separated cluster; loosen parameters")
        beta = rot.mat.T @ corner_shift - centers[l]
        rotations.append(rot.mat)
        betas.append(beta)
        clusters.append(np.array(pts))

    if truncation == "full":
        # labels equal the collapse points -beta, so the bias gap is exactly 0
        w = np.eye(q)
        labels = np.vstack([-b for b in betas])
    else:
        ytil = centers + 0.5 * rng.normal(size=(q, q))
        w = np.eye(q) + 0.1 * rng.normal(size=(q, q))
        labels = (w @ ytil.T).T
    state = state_from_arrays(rotations, betas, w, labels)
    return state, TrainingSet(clusters)


def make_prop42_scenario():
    """A two-cluster scenario set up for verifiable finite-time collapse.

    Cluster 0 pushes to 79 points deep in the negative orthant plus one point
    in a mixed sector near the origin; layer 0's bias gap is small, so the
    flow drags the whole cluster into the negative orthant in finite time,
    after which the rotation freezes and the gap decays at rate one.  Layer 1
    and cluster 1 sit at an all-positive equilibrium throughout.

    Returns (state, data, constants) with the constants used by
    :func:`check_collapse_hypotheses`.
    """
    rng = np.random.default_rng(0)
    q = 2
    theta = 0.4
    r0 = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ytil0 = np.array([1.2, 0.8])
    gap0 = np.array([0.25, 0.20])  # R (beta + ytilde) at s = 0
    beta0 = r0.T @ gap0 - ytil0

    n_deep = 79
    deep = np.array([-2.8, -2.8]) + 0.25 * (2.0 * rng.random(size=(n_deep, q)) - 1.0)
    mixed = np.array([[0.04, -0.04]])
    z0 = np.vstack([deep, mixed])
    cluster0 = (z0 @ r0) - beta0  # x = R^T z - beta

    cluster1 = np.array([4.0, 4.0]) + 0.2 * (2.0 * rng.random(size=(8, q)) - 1.0)
    ytil1 = cluster1.mean(axis=0)

    w = np.eye(q)
    labels = np.vstack([ytil0, ytil1])
    state = state_from_arrays(
        [r0, np.eye(q)],
        [beta0, 5.0 * np.ones(q)],
        w,
        labels,
    )
    data = TrainingSet([cluster0, cluster1])
    constants = {"eta0": 0.02, "eta1": 0.01, "gamma": 0.09, "layer": 0}
    return state, data, constants


def check_collapse_hypotheses(state: ModelState, data: TrainingSet, layer: int,
                              eta0: float, eta1: float, gamma: float,
                              seed: int = 0) -> dict:
    """Sampling check of the finite-time-collapse hypotheses for one layer.

    Over 300 samples of a neighborhood of the initial data (bias gap up to
    1.1x its initial norm, rotations within eta2 in operator norm) every
    sample must show (a) truncated mass fraction above 1 - eta0 in every
    coordinate, (b) mixed-sector absolute first moment below eta1, and (c)
    full truncation whenever the gap is below gamma times its initial norm.
    Scenarios failing any sample are reported, not forced.
    """
    if not (0 < eta0 < 0.1 and 0 < eta1 < 0.1 and 0 < gamma < 0.1):
        raise ValueError("constants must lie in (0, 1/10)")
    rng = np.random.default_rng(seed)
    ytil = state.pulled_labels[layer]
    pts = data.clusters[layer]
    n = len(pts)
    r_init = state.rotations[layer]
    gap_norm0 = float(np.linalg.norm(state.betas[layer] + ytil))
    eta1p = 1.1 * gap_norm0 * eta1
    denom_a = 1.0 - eta0 - eta1p
    denom_b = 1.0 - eta0 - eta1
    if denom_a <= 0 or denom_b <= 0:
        raise ValueError("hypothesis constants leave no contraction margin")
    # the neighborhood radius appears with eta1 and eta1' swapped in two
    # places; verifying on the larger radius implies both readings
    eta2 = max(eta1, eta1p) / min(denom_a, denom_b) * np.log(1.0 / gamma)

    q = state.dim
    worst = {"mass_margin": np.inf, "moment_margin": np.inf, "gamma_margin": np.inf}
    ok = True
    for trial in range(300):
        if trial % 3 == 2:
            radius = gamma * gap_norm0 * rng.random() * 0.999
        else:
            radius = 1.1 * gap_norm0 * rng.random()
        direction = rng.normal(size=q)
        direction /= np.linalg.norm(direction)
        beta = -ytil + radius * direction
        gen = rng.normal(size=(q, q))
        gen = 0.5 * (gen - gen.T)
        op = np.linalg.norm(gen, 2)
        angle = rng.random() * 2.0 * np.arcsin(min(1.0, 0.5 * eta2))
        wiggle = expm_antisym(AntisymmetricMatrix(gen / op * angle)).mat if op > 0 else np.eye(q)
        r_new = wiggle @ r_init
        if np.linalg.norm(r_new - r_init, 2) > eta2:
            continue
        z = (pts + beta) @ r_new.T
        truncated_fraction = np.mean(z <= 0.0, axis=0)
        worst["mass_margin"] = min(worst["mass_margin"], float(np.min(truncated_fraction) - (1.0 - eta0)))
        if np.any(truncated_fraction <= 1.0 - eta0):
            ok = False
        npos = np.sum(z > 0.0, axis=1)
        mixed_idx = (npos > 0) & (npos < q)
        moment = float(np.sum(np.linalg.norm(z[mixed_idx], axis=1))) / n
        worst["moment_margin"] = min(worst["moment_margin"], eta1 - moment)
        if moment >= eta1:
            ok = False
        if radius < gamma * gap_norm0:
            margin = float(-np.max(z))
            worst["gamma_margin"] = min(worst["gamma_margin"], margin)
            if np.any(z > 0.0):
                ok = False
    return {"ok": ok, "eta2": float(eta2), "gap_norm0": gap_norm0, **worst}


def make_one_dim_state(points, y: float, b0: float):
    """Q=1 model whose bias flow is the 1-D threshold dynamics.

    The threshold b = -beta starts at b0; a point is truncated once b has
    passed it; the label y is the attractor of the gap y - b.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    state = state_from_arrays([np.eye(1)], [np.array([-b0])], np.eye(1), np.array([[y]]))
    return state, TrainingSet([pts])


def make_equilibrium_data(q: int, kind: str, seed: int = 0):
    """Data + labels compatible with the named equilibrium generators, 4 points per cluster.

    kind="all-positive": any clusters work; kind="fully-truncated": every
    cluster lies strictly below its own pulled label, so beta = -ytilde
    fully truncates it while other layers keep it strictly positive.
    """
    rng = np.random.default_rng(seed)
    n_per = 4
    if kind == "all-positive":
        clusters = [5.0 * np.eye(q)[l] + 0.4 * rng.random(size=(n_per, q)) for l in range(q)]
        labels = np.vstack([c.mean(axis=0) for c in clusters])
        return TrainingSet(clusters), labels
    if kind == "fully-truncated":
        # beta_l = -ytilde_l must truncate cluster l fully: points < ytilde_l;
        # labels are far positive so other layers see positive coordinates
        labels = 10.0 + 2.0 * rng.random(size=(q, q))
        clusters = [labels[l] - 2.0 - rng.random(size=(n_per, q)) for l in range(q)]
        return TrainingSet(clusters), labels
    raise ValueError(f"unknown equilibrium kind {kind!r}")
