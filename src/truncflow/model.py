"""Network data model: per-layer parameters, the layer sweep, costs.

A layer is the pair (R, beta) with R in O(Q) and beta in R^Q.  Its
truncation map acts on input-space points as

    tau(x) = R^T relu(R (x + beta)) - beta,

i.e. the coordinatewise ReLU pulled back through the affine map
a(x) = R (x + beta).  A coordinate with a(x)_r <= 0 counts as truncated
(the activation derivative convention h(0) = 0); a point's sector is its
activity row `z > 0`, strict so the measure-zero boundary is deterministic.
:func:`push` is the one loop that carries points up through the layers.

Invariants are checked once, where a state enters: every :class:`ModelState`
passes one rule over its stacked arrays, whether it is built from them
(:func:`state_from_arrays`) or from validated :class:`LayerParams`; states
derived from a validated one, such as integration stages and finite-difference
stencils, check only shapes.  Every parameter array, here and in the other
modules' constructors, enters through :func:`finite_array`, whose errors name
the array and its bad shape or entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve, svd as _svd  # np.linalg's gufuncs, without their wrappers

from .errors import IndexRange
from .manifold import OrthogonalMatrix, as_square, check_orthogonal, check_orthogonal_stack


def finite_array(value, name: str, shape: tuple) -> np.ndarray:
    """`value` as a read-only float copy of `shape`, where a str entry matches any length and
    prints as given, e.g. (L, 2, 2): the one rule by which a parameter array is accepted, so the
    caller's array stays theirs.  A value numpy cannot read as numbers, another shape, or a
    non-finite entry raises ValueError naming `name` and the expected shape or the first such
    entry and its value."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from exc
    if a.ndim != len(shape) or any(n != m for n, m in zip(a.shape, shape) if not isinstance(m, str)):
        expected = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} has shape {a.shape}, expected ({expected})")
    if not np.isfinite(a).all():
        where = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError(f"{name} has a non-finite entry at {where}: {a[where]}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LayerParams:
    """One layer's cumulative parameters: rotation R and bias beta."""

    rotation: OrthogonalMatrix
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", finite_array(self.beta, "beta", (self.rotation.dim,)))

    @property
    def dim(self) -> int:
        return self.rotation.dim

    def with_updates(self, rotation=None, beta=None) -> "LayerParams":
        return LayerParams(
            rotation=self.rotation if rotation is None else rotation,
            beta=self.beta if beta is None else beta,
        )


def _rotation_stack(rotations, betas: np.ndarray) -> np.ndarray:
    """`rotations` as a float (L, Q, Q) copy whose layers match the (L, Q) `betas`, Q >= 1, every
    rotation checked against the orthogonality bound in one pass.  Otherwise the first bad layer k
    raises ValueError, in layer order, as its own checks name it: its rotation's shape, its
    rotation off the group as "rotation k", its beta's length."""
    l, q = betas.shape
    try:
        rots = np.array(rotations, dtype=float)
    except (TypeError, ValueError):  # layers of different shapes, or entries that are not numbers
        rots = None
    if rots is None or rots.shape != (l, q, q) or q < 1:
        for k, (r, beta) in enumerate(zip(rotations, betas)):  # one of them raises: L >= 1
            m = as_square(r)
            check_orthogonal(m, f"rotation {k}")
            finite_array(beta, "beta", (len(m),))
    check_orthogonal_stack(rots)
    return rots


class ModelState:
    """All flow variables plus the fixed output map and labels.

    The layers are held as read-only stacked arrays, `rotations` (L, Q, Q)
    and `betas` (L, Q).  `output_map` is the full-rank linear map from input
    space to output space; `labels[l]` is the l-th reference output and
    `pulled_labels[l]` its preimage under the output map.

    Every state is checked by one rule over its stacked arrays: the layers'
    shapes and finite betas, every rotation against the orthogonality bound in
    one pass, the output map's rank and the labels, and the pulled labels
    solved and reconstructed.  :func:`state_from_arrays` applies it to arrays;
    the constructor stacks validated LayerParams and applies it to them.  States
    derived from a checked one share its output map and labels and check only
    their shapes.  `checked()` applies the orthogonality bound to the stacked
    rotations; `layers` builds a fresh validated LayerParams view on each
    read, which checks every rotation too.
    """

    def __init__(self, layers, output_map, labels):
        layers = tuple(layers)
        if not layers:
            raise ValueError("need at least one layer")
        q = layers[0].dim
        if any(lp.dim != q for lp in layers):
            raise ValueError("all layers must share the same dimension")
        self._check([lp.rotation.mat for lp in layers], [lp.beta for lp in layers], output_map, labels)

    def _check(self, rotations, betas, output_map, labels) -> None:
        """Check the state's arrays and set them, read-only, with the solved pulled labels."""
        betas = finite_array(betas, "beta", (len(rotations), "Q"))  # one beta per rotation
        if not len(betas):
            raise ValueError("need at least one layer")
        rots = _rotation_stack(rotations, betas)
        q = betas.shape[1]
        w = finite_array(output_map, "output_map", (q, q))
        y = finite_array(labels, "labels", (q, q))  # one row per cluster
        sv = _svd(w, signature="d->d")  # np.linalg.svd would raise where this returns NaN, which fails
        if not sv[-1] > 1e-12 * sv[0]:
            raise ValueError("output_map is numerically singular")
        x = _solve(w, y.T, signature="dd->d")  # column l solves W x = y_l
        r = w @ x - y.T
        resid = np.sqrt(np.add.reduce(r * r, axis=0))  # np.linalg.norm's arithmetic, bit for bit
        scale = np.sqrt(np.add.reduce(y * y, axis=1))
        if not (resid <= 1e-10 * np.maximum(scale, 1.0)).all():
            raise ValueError("pulled labels failed the reconstruction check")
        ytil = x.T
        ytil.setflags(write=False)
        self.output_map, self.labels, self.pulled_labels = w, y, ytil
        self._set_layers(rots, betas)

    def _set_layers(self, rotations: np.ndarray, betas: np.ndarray) -> None:
        rotations.setflags(write=False)
        betas.setflags(write=False)
        self.rotations = rotations
        self.betas = betas

    def checked(self) -> "ModelState":
        """This state, after checking every rotation in one pass; one off the group raises ValueError
        naming it."""
        check_orthogonal_stack(self.rotations)
        return self

    @property
    def layers(self) -> tuple[LayerParams, ...]:
        return tuple(LayerParams(OrthogonalMatrix(r), b) for r, b in zip(self.rotations, self.betas))

    @property
    def dim(self) -> int:
        return self.rotations.shape[1]

    @property
    def depth(self) -> int:
        return self.rotations.shape[0]

    def derive(self, rotations: np.ndarray, betas: np.ndarray) -> "ModelState":
        """This state with new layer arrays, which become read-only; checks shapes only."""
        if rotations.shape != self.rotations.shape or betas.shape != self.betas.shape:
            raise ValueError(f"layer arrays of shapes {rotations.shape}, {betas.shape} do not "
                             f"match {self.rotations.shape}, {self.betas.shape}")
        out = object.__new__(type(self))  # skips __init__
        out.__dict__ = self.__dict__.copy()  # shares output map, labels and pulled labels
        out._set_layers(rotations, betas)
        return out


def state_from_arrays(rotations, betas, output_map, labels) -> ModelState:
    """The state of the layers (rotations[k], betas[k]) with the output map and labels, checked by
    the one state rule without wrapping a layer; the caller's arrays stay theirs.  A rejected
    input raises ValueError naming the array, or the layer k whose rotation is off the group as
    "rotation k"."""
    state = object.__new__(ModelState)  # skips __init__, which takes its layers wrapped
    state._check(rotations, betas, output_map, labels)
    return state


def push(rotations, betas, pts, masks=None, field=None):
    """Push a point (Q,) or rows of points (N, Q) up through the layers (R_k, beta_k).

    Layer k maps its input t to z_k = R_k (t + beta_k), takes nu_k = z_k > 0
    (or `masks[k]`, the smooth extension of a sector configuration) as its
    activity, and hands t = R_k^T (nu_k z_k) - beta_k on.  Returns (zs, nus,
    t, z_dots): per-layer coordinates and activities, the final images, and
    the forward-mode rates d(z_k)/ds under `field` = (beta_dots, omegas), the
    velocities of beta_k and generators of R_k (None without a field).

    A layer may also be a stack of S variants, rotations (S, Q, Q) with betas
    (S, 1, Q), such as the finite-difference stencils of one layer: the layers
    below it run once, and from it on every array carries the leading stencil
    axis, (S, N, Q), each slice bit for bit the push of that variant alone.
    """
    t = np.asarray(pts, dtype=float)
    zs, nus, z_dots = [], [], []
    if field is not None:
        beta_dots, omegas = field
        t_dot = np.zeros_like(t)
    for k, (r, beta) in enumerate(zip(rotations, betas)):
        z = (t + beta) @ r.mT
        nu = z > 0.0 if masks is None else masks[k]
        active = nu * z
        if field is not None:  # z' = Omega z + R (t' + beta'), then t' = R^T (nu z' + Omega^T nu z) - beta'
            z_dot = z @ omegas[k].mT + (t_dot + beta_dots[k]) @ r.mT
            t_dot = (nu * z_dot + active @ omegas[k]) @ r - beta_dots[k]
            z_dots.append(z_dot)
        t = active @ r - beta
        zs.append(z)
        nus.append(nu)
    return zs, nus, t, z_dots if field is not None else None


def finite_points(x, q: int, rows: bool = True) -> np.ndarray:
    """`x` as a float array of one point (Q,), or with `rows` also of rows of points (N, Q).
    Another shape, or a non-finite coordinate, raises ValueError naming the shape or the first
    such coordinate."""
    t = np.asarray(x, dtype=float)
    if t.ndim not in ((1, 2) if rows else (1,)) or t.shape[-1] != q:
        expected = f"({q},) or (N, {q})" if rows else f"({q},)"
        raise ValueError(f"point has shape {t.shape}; expected {expected}")
    bad = np.argwhere(~np.isfinite(t))
    if len(bad):
        where = tuple(bad[0].tolist())
        name = "point" if t.ndim == 1 else f"point {where[0]}"
        raise ValueError(f"{name} coordinate {where[-1]} is {t[where]}, not finite")
    return t


def check_data(state: ModelState, data, own_clusters: bool = False) -> None:
    """Raise unless the training set `data` fits the state: ValueError naming both Q's where they
    differ, and with `own_clusters`, for a flow that gives layer k cluster k, IndexRange where the
    state has more layers than the data has clusters."""
    if state.dim != data.q:
        raise ValueError(f"state and data differ in Q: state.dim = {state.dim}, data.q = {data.q}")
    if own_clusters and state.depth > data.q:
        raise IndexRange(f"depth {state.depth} exceeds the {data.q} clusters")


def layer_range(depth: int, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
    """The half-open, 0-based layer range [lo, hi) of a state of `depth` layers, `hi` None
    meaning `depth`; one that is not within [0, depth], or runs backwards, raises IndexRange
    naming the range and the depth.  Layer k alone is the range (k, k + 1)."""
    if hi is None:
        hi = depth
    if not (0 <= lo <= hi <= depth):
        raise IndexRange(f"invalid layer range [{lo}, {hi}) for depth {depth}")
    return lo, hi


def chained_truncation(state: ModelState, x, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Compose the truncation maps of the state's layers lo..hi-1 in ascending order.

    `x` is one point (Q,) or rows of points (N, Q), finite (:func:`finite_points`).  The range
    (:func:`layer_range`) is half-open and 0-based; an empty range returns x unchanged, and
    (k, k + 1) is layer k's own truncation map.
    """
    lo, hi = layer_range(state.depth, lo, hi)
    return push(state.rotations[lo:hi], state.betas[lo:hi], finite_points(x, state.dim))[2]


# Kept only because perfbench/tracing.py looks the chain up under this name; same function.
chained_truncation_batch = chained_truncation


def _residuals(state: ModelState, data, images: np.ndarray) -> list[np.ndarray]:
    """Per-cluster residual rows tau^(L..1)(x) - ytilde, from the final `images` (..., N, Q) of
    `data.points`."""
    return [images[..., data.rows(l), :] - ytil for l, ytil in enumerate(state.pulled_labels)]


def cluster_cost(resid: np.ndarray):
    """One cluster's share (1/2)(1/N_l) sum_i |r_i|^2 of the cost, from its residual rows
    (..., N_l, Q): one share per leading index, each summed over its own rows alone."""
    *lead, n, q = resid.shape
    return 0.5 * np.add.reduce((resid * resid).reshape(*lead, n * q), axis=-1) / n


def images_cost(state: ModelState, data, images: np.ndarray):
    """The Euclidean cost, from the final `images` of `data.points` under the state's layers.

    `images` (N, Q) gives a float; images (..., N, Q) with leading stencil axes, as `push`
    returns them for a stacked layer, give one cost per stencil, each bit for bit the float of
    its own (N, Q) slice.
    """
    total = 0.0
    for resid in _residuals(state, data, images):
        total += cluster_cost(resid)
    return float(total) if images.ndim == 2 else total


def euclidean_cost(state: ModelState, data) -> float:
    """Mean squared input-space mismatch of fully truncated data to pulled labels.

    (1/2) sum_l (1/N_l) sum_i |tau^(chain)(x_{l,i}) - ytilde_l|^2

    Data whose Q differs from the state's raise ValueError naming both (:func:`check_data`).
    """
    check_data(state, data)
    return images_cost(state, data, chained_truncation(state, data.points))


def standard_cost(state: ModelState, data) -> float:
    """Same mismatch measured after mapping residuals through the output map; data whose Q
    differs from the state's raise ValueError naming both (:func:`check_data`)."""
    check_data(state, data)
    w = state.output_map
    total = 0.0
    for resid in _residuals(state, data, chained_truncation(state, data.points)):
        total += cluster_cost(resid @ w.T)
    return float(total)
