"""Network data model: per-layer parameters, truncation maps, sectors, costs.

A layer is the pair (R, beta) with R in O(Q) and beta in R^Q.  Its
truncation map acts on input-space points as

    tau(x) = R^T relu(R (x + beta)) - beta,

i.e. the coordinatewise ReLU pulled back through the affine map
a(x) = R (x + beta).  A coordinate with a(x)_r <= 0 counts as truncated
(the activation derivative convention h(0) = 0); all sector logic below
uses strict `> 0` so the measure-zero boundary is deterministic.

Invariants are checked at the public constructors (:class:`LayerParams`,
:class:`ModelState`); states derived from a validated one, such as
integration stages and finite-difference stencils, check only shapes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import IndexRange
from .manifold import OrthogonalMatrix, check_orthogonal


@dataclass(frozen=True)
class SectorMask:
    """Sign pattern of a point in a layer's rotated frame, one bit per coordinate."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("SectorMask needs at least one coordinate")

    @classmethod
    def from_vector(cls, x) -> "SectorMask":
        """Bit r set iff x_r > 0 strictly; x_r = 0 counts as truncated."""
        x = np.asarray(x, dtype=float)
        return cls(tuple(bool(b) for b in x > 0.0))

    @property
    def dim(self) -> int:
        return len(self.bits)

    def all_true(self) -> bool:
        return all(self.bits)

    def all_false(self) -> bool:
        return not any(self.bits)

    def is_off_diagonal(self) -> bool:
        """Neither fully positive nor fully truncated."""
        return not (self.all_true() or self.all_false())

    def as_float(self) -> np.ndarray:
        return np.array(self.bits, dtype=float)


@dataclass(frozen=True)
class LayerParams:
    """One layer's cumulative parameters: rotation R and bias beta."""

    rotation: OrthogonalMatrix
    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if b.shape != (self.rotation.dim,):
            raise ValueError(f"beta has shape {b.shape}, expected ({self.rotation.dim},)")
        if not np.all(np.isfinite(b)):
            raise ValueError("beta has a non-finite entry")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    @property
    def dim(self) -> int:
        return self.rotation.dim

    def with_updates(self, rotation=None, beta=None) -> "LayerParams":
        return LayerParams(
            rotation=self.rotation if rotation is None else rotation,
            beta=self.beta if beta is None else beta,
        )


class ModelState:
    """All flow variables plus the fixed output map and labels.

    The layers are held as read-only stacked arrays, `rotations` (L, Q, Q)
    and `betas` (L, Q).  `output_map` is the full-rank linear map from input
    space to output space; `labels[l]` is the l-th reference output and
    `pulled_labels[l]` its preimage under the output map.

    The constructor takes validated LayerParams, checks the output map and
    labels, and solves the pulled labels.  States derived from it share those
    and check only their shapes.  `checked()` applies the orthogonality bound
    to the stacked rotations; `layers`, the read-only view of validated
    LayerParams, is built on first read, which checks every rotation too.
    """

    def __init__(self, layers, output_map, labels):
        layers = tuple(layers)
        if not layers:
            raise ValueError("need at least one layer")
        q = layers[0].dim
        if any(lp.dim != q for lp in layers):
            raise ValueError("all layers must share the same dimension")
        w = np.asarray(output_map, dtype=float)
        if w.shape != (q, q):
            raise ValueError(f"output_map has shape {w.shape}, expected ({q}, {q})")
        if not np.all(np.isfinite(w)):
            raise ValueError("output_map has a non-finite entry")
        y = np.asarray(labels, dtype=float)
        if y.shape != (q, q):
            raise ValueError(f"labels have shape {y.shape}, expected ({q}, {q}) (one row per cluster)")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels have a non-finite entry")
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("output_map is numerically singular")
        ytil = np.linalg.solve(w, y.T).T
        resid = np.linalg.norm(w @ ytil.T - y.T, axis=0)
        scale = np.maximum(np.linalg.norm(y, axis=1), 1e-300)
        if np.any(resid > 1e-10 * np.maximum(scale, 1.0)):
            raise ValueError("pulled labels failed the reconstruction check")
        for a in (w, y, ytil):
            a.setflags(write=False)
        self.output_map, self.labels, self.pulled_labels = w, y, ytil
        self._set_layers(np.array([lp.rotation.mat for lp in layers]),
                         np.array([lp.beta for lp in layers]))
        self._layers = layers

    def _set_layers(self, rotations: np.ndarray, betas: np.ndarray) -> None:
        rotations.setflags(write=False)
        betas.setflags(write=False)
        self.rotations = rotations
        self.betas = betas
        self._layers = None

    def checked(self) -> "ModelState":
        """This state, after checking every rotation; one off the group raises ValueError."""
        if self._layers is None:  # a built view holds validated rotations
            for r in self.rotations:
                check_orthogonal(r)
        return self

    @property
    def layers(self) -> tuple[LayerParams, ...]:
        if self._layers is None:
            self._layers = tuple(
                LayerParams(OrthogonalMatrix(r), b) for r, b in zip(self.rotations, self.betas)
            )
        return self._layers

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
        out = copy.copy(self)  # shares output map, labels and pulled labels; skips __init__
        out._set_layers(rotations, betas)
        return out

    def with_layer(self, index: int, layer: LayerParams) -> "ModelState":
        if layer.dim != self.dim:
            raise ValueError(f"layer has dimension {layer.dim}, expected {self.dim}")
        rotations, betas = self.rotations.copy(), self.betas.copy()
        rotations[index] = layer.rotation.mat
        betas[index] = layer.beta
        out = self.derive(rotations, betas)
        if self._layers is not None:  # keep the validated view
            layers = list(self._layers)
            layers[index] = layer
            out._layers = tuple(layers)
        return out


def push(rotations, betas, pts, masks=None, field=None):
    """Push a point (Q,) or rows of points (N, Q) up through the layers (R_k, beta_k).

    Layer k maps its input t to z_k = R_k (t + beta_k), takes nu_k = z_k > 0
    (or `masks[k]`, the smooth extension of a sector configuration) as its
    activity, and hands t = R_k^T (nu_k z_k) - beta_k on.  Returns (zs, nus,
    t, z_dots): per-layer coordinates and activities, the final images, and
    the forward-mode rates d(z_k)/ds under `field` = (beta_dots, omegas), the
    velocities of beta_k and generators of R_k (None without a field).
    """
    t = np.asarray(pts, dtype=float)
    zs, nus, z_dots = [], [], []
    if field is not None:
        beta_dots, omegas = field
        t_dot = np.zeros_like(t)
    for k, (r, beta) in enumerate(zip(rotations, betas)):
        z = (t + beta) @ r.T
        nu = z > 0.0 if masks is None else masks[k]
        active = nu * z
        if field is not None:  # z' = Omega z + R (t' + beta'), then t' = R^T (nu z' + Omega^T nu z) - beta'
            z_dot = z @ omegas[k].T + (t_dot + beta_dots[k]) @ r.T
            t_dot = (nu * z_dot + active @ omegas[k]) @ r - beta_dots[k]
            z_dots.append(z_dot)
        t = active @ r - beta
        zs.append(z)
        nus.append(nu)
    return zs, nus, t, z_dots if field is not None else None


def chained_truncation(layers, x, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Compose truncation maps of layers lo..hi-1 in ascending order.

    `layers` is a ModelState or a sequence of LayerParams; `x` is one point
    (Q,) or rows of points (N, Q).  The range is half-open and 0-based; an
    empty range returns x unchanged.
    """
    if isinstance(layers, ModelState):
        rotations, betas = layers.rotations, layers.betas
    else:
        rotations, betas = [lp.rotation.mat for lp in layers], [lp.beta for lp in layers]
    if hi is None:
        hi = len(rotations)
    if not (0 <= lo <= hi <= len(rotations)):
        raise IndexRange(f"invalid layer range [{lo}, {hi}) for {len(rotations)} layers")
    return push(rotations[lo:hi], betas[lo:hi], x)[2]


# Second name of the same function; perfbench/tracing.py times the cost's chain under it.
chained_truncation_batch = chained_truncation


def truncation_map(layer: LayerParams, x) -> np.ndarray:
    """Apply one layer's ReLU pullback R^T relu(R(x + beta)) - beta to a point or rows."""
    return chained_truncation((layer,), x)


def classify_sector(layer: LayerParams, x) -> SectorMask:
    """Sign pattern of R(x + beta); all-true means the point is fixed by the layer."""
    x = np.asarray(x, dtype=float)
    return SectorMask.from_vector(layer.rotation.mat @ (x + layer.beta))


def _residuals(state: ModelState, data) -> list[np.ndarray]:
    """Per-cluster residual matrices tau^(L..1)(x) - ytilde, rows are points."""
    out = []
    for l, pts in enumerate(data.clusters):
        final = chained_truncation(state, pts)
        out.append(final - state.pulled_labels[l])
    return out


def cluster_cost(resid: np.ndarray) -> float:
    """One cluster's share (1/2)(1/N_l) sum_i |r_i|^2 of the cost, from its residual rows."""
    return 0.5 * float(np.sum(resid * resid)) / resid.shape[0]


def euclidean_cost(state: ModelState, data) -> float:
    """Mean squared input-space mismatch of fully truncated data to pulled labels.

    (1/2) sum_l (1/N_l) sum_i |tau^(chain)(x_{l,i}) - ytilde_l|^2
    """
    total = 0.0
    for resid in _residuals(state, data):
        total += cluster_cost(resid)
    return total


def standard_cost(state: ModelState, data) -> float:
    """Same mismatch measured after mapping residuals through the output map."""
    w = state.output_map
    total = 0.0
    for resid in _residuals(state, data):
        total += cluster_cost(resid @ w.T)
    return total
