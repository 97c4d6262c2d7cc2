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
`push`.  The patterns replace the computed ones.  Both layered fields are
one adjoint sweep, ``_descent_field(state, plan, zs)``, over a *plan* of the
masks: everything the sweep needs that the masks alone decide.  A plan entry
is one cluster's label index and its acting layers from the top down, each
the layer, the rows of ``zs[l]`` it reads, and the float nu and 1 - nu of
their masks; a layer whose mask rows are all active is the identity, and a
cluster acted on nowhere has no entry.  Or an entry stacks B clusters of one
size n, each acting at its own layer alone, as one (B, n, Q) block indexed by
its layers; the sweep's lines serve both ranks.  Frozen masks given as a
:class:`FrozenMasks` are planned once per field, and the plan is swept as it
is on every later call; their float form, which the general field pushes at,
whether they stack and whether they are separated are decided once too.  A
plain list is planned on each call by the same functions.  The integrators
wrap push's list once per mask change, so one plan serves every evaluation
until the next event.  Clusters 0..depth-1 of one size *stack*, at any depth.
A mask set is *separated* when it has at most Q layers and no layer k truncates
a row outside cluster k: when :func:`~truncflow.measures.separation_violations`,
the list that :func:`~truncflow.measures.check_cluster_separation` returns for
push's masks, is empty.
The general field sweeps push's coordinates per cluster, except on a mask set
that is separated: there each cluster acts at its own layer alone, as in the
separated field, so it sweeps that field's plan over cluster k's rows of push's
z_k (:func:`_own_rows`), bit for bit the per-cluster sweep.  One body,
:func:`_frozen_field`, makes that choice for every frozen mask set, of one state
or of a group of members of one shape (:func:`group_rhs`, at a
:class:`GroupMasks`): where the members' separated plans act at the same layers,
the group is swept as one, else member by member.  The separated field
gives cluster k layer k alone, at its own rows' raw coordinates
(x + beta_k) R_k^T and mask, whose unfrozen rows are their signs (integrators
freeze push's, which on the field's domain, separated states, are the same
rows): it pushes no point and reads no foreign cluster's rows.  Over clusters
that stack it takes its layers as one stacked entry, one batched product per
evaluation; otherwise one entry per acting layer.
Generators are validated as :class:`~truncflow.manifold.AntisymmetricMatrix`
only where they cross the public boundary (`retract`, the finite-difference
oracle).  The collapsed field takes and returns plain arrays too,
``collapsed_rhs(b, w, y) -> (b_dot, w_dot)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadOrdering, IndexRange, LabelInsideData, SingularGram
from .measures import TrainingSet, check_mask, compute_moments, separation_violations
from .model import ModelState, check_data, finite_array, finite_points, layer_range, push


def _commutator_with_mask(nu: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """[diag(nu), S] for symmetric S, computed entrywise: (nu_i - nu_j) S_ij."""
    return (nu[:, None] - nu[None, :]) * sym


def _acting(l, rows, mask: np.ndarray):
    """One acting layer of a plan entry, (l, rows, nu, 1 - nu): the layer, the rows of its z that
    the entry reads, and the float nu and 1 - nu of their mask."""
    nu = mask.astype(float)
    return l, rows, nu, 1.0 - nu


def _descent_field(state, plan, zs):
    """The one adjoint sweep of both layered fields, over `plan`, a field's plan of its masks as it
    is: a list of (ytil, acting) entries, at the coordinates `zs`.

    An entry is one cluster's: ytil indexes its label in `state.pulled_labels`,
    and acting lists its acting layers, :func:`_acting` tuples from the top
    down, each reading its (n, Q) rows as `zs[l][rows]`; a layer left out is
    the identity on the cluster, and a cluster acted on nowhere has no entry.
    Or it stacks B clusters of one size n, each acting at its own layer alone:
    one tuple whose layer is an index (an array or slice of B distinct layers)
    into the (B, n, Q) `zs[l]`, and ytil the same index.  The same lines serve
    both.  g starts at the topmost acting layer l as R_l^T(nu_l z_l) - beta_l
    - ytilde, so identity layers above add no round-off.  With c = g @ R_l^T,
    layer l gets beta_dot_l += R_l^T Hperp_l c and Omega_l -= [H_l, (z_l c^T
    + c z_l^T)/2], and g becomes R_l^T H_l c.

    A group of members of one shape sweeps as one: `state` then holds their (B, L, Q, Q)
    rotations, (B, L, Q) betas and (B, Q, Q) pulled labels, `zs` their coordinates with the
    same leading member axis (an array, or a list of (B, n, Q) per layer), and the plan its
    members' separated plans stacked on a member axis just before the rows
    (:attr:`GroupMasks.effective`).  The sweep reads the group's arrays through layer-major
    views, so one index `[l]` serves a state and a group alike.  Every line acts on each
    member's slice as on a state alone, so each member's velocities are bit for bit its own
    sweep's.
    """
    rotations = state.rotations
    beta_dots = np.zeros(state.betas.shape)
    omegas = np.zeros(rotations.shape)
    if rotations.ndim == 3:  # one state; betas (L, 1, Q) and labels (Q, 1, Q) broadcast over rows
        bd, om, betas, labels = beta_dots, omegas, state.betas[:, None], state.pulled_labels[:, None]
    else:  # a group: layer-major views, the member axis second
        rotations, bd, om = rotations.swapaxes(0, 1), beta_dots.swapaxes(0, 1), omegas.swapaxes(0, 1)
        betas = state.betas.swapaxes(0, 1)[:, :, None]
        labels = state.pulled_labels.swapaxes(0, 1)[:, :, None]
        if not isinstance(zs, list):
            zs = zs.swapaxes(0, 1)
    for ytil, acting in plan:
        last = len(acting) - 1
        for i, (l, rows, nu, nu_perp) in enumerate(acting):
            r, z = rotations[l], zs[l][rows]
            nu_z = nu * z
            if i == 0:
                weight = 1.0 / z.shape[-2]
                g = nu_z @ r - betas[l] - labels[ytil]
            c = g @ r.mT
            nu_c = nu * c
            bd[l] += weight * np.add.reduce((nu_perp * c) @ r, axis=-2)
            if z.shape[-1] > 1:  # at Q = 1 every generator is the 1 x 1 zero
                # the rows' sum of [diag(nu), (z c^T + c z^T)/2], per (n, Q) rows or (B, n, Q) block:
                # two rank-reduced products, antisymmetrized explicitly so that it is exactly antisymmetric
                m1, m2 = nu_z.mT @ c, nu_c.mT @ z
                om[l] -= weight * (0.5 * ((m1 - m1.mT) + (m2 - m2.mT)))
            if i < last:
                g = nu_c @ r
    return beta_dots, omegas


def _stacks(data: TrainingSet, depth: int) -> bool:
    """Whether the separated field takes its layers as one stacked entry: clusters 0..depth-1
    of one size, at any depth."""
    return len(set(data.counts[:depth])) == 1


def _effective_plan(own, stacked: bool):
    """The separated field's plan of `own[k]`, cluster k's (N_k, Q) activity rows at layer k: each
    acting layer k an entry of its own, reading all of z[k], or stacked, one entry whose layer is
    an index over the (depth, n, Q) z, a slice when every layer acts, else the array of acting
    layers.  A layer whose rows are all active is the identity, left out."""
    if stacked:
        mask = np.stack(own)
        identity = mask.all(axis=(1, 2))
        if identity.all():
            return []
        # a slice when every layer acts: the stack's rows, rotations and labels stay views
        layers = np.flatnonzero(~identity) if identity.any() else slice(0, len(own))
        return [(layers, [_acting(layers, slice(None), mask[layers])])]
    return [(k, [_acting(k, slice(None), mask)]) for k, mask in enumerate(own) if not mask.all()]


def _general_plan(masks, data: TrainingSet):
    """The general field's plan of the (N, Q) `masks[l]`: per cluster acted on somewhere, its
    acting layers from the top down, each reading the cluster's rows of push's z at that layer."""
    plan = []
    for k, rows in enumerate(map(data.rows, range(data.q))):
        acting = [_acting(l, rows, mask[rows]) for l, mask in reversed(list(enumerate(masks)))
                  if not mask[rows].all()]
        if acting:
            plan.append((k, acting))
    return plan


class FrozenMasks(tuple):
    """A sector configuration held fixed, with all that it alone decides.

    It is push's activity list as it is, `masks[k]` the (N, Q) bool activities at layer k of
    every point of `data`, for states of `len(masks)` layers; it goes wherever such a list goes.
    Each mask is checked once, here: one that is not a bool array of `data.points`' shape raises
    ValueError naming its layer.  Everything the masks alone decide is computed on first use and
    kept for as long as the mask set is (`points` is `data.points`): `floats`, the masks as float
    arrays, which `push` takes as its `masks` for the same bits; `own`, cluster k's rows of
    `masks[k]`; `counts`, its truncated points per coordinate; `stacked`, whether clusters
    0..L-1 are of one size, so that the separated field takes its layers as one stacked entry;
    `violations`, the (layer, cluster, point) triples of rows outside cluster k truncated at
    layer k, by :func:`~truncflow.measures.separation_violations`, on push's masks the list that
    :func:`~truncflow.measures.check_cluster_separation` returns; `separated`, whether the set
    has at most Q layers and no violation; and one plan per field (`effective`, `general`), the
    entries each field's :func:`_descent_field` sweeps as they are.  The integrators wrap push's list once per mask change.  A field given a plain list, or
    masks planned for other data or another depth, plans them on that call by the same function.
    """

    def __new__(cls, masks, data: TrainingSet):
        self = super().__new__(cls, masks)
        for l, mask in enumerate(self):
            check_mask(mask, data.points.shape, f"frozen mask {l}")
        self.data, self.points = data, data.points
        return self

    @cached_property
    def floats(self) -> list[np.ndarray]:
        return [mask.astype(float) for mask in self]

    @cached_property
    def own(self) -> list[np.ndarray]:
        return [mask[self.data.rows(k)] for k, mask in enumerate(self)]

    @cached_property
    def counts(self) -> list[np.ndarray]:
        return [np.sum(~own, axis=0) for own in self.own]

    @cached_property
    def stacked(self) -> bool:
        return _stacks(self.data, len(self))

    @cached_property
    def violations(self) -> list[tuple[int, int, int]]:
        return separation_violations(self, self.data)

    @cached_property
    def separated(self) -> bool:
        return len(self) <= self.data.q and not self.violations

    @cached_property
    def effective(self):
        return _effective_plan(self.own, self.stacked)

    @cached_property
    def general(self):
        return _general_plan(self, self.data)


def _planned(masks, data: TrainingSet, depth: int) -> FrozenMasks:
    """`masks` if they were planned for `data` at `depth`, else their first `depth` layers
    wrapped anew, to be planned on this call; fewer than `depth` raise IndexRange."""
    if isinstance(masks, FrozenMasks) and masks.data is data and len(masks) == depth:
        return masks
    if len(masks) < depth:
        raise IndexRange(f"{len(masks)} frozen masks for {depth} layers")
    return FrozenMasks([masks[l] for l in range(depth)], data)


def effective_rhs(state: ModelState, data: TrainingSet, frozen_masks=None):
    """Descent velocities of every layer under cluster separation, stacked like the state.

    Layer k is the identity on every cluster c != k, so the adjoint sweep of
    :func:`general_rhs` gets cluster k's N_k rows at layer k alone: their raw
    coordinates z_k = (x + beta_k) R_k^T and their rows of `frozen_masks[k]`,
    which integrators pass so that no step samples the field across a
    boundary, else z_k > 0 as in the moment form.  So layer k's velocity reads
    only R_k, beta_k, cluster k and ytilde_k; a cluster all active there, or
    beyond the depth, acts nowhere.  With clusters 0..depth-1 of one size n,
    at any depth, the layers are one stacked entry: z is one batched product
    over the (depth, n, Q) view of their rows; otherwise each acting layer is
    an entry of its own.

    The field's domain is the separated states, on which layers 0..k-1 fix
    cluster k: there its raw z_k are push's chained ones, and the field frozen
    at push's masks is the unfrozen field bit for bit.  On a state that is not
    separated the two differ, and neither need descend the full cost; the
    integrator warns there and stops where the field ascends it.
    """
    check_data(state, data, own_clusters=True)
    if frozen_masks is not None:
        return _frozen_field(state, _planned(frozen_masks, data, state.depth), True)
    stacked = _stacks(data, state.depth)
    z = _own_coordinates(state, data.points, data, stacked)
    return _descent_field(state, _effective_plan([zk > 0.0 for zk in z], stacked), z)


def _own_coordinates(state, points, data: TrainingSet, stacked: bool):
    """Cluster k's raw coordinates (x + beta_k) R_k^T at its own layer k, for every layer k of
    `state`: one (L, n, Q) array if the clusters `stacked`, else a list of (N_k, Q) arrays.  A
    group's (B, L, Q, Q) rotations and (B, L, Q) betas, with its members' (B, N, Q) `points`,
    give each with the leading member axis, each member's slice bit for bit its own."""
    rotations, betas = state.rotations, state.betas
    if rotations.ndim == 3:  # one state
        if stacked:
            depth, n = len(rotations), data.counts[0]
            return (points[:depth * n].reshape(depth, n, -1) + betas[:, None]) @ rotations.mT
        return [(points[data.rows(k)] + b) @ r.T for k, (r, b) in enumerate(zip(rotations, betas))]
    depth = rotations.shape[1]
    if stacked:
        n = data.counts[0]
        block = points[:, :depth * n].reshape(len(points), depth, n, -1)
        return (block + betas[:, :, None]) @ rotations.mT
    return [(points[:, data.rows(k)] + betas[:, k, None]) @ rotations[:, k].mT for k in range(depth)]


def _own_rows(zs, data: TrainingSet, stacked: bool):
    """Cluster k's rows of `zs[k]`, push's coordinates at layer k, for every layer k: one
    (..., L, n, Q) block if the clusters `stacked`, else a list of (..., N_k, Q) arrays, where a
    group's (B, N, Q) coordinates keep their leading member axis."""
    own = [z[..., data.rows(k), :] for k, z in enumerate(zs)]
    return np.stack(own, axis=-3) if stacked else own


def _plan_layers(plan) -> list:
    """The layers a plan's entries act at, as comparable values."""
    return [[(l.start, l.stop) if isinstance(l, slice) else l.tolist() if isinstance(l, np.ndarray) else l
             for l, *_ in acting] for _, acting in plan]


class GroupMasks(tuple):
    """A group's :class:`FrozenMasks`, one per member of one shape, with what they decide together,
    computed on first use: `points` and `floats[k]` stacked (B, N, Q); `separated`, whether every
    member's set is; `effective`, the members' separated plans stacked on a member axis just
    before the rows, or None where they act at different layers (a layer all active for one
    member is left out of its plan, and padding it back would change that member's bits).
    `data` and `stacked` are the first member's, which every member shares, and no general plan
    stacks: a group not separated sweeps member by member."""

    general = None

    @property
    def data(self) -> TrainingSet:
        return self[0].data

    @property
    def stacked(self) -> bool:
        return self[0].stacked

    @cached_property
    def points(self) -> np.ndarray:
        return np.stack([m.data.points for m in self])

    @cached_property
    def floats(self) -> list[np.ndarray]:
        return [np.stack(layer) for layer in zip(*(m.floats for m in self))]

    @cached_property
    def separated(self) -> bool:
        return all(m.separated for m in self)

    @cached_property
    def effective(self):
        plans = [m.effective for m in self]
        layers = _plan_layers(plans[0])
        if any(_plan_layers(plan) != layers for plan in plans[1:]):
            return None
        return [(ytil, [(l, rows, np.stack([plan[e][1][i][2] for plan in plans], axis=-3),
                         np.stack([plan[e][1][i][3] for plan in plans], axis=-3))
                        for i, (l, rows, _, _) in enumerate(acting)])
                for e, (ytil, acting) in enumerate(plans[0])]


class _GroupState(NamedTuple):
    """A group's (B, L, Q, Q) rotations, (B, L, Q) betas and (B, Q, Q) pulled labels, read as a
    state; one member's slices read as that member's state."""
    rotations: np.ndarray
    betas: np.ndarray
    pulled_labels: np.ndarray


def _frozen_field(state, masks, own: bool, zs=None):
    """The separated field (`own`) or the general field, at push's `zs` if given, frozen at a state's
    :class:`FrozenMasks` or a group's :class:`GroupMasks`: the one place that decides which plan
    a mask set sweeps, at which coordinates.  A separated set, and every set of the separated
    field, sweeps the separated plan, at cluster k's raw coordinates at layer k (`own`) or its
    rows of push's z_k; any other sweeps the general plan at push's z.  A group with no stacked
    plan sweeps member by member."""
    plan = masks.effective if own or masks.separated else masks.general
    if plan is None:
        velocities = [_frozen_field(_GroupState(*member), m, own)
                      for *member, m in zip(state.rotations, state.betas, state.pulled_labels, masks)]
        return np.stack([v[0] for v in velocities]), np.stack([v[1] for v in velocities])
    if own:
        return _descent_field(state, plan, _own_coordinates(state, masks.points, masks.data, masks.stacked))
    if zs is None:
        rotations, betas = state.rotations, state.betas
        if rotations.ndim == 4:  # a group, pushed layer-major
            rotations, betas = rotations.swapaxes(0, 1), betas.swapaxes(0, 1)[:, :, None]
        zs = push(rotations, betas, masks.points, masks.floats)[0]
    return _descent_field(state, plan, _own_rows(zs, masks.data, masks.stacked) if masks.separated else zs)


def group_rhs(rotations, betas, pulled_labels, masks: GroupMasks, separated: bool):
    """The separated field (`separated`) or the general field of B members of one shape, from their
    (B, L, Q, Q) rotations, (B, L, Q) betas and (B, Q, Q) pulled labels at their mask sets: each
    member's slice of (beta_dots, omegas) is bit for bit its own field's at its masks."""
    return _frozen_field(_GroupState(rotations, betas, pulled_labels), masks, separated)


def moment_form_rhs(state: ModelState, data: TrainingSet, frozen_masks=None):
    """Same contract as :func:`effective_rhs`, computed through cluster moments.

    Omega_ij = sum over occupied mixed sectors nu of
    (nu_i - nu_j) * ( (J1_i v_j + v_i J1_j) / 2 - J2_ij / 2 ).
    """
    check_data(state, data, own_clusters=True)
    masks = None if frozen_masks is None else _planned(frozen_masks, data, state.depth)
    beta_dots = np.empty(state.betas.shape)
    omegas = np.zeros(state.rotations.shape)
    for k, (r, beta) in enumerate(zip(state.rotations, state.betas)):
        v = r @ (beta + state.pulled_labels[k])
        mom = compute_moments(r, beta, data.clusters[k], None if masks is None else masks.own[k])
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

    Same contract as :func:`effective_rhs`, but every cluster acts on every
    layer through the chained truncation.  One `push` carries all points up
    (at `frozen_masks` if given); each cluster's plan lists the layers where
    its mask rows are not all active, from the top down.  On separated masks
    every cluster acts at its own layer alone: the sweep takes the separated
    field's plan over cluster k's rows of push's z_k instead, with the same
    bits, since each layer gets its one contribution either way.
    """
    check_data(state, data)
    if frozen_masks is not None:
        return _frozen_field(state, _planned(frozen_masks, data, state.depth), False)
    zs, masks, _, _ = push(state.rotations, state.betas, data.points)
    return _frozen_field(state, _planned(masks, data, state.depth), False, zs)


def chained_projectors(state: ModelState, point, lo: int = 0, hi: int | None = None):
    """Projector expansion of the chained truncation over layers [lo, hi).

    Returns (p_plus, p_minus_list) with tau^(lo..hi-1)(x) =
    p_plus @ x - sum_k p_minus_list[k - lo] @ beta_k, the activity masks
    being evaluated along the chain started at layer lo.  `point` is one
    finite point (Q,) (:func:`~truncflow.model.finite_points`), and the range that of
    :func:`~truncflow.model.layer_range`.
    """
    lo, hi = layer_range(state.depth, lo, hi)
    q = state.dim
    t = finite_points(point, q, rows=False)
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
        b = finite_array(self.b_matrix, "b_matrix", ("Q", "Q"))
        q = b.shape[0]
        if q < 1:
            raise ValueError(f"b_matrix has shape {b.shape}: need Q >= 1")
        for name, m in (("b_matrix", b), ("w_out", self.w_out), ("y_matrix", self.y_matrix)):
            object.__setattr__(self, name, finite_array(m, name, (q, q)))

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]

    def cost(self) -> float:
        """Standard cost of fully collapsed data: (1/2) tr |W B + Y|^2."""
        e = self.w_out @ self.b_matrix + self.y_matrix
        return 0.5 * float(np.sum(e * e))


def collapsed_rhs(b: np.ndarray, w: np.ndarray, y: np.ndarray):
    """Gradient-descent velocities (B_dot, W_dot) of the collapsed standard cost at the arrays (B, W, Y);
    a group's (G, Q, Q) stacks give each member's velocities, bit for bit its own."""
    e = w @ b + y
    return -(w.mT @ e), -(e @ b.mT)


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
    interpolant of the labels on the data.  A non-finite `s` raises ValueError.
    """
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    x0 = finite_array(x0, "X", ("Q", "N"))
    q, n = x0.shape
    w0 = finite_array(w0, "W0", (q, q))
    y_ext = finite_array(y_ext, "Y_ext", (q, n))
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
    if not xs:
        raise ValueError("points must hold at least one point")
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
