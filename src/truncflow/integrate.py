"""Trajectory integration with sector-crossing event detection.

The vector fields are piecewise smooth: they jump whenever a training
point crosses an activation hyperplane.  A step is accepted only if the
set of truncated coordinates is unchanged across it; otherwise the
crossing time is localized by bisection, the step is split there, and an
event is recorded.  Rotations are advanced by retraction (exponential of
the averaged generator), so orthogonality is preserved to round-off;
every 100th retraction the rotation is re-projected onto the group.

A right-hand side is called as ``rhs(state, data, frozen_masks=None)`` and
returns the velocities stacked like the state: beta_dots (L, Q) and the
generators omegas (L, Q, Q), as plain arrays.  RK stages and bisection probes
step the state's stacked arrays with them and build no validated objects.
Rotations are checked against the orthogonality bound at integrator entry
and once per accepted step (`ModelState.checked`).  The field is evaluated
once per accepted state, at that state's masks: a sample reports the field
its next step starts from, and that step reuses it as its first stage.

Crossings are taken to be transversal.  If an event's coordinate is driven back
across its hyperplane by the field of its new sector, the field on both sides points
into it (Filippov's sliding condition), and the trajectory ends with a `stopped_reason`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import StepUnderflow
from .flows import (
    CollapsedState,
    collapsed_rhs,
    conserved_quantity,
    effective_rhs,
    general_rhs,
)
from .manifold import REPOLAR_EVERY, polar_decompose, retract_array
from .measures import TrainingSet, warn_if_not_separated
from .model import ModelState, euclidean_cost, push

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-control knobs; the defaults satisfy every stated check tolerance."""

    step: float = 1e-2          # nominal step, halved on rejection
    min_step: float = 1e-14     # below this, raise StepUnderflow
    cost_slack: float = 1e-8    # allowed cost increase: slack * (1 + cost)
    bisect_tol: float = 1e-9    # crossing-time localization in s
    atol: float = 1e-9          # collapsed-flow state tolerance, absolute
    rtol: float = 1e-7          # collapsed-flow state tolerance, relative

    def __post_init__(self):
        """Reject values no step control can honour; the message names the field."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in ("step", "min_step", "bisect_tol") and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value!r}")
        if self.min_step > self.step:
            raise ValueError(f"min_step must not exceed step {self.step!r}, got {self.min_step!r}")


@dataclass(frozen=True)
class LayerDiagnostics:
    omega_norm: float
    beta_gap: float
    truncated_counts: np.ndarray


@dataclass(frozen=True)
class FlowSample:
    s: float
    state: ModelState
    cost: float
    per_layer: tuple[LayerDiagnostics, ...]


@dataclass(frozen=True)
class Event:
    """One coordinate of one point crossing an activation hyperplane."""

    s: float
    layer: int
    cluster: int
    point: int
    coordinate: int
    direction: str  # "entering" (became truncated) or "leaving"


@dataclass
class Trajectory:
    samples: list[FlowSample]
    events: list[Event]
    stopped_reason: str | None = None  # why it ended before s_end (sliding), else None

    @property
    def times(self) -> np.ndarray:
        return np.array([smp.s for smp in self.samples])

    @property
    def costs(self) -> np.ndarray:
        return np.array([smp.cost for smp in self.samples])

    @property
    def final_state(self) -> ModelState:
        return self.samples[-1].state


def _apply(state: ModelState, beta_dots: np.ndarray, omegas: np.ndarray, dt: float) -> ModelState:
    """Advance every layer: beta by dt * beta_dot, R by retraction of dt * Omega."""
    rotations = np.array([retract_array(r, om, dt) for r, om in zip(state.rotations, omegas)])
    return state.derive(rotations, state.betas + dt * beta_dots)


def _rk4_step(state: ModelState, k1, data: TrainingSet, rhs, masks, h: float) -> tuple[ModelState, np.ndarray]:
    """Classical 4-stage step of `rhs` frozen at `masks`, retracting by the averaged
    generators; `k1` is the field at `state`.  Returns the new state and those generators."""
    b1, o1 = k1
    b2, o2 = rhs(_apply(state, b1, o1, 0.5 * h), data, masks)
    b3, o3 = rhs(_apply(state, b2, o2, 0.5 * h), data, masks)
    b4, o4 = rhs(_apply(state, b3, o3, h), data, masks)
    beta_dots = (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
    omegas = (o1 + 2.0 * o2 + 2.0 * o3 + o4) / 6.0
    return _apply(state, beta_dots, omegas, h), omegas


def _sector_masks(state: ModelState, data: TrainingSet, pairs) -> dict:
    """Boolean (N, Q) activity patterns of chained cluster images, keyed by the tracked (layer, cluster)
    `pairs` in their ascending layer order; each cluster is pushed once, up to its deepest tracked layer."""
    tops = {c: layer + 1 for layer, c in pairs}  # the last, deepest, pair of a cluster wins
    nus = {c: push(state.rotations[:top], state.betas[:top], data.clusters[c])[1] for c, top in tops.items()}
    return {(layer, c): nus[c][layer] for layer, c in pairs}


def _masks_equal(a: dict, b: dict) -> bool:
    return all(np.array_equal(ma, b[pair]) for pair, ma in a.items())


def _diff_events(s: float, before: dict, after: dict) -> list[Event]:
    events = []
    for (layer, cluster), ma in before.items():
        for point, coord in np.argwhere(ma != after[(layer, cluster)]):
            direction = "entering" if ma[point, coord] else "leaving"
            events.append(Event(s, layer, cluster, int(point), int(coord), direction))
    return events


def _normal_speed(state: ModelState, data: TrainingSet, field, ev: Event) -> float:
    """d/ds of the event's pushed coordinate under `field`, by forward mode through the layers."""
    z_dots = push(state.rotations, state.betas, data.clusters[ev.cluster], field=field)[3]
    return float(z_dots[ev.layer][ev.point, ev.coordinate])


def _diagnostics(state: ModelState, omegas: np.ndarray, masks: dict) -> tuple[LayerDiagnostics, ...]:
    """Per-layer Omega norm, distance of beta to its attractor, truncation counts."""
    return tuple(
        LayerDiagnostics(
            omega_norm=float(np.linalg.norm(omegas[k])),
            beta_gap=float(np.linalg.norm(state.betas[k] + state.pulled_labels[k])),
            truncated_counts=np.sum(~masks[(k, k)], axis=0),
        )
        for k in range(state.depth)
    )


def _integrate_layered(state0, data, rhs, pairs, s_end, opts) -> Trajectory:
    """Event-splitting integration loop.

    `rhs(state, data, masks)` returns the velocities stacked like the state.
    Every stage passes the step's `masks` (keyed by the tracked `pairs`), so
    it evaluates the smooth extension of that sector configuration and no
    stage ever samples the field across a boundary.
    """
    if not 0 < s_end < np.inf:
        raise ValueError(f"s_end must be positive and finite, got {s_end!r}")
    if state0.depth > data.q:
        raise ValueError("need one cluster (and label) per layer: depth <= q")

    state = state0.checked()
    s = 0.0
    masks = _sector_masks(state, data, pairs)
    k1 = rhs(state, data, masks)
    cost = euclidean_cost(state, data)
    samples = [FlowSample(s, state, cost, _diagnostics(state, k1[1], masks))]
    events: list[Event] = []
    retractions = [0] * state.depth
    h_nominal = opts.step

    while s < s_end - 1e-13:
        h = min(h_nominal, s_end - s)
        while True:
            if h < opts.min_step:
                raise StepUnderflow(f"step underflow at s = {s:.6g}")
            advanced, generators = _rk4_step(state, k1, data, rhs, masks, h)
            new_masks = _sector_masks(advanced, data, pairs)
            dt, pending_events = h, []
            if not _masks_equal(masks, new_masks):
                # bisect for the crossing; the step kept is the one at the upper end
                lo = 0.0
                while dt - lo > opts.bisect_tol:
                    mid = 0.5 * (lo + dt)
                    if s + mid in (s + lo, s + dt):  # no representable time between them
                        break
                    probe, probe_generators = _rk4_step(state, k1, data, rhs, masks, mid)
                    probe_masks = _sector_masks(probe, data, pairs)
                    if _masks_equal(masks, probe_masks):
                        lo = mid
                    else:
                        dt, advanced, generators, new_masks = mid, probe, probe_generators, probe_masks
                pending_events = _diff_events(s + dt, masks, new_masks)
            advanced_cost = euclidean_cost(advanced, data)
            if advanced_cost > cost + opts.cost_slack * (1.0 + cost):
                h *= 0.5
                continue
            break

        events.extend(pending_events)

        reprojected = False
        for k in range(state.depth):
            if np.linalg.norm(generators[k]) != 0.0:  # retract_array moved this rotation
                retractions[k] += 1
                if retractions[k] % REPOLAR_EVERY == 0:
                    rotations = advanced.rotations.copy()
                    rotations[k] = polar_decompose(rotations[k])[1].mat
                    advanced = advanced.derive(rotations, advanced.betas)
                    reprojected = True
        state, masks = advanced.checked(), new_masks
        cost = euclidean_cost(state, data) if reprojected else advanced_cost
        s += dt
        k1 = rhs(state, data, masks)
        samples.append(FlowSample(s, state, cost, _diagnostics(state, k1[1], masks)))
        for ev in pending_events:
            if _normal_speed(state, data, k1, ev) * (1.0 if ev.direction == "entering" else -1.0) > 0.0:
                return Trajectory(samples, events, stopped_reason=(
                    f"sliding at s = {s:.6g}: layer {ev.layer}, cluster {ev.cluster}, point {ev.point}, "
                    f"coordinate {ev.coordinate} ({ev.direction}): the field on both sides points into it"))

    return Trajectory(samples=samples, events=events)


def integrate_effective(state0: ModelState, data: TrainingSet, s_end: float,
                        opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the cluster-separated flow: layer k is driven by cluster k only.

    Logs a warning when cluster separation does not hold, since the
    per-layer equations assume it; integration proceeds regardless.
    """
    warn_if_not_separated(state0, data)
    pairs = [(k, k) for k in range(state0.depth)]
    return _integrate_layered(state0, data, effective_rhs, pairs, s_end, opts or IntegratorOptions())


def integrate_general(state0: ModelState, data: TrainingSet, s_end: float,
                      opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the unrestricted flow; every cluster drives every layer."""
    pairs = [(k, l) for k in range(state0.depth) for l in range(data.q)]
    return _integrate_layered(state0, data, general_rhs, pairs, s_end, opts or IntegratorOptions())


@dataclass(frozen=True)
class CollapsedSample:
    s: float
    state: CollapsedState
    cost: float
    invariant_drift: float


@dataclass
class CollapsedTrajectory:
    samples: list[CollapsedSample]
    invariant0: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([smp.s for smp in self.samples])

    @property
    def costs(self) -> np.ndarray:
        return np.array([smp.cost for smp in self.samples])

    @property
    def final_state(self) -> CollapsedState:
        return self.samples[-1].state

    @property
    def max_drift(self) -> float:
        return max(smp.invariant_drift for smp in self.samples)


def _collapsed_rk4(b, w, y, h):
    kb1, kw1 = collapsed_rhs(b, w, y)
    kb2, kw2 = collapsed_rhs(b + 0.5 * h * kb1, w + 0.5 * h * kw1, y)
    kb3, kw3 = collapsed_rhs(b + 0.5 * h * kb2, w + 0.5 * h * kw2, y)
    kb4, kw4 = collapsed_rhs(b + h * kb3, w + h * kw3, y)
    bn = b + (h / 6.0) * (kb1 + 2 * kb2 + 2 * kb3 + kb4)
    wn = w + (h / 6.0) * (kw1 + 2 * kw2 + 2 * kw3 + kw4)
    return bn, wn


def integrate_collapsed(cs0: CollapsedState, s_end: float,
                        opts: IntegratorOptions | None = None) -> CollapsedTrajectory:
    """Integrate the collapsed-data standard-cost flow, logging the invariant.

    Adaptive RK4 with step doubling: a step is accepted when the difference
    between one full step and two half steps meets atol/rtol.  Each sample
    logs the drift of B B^T - W^T W from its initial value.
    """
    if not 0 < s_end < np.inf:
        raise ValueError(f"s_end must be positive and finite, got {s_end!r}")
    opts = opts or IntegratorOptions()
    inv0 = conserved_quantity(cs0)
    scale0 = 1.0 + float(np.linalg.norm(inv0))

    def make_sample(s, b, w):
        cs = CollapsedState(b, w_out=w, y_matrix=cs0.y_matrix)
        drift = float(np.linalg.norm(conserved_quantity(cs) - inv0))
        return CollapsedSample(s, cs, cs.cost(), drift)

    b, w = cs0.b_matrix.copy(), cs0.w_out.copy()
    s, h = 0.0, opts.step
    samples = [make_sample(s, b, w)]
    while s < s_end - 1e-13:
        dt = min(h, s_end - s)
        if dt < opts.min_step:
            raise StepUnderflow(f"step underflow at s = {s:.6g}")
        bf, wf = _collapsed_rk4(b, w, cs0.y_matrix, dt)
        bh, wh = _collapsed_rk4(b, w, cs0.y_matrix, 0.5 * dt)
        bh, wh = _collapsed_rk4(bh, wh, cs0.y_matrix, 0.5 * dt)
        err = max(np.max(np.abs(bf - bh)), np.max(np.abs(wf - wh)))
        tol = opts.atol + opts.rtol * max(np.max(np.abs(b)), np.max(np.abs(w)))
        if err > tol:
            h = 0.5 * dt
            continue
        b, w = bh, wh
        s += dt
        samples.append(make_sample(s, b, w))
        if err < 0.05 * tol:
            h = min(dt * 1.5, opts.step * 10)
    traj = CollapsedTrajectory(samples=samples, invariant0=inv0)
    if traj.max_drift > 1e-6 * scale0:
        logger.warning("collapsed invariant drift %.3e exceeds 1e-6 * scale", traj.max_drift)
    return traj


# --- export and analysis -------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns: s, cost, then per layer beta_gap, omega_norm, n_0..n_{Q-1}."""
    depth = traj.samples[0].state.depth
    q = traj.samples[0].state.dim
    cols = ["s", "cost"]
    for k in range(depth):
        cols += [f"layer{k}_beta_gap", f"layer{k}_omega_norm"]
        cols += [f"layer{k}_n{r}" for r in range(q)]
    lines = [",".join(cols)]
    for smp in traj.samples:
        row = [_fmt(smp.s), _fmt(smp.cost)]
        for diag in smp.per_layer:
            row += [_fmt(diag.beta_gap), _fmt(diag.omega_norm)]
            row += [str(int(c)) for c in diag.truncated_counts]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_events_csv(events: list[Event], path) -> None:
    lines = ["s,layer,cluster,point,coordinate,direction"]
    for ev in events:
        lines.append(
        f"{_fmt(ev.s)},{ev.layer},{ev.cluster},{ev.point},{ev.coordinate},{ev.direction}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_collapsed_csv(traj: CollapsedTrajectory, path) -> None:
    lines = ["s,cost,invariant_drift"]
    for smp in traj.samples:
        lines.append(f"{_fmt(smp.s)},{_fmt(smp.cost)},{_fmt(smp.invariant_drift)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fit_log_slope(ts: np.ndarray, values: np.ndarray) -> float | None:
    """Least-squares slope of log(values) over ts; None if degenerate."""
    keep = values > 1e-300
    if keep.sum() < 3:
        return None
    t, v = ts[keep], np.log(values[keep])
    if t[-1] - t[0] < 1e-12:
        return None
    a = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(a, v, rcond=None)[0]
    return float(slope)


def fit_phase_exponents(traj: Trajectory) -> list[dict]:
    """Per inter-event phase, fitted log slopes of cost and of each beta gap.

    Fits use the trailing half of each phase, matching the
    piecewise-exponential structure of the flow.
    """
    ts = traj.times
    edges = [ts[0]] + sorted({ev.s for ev in traj.events}) + [ts[-1]]
    phases = []
    depth = traj.samples[0].state.depth
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0:
            continue
        cut = hi - 0.5 * (hi - lo)
        sel = (ts >= cut - 1e-12) & (ts <= hi + 1e-12)
        sub = [smp for smp, keep in zip(traj.samples, sel) if keep]
        if len(sub) < 3:
            sel = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
            sub = [smp for smp, keep in zip(traj.samples, sel) if keep]
        tt = np.array([smp.s for smp in sub])
        phase = {
            "s_lo": float(lo),
            "s_hi": float(hi),
            "log_cost_slope": _fit_log_slope(tt, np.array([smp.cost for smp in sub])),
            "log_gap_slopes": [
                _fit_log_slope(tt, np.array([smp.per_layer[k].beta_gap for smp in sub]))
                for k in range(depth)
            ],
        }
        phases.append(phase)
    return phases


def freeze_time(traj: Trajectory, tol: float = 1e-10) -> float | None:
    """Earliest sample time after which every layer's Omega stays below tol."""
    norms = np.array([[d.omega_norm for d in smp.per_layer] for smp in traj.samples])
    quiet = np.all(norms <= tol, axis=1)
    if not quiet[-1]:
        return None
    idx = len(quiet) - 1
    while idx > 0 and quiet[idx - 1]:
        idx -= 1
    return float(traj.samples[idx].s)
