"""Trajectory integration with sector-crossing event detection.

The vector fields are piecewise smooth: they jump whenever a training
point crosses an activation hyperplane.  A step is accepted only if the
set of truncated coordinates is unchanged across it; otherwise the
crossing time is localized, the step is split there, and an event is
recorded.  Localization predicts the answer to bisection's one question,
"has a step of dt changed the masks?", from the cubic Hermite interpolants
of the pushed coordinates whose sign differs at the step's two ends,
replays bisection's walk on that predicate without probing, and confirms
the leaf it reaches with two RK4 probes; a miss finishes with bisection
inside the bracket the probes narrowed.  Either way the step kept is the
one bisection keeps.  The predicate holds its few cubics as Python floats,
with numpy's answers bit for bit.
Rotations are advanced by retraction (exponential of the averaged
generator), so orthogonality is preserved to round-off.  Every RK stage
retracts the whole (L, Q, Q) stack with one exponential (`retract_stack`);
a layer whose generator is zero is not moved.  The exponential picks one Pade
degree for the stack from its largest 1-norm: a step's h * Omega is small, so a
stage normally takes degree 3 for the whole stack rather than degree 13.  A rotation
is re-projected onto the group at every 100th accepted step that moved it, by
the same zero test (`moving_layers`), and `IntegratorStats.reprojections`
counts each one.

A right-hand side is called as ``rhs(state, data, frozen_masks=None)`` and
returns the velocities stacked like the state: beta_dots (L, Q) and the
generators omegas (L, Q, Q), as plain arrays.  RK stages and localization probes
step the state's stacked arrays with them and build no validated objects.
Rotations are checked against the orthogonality bound at integrator entry
and once per accepted step (`ModelState.checked`).  The field is evaluated
once per accepted state, at that state's masks: a sample reports the field
its next step starts from, and that step reuses it as its first stage.  A
sample's per-layer record is three arrays of its own (:class:`FlowSample`):
the generators' norms (L,), the biases' gaps to their attractors (L,), and
cluster k's truncated points per coordinate at layer k (L, Q).

Crossings are taken to be transversal.  If an event's coordinate is driven back
across its hyperplane by the field of its new sector, the field on both sides points
into it (Filippov's sliding condition), and the trajectory ends with a `stopped_reason`.
Each state is swept once: one push of all points (`data.points`) gives their activities
at every layer and their final images; only the step kept turns its images into a cost.
The masks are push's list as it is, `masks[k]` the (N, Q) activities at layer k, and go
straight back into `push` and the right-hand sides as their `frozen_masks`.  A mask set is
kept across event-free steps: a step that leaves the masks unchanged keeps the same
`FrozenMasks` object, and only a step that crosses wraps the new list.  So each mask set is
planned once per field, and that plan serves its first stage, every RK stage, prediction,
probe and separation guard until the next event; every sample of the set copies its
truncation counts from it too (`FrozenMasks.counts`), and predictions push at its float form
(`FrozenMasks.floats`).  The cluster-separated field reads
only cluster k's rows of `masks[k]` and stops being a descent direction of the full cost
once a layer truncates a point of another cluster, so a crossing into truncation in such a
pair ends its trajectory too.  From a start that is not separated, every accepted state
also pairs its field with the full descent field (`general_rhs`), and the trajectory ends
where the field ascends the full cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import StepUnderflow
from .flows import (
    CollapsedState,
    FrozenMasks,
    collapsed_rhs,
    conserved_quantity,
    effective_rhs,
    general_rhs,
)
from .manifold import (
    REPOLAR_EVERY,
    frobenius_norm,
    moving_layers,
    orthogonality_error,
    polar_decompose,
    retract_stack,
)
from .measures import TrainingSet
from .model import ModelState, check_data, euclidean_cost, images_cost, push

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-control knobs; the defaults satisfy every stated check tolerance."""

    step: float = 1e-2          # nominal step, halved on rejection
    min_step: float = 1e-14     # a step halved below this raises StepUnderflow
    cost_slack: float = 1e-8    # allowed cost increase: slack * (1 + cost)
    bisect_tol: float = 1e-9    # bracket width at which crossing localization stops, in s
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
class FlowSample:
    """One accepted state at time `s`, its cost, and three arrays of its own over the layers:
    `omega_norms` (L,), the Frobenius norm of each layer's generator in the field the next step
    starts from; `beta_gaps` (L,), the distance |beta_k + ytilde_k| of each bias to its
    attractor; `truncated_counts` (L, Q), cluster k's truncated points per coordinate at
    layer k."""

    s: float
    state: ModelState
    cost: float
    omega_norms: np.ndarray
    beta_gaps: np.ndarray
    truncated_counts: np.ndarray


@dataclass(frozen=True)
class Event:
    """One coordinate of one point crossing an activation hyperplane."""

    s: float
    layer: int
    cluster: int
    point: int
    coordinate: int
    direction: str  # "entering" (became truncated) or "leaving"

    def where(self) -> str:
        """The crossing by name: its layer, cluster, point, coordinate and direction."""
        return (f"layer {self.layer}, cluster {self.cluster}, point {self.point}, "
                f"coordinate {self.coordinate} ({self.direction})")


@dataclass
class IntegratorStats:
    """The work a layered integration did.

    `rhs_calls` counts every field evaluation: the integrated field's at each accepted state, RK4
    stage and crossing prediction, and from a start that is not separated also the full descent
    field (`general_rhs`) that each accepted state's guard pairs it with.  Every RK4 step is a
    trial that is accepted, a trial retried at half its step (`cost_retries`), or a localization's
    probe (`probes`), so `rk4_steps` is the accepted steps plus those two.
    """

    rk4_steps: int = 0          # trial steps, cost-halving retries and localization probes
    rhs_calls: int = 0          # every field evaluation, as above
    localizations: int = 0      # trial steps that changed the masks
    prediction_misses: int = 0  # localizations whose predicted crossing failed confirmation
    reprojections: int = 0      # rotations snapped back onto the group by polar decomposition
    probes: int = 0             # RK4 steps taken by localizations, to probe the masks
    cost_retries: int = 0       # trial steps rejected for raising the cost, then retried at half the step


@dataclass
class Trajectory:
    samples: list[FlowSample]
    events: list[Event]
    stopped_reason: str | None = None  # why it ended before s_end (sliding, separation lost), else None
    stats: IntegratorStats = field(default_factory=IntegratorStats)

    @property
    def times(self) -> np.ndarray:
        return np.array([smp.s for smp in self.samples])

    @property
    def costs(self) -> np.ndarray:
        return np.array([smp.cost for smp in self.samples])

    @property
    def final_state(self) -> ModelState:
        return self.samples[-1].state

    @property
    def max_orthogonality_error(self) -> float:
        """The largest orthogonality error of any rotation at any sample."""
        return max(orthogonality_error(r) for smp in self.samples for r in smp.state.rotations)


def _apply(state: ModelState, beta_dots: np.ndarray, omegas: np.ndarray, dt: float) -> ModelState:
    """Advance every layer: beta by dt * beta_dot, R by retraction of dt * Omega, all
    rotations by one stacked exponential; a layer whose Omega is zero keeps its rotation."""
    return state.derive(retract_stack(state.rotations, omegas, dt), state.betas + dt * beta_dots)


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


def _sweep(state: ModelState, data: TrainingSet) -> tuple[list[np.ndarray], np.ndarray]:
    """Push all points once through every layer: the boolean (N, Q) activities, `[k]` for
    layer k, and the final images."""
    _, nus, images, _ = push(state.rotations, state.betas, data.points)
    return nus, images


def _masks_equal(a: list, b: list) -> bool:
    # a pair's masks share shape and dtype, so equal bytes are equal masks; cheaper than np.array_equal
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _diff_events(s: float, data: TrainingSet, before: list, after: list) -> list[Event]:
    """The crossings between two mask lists, layer-major: by layer, then cluster, point, coordinate."""
    events = []
    for layer, (nb, na) in enumerate(zip(before, after)):
        rows, coords = np.nonzero(nb != na)
        clusters, points = data.locate(rows)
        for row, cluster, point, coord in zip(*(x.tolist() for x in (rows, clusters, points, coords))):
            direction = "entering" if nb[row, coord] else "leaving"
            events.append(Event(s, layer, cluster, point, coord, direction))
    return events


def _normal_speed(state: ModelState, data: TrainingSet, field, ev: Event) -> float:
    """d/ds of the event's pushed coordinate under `field`, by forward mode through the layers."""
    z_dots = push(state.rotations, state.betas, data.points, field=field)[3]
    return float(z_dots[ev.layer][data.rows(ev.cluster)][ev.point, ev.coordinate])


def _full_cost_rate(descent, field) -> float:
    """d/ds of the full cost along `field`: minus its pairing with `descent`, the full descent
    field at the same state."""
    return -(float(np.sum(descent[0] * field[0])) + float(np.sum(descent[1] * field[1])))


def _predict_crossing(state: ModelState, k1, trial: ModelState, data: TrainingSet, rhs, masks,
                      h: float):
    """The predicted answer to bisection's question about a step of `h` from `state` to `trial`:
    a function `changed(dt)`, true where some pushed coordinate whose sign differs at the step's
    two ends is on its far side at dt on its cubic Hermite interpolant; None if no sign differs.

    One push of all points at each end, at the float form of the step's :class:`FrozenMasks`
    `masks`, gives their z at every layer and, under the field there (`k1` at the start, one more
    evaluation at `trial`), dz/ds.  The walk calls `changed` some 24 times, so the crossing cubics
    are Python floats, evaluated by numpy's Horner steps, each rounded alone (no fused
    multiply-add): numpy's answers bit for bit.
    """
    ends = []
    for st, velocities in ((state, k1), (trial, rhs(trial, data, masks))):
        zs, _, _, z_dots = push(st.rotations, st.betas, data.points, masks.floats, velocities)
        ends.append((np.concatenate(zs, axis=None), np.concatenate(z_dots, axis=None)))
    (z0, d0), (z1, d1) = ends
    side = z0 > 0.0
    crosses = (z1 > 0.0) != side
    if not crosses.any():
        return None
    z0, z1, c, d1, side = (x[crosses] for x in (z0, z1, h * d0, h * d1, side))
    # p(u) = ((a u + b) u + c) u + z0 on u = t / h matches z and dz/dt at both ends
    a = 2.0 * (z0 - z1) + c + d1
    b = 3.0 * (z1 - z0) - 2.0 * c - d1
    cubics = list(zip(*(x.tolist() for x in (a, b, c, z0, side))))

    def changed(dt: float) -> bool:
        u = dt / h
        return any(((((ai * u + bi) * u + ci) * u + zi) > 0.0) != si for ai, bi, ci, zi, si in cubics)

    return changed


def _bisect(s: float, h: float, tol: float, changed) -> list[tuple[float, float]]:
    """Bisection's walk down the step [0, h] from s: the brackets (lo, dt) it passes, from
    (0, h) to the leaf it ends on, where `changed(mid)` says whether a step of `mid` changes
    the masks."""
    lo, dt = 0.0, h
    path = [(lo, dt)]
    while dt - lo > tol:
        mid = 0.5 * (lo + dt)
        if s + mid in (s + lo, s + dt):  # no representable time between them
            break
        if changed(mid):
            dt = mid
        else:
            lo = mid
        path.append((lo, dt))
    return path


def _localize(s: float, h: float, tol: float, masks: list, trial: tuple, step,
              predicted) -> tuple[float, tuple, bool]:
    """The step bisection keeps when the `trial` step of `h` changed the `masks`: its length, the
    `step(dt)` result there, and whether the `predicted(dt)` walk's leaf was confirmed.

    Bisection's walk is replayed on the prediction, a `changed(dt)` predicate from
    `_predict_crossing` (None: nothing predicted), and the leaf it reaches is confirmed by two
    probes: unchanged at its lower end, changed at its upper end.  A miss climbs the replayed
    brackets 1, 2, 4, ... levels up, one new probe per level, to the first that the probes
    confirm.  Bisection assumes the masks change once in the step, so every probe decides all
    midpoints on one side of it; the walk re-run on what the probes showed reaches bisection's
    leaf, probing only inside the confirmed bracket.
    """
    a, b, kept = 0.0, h, trial  # masks unchanged at a, changed at b, where `kept` stepped to

    def changed(mid: float) -> bool:
        nonlocal a, b, kept
        if a < mid < b:
            probe = step(mid)
            if _masks_equal(masks, probe[2]):
                a = mid
            else:
                b, kept = mid, probe
        return mid >= b

    hit = False
    if predicted is not None:
        path = _bisect(s, h, tol, predicted)
        # the predicted leaf, else its ancestors 1, 2, 4, ... levels up until the probes confirm
        # one; (0, h) always is
        levels = [0] + [min(2 ** j, len(path) - 1) for j in range(len(path).bit_length() + 1)]
        hit = next(i for i in levels if not changed(path[-1 - i][0]) and changed(path[-1 - i][1])) == 0
    return _bisect(s, h, tol, changed)[-1][1], kept, hit


def _integrate_layered(state0, data, rhs, s_end, opts, separated: bool) -> Trajectory:
    """Event-splitting integration loop.

    `rhs(state, data, masks)` returns the velocities stacked like the state.
    Every stage passes the step's `masks` (push's list, `[k]` for all points
    at layer k), so it evaluates the smooth extension of that sector
    configuration and no stage ever samples the field across a boundary.
    `separated`: the field reads only cluster k's rows of masks[k] (`integrate_effective`); the
    start is pushed once, and its warning counts the triples its mask set lists as violations.
    """
    if not 0 < s_end < np.inf:
        raise ValueError(f"s_end must be positive and finite, got {s_end!r}")
    check_data(state0, data, own_clusters=True)

    state = state0.checked()
    s = 0.0
    nus, images = _sweep(state, data)
    masks = FrozenMasks(nus, data)
    cost = images_cost(state, data, images)
    guarded = separated and not masks.separated
    if guarded:
        logger.warning("cluster separation violated at %d (layer, cluster, point) triples; "
                       "the cluster-separated flow equations are approximations here",
                       len(masks.violations))
    stats = IntegratorStats()

    def counted_rhs(*args, fn=rhs):
        stats.rhs_calls += 1
        return fn(*args)

    def step(h: float) -> tuple:
        """RK4 step of `h` from the current state at its masks: the new state, the generators
        that moved it, and its masks and final images."""
        stats.rk4_steps += 1
        advanced, generators = _rk4_step(state, k1, data, counted_rhs, masks, h)
        return (advanced, generators, *_sweep(advanced, data))

    def probe(dt: float) -> tuple:
        stats.probes += 1
        return step(dt)

    def sample() -> FlowSample:
        """The accepted state's sample, read off its field `k1` and its mask set's counts."""
        return FlowSample(s, state, cost, np.array([frobenius_norm(omega) for omega in k1[1]]),
                          np.array([frobenius_norm(b + y) for b, y in zip(state.betas, state.pulled_labels)]),
                          np.array(masks.counts))

    k1 = counted_rhs(state, data, masks)
    samples = [sample()]
    events: list[Event] = []
    retractions = [0] * state.depth
    h_nominal = opts.step

    while s < s_end - 1e-13:
        if guarded:  # the field need not descend the full cost: stop where it ascends it
            rate = _full_cost_rate(counted_rhs(state, data, masks, fn=general_rhs), k1)
            if rate > 0.0:
                return Trajectory(samples, events, stopped_reason=(
                    f"separation lost at s = {s:.6g}: the effective field ascends the full cost "
                    f"at rate {rate:.3g}"), stats=stats)
        h = min(h_nominal, s_end - s)
        pending_events = []
        while True:
            kept = step(h)
            dt, pending_events = h, []
            if not _masks_equal(masks, kept[2]):
                stats.localizations += 1
                predicted = _predict_crossing(state, k1, kept[0], data, counted_rhs, masks, h)
                dt, kept, hit = _localize(s, h, opts.bisect_tol, masks, kept, probe, predicted)
                stats.prediction_misses += not hit
                pending_events = _diff_events(s + dt, data, masks, kept[2])
            advanced, generators, new_masks, images = kept
            advanced_cost = images_cost(advanced, data, images)
            if advanced_cost > cost + opts.cost_slack * (1.0 + cost):
                stats.cost_retries += 1
                h *= 0.5
                if h < opts.min_step:
                    event = pending_events[0] if pending_events else None
                    where = "" if event is None else f" while localizing the crossing at {event.where()}"
                    raise StepUnderflow(f"step underflow at s = {s:.6g}{where}", s, event)
                continue
            break

        events.extend(pending_events)

        reprojected = False
        for k in np.flatnonzero(moving_layers(generators)):  # the rotations retract_stack moved
            retractions[k] += 1
            if retractions[k] % REPOLAR_EVERY == 0:
                rotations = advanced.rotations.copy()
                rotations[k] = polar_decompose(rotations[k])[1].mat
                advanced = advanced.derive(rotations, advanced.betas)
                reprojected = True
                stats.reprojections += 1
        state = advanced.checked()
        if pending_events:  # the masks changed: plan the new set once; unchanged, the plans stay
            masks = FrozenMasks(new_masks, data)
        cost = euclidean_cost(state, data) if reprojected else advanced_cost
        s += dt
        k1 = counted_rhs(state, data, masks)
        samples.append(sample())
        for ev in pending_events:
            if separated and ev.layer != ev.cluster:
                if ev.direction == "leaving":  # the ignored pair moves towards separation
                    continue
                stop, why = "separation lost", "the layer truncates a point of a cluster its field ignores"
            elif _normal_speed(state, data, k1, ev) * (1.0 if ev.direction == "entering" else -1.0) > 0.0:
                stop, why = "sliding", "the field on both sides points into it"
            else:
                continue
            return Trajectory(samples, events, stopped_reason=f"{stop} at s = {s:.6g}: {ev.where()}: {why}",
                              stats=stats)

    return Trajectory(samples=samples, events=events, stats=stats)


def integrate_effective(state0: ModelState, data: TrainingSet, s_end: float,
                        opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the cluster-separated flow: layer k is driven by cluster k only.

    A start where layer k is not the identity on the chained images of another cluster l
    logs a warning, and from such a start the run ends at the first accepted state where
    the field ascends the full cost.  The first crossing at which a layer k starts truncating
    a point of a cluster l != k ends the run (`stopped_reason`); one back out of truncation
    is an event.
    """
    return _integrate_layered(state0, data, effective_rhs, s_end, opts or IntegratorOptions(), separated=True)


def integrate_general(state0: ModelState, data: TrainingSet, s_end: float,
                      opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the unrestricted flow; every cluster drives every layer."""
    return _integrate_layered(state0, data, general_rhs, s_end, opts or IntegratorOptions(), separated=False)


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


def _collapsed_rk4(b, w, y, h, k1=None):
    """Classical RK4 step of `collapsed_rhs` from (B, W); `k1`, if given, is the field there."""
    kb1, kw1 = collapsed_rhs(b, w, y) if k1 is None else k1
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
    between one full step and two half steps meets atol/rtol.  The full step
    and the first half step share their first stage, the field at the step's
    start, which is evaluated once per state and also serves every retry of a
    rejected trial.  Each sample logs the drift of B B^T - W^T W from its
    initial value.
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

    b, w, y = cs0.b_matrix.copy(), cs0.w_out.copy(), cs0.y_matrix
    s, h, k1 = 0.0, opts.step, None
    samples = [make_sample(s, b, w)]
    while s < s_end - 1e-13:
        dt = min(h, s_end - s)
        if k1 is None:
            k1 = collapsed_rhs(b, w, y)
        bf, wf = _collapsed_rk4(b, w, y, dt, k1)
        bh, wh = _collapsed_rk4(b, w, y, 0.5 * dt, k1)
        bh, wh = _collapsed_rk4(bh, wh, y, 0.5 * dt)
        err = max(np.max(np.abs(bf - bh)), np.max(np.abs(wf - wh)))
        tol = opts.atol + opts.rtol * max(np.max(np.abs(b)), np.max(np.abs(w)))
        if err > tol:
            h = 0.5 * dt
            if h < opts.min_step:
                raise StepUnderflow(f"step underflow at s = {s:.6g}", s)
            continue
        b, w, k1 = bh, wh, None
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


def write_csv(path, columns, rows) -> None:
    """The header `columns`, then one line per row: floats with 17 significant digits, the
    other fields (counts, indices, directions) as they print."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns: s, cost, then per layer beta_gap, omega_norm, n_0..n_{Q-1}."""
    depth = traj.samples[0].state.depth
    q = traj.samples[0].state.dim
    cols = ["s", "cost"]
    for k in range(depth):
        cols += [f"layer{k}_beta_gap", f"layer{k}_omega_norm"]
        cols += [f"layer{k}_n{r}" for r in range(q)]
    rows = []
    for smp in traj.samples:
        row = [smp.s, smp.cost]
        for k in range(depth):
            row += [smp.beta_gaps[k], smp.omega_norms[k], *smp.truncated_counts[k]]
        rows.append(row)
    write_csv(path, cols, rows)


def write_events_csv(events: list[Event], path) -> None:
    write_csv(path, ["s", "layer", "cluster", "point", "coordinate", "direction"],
              [(ev.s, ev.layer, ev.cluster, ev.point, ev.coordinate, ev.direction) for ev in events])


def write_collapsed_csv(traj: CollapsedTrajectory, path) -> None:
    write_csv(path, ["s", "cost", "invariant_drift"],
              [(smp.s, smp.cost, smp.invariant_drift) for smp in traj.samples])


def fit_log_slope(ts: np.ndarray, values: np.ndarray) -> float | None:
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
            "log_cost_slope": fit_log_slope(tt, np.array([smp.cost for smp in sub])),
            "log_gap_slopes": [
                fit_log_slope(tt, np.array([smp.beta_gaps[k] for smp in sub]))
                for k in range(depth)
            ],
        }
        phases.append(phase)
    return phases


def freeze_time(traj: Trajectory) -> float | None:
    """Earliest sample time after which every layer's Omega stays at or below 1e-10."""
    norms = np.array([smp.omega_norms for smp in traj.samples])
    quiet = np.all(norms <= 1e-10, axis=1)
    if not quiet[-1]:
        return None
    idx = len(quiet) - 1
    while idx > 0 and quiet[idx - 1]:
        idx -= 1
    return float(traj.samples[idx].s)
