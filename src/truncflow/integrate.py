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

Ensembles.  There is one layered loop and one collapsed loop, and each steps a *group* of
independent members of one shape: (Q, depth, cluster sizes) for the layered flows, Q for the
collapsed one.  :func:`integrate_ensemble` takes many members, groups them
(:func:`ensemble_groups`, at most GROUP_COORDINATES pushed coordinates and MAX_GROUP members
a group) and returns their trajectories in member order; `integrate_effective`,
`integrate_general` and `integrate_collapsed` are its one-member calls.  A group's arrays carry
a leading member axis, and each round every live member takes its trial step as one stacked
field evaluation per stage, one stacked retraction (each member at its own Pade degree) and one
stacked push.  A stage hands the members' mask sets to `flows.group_rhs` as one `GroupMasks`,
built once per mask change, and `flows` alone decides how that field sweeps them: as one kernel
where their plans stack, else member by member; the integrator plans nothing.  Mask
comparison, localization probes, cost retries, reprojection, events, samples, stops and stats
stay each member's own, and members finish independently; every member is bit for bit its
one-member run.  A collapsed member keeps its own adaptive step.  A group of two or more members
is built once per membership change, and no run refers to a group, so a finished trajectory keeps
none alive.  A lone member, and every member's probes and retries, step the run's own arrays,
without the member axis, and call its field by name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import StepUnderflow
from .flows import (
    CollapsedState,
    FrozenMasks,
    GroupMasks,
    collapsed_rhs,
    conserved_quantity,
    effective_rhs,
    general_rhs,
    group_rhs,
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


def _apply(rotations: np.ndarray, betas: np.ndarray, beta_dots: np.ndarray, omegas: np.ndarray, dt):
    """Advance every layer: beta by dt * beta_dot, R by retraction of dt * Omega, all rotations by
    one stacked exponential; a layer whose Omega is zero keeps its rotation.  The arrays are one
    state's (L, ...) with a float `dt`, or a group's (B, L, ...) with one step per member (B,).
    Returns the new rotations and betas."""
    per_beta = dt[:, None, None] if isinstance(dt, np.ndarray) else dt
    return retract_stack(rotations, omegas, dt), betas + per_beta * beta_dots


def _rk4_step(field, rotations: np.ndarray, betas: np.ndarray, k1, h) -> tuple[tuple, np.ndarray]:
    """Classical 4-stage step of a group's members from their stacked (B, L, ...) arrays, each by
    its own step `h` (B,), or of one state's (L, ...) arrays by a float `h`, retracting by the
    averaged generators.  `field(rotations, betas)` gives the velocities there, each member's at
    its own frozen masks, stacked like the arrays, and `k1` is the field at the start.  Returns the
    new (rotations, betas) and those generators."""
    b1, o1 = k1
    half = 0.5 * h
    b2, o2 = field(*_apply(rotations, betas, b1, o1, half))
    b3, o3 = field(*_apply(rotations, betas, b2, o2, half))
    b4, o4 = field(*_apply(rotations, betas, b3, o3, h))
    beta_dots = (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
    omegas = (o1 + 2.0 * o2 + 2.0 * o3 + o4) / 6.0
    return _apply(rotations, betas, beta_dots, omegas, h), omegas


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


class _Group:
    """Two or more layered members of one shape, stepped together.

    Every RK4 stage is one stacked field evaluation and one stacked retraction, and every step
    ends in one stacked push (`push` takes the member axis where it takes a stacked layer's
    stencils).  A stage hands the members' mask sets to `group_rhs` as one `GroupMasks`, built
    anew only when some member's set is a new object, so whatever they decide together is
    decided once per mask change; how the field sweeps them is decided in `flows`.
    """

    def __init__(self, runs: list, separated: bool):
        self.runs, self.separated = runs, separated
        self.pulled_labels = np.stack([run.state.pulled_labels for run in runs])
        self.masks = None  # the members' mask sets as one GroupMasks, from the first stage on
        self._accepted = None  # the stacked accepted states and their fields, once evaluated

    def field(self, rotations: np.ndarray, betas: np.ndarray) -> tuple:
        """Every member's velocities at its own masks, at the stacked arrays, stacked like them.
        Counts one evaluation per member."""
        runs = self.runs
        if self.masks is None or any(run.masks is not m for run, m in zip(runs, self.masks)):
            self.masks = GroupMasks(run.masks for run in runs)
        for run in runs:
            run.stats.rhs_calls += 1
        return group_rhs(rotations, betas, self.pulled_labels, self.masks, self.separated)

    def step(self, h: np.ndarray) -> list[tuple]:
        """One RK4 step from every member's accepted state, member b's by `h[b]` of the (B,) `h`:
        per member the new state, the generators that moved it, and its masks and final images."""
        runs = self.runs
        if self._accepted is None:
            start = np.stack([run.state.rotations for run in runs]), np.stack([run.state.betas for run in runs])
            k1 = np.stack([run.k1[0] for run in runs]), np.stack([run.k1[1] for run in runs])
        else:  # stacked by `accepted_field`, and the members have not moved since
            (start, k1), self._accepted = self._accepted, None
        (rotations, betas), generators = _rk4_step(self.field, *start, k1, h)
        # layer-major: layer k of every member at once
        _, nus, images, _ = push(rotations.swapaxes(0, 1), betas.swapaxes(0, 1)[:, :, None], self.masks.points)
        trials = []
        for b, run in enumerate(runs):
            run.stats.rk4_steps += 1
            trials.append((run.state.derive(rotations[b], betas[b]), generators[b], [nu[b] for nu in nus],
                           images[b]))
        return trials

    def accepted_field(self) -> None:
        """Evaluate every member's field `k1` at its accepted state, at its masks there."""
        runs = self.runs
        start = np.stack([run.state.rotations for run in runs]), np.stack([run.state.betas for run in runs])
        beta_dots, omegas = self.field(*start)
        for run, bd, om in zip(runs, beta_dots, omegas):
            run.k1 = bd, om
        self._accepted = start, (beta_dots, omegas)


class _Run:
    """One layered trajectory in the making: its training set and field (`effective_rhs` if
    `separated`, else `general_rhs`), the accepted state it has reached with that state's masks,
    cost and field `k1`, and its record so far.  It refers to no group: the loop holds the group,
    and a lone run steps itself.  `record` decides every stop.

    The start is checked and pushed once; its mask set lists its violations, and a start that
    is not separated logs one warning naming their count and is guarded from then on.
    """

    def __init__(self, state0: ModelState, data: TrainingSet, separated: bool):
        check_data(state0, data, own_clusters=True)
        self.state, self.data, self.separated = state0.checked(), data, separated
        self.rhs = effective_rhs if separated else general_rhs
        nus, images = _sweep(self.state, data)
        self.masks = FrozenMasks(nus, data)
        self.cost = images_cost(self.state, data, images)
        self.guarded = separated and not self.masks.separated
        if self.guarded:
            logger.warning("cluster separation violated at %d (layer, cluster, point) triples; "
                           "the cluster-separated flow equations are approximations here",
                           len(self.masks.violations))
        self.s, self.k1, self.pending = 0.0, None, []
        self.samples: list[FlowSample] = []
        self.events: list[Event] = []
        self.stopped_reason: str | None = None
        self.stats = IntegratorStats()
        self.retractions = [0] * self.state.depth

    def counted_rhs(self, *args, fn=None):
        self.stats.rhs_calls += 1
        return (self.rhs if fn is None else fn)(*args)

    def field(self, rotations: np.ndarray, betas: np.ndarray) -> tuple:
        """The field at the arrays (rotations, betas), at this run's masks; counts one evaluation."""
        return self.counted_rhs(self.state.derive(rotations, betas), self.data, self.masks)

    def step(self, h: float) -> tuple:
        """One RK4 step of `h` from the accepted state: the new state, the generators that moved
        it, and its masks and final images."""
        state = self.state
        (rotations, betas), generators = _rk4_step(self.field, state.rotations, state.betas, self.k1, h)
        self.stats.rk4_steps += 1
        advanced = state.derive(rotations, betas)
        return advanced, generators, *_sweep(advanced, self.data)

    def accepted_field(self) -> None:
        """Evaluate the field `k1` at the accepted state, at its masks there."""
        self.k1 = self.counted_rhs(self.state, self.data, self.masks)

    def sample(self) -> FlowSample:
        """The accepted state's sample, read off its field `k1` and its mask set's counts."""
        state = self.state
        return FlowSample(self.s, state, self.cost,
                          np.array([frobenius_norm(omega) for omega in self.k1[1]]),
                          np.array([frobenius_norm(b + y) for b, y in zip(state.betas, state.pulled_labels)]),
                          np.array(self.masks.counts))

    def take(self, kept: tuple, h: float, opts: IntegratorOptions) -> None:
        """Accept one step from the trial step `kept` of `h`: a crossing in it is localized, and
        the step is halved and retried while it raises the cost; the run steps its probes and
        retries itself.  The field there and the sample follow with the round's (`record`)."""
        stats, data, masks, s, cost = self.stats, self.data, self.masks, self.s, self.cost

        def probe(dt: float) -> tuple:
            stats.probes += 1
            return self.step(dt)

        while True:
            dt, pending = h, []
            if not _masks_equal(masks, kept[2]):
                stats.localizations += 1
                predicted = _predict_crossing(self.state, self.k1, kept[0], data, self.counted_rhs, masks, h)
                dt, kept, hit = _localize(s, h, opts.bisect_tol, masks, kept, probe, predicted)
                stats.prediction_misses += not hit
                pending = _diff_events(s + dt, data, masks, kept[2])
            advanced, generators, new_masks, images = kept
            advanced_cost = images_cost(advanced, data, images)
            if advanced_cost > cost + opts.cost_slack * (1.0 + cost):
                stats.cost_retries += 1
                h *= 0.5
                if h < opts.min_step:
                    event = pending[0] if pending else None
                    where = "" if event is None else f" while localizing the crossing at {event.where()}"
                    raise StepUnderflow(f"step underflow at s = {s:.6g}{where}", s, event)
                kept = self.step(h)
                continue
            break

        self.events.extend(pending)
        reprojected = False
        for k in np.flatnonzero(moving_layers(generators)):  # the rotations retract_stack moved
            self.retractions[k] += 1
            if self.retractions[k] % REPOLAR_EVERY == 0:
                rotations = advanced.rotations.copy()
                rotations[k] = polar_decompose(rotations[k])[1].mat
                advanced = advanced.derive(rotations, advanced.betas)
                reprojected = True
                stats.reprojections += 1
        self.state = advanced.checked()
        if pending:  # the masks changed: plan the new set once; unchanged, the plans stay
            self.masks = FrozenMasks(new_masks, data)
        self.cost = euclidean_cost(self.state, data) if reprojected else advanced_cost
        self.s += dt
        self.pending = pending

    def record(self, s_end: float) -> None:
        """Sample the accepted state, whose field `k1` is in, and decide whether the run ends there
        (`stopped_reason`): at the first of its step's crossings that it cannot pass, or, from a
        start that is not separated and short of `s_end`, where the field ascends the full cost."""
        self.samples.append(self.sample())
        for ev in self.pending:
            inward = 1.0 if ev.direction == "entering" else -1.0
            if self.separated and ev.layer != ev.cluster:
                if ev.direction == "leaving":  # the ignored pair moves towards separation
                    continue
                stop, why = "separation lost", "the layer truncates a point of a cluster its field ignores"
            elif _normal_speed(self.state, self.data, self.k1, ev) * inward > 0.0:
                stop, why = "sliding", "the field on both sides points into it"
            else:
                continue
            self.stopped_reason = f"{stop} at s = {self.s:.6g}: {ev.where()}: {why}"
            return
        if self.guarded and self.s < s_end - 1e-13:
            rate = _full_cost_rate(self.counted_rhs(self.state, self.data, self.masks, fn=general_rhs), self.k1)
            if rate > 0.0:
                self.stopped_reason = (f"separation lost at s = {self.s:.6g}: the effective field ascends the "
                                       f"full cost at rate {rate:.3g}")


def _integrate_layered(members: list, s_end: float, opts: IntegratorOptions, separated: bool) -> list[Trajectory]:
    """The event-splitting integration loop of one group of (state, data) members of one shape.

    The field is `effective_rhs` if `separated` (`integrate_effective`: it reads only cluster k's
    rows of masks[k]), else `general_rhs`.  Every stage passes each member's `masks` (push's list,
    `[k]` for all points at layer k), so it evaluates the smooth extension of that sector
    configuration and no stage ever samples the field across a boundary.
    Each round every live member takes its trial step, all as one stacked step of the group,
    each member by its own step; localization, cost retries, reprojection, events, samples and
    stops are each member's own, and a member that stops or reaches `s_end` leaves the group.
    A group is built once per membership change; a lone live member steps itself, and every
    member steps its own probes and retries.
    """
    live = runs = [_Run(state0, data, separated) for state0, data in members]
    stepper = _Group(runs, separated) if len(runs) > 1 else runs[0]
    stepper.accepted_field()
    for run in runs:
        run.record(s_end)
    while True:
        going = [run for run in live if run.stopped_reason is None and run.s < s_end - 1e-13]
        if not going:
            break
        if len(going) < len(live):
            live, stepper = going, (_Group(going, separated) if len(going) > 1 else going[0])
        h = [min(opts.step, s_end - run.s) for run in live]
        trials = stepper.step(np.array(h)) if len(live) > 1 else [stepper.step(h[0])]
        for run, kept, h_run in zip(live, trials, h):
            run.take(kept, h_run, opts)
        stepper.accepted_field()
        for run in live:
            run.record(s_end)
    return [Trajectory(run.samples, run.events, stopped_reason=run.stopped_reason, stats=run.stats)
            for run in runs]


def integrate_effective(state0: ModelState, data: TrainingSet, s_end: float,
                        opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the cluster-separated flow: layer k is driven by cluster k only.

    A start where layer k is not the identity on the chained images of another cluster l
    logs a warning, and from such a start the run ends at the first accepted state where
    the field ascends the full cost.  The first crossing at which a layer k starts truncating
    a point of a cluster l != k ends the run (`stopped_reason`); one back out of truncation
    is an event.  The one-member call of :func:`integrate_ensemble`.
    """
    return integrate_ensemble(integrate_effective, [(state0, data)], s_end, opts)[0]


def integrate_general(state0: ModelState, data: TrainingSet, s_end: float,
                      opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the unrestricted flow; every cluster drives every layer.  The one-member call of
    :func:`integrate_ensemble`."""
    return integrate_ensemble(integrate_general, [(state0, data)], s_end, opts)[0]


def integrate_collapsed(cs0: CollapsedState, s_end: float,
                        opts: IntegratorOptions | None = None) -> CollapsedTrajectory:
    """Integrate the collapsed-data standard-cost flow, logging the invariant.

    Adaptive RK4 with step doubling: a step is accepted when the difference
    between one full step and two half steps meets atol/rtol; a trial whose
    difference is not finite, such as one that overflowed, is rejected, so
    every sample is finite.  The full step and the first half step share their
    first stage, the field at the step's start, which is evaluated once per
    state and also serves every retry of a rejected trial.  Only the start is
    validated: each sample is derived from it with its accepted arrays
    (:meth:`CollapsedState.derive`), sharing its Y.  Each sample logs the drift
    of B B^T - W^T W from its initial value, and `stats` counts the field
    evaluations, accepted steps and rejected trials.  The one-member call of
    :func:`integrate_ensemble`.
    """
    return integrate_ensemble(integrate_collapsed, [cs0], s_end, opts)[0]


# How many members one group steps together.  A layered member's sweep pushes N * Q coordinates
# through each of its L layers, and a group holds at most GROUP_COORDINATES of them (at least one
# member), and at most MAX_GROUP members.  Measured per member against one call each, on separated
# configs (depth Q, 2-core x86_64, one BLAS thread): the stacked field and push gain 1.7x and 1.7x
# at Q = 2, N = 40 for B = 2 and 4.5x and 4.0x for B = 8; 2.8x and 1.5x at Q = 6, N = 240 for B = 4;
# at Q = 8, N = 320 (20,480 coordinates) 1.4x and 1.0x for B = 2, and a loss from B = 4 on.
GROUP_COORDINATES = 40960
MAX_GROUP = 64


def _shape(member) -> tuple:
    """What members must share to be stepped together: Q for a collapsed state; Q, depth and
    cluster sizes for a layered (state, data) pair."""
    if isinstance(member, CollapsedState):
        return (member.dim,)
    state, data = member
    return state.dim, state.depth, tuple(data.counts)


def ensemble_groups(members) -> list[list[int]]:
    """The indices of `members` that :func:`integrate_ensemble` steps together, group by group:
    members of one shape, in member order, groups in the order their first member comes.  A
    group holds at least one member, at most MAX_GROUP, and at most GROUP_COORDINATES coordinates:
    N * Q * L for a layered member, Q * Q for a collapsed one."""
    shapes: dict[tuple, list[int]] = {}
    for i, member in enumerate(members):
        shapes.setdefault(_shape(member), []).append(i)
    groups = []
    for shape, indices in shapes.items():
        size = shape[0] * shape[0] if len(shape) == 1 else sum(shape[2]) * shape[0] * shape[1]
        cap = max(1, min(MAX_GROUP, GROUP_COORDINATES // size))
        groups += [indices[i:i + cap] for i in range(0, len(indices), cap)]
    return groups


def _is_layered_member(member) -> bool:
    """Whether `member` is a layered integrator's (state, data) pair."""
    return (isinstance(member, (tuple, list)) and len(member) == 2
            and isinstance(member[0], ModelState) and isinstance(member[1], TrainingSet))


def integrate_ensemble(integrator, members, s_end: float, opts: IntegratorOptions | None = None) -> list:
    """Integrate independent members with one integrator, and return their trajectories in member
    order, each bit for bit its one-member call's: samples, events, `stopped_reason` and `stats`.

    `integrator` is :func:`integrate_effective` or :func:`integrate_general`, whose members are
    (state, data) pairs, or :func:`integrate_collapsed`, whose members are collapsed states.
    Members of one shape are stepped together in groups (:func:`ensemble_groups`), each round of a
    group one stacked step of all its live members, and members finish independently.  A member
    that raises (`StepUnderflow`, a rejected input) ends the call with its error; a member of
    another kind than its integrator takes raises ValueError naming its index before any run.
    """
    if not 0 < s_end < np.inf:
        raise ValueError(f"s_end must be positive and finite, got {s_end!r}")
    opts = opts or IntegratorOptions()
    members = list(members)
    if integrator is integrate_collapsed:
        kind, fits = "a CollapsedState", lambda member: isinstance(member, CollapsedState)
        run = lambda group: _integrate_collapsed(group, s_end, opts)  # noqa: E731
    elif integrator is integrate_effective or integrator is integrate_general:
        kind, fits = "a (ModelState, TrainingSet) pair", _is_layered_member
        separated = integrator is integrate_effective
        run = lambda group: _integrate_layered(group, s_end, opts, separated)  # noqa: E731
    else:
        raise ValueError(f"integrator must be integrate_effective, integrate_general or integrate_collapsed, "
                         f"got {integrator!r}")
    for i, member in enumerate(members):
        if not fits(member):
            got = (f"({', '.join(type(m).__name__ for m in member)})" if isinstance(member, (tuple, list))
                   else f"a {type(member).__name__}")
            raise ValueError(f"member {i} is {got}: {integrator.__name__} takes {kind}")
    out = [None] * len(members)
    for group in ensemble_groups(members):
        for i, traj in zip(group, run([members[i] for i in group])):
            out[i] = traj
    return out


@dataclass(frozen=True)
class CollapsedSample:
    s: float
    state: CollapsedState
    cost: float
    invariant_drift: float


@dataclass
class CollapsedStats:
    """The work a collapsed-flow integration did, as scipy's `solve_ivp` counts `nfev`.

    Every trial is a full step and two half steps: 10 evaluations of the field beyond their shared
    first stage, the field at the step's start, which is evaluated once per accepted state and
    serves every trial from it.  So `rhs_calls` is 10 per trial plus one per state stepped from.
    """

    rhs_calls: int = 0  # every evaluation of collapsed_rhs
    accepted: int = 0   # steps accepted: one per sample after the first
    rejected: int = 0   # trial steps that failed the error test, retried at half the step


@dataclass
class CollapsedTrajectory:
    samples: list[CollapsedSample]
    invariant0: np.ndarray
    stats: CollapsedStats = field(default_factory=CollapsedStats)

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
    """Classical RK4 step of `collapsed_rhs` from (B, W); `k1`, if given, is the field there.  A
    group's (G, Q, Q) stacks step with one step per member, `h` (G, 1, 1)."""
    kb1, kw1 = collapsed_rhs(b, w, y) if k1 is None else k1
    kb2, kw2 = collapsed_rhs(b + 0.5 * h * kb1, w + 0.5 * h * kw1, y)
    kb3, kw3 = collapsed_rhs(b + 0.5 * h * kb2, w + 0.5 * h * kw2, y)
    kb4, kw4 = collapsed_rhs(b + h * kb3, w + h * kw3, y)
    bn = b + (h / 6.0) * (kb1 + 2 * kb2 + 2 * kb3 + kb4)
    wn = w + (h / 6.0) * (kw1 + 2 * kw2 + 2 * kw3 + kw4)
    return bn, wn


class _CollapsedRun:
    """One collapsed trajectory in the making: its step, its s and its record so far."""

    def __init__(self, cs0: CollapsedState, opts: IntegratorOptions):
        self.start, self.s, self.h = cs0, 0.0, opts.step
        self.traj = CollapsedTrajectory([], conserved_quantity(cs0))
        self.sample(cs0.b_matrix, cs0.w_out)

    def sample(self, b: np.ndarray, w: np.ndarray) -> None:
        """Log the state (B, W) at s, derived from the start without a check, with the drift of its
        invariant."""
        cs = self.start.derive(b, w)
        drift = float(np.linalg.norm(conserved_quantity(cs) - self.traj.invariant0))
        self.traj.samples.append(CollapsedSample(self.s, cs, cs.cost(), drift))


def _integrate_collapsed(members: list, s_end: float, opts: IntegratorOptions) -> list[CollapsedTrajectory]:
    """Adaptive RK4 with step doubling for a group of collapsed states of one Q.

    A step is accepted when the difference between one full step and two half steps meets
    atol/rtol; a NaN or infinite difference fails the test, and the trials run with overflow and
    invalid-value warnings off, so an overflowed trial is one more rejection and every accepted
    state is finite.  The full step and the first half step share their first stage, the field at
    the step's start, which is evaluated once per state and also serves every retry of a rejected
    trial.  Every member keeps its own adaptive step: each round, every member's trial is one
    stacked evaluation per stage, at its own step, and the error test, the step control and the
    samples are each member's own.  A sample is derived from its member's start without a check,
    its arrays read-only views of the round's accepted stack.  A member that reaches `s_end` leaves
    the group.
    """
    runs = [_CollapsedRun(cs, opts) for cs in members]
    live = runs
    b, w, y = (np.stack(arrays) for arrays in zip(*((cs.b_matrix, cs.w_out, cs.y_matrix) for cs in members)))
    k1 = np.empty_like(b), np.empty_like(w)
    stale = np.ones(len(live), dtype=bool)  # whose field at its state is not evaluated yet
    while True:
        keep = np.array([run.s < s_end - 1e-13 for run in live])
        if not keep.all():
            live = [run for run, kept in zip(live, keep) if kept]
            if not live:
                break
            b, w, y, stale = b[keep], w[keep], y[keep], stale[keep]
            k1 = k1[0][keep], k1[1][keep]
        todo = np.flatnonzero(stale)
        dts = [min(run.h, s_end - run.s) for run in live]
        dt = np.array(dts)[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # a trial that overflows is rejected
            if len(todo) == len(live):
                k1 = collapsed_rhs(b, w, y)
            elif len(todo):
                k1[0][todo], k1[1][todo] = collapsed_rhs(b[todo], w[todo], y[todo])
            bf, wf = _collapsed_rk4(b, w, y, dt, k1)
            bh, wh = _collapsed_rk4(b, w, y, 0.5 * dt, k1)
            bh, wh = _collapsed_rk4(bh, wh, y, 0.5 * dt)
            errs = np.maximum(np.abs(bf - bh).max(axis=(1, 2)), np.abs(wf - wh).max(axis=(1, 2))).tolist()
        scales = np.maximum(np.abs(b).max(axis=(1, 2)), np.abs(w).max(axis=(1, 2))).tolist()
        accepted = np.zeros(len(live), dtype=bool)
        for i, (run, dt_run, err, scale, fresh) in enumerate(zip(live, dts, errs, scales, stale.tolist())):
            run.traj.stats.rhs_calls += 10 + fresh
            tol = opts.atol + opts.rtol * scale
            if not err <= tol:  # NaN or inf too: an accepted step's arrays are finite
                run.traj.stats.rejected += 1
                run.h = 0.5 * dt_run
                if run.h < opts.min_step:
                    raise StepUnderflow(f"step underflow at s = {run.s:.6g}", run.s)
                continue
            accepted[i] = True
            run.traj.stats.accepted += 1
            run.s += dt_run
            run.sample(bh[i], wh[i])
            if err < 0.05 * tol:
                run.h = min(dt_run * 1.5, opts.step * 10)
        b[accepted], w[accepted] = bh[accepted], wh[accepted]
        stale = accepted
    for run in runs:
        scale0 = 1.0 + float(np.linalg.norm(run.traj.invariant0))
        if run.traj.max_drift > 1e-6 * scale0:
            logger.warning("collapsed invariant drift %.3e exceeds 1e-6 * scale", run.traj.max_drift)
    return [run.traj for run in runs]


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
