"""Property suites behind the `verify` command: each suite exercises one
family of analytic claims at desk scale and reports worst discrepancies.
"""

from __future__ import annotations

import numpy as np

from .flows import (
    CollapsedState,
    chained_projectors,
    clustered_explicit,
    clustered_rhs,
    effective_rhs,
    general_rhs,
    moment_form_rhs,
    one_dim_flow,
)
from .errors import NearKink
from .integrate import (
    IntegratorOptions,
    ensemble_groups,
    fit_phase_exponents,
    integrate_collapsed,
    integrate_effective,
    integrate_ensemble,
    integrate_general,
)
from .manifold import random_rotations
from .measures import TrainingSet
from .model import chained_truncation, euclidean_cost
from .oracle import fd_gradients, reference_integrate, rk4_array
from .scenarios import make_one_dim_state, make_separated_config, state_from_arrays


def _prop(name: str, worst: float, tol: float, cases: int, skipped: int = 0) -> dict:
    """One property's verdict; `cases` counts the checked cases only."""
    return {
        "name": name,
        "passed": bool(worst <= tol),
        "worst": float(worst),
        "tolerance": float(tol),
        "cases": int(cases),
        "skipped": int(skipped),
    }


def _suite(name: str, properties: list[dict]) -> dict:
    return {
        "suite": name,
        "passed": all(p["passed"] for p in properties),
        "properties": properties,
    }


def _integrated(integrator, members: list, s_end: float):
    """(index, trajectory) of every member, integrated one ensemble group at a time
    (:func:`~truncflow.integrate.ensemble_groups`): a group's trajectories come before the next
    group runs, so a suite checks each and lets it go before the next group is integrated."""
    for group in ensemble_groups(members):
        yield from zip(group, integrate_ensemble(integrator, [members[i] for i in group], s_end))


def _random_state_and_data(q: int, n_max: int, rng: np.random.Generator):
    """Unstructured instance: mixed sectors likely, no separation guarantees."""
    depth = q
    rots = random_rotations(depth, q, rng)
    betas = [rng.normal(size=q) for _ in range(depth)]
    w = np.eye(q) + 0.2 * rng.normal(size=(q, q))
    ytil = rng.normal(size=(q, q))
    labels = (w @ ytil.T).T
    state = state_from_arrays(rots, betas, w, labels)
    clusters = [rng.normal(size=(int(rng.integers(2, n_max + 1)), q)) * 1.5 for _ in range(q)]
    return state, TrainingSet(clusters)


def gradients_suite(seed: int = 0, cases: int = 100) -> dict:
    """Analytic velocities against central finite differences of the cost."""
    tol = 1e-5

    def rel(err: float, *norms: float) -> float:
        scale = max(norms)
        if scale < 1e-4:
            # both sides at the oracle's noise floor: nothing to resolve
            return 0.0
        return err / scale

    def case(state, data, rhs):
        """Worst relative discrepancy over the layers, or None for a kink-adjacent draw."""
        beta_dots, omegas = rhs(state, data)
        try:
            fd = fd_gradients(state, data)  # the stencil band is checked once for all layers
        except NearKink:
            return None  # skipped, not forced
        worst = 0.0
        for beta_dot, omega, (fd_b, fd_o) in zip(beta_dots, omegas, fd):
            worst = max(worst, rel(np.linalg.norm(beta_dot + fd_b),
                                   np.linalg.norm(fd_b), np.linalg.norm(beta_dot)))
            worst = max(worst, rel(np.linalg.norm(omega - fd_o.mat),
                                   np.linalg.norm(fd_o.mat), np.linalg.norm(omega)))
        return worst

    def prop(name, stream, draw, rhs, n):
        worsts = [case(*draw(np.random.default_rng((seed, stream, i))), rhs) for i in range(n)]
        checked = [w for w in worsts if w is not None]
        return _prop(name, max(checked, default=0.0), tol, len(checked), n - len(checked))

    def separated(rng):
        q = int(rng.integers(2, 5))
        return make_separated_config(q, n_per=int(rng.integers(2, 9)), seed=int(rng.integers(2**31)))

    def unstructured(rng):
        return _random_state_and_data(int(rng.integers(2, 5)), 8, rng)

    n_eff = max(1, cases // 2)
    return _suite("gradients", [
        prop("effective_rhs_vs_fd", 0, separated, effective_rhs, n_eff),
        prop("general_rhs_vs_fd", 1, unstructured, general_rhs, max(1, cases - n_eff)),
    ])


def _monotonicity_case(seed: int, i: int):
    """Case i of the monotonicity suite: (state, data, integrator, rhs)."""
    rng = np.random.default_rng((seed, 2, i))
    q = int(rng.integers(2, 4))
    state, data = make_separated_config(q, n_per=4, seed=int(rng.integers(2**31)))
    if i % 2 == 0:
        return state, data, integrate_effective, effective_rhs
    state = state.derive(state.rotations, state.betas + 0.05 * rng.normal(size=state.betas.shape))
    return state, data, integrate_general, general_rhs


def monotonicity_suite(seed: int = 0, cases: int = 12) -> dict:
    """Cost decrease, the descent identity, and orthogonality preservation.

    Runs on separated configurations (lightly perturbed for the general
    flow), where sector crossings are transversal.  A trajectory that reaches
    a sliding configuration stops there, and is checked over the part it covers;
    the report's "stopped" list names each such case, where it stopped and why.
    Every case is drawn first; then each integrator's cases run as ensembles, one
    group at a time.
    """
    slack_worst = 0.0
    ortho_worst = 0.0
    descent_worst = 0.0
    checked = 0  # descent-identity probes checked; two are tried per trajectory
    stopped = []
    draws = [_monotonicity_case(seed, i) for i in range(cases)]
    slack = IntegratorOptions().cost_slack  # the rise the integrator lets a step make
    for integrator in (integrate_effective, integrate_general):
        indices = [i for i, draw in enumerate(draws) if draw[2] is integrator]
        for j, traj in _integrated(integrator, [draws[i][:2] for i in indices], 1.0):
            i = indices[j]
            _, data, _, rhs = draws[i]
            if traj.stopped_reason is not None:
                stopped.append({"case": i, "s": float(traj.times[-1]), "reason": traj.stopped_reason})
            costs = traj.costs
            rises = np.diff(costs) - slack * (1.0 + costs[:-1])
            slack_worst = max(slack_worst, float(np.max(rises, initial=-np.inf)))
            ortho_worst = max(ortho_worst, traj.max_orthogonality_error)

            event_times = [ev.s for ev in traj.events]
            for frac in (0.3, 0.7):
                idx = int(frac * (len(traj.samples) - 1))
                smp = traj.samples[idx]
                if event_times and min(abs(smp.s - t) for t in event_times) < 1e-3:
                    continue
                analytic = -sum(
                    float(np.dot(bd, bd)) + float(np.sum(om * om)) for bd, om in zip(*rhs(smp.state, data))
                )
                h = 1e-5
                fwd = reference_integrate(rhs, smp.state, data, h, step=h)
                back = reference_integrate(
                    lambda st, d: tuple(-v for v in rhs(st, d)), smp.state, data, h, step=h
                )
                fd_rate = (euclidean_cost(fwd, data) - euclidean_cost(back, data)) / (2 * h)
                if abs(analytic) > 1e-8 and abs(fd_rate) > 1e-8:
                    descent_worst = max(descent_worst, abs(fd_rate - analytic) / abs(analytic))
                    checked += 1
    stopped.sort(key=lambda entry: entry["case"])
    return dict(_suite("monotonicity", [
        _prop("cost_non_increasing", slack_worst, 0.0, cases),
        _prop("orthogonality_drift", ortho_worst, 1e-8, cases),
        _prop("descent_identity", descent_worst, 1e-4, checked, 2 * cases - checked),
    ]), stopped=stopped)


def _conservation_starts(seed: int, cases: int) -> list[CollapsedState]:
    """The conservation suite's random collapsed states, Q = 3."""
    starts = []
    for i in range(cases):
        rng = np.random.default_rng((seed, 3, i))
        q = 3
        starts.append(CollapsedState(rng.normal(size=(q, q)), rng.normal(size=(q, q)), rng.normal(size=(q, q))))
    return starts


def conservation_suite(seed: int = 0, cases: int = 10) -> dict:
    """Invariance of B B^T - W^T W along random collapsed flows, each over s in [0, 5], drawn
    first and integrated as ensembles, one group at a time."""
    worst = 0.0
    for _, traj in _integrated(integrate_collapsed, _conservation_starts(seed, cases), 5.0):
        scale = 1.0 + float(np.linalg.norm(traj.invariant0))
        worst = max(worst, traj.max_drift / scale)
    return _suite("conservation", [_prop("invariant_drift", worst, 1e-6, cases)])


def equivalence_suite(seed: int = 0) -> dict:
    """Three formula equivalences: per-point vs moment form; the general field vs
    the separated one on separated configs, whose true masks are the separated
    pattern, so the two differ by round-off only (the general field chains each
    point through identity layers, the separated one reads cluster k's own rows
    at layer k); chained truncation vs its projector expansion."""
    rng = np.random.default_rng((seed, 4))
    moment_worst = 0.0
    for _ in range(500):
        q = int(rng.integers(2, 5))
        state, data = _random_state_and_data(q, 8, rng)
        b1, o1 = effective_rhs(state, data)
        b2, o2 = moment_form_rhs(state, data)
        moment_worst = max(moment_worst, float(np.max(np.abs(b1 - b2))), float(np.max(np.abs(o1 - o2))))

    general_worst = 0.0
    for i in range(50):
        q = int(rng.integers(2, 5))
        state, data = make_separated_config(q, n_per=4, seed=int(rng.integers(2**31)))
        b1, o1 = effective_rhs(state, data)
        b2, o2 = general_rhs(state, data)
        general_worst = max(general_worst, float(np.max(np.abs(b1 - b2))), float(np.max(np.abs(o1 - o2))))

    proj_worst = 0.0
    for _ in range(200):
        q = int(rng.integers(2, 5))
        state, _ = _random_state_and_data(q, 3, rng)
        x = rng.normal(size=q) * 2.0
        lo = int(rng.integers(0, state.depth))
        hi = int(rng.integers(lo, state.depth + 1))
        p_plus, p_minus = chained_projectors(state, x, lo, hi)
        recon = p_plus @ x
        for k, pm in zip(range(lo, hi), p_minus):
            recon = recon - pm @ state.betas[k]
        direct = chained_truncation(state, x, lo, hi)
        proj_worst = max(proj_worst, float(np.max(np.abs(recon - direct))))

    return _suite("equivalence", [
        _prop("effective_vs_moment_form", moment_worst, 1e-12, 500),
        _prop("general_vs_effective_separated", general_worst, 1e-10, 50),
        _prop("chain_vs_projector_expansion", proj_worst, 1e-10, 200),
    ])


def _oned_ladders(seed: int, cases: int) -> tuple[list, list]:
    """The oned suite's random ladders, each its closed form and its (state, data) pair; a draw
    whose threshold starts within 1e-6 of a point is skipped."""
    flows, ladders = [], []
    rng = np.random.default_rng((seed, 5))
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        points = np.sort(rng.uniform(-2.0, 2.0, size=n))
        while np.min(np.diff(points), initial=np.inf) < 1e-3:
            points = np.sort(rng.uniform(-2.0, 2.0, size=n))
        y = points[-1] + rng.uniform(1.0, 3.0)
        b0 = rng.uniform(points[0], points[-1])
        if min(abs(b0 - p) for p in points) < 1e-6:
            continue
        flows.append(one_dim_flow(points, y, b0))
        ladders.append(make_one_dim_state(points, y, b0))
    return flows, ladders


def oned_suite(seed: int = 0, cases: int = 10) -> dict:
    """The 1-D event ladder: crossing times and per-segment decay rates.  The random ladders
    are drawn first, then integrated as ensembles, one group at a time."""
    # canonical instance: points (1, 2), label 5, threshold starting at 1
    state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
    traj = integrate_effective(state, data, s_end=3.0)
    gap_expected = 2.0 * np.log(4.0 / 3.0)
    crossing = [ev.s for ev in traj.events if ev.direction == "entering"]
    gap_err = abs(crossing[0] - gap_expected) if crossing else np.inf

    rate_worst = 0.0
    phases = fit_phase_exponents(traj)
    expected = [0.5, 1.0]
    for phase, rate in zip(phases, expected):
        slope = phase["log_gap_slopes"][0]
        rate_worst = max(rate_worst, abs(-slope - rate) / rate if slope is not None else np.inf)

    flows, ladders = _oned_ladders(seed, cases)
    closed_worst = 0.0
    for i, tr in _integrated(integrate_effective, ladders, 2.5):
        for smp in tr.samples[:: max(1, len(tr.samples) // 20)]:
            err = abs(smp.beta_gaps[0] - flows[i].gap(smp.s))
            closed_worst = max(closed_worst, err / (1.0 + flows[i].gap(smp.s)))

    return _suite("oned", [
        _prop("ladder_crossing_gap", gap_err, 1e-6, 1),
        _prop("segment_rates_vs_n_over_N", rate_worst, 0.01, len(phases)),
        _prop("closed_form_vs_integrated", closed_worst, 1e-6, len(ladders), cases - len(ladders)),
    ])


def clustered_closed_vs_ode(w0: np.ndarray, data: TrainingSet, labels,
                            s_end: float) -> tuple[np.ndarray, dict]:
    """The clustered-data closed form W(s) against a fixed-step solve of its ODE.

    Returns the table, one row (s, cost, closed_vs_ode) per point of a 201-point grid on
    [0, s_end]: the cost (1/2N) ||W X - Y_ext||^2 of W(s) and its distance to `rk4_array`,
    restarted from the previous grid point.  Also the run's summary, with the
    distance of W(s_end) from the limit Y_ext X^T (X X^T)^-1.  Column i of X is point i,
    column i of Y_ext its cluster's label.
    """
    x0 = data.points.T
    y_ext = np.repeat(labels, data.counts, axis=0).T.copy()
    n = x0.shape[1]

    def cost(w):
        e = w @ x0 - y_ext
        return 0.5 * float(np.sum(e * e)) / n

    rows = []
    w_ode, s_prev = w0.reshape(-1), 0.0
    for s in np.linspace(0.0, s_end, 201):
        w_closed = clustered_explicit(w0, x0, y_ext, s)
        if s > s_prev:
            w_ode = rk4_array(lambda w: clustered_rhs(w.reshape(w0.shape), x0, y_ext).reshape(-1),
                              w_ode, s - s_prev, step=1e-3)
            s_prev = s
        rows.append((s, cost(w_closed), float(np.linalg.norm(w_closed - w_ode.reshape(w0.shape)))))
    w_end = clustered_explicit(w0, x0, y_ext, s_end)
    table = np.array(rows)
    limit = (y_ext @ x0.T) @ np.linalg.inv(x0 @ x0.T)
    return table, {
        "final_cost": cost(w_end),
        "initial_cost": cost(w0),
        "final_state": {"w": w_end},
        "closed_vs_ode_max": float(np.max(table[:, 2])),
        "distance_to_limit": float(np.linalg.norm(w_end - limit)),
    }


SUITES = {
    "gradients": gradients_suite,
    "monotonicity": monotonicity_suite,
    "conservation": conservation_suite,
    "equivalence": equivalence_suite,
    "oned": oned_suite,
}


def run_suites(names, seed: int = 0) -> dict:
    """Run the named suites (or all) and aggregate into one report."""
    if names == "all" or names == ["all"]:
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    results = [SUITES[name](seed=seed) for name in names]
    return {
        "seed": int(seed),
        "passed": all(r["passed"] for r in results),
        "suites": results,
    }
