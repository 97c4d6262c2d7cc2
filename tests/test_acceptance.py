"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Trajectories produced along the way
are registered so the final global monotonicity/orthogonality criterion
runs over all of them.
"""

import time

import numpy as np
import pytest

from truncflow.flows import (
    CollapsedState,
    clustered_explicit,
    clustered_rhs,
    effective_rhs,
    general_rhs,
)
from truncflow.integrate import (
    fit_phase_exponents,
    freeze_time,
    integrate_collapsed,
    integrate_effective,
    integrate_general,
)
from truncflow.oracle import rk4_array
from truncflow.scenarios import (
    check_collapse_hypotheses,
    make_equilibrium_data,
    make_prop42_scenario,
    make_separated_config,
    named_initial_state,
)
from truncflow.scenarios import make_one_dim_state
from truncflow.verify import equivalence_suite, gradients_suite

LAYERED_TRAJECTORIES = []
COLLAPSED_TRAJECTORIES = []


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_gradient_oracle_agreement():
    t0 = time.perf_counter()
    result = gradients_suite(seed=0, cases=100)
    elapsed = time.perf_counter() - t0
    worst = max(p["worst"] for p in result["properties"])
    ok = result["passed"] and elapsed < 10.0
    report(
        1,
        ok,
        f"effective/general vs central differences, worst {worst:.2e} <= 1e-5 "
        f"on 100 configs in {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_equilibria():
    # fully untruncated: every point strictly positive in every layer
    data, labels = make_equilibrium_data(3, "all-positive", seed=4)
    state = named_initial_state("all-positive", data, labels)
    zero_rhs = all(
        np.all(bd == 0.0) and np.linalg.norm(om) == 0.0 for bd, om in zip(*effective_rhs(state, data))
    )
    zero_general = all(
        np.all(bd == 0.0) and np.linalg.norm(om) == 0.0 for bd, om in zip(*general_rhs(state, data))
    )
    t_eff = integrate_effective(state, data, 5.0)
    t_gen = integrate_general(state, data, 5.0)
    drift = 0.0
    for traj, st in ((t_eff, state), (t_gen, state)):
        f = traj.final_state
        drift = max(
            drift,
            max(np.max(np.abs(f.layers[k].beta - st.layers[k].beta)) for k in range(3)),
            max(np.max(np.abs(f.layers[k].rotation.mat - st.layers[k].rotation.mat)) for k in range(3)),
        )
    LAYERED_TRAJECTORIES.extend([t_eff, t_gen])

    # fully truncated at the collapse point: bias gap exactly zero
    state2, data2 = make_separated_config(3, n_per=4, seed=3, truncation="full")
    zero_rhs2 = all(
        np.all(bd == 0.0) and np.linalg.norm(om) == 0.0 for bd, om in zip(*effective_rhs(state2, data2))
    )
    t_full = integrate_effective(state2, data2, 5.0)
    f2 = t_full.final_state
    drift2 = max(
        max(np.max(np.abs(f2.layers[k].beta - state2.layers[k].beta)) for k in range(3)),
        max(np.max(np.abs(f2.layers[k].rotation.mat - state2.layers[k].rotation.mat)) for k in range(3)),
    )
    LAYERED_TRAJECTORIES.append(t_full)
    events = len(t_eff.events) + len(t_gen.events) + len(t_full.events)
    ok = zero_rhs and zero_general and zero_rhs2 and drift <= 1e-10 and drift2 <= 1e-10 and events == 0
    report(
        2,
        ok,
        f"equilibria: zero RHS exactly, state drift {max(drift, drift2):.1e} <= 1e-10 "
        f"over s in [0,5], {events} events",
    )


def test_criterion_3_one_dim_event_ladder():
    state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
    traj = integrate_effective(state, data, 3.0)
    LAYERED_TRAJECTORIES.append(traj)
    crossings = [ev.s for ev in traj.events if ev.direction == "entering"]
    gap_expected = 2.0 * np.log(4.0 / 3.0)
    gap_err = abs(crossings[0] - gap_expected) if crossings else np.inf
    phases = fit_phase_exponents(traj)
    expected_rates = [0.5, 1.0]
    rate_err = max(
        abs(-phase["log_gap_slopes"][0] - rate) / rate
        for phase, rate in zip(phases, expected_rates)
    )
    ok = gap_err <= 1e-6 and rate_err <= 0.01 and len(phases) == 2
    report(
        3,
        ok,
        f"ladder: crossing gap error {gap_err:.2e} <= 1e-6, "
        f"segment rates off by {rate_err:.2%} <= 1% of n/N",
    )


def test_criterion_4_finite_time_collapse():
    state, data, consts = make_prop42_scenario()
    hyp = check_collapse_hypotheses(state, data, consts["layer"], consts["eta0"], consts["eta1"],
                                    consts["gamma"], seed=1)
    assert hyp["ok"], f"scenario failed its hypotheses: {hyp}"
    traj = integrate_effective(state, data, 4.0)
    LAYERED_TRAJECTORIES.append(traj)
    s1 = freeze_time(traj)
    ok_s1 = s1 is not None and 0.0 < s1 < 4.0
    # rotation constant after s1
    after = [smp for smp in traj.samples if smp.s >= s1]
    r_ref = after[0].state.layers[0].rotation.mat
    r_drift = max(np.max(np.abs(smp.state.layers[0].rotation.mat - r_ref)) for smp in after)
    omega_after = max(smp.omega_norms.max() for smp in after)
    # bias gap decays at rate exactly one after s1
    ts = np.array([smp.s for smp in traj.samples])
    gaps = np.array([smp.beta_gaps[0] for smp in traj.samples])
    sel = ts >= s1 + 0.3
    a = np.vstack([ts[sel], np.ones(int(sel.sum()))]).T
    slope = float(np.linalg.lstsq(a, np.log(gaps[sel]), rcond=None)[0][0])
    ok = ok_s1 and omega_after <= 1e-10 and r_drift <= 1e-8 and abs(slope + 1.0) <= 0.02
    report(
        4,
        ok,
        f"collapse: hypotheses verified, |Omega| <= 1e-10 from s1 = {s1:.3f}, "
        f"R drift {r_drift:.1e} <= 1e-8, gap slope {slope:.4f} = -1 +/- 2%",
    )


def test_criterion_5_conservation_law():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        cs = CollapsedState(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        traj = integrate_collapsed(cs, 5.0)
        COLLAPSED_TRAJECTORIES.append(traj)
        worst = max(worst, traj.max_drift / (1.0 + np.linalg.norm(traj.invariant0)))
    ok = worst <= 1e-6
    report(5, ok, f"conservation: worst relative invariant drift {worst:.2e} <= 1e-6 over s in [0,5]")


def test_criterion_6_spectral_gap_decay():
    cs = CollapsedState(2 * np.eye(3), np.eye(3), np.eye(3))
    traj = integrate_collapsed(cs, 5.0)
    COLLAPSED_TRAJECTORIES.append(traj)
    ts, costs = traj.times, traj.costs
    sel = (ts >= 1.0) & (ts <= 3.0)
    a = np.vstack([ts[sel], np.ones(int(sel.sum()))]).T
    slope = float(np.linalg.lstsq(a, np.log(costs[sel]), rcond=None)[0][0])
    idx3 = int(np.argmin(np.abs(ts - 3.0)))
    ratio = costs[idx3] / costs[0]
    ok = slope <= -5.5 and ratio <= np.exp(-16.0)
    report(
        6,
        ok,
        f"spectral gap: log-cost slope {slope:.2f} <= -5.5 on [1,3], "
        f"cost(3)/cost(0) = {ratio:.2e} <= e^-16",
    )


def test_criterion_7_clustered_closed_form():
    rng = np.random.default_rng(3)
    worst_ode = 0.0
    # closed form vs fixed-step reference on identity and generic data
    for q, n, identity in ((2, 2, True), (2, 5, False)):
        w0 = rng.normal(size=(q, q))
        x = np.eye(q) if identity else rng.normal(size=(q, n))
        y = rng.normal(size=(q, x.shape[1]))
        w_flat, s_prev = w0.reshape(-1), 0.0
        for s in np.linspace(0.0, 4.0, 17):
            if s > s_prev:
                w_flat = rk4_array(
                    lambda w: clustered_rhs(w.reshape(q, q), x, y).reshape(-1),
                    w_flat, s - s_prev, step=1e-4,
                )
                s_prev = s
            diff = np.linalg.norm(clustered_explicit(w0, x, y, s) - w_flat.reshape(q, q))
            worst_ode = max(worst_ode, diff)
    # convergence to the interpolant for identity-data instances
    worst_limit = 0.0
    for q in (1, 2):
        y = rng.normal(size=(q, q))
        delta = rng.normal(size=(q, q))
        w0 = y + 0.1 * delta / np.linalg.norm(delta)
        w_end = clustered_explicit(w0, np.eye(q), y, 10.0)
        worst_limit = max(worst_limit, np.linalg.norm(w_end - y))
    ok = worst_ode <= 1e-6 and worst_limit <= 1e-3
    report(
        7,
        ok,
        f"closed form: vs reference ODE {worst_ode:.2e} <= 1e-6 on [0,4], "
        f"|W(10) - Y P| = {worst_limit:.2e} <= 1e-3",
    )


def test_criterion_8_formula_equivalences():
    result = equivalence_suite(seed=0)
    props = {p["name"]: p for p in result["properties"]}
    ok = result["passed"]
    report(
        8,
        ok,
        "equivalences: effective vs moment {:.1e} <= 1e-12 (500), general vs effective "
        "{:.1e} <= 1e-10, chain vs projectors {:.1e} <= 1e-10 (200)".format(
            props["effective_vs_moment_form"]["worst"],
            props["general_vs_effective_separated"]["worst"],
            props["chain_vs_projector_expansion"]["worst"],
        ),
    )


def test_criterion_9_global_monotonicity():
    assert LAYERED_TRAJECTORIES and COLLAPSED_TRAJECTORIES, "earlier criteria must run first"
    worst_rise = -np.inf
    worst_ortho = 0.0
    for traj in LAYERED_TRAJECTORIES:
        costs = traj.costs
        rises = np.diff(costs) - 1e-8 * (1.0 + costs[:-1])
        if len(rises):
            worst_rise = max(worst_rise, float(np.max(rises)))
        for smp in traj.samples:
            for lp in smp.state.layers:
                worst_ortho = max(worst_ortho, lp.rotation.orthogonality_error())
    for traj in COLLAPSED_TRAJECTORIES:
        costs = traj.costs
        rises = np.diff(costs) - 1e-8 * (1.0 + costs[:-1])
        if len(rises):
            worst_rise = max(worst_rise, float(np.max(rises)))
    ok = worst_rise <= 0.0 and worst_ortho <= 1e-8
    n = len(LAYERED_TRAJECTORIES) + len(COLLAPSED_TRAJECTORIES)
    report(
        9,
        ok,
        f"global: cost non-increasing (worst slack {worst_rise:.1e}) and orthogonality "
        f"drift {worst_ortho:.1e} <= 1e-8 across {n} trajectories",
    )
