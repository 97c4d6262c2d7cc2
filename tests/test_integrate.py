import importlib.util
import itertools
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from truncflow.errors import IndexRange, StepUnderflow
from truncflow.flows import CollapsedState, FrozenMasks, conserved_quantity
from truncflow.integrate import (
    IntegratorOptions,
    _diff_events,
    _masks_equal,
    _sweep,
    fit_phase_exponents,
    freeze_time,
    integrate_collapsed,
    integrate_effective,
    integrate_general,
    write_collapsed_csv,
    write_events_csv,
    write_trajectory_csv,
)
import truncflow
import truncflow.flows
import truncflow.integrate
import truncflow.measures
import truncflow.model
from truncflow.flows import effective_rhs, general_rhs
from truncflow.manifold import REPOLAR_EVERY, AntisymmetricMatrix, OrthogonalMatrix
from truncflow.measures import TrainingSet, check_cluster_separation
from truncflow.model import ModelState, chained_truncation, euclidean_cost, images_cost, push
from truncflow.scenarios import make_separated_config, named_initial_state, make_equilibrium_data
from truncflow.scenarios import make_one_dim_state, state_from_arrays
from truncflow.verify import _monotonicity_case, _random_state_and_data

RNG = np.random.default_rng(7)


def perfbench_cases(workload: str, seed: int, workdir: Path) -> list:
    """The benchmark's cases of `workload` at `seed`, built as perfbench/run.py builds them."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module.build(workload, seed, workdir, path.parents[1])


class TestEquilibriumTrajectories:
    def test_all_positive_constant(self):
        data, labels = make_equilibrium_data(3, "all-positive", seed=4)
        state = named_initial_state("all-positive", data, labels)
        traj = integrate_effective(state, data, 5.0)
        assert len(traj.events) == 0
        final = traj.final_state
        for k in range(3):
            assert np.array_equal(final.layers[k].beta, state.layers[k].beta)
            assert np.array_equal(final.layers[k].rotation.mat, state.layers[k].rotation.mat)
        assert traj.costs[0] == traj.costs[-1]

    def test_fully_truncated_constant(self):
        state, data = make_separated_config(2, n_per=4, seed=3, truncation="full")
        traj = integrate_effective(state, data, 5.0)
        assert len(traj.events) == 0
        final = traj.final_state
        for k in range(2):
            assert np.max(np.abs(final.layers[k].beta - state.layers[k].beta)) <= 1e-10
            assert np.max(np.abs(final.layers[k].rotation.mat - state.layers[k].rotation.mat)) <= 1e-10


class TestExponentialLaw:
    def test_single_coordinate_rate_one(self):
        # fully truncated from the start: gap(s) = e^{-s} gap(0)
        state, data = make_one_dim_state([-3.0, -2.5, -2.0], 1.0, 0.5)
        traj = integrate_effective(state, data, 2.0)
        g0 = traj.samples[0].beta_gaps[0]
        for target in (0.5, 1.0, 2.0):
            idx = int(np.argmin(np.abs(traj.times - target)))
            s, g = traj.times[idx], traj.samples[idx].beta_gaps[0]
            assert abs(g - g0 * np.exp(-s)) <= 1e-6 * g0 * np.exp(-s)

    def test_event_crossing_localized(self):
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        traj = integrate_effective(state, data, 2.0)
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.direction == "entering"
        assert (ev.layer, ev.cluster, ev.point, ev.coordinate) == (0, 0, 1, 0)
        assert abs(ev.s - 2.0 * np.log(4.0 / 3.0)) <= 1e-6


class TestTrajectoryInvariants:
    def test_monotone_cost_and_increasing_times(self):
        state, data = make_separated_config(3, n_per=4, seed=8)
        traj = integrate_effective(state, data, 1.5)
        ts, cs = traj.times, traj.costs
        assert np.all(np.diff(ts) > 0)
        assert np.all(np.diff(cs) <= 1e-8 * (1.0 + cs[:-1]))

    def test_orthogonality_preserved(self):
        state, data = make_separated_config(2, n_per=5, seed=9)
        traj = integrate_effective(state, data, 2.0)
        worst = max(
            lp.rotation.orthogonality_error() for smp in traj.samples for lp in smp.state.layers
        )
        assert worst <= 1e-8

    def test_adaptive_matches_fixed_step_reference(self):
        # on an event-free span the adaptive integrator must agree with the
        # plain fixed-step reference loop to well below its own tolerances
        from truncflow.flows import effective_rhs
        from truncflow.oracle import reference_integrate

        state, data = make_separated_config(2, n_per=4, seed=0)
        traj = integrate_effective(state, data, 0.1)
        assert not traj.events

        ref = reference_integrate(effective_rhs, state, data, 0.1, step=1e-4)
        final = traj.final_state
        for k in range(2):
            assert np.max(np.abs(final.layers[k].beta - ref.layers[k].beta)) <= 1e-8
            assert np.max(np.abs(final.layers[k].rotation.mat - ref.layers[k].rotation.mat)) <= 1e-8

    def test_general_matches_effective_on_separated(self):
        state, data = make_separated_config(2, n_per=4, seed=10)
        t1 = integrate_effective(state, data, 1.0)
        t2 = integrate_general(state, data, 1.0)
        f1, f2 = t1.final_state, t2.final_state
        for k in range(2):
            assert np.max(np.abs(f1.layers[k].beta - f2.layers[k].beta)) <= 1e-6
            assert np.max(np.abs(f1.layers[k].rotation.mat - f2.layers[k].rotation.mat)) <= 1e-6

    def test_step_underflow_signalled(self):
        state, data = make_one_dim_state([-3.0, -2.5], 1.0, 0.0)
        opts = IntegratorOptions(step=3.0, min_step=2.0)
        with pytest.raises(StepUnderflow):
            integrate_effective(state, data, 4.0, opts)

    @pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
    def test_short_last_step_is_no_underflow(self, integrator):
        # the last step to s_end is shorter than min_step, but no step was halved
        opts = IntegratorOptions(step=1e-2, min_step=1e-2)
        traj = integrator(*make_one_dim_state([1.0, 2.0], 5.0, 1.0), 0.015, opts)
        assert [sample.s for sample in traj.samples] == [0.0, 0.01, 0.015]

    def test_short_last_collapsed_step_is_no_underflow(self):
        opts = IntegratorOptions(step=1e-2, min_step=1e-2)
        traj = integrate_collapsed(CollapsedState(np.eye(2), np.eye(2), np.eye(2)), 0.015, opts)
        assert [sample.s for sample in traj.samples] == [0.0, 0.01, 0.015]

    def test_collapsed_step_underflow_signalled(self):
        # every trial misses a tolerance of zero, so the step halves below min_step
        cs = CollapsedState(2 * np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(StepUnderflow, match="^step underflow at s = 0$"):
            integrate_collapsed(cs, 1.0, IntegratorOptions(step=0.5, min_step=0.1, atol=0.0, rtol=0.0))

    @pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
    def test_state_and_data_of_different_q_rejected(self, integrator):
        state, _ = make_separated_config(2, n_per=4, seed=0)
        _, data = make_separated_config(3, n_per=4, seed=0)
        with pytest.raises(ValueError, match=r"^state and data differ in Q: state.dim = 2, data.q = 3$"):
            integrator(state, data, 1.0)

    @pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
    def test_more_layers_than_clusters_rejected(self, integrator):
        # layer k's cluster and label are cluster k's: a third layer over two clusters has none
        data = TrainingSet([np.ones((2, 2)), 2.0 * np.ones((1, 2))])
        state = state_from_arrays([np.eye(2)] * 3, [np.zeros(2)] * 3, np.eye(2), np.zeros((2, 2)))
        with pytest.raises(IndexRange, match="^depth 3 exceeds the 2 clusters$"):
            integrator(state, data, 1.0)

    def test_step_underflow_names_the_crossing_it_was_localizing(self, monkeypatch):
        # a first step twice as long as the first crossing's time localizes it; a forced cost
        # rise halves the step below min_step, and the error names that crossing
        state, data = make_separated_config(3, n_per=20, seed=0)
        s_first = integrate_effective(state, data, 1.0).events[0].s
        opts = IntegratorOptions(step=2.0 * s_first, min_step=1.5 * s_first)
        first = integrate_effective(state, data, 1.0, opts).events[0]
        cost, calls = truncflow.integrate.images_cost, []

        def rising(*args):
            calls.append(1)
            return cost(*args) + len(calls)

        monkeypatch.setattr(truncflow.integrate, "images_cost", rising)
        with pytest.raises(StepUnderflow) as err:
            integrate_effective(state, data, 1.0, opts)
        assert str(err.value) == (
            f"step underflow at s = 0 while localizing the crossing at layer {first.layer}, cluster "
            f"{first.cluster}, point {first.point}, coordinate {first.coordinate} ({first.direction})")

    def test_step_underflow_carries_its_stop(self, monkeypatch):
        # the stop as attributes beside the message: `s`, and `event`, the crossing being
        # localized, or None when there is none (always, in the collapsed flow)
        with pytest.raises(StepUnderflow) as err:
            integrate_collapsed(CollapsedState(2 * np.eye(3), np.eye(3), np.eye(3)), 1.0,
                                IntegratorOptions(step=0.5, min_step=0.1, atol=0.0, rtol=0.0))
        assert (err.value.s, err.value.event) == (0.0, None)
        with pytest.raises(StepUnderflow) as err:
            integrate_effective(*make_one_dim_state([-3.0, -2.5], 1.0, 0.0), 4.0,
                                IntegratorOptions(step=3.0, min_step=2.0))
        assert (err.value.s, err.value.event) == (0.0, None)
        state, data = make_separated_config(3, n_per=20, seed=0)
        s_first = integrate_effective(state, data, 1.0).events[0].s
        opts = IntegratorOptions(step=2.0 * s_first, min_step=1.5 * s_first)
        first = integrate_effective(state, data, 1.0, opts).events[0]
        cost, rises = truncflow.integrate.images_cost, itertools.count(1)
        monkeypatch.setattr(truncflow.integrate, "images_cost", lambda *args: cost(*args) + next(rises))
        with pytest.raises(StepUnderflow) as err:
            integrate_effective(state, data, 1.0, opts)
        assert (err.value.s, err.value.event) == (0.0, first)
        assert str(err.value) == f"step underflow at s = 0 while localizing the crossing at {first.where()}"

    @pytest.mark.parametrize("field, value", [
        ("step", np.nan), ("step", np.inf), ("step", 0.0), ("step", -0.01),
        ("min_step", 0.0), ("min_step", 0.02), ("bisect_tol", 0.0), ("bisect_tol", -np.inf),
        ("cost_slack", -1e-8), ("atol", np.nan), ("rtol", -1e-7),
    ])
    def test_options_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            IntegratorOptions(**{field: value})

    def test_non_finite_horizon_rejected(self):
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        for s_end in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="s_end"):
                integrate_effective(state, data, s_end)
            with pytest.raises(ValueError, match="s_end"):
                integrate_collapsed(CollapsedState(np.eye(2), np.eye(2), np.eye(2)), s_end)

    def test_bisection_stops_at_float_spacing(self):
        # a tolerance below the spacing of floats near the crossing cannot be
        # met; the bisection ends when no float lies between its brackets
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        loose = integrate_effective(state, data, 3.0)
        tight = integrate_effective(state, data, 3.0, IntegratorOptions(bisect_tol=1e-300))
        assert [ev[1:] for ev in map(astuple, tight.events)] == [ev[1:] for ev in map(astuple, loose.events)]
        for a, b in zip(tight.events, loose.events):
            assert abs(a.s - b.s) <= 1e-9
        assert tight.times[-1] == pytest.approx(3.0)

    def test_general_flow_on_overlapping_clusters(self):
        # no separation, no closed form: cost decrease is the only claim
        from truncflow.scenarios import state_from_arrays

        rng = np.random.default_rng(23)
        q = 2
        state = state_from_arrays(
            [np.eye(q)] * q, [rng.normal(size=q) * 0.3 for _ in range(q)],
            np.eye(q), rng.normal(size=(q, q)),
        )
        clusters = [rng.normal(size=(4, q)), rng.normal(size=(4, q)) + 0.2]
        data = TrainingSet(clusters)
        traj = integrate_general(state, data, 0.5)
        assert traj is not None and len(traj.samples) > 5
        cs = traj.costs
        assert np.all(np.diff(cs) <= 1e-8 * (1.0 + cs[:-1]))

    def test_general_flow_with_short_stack(self):
        # fewer layers than clusters: every cluster still drives every layer
        from truncflow.scenarios import state_from_arrays

        rng = np.random.default_rng(31)
        q, depth = 3, 2
        state = state_from_arrays(
            [np.eye(q)] * depth, [rng.normal(size=q) * 0.2 for _ in range(depth)],
            np.eye(q), rng.normal(size=(q, q)),
        )
        data = TrainingSet([rng.normal(size=(3, q)) for _ in range(q)])
        traj = integrate_general(state, data, 0.2)
        assert traj is not None and traj.final_state.depth == depth
        cs = traj.costs
        assert np.all(np.diff(cs) <= 1e-8 * (1.0 + cs[:-1]))


class TestSliding:
    """An event whose coordinate the field of its new sector drives back across
    the hyperplane is sliding (Filippov's condition): the trajectory ends there."""

    @pytest.mark.parametrize("seed, case, s_lo, s_hi, where", [
        (0, 5, 0.25527, 0.25528, (0, 0, 0, 0)),          # general flow
        (1, 0, 0.3462485, 0.3462505, (2, 2, 0, 1)),      # effective flow
    ])
    def test_stops_at_the_first_sliding_event(self, seed, case, s_lo, s_hi, where):
        state, data, integrator, _ = _monotonicity_case(seed, case)
        traj = integrator(state, data, 1.0)
        s_stop = traj.times[-1]
        assert s_lo <= s_stop <= s_hi
        layer, cluster, point, coordinate = where
        assert (f"s = {s_stop:.6g}: layer {layer}, cluster {cluster}, point {point}, "
                f"coordinate {coordinate} ") in traj.stopped_reason
        assert any((ev.s, ev.layer, ev.cluster, ev.point, ev.coordinate) == (s_stop, *where)
                   for ev in traj.events)

    def test_transversal_trajectory_reaches_s_end(self):
        state, data, integrator, _ = _monotonicity_case(0, 3)
        traj = integrator(state, data, 1.0)
        assert traj.events and traj.stopped_reason is None
        assert traj.times[-1] == pytest.approx(1.0)

    def test_tight_bisection_still_stops(self):
        # the test does not depend on the bisection tolerance; in a subprocess
        # with a timeout, so a check that a tolerance switches off fails, not hangs
        code = (
            "from truncflow.integrate import IntegratorOptions\n"
            "from truncflow.verify import _monotonicity_case\n"
            "state, data, integrate, _ = _monotonicity_case(0, 5)\n"
            "traj = integrate(state, data, 1.0, IntegratorOptions(bisect_tol=1e-300))\n"
            "print(repr(float(traj.times[-1])))\n"
            "print(traj.stopped_reason)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(truncflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        s_stop, reason = done.stdout.splitlines()
        assert 0.25527 <= float(s_stop) <= 0.25528
        assert "layer 0, cluster 0, point 0, coordinate 0 " in reason

    def test_normal_speed_matches_central_difference(self):
        from truncflow.integrate import Event, _apply, _normal_speed

        rng = np.random.default_rng(41)
        h, checked = 1e-6, 0
        for _ in range(100):
            state, data = _random_state_and_data(int(rng.integers(2, 5)), 6, rng)
            field = general_rhs(state, data)
            cluster = int(rng.integers(data.q))
            pts = data.clusters[cluster]
            _, nus, _, z_dots = push(state.rotations, state.betas, pts, field=field)
            moved = [push(*_apply(state.rotations, state.betas, *field, step), pts) for step in (-h, h)]
            if not all(np.array_equal(a, b) for m in moved for a, b in zip(nus[:-1], m[1][:-1])):
                continue  # a point changes sector below the top layer inside the stencil
            fd = [(zp - zm) / (2 * h) for zm, zp in zip(moved[0][0], moved[1][0])]
            assert len(z_dots) == len(fd) == state.depth
            for z_dot, want in zip(z_dots, fd):
                assert np.all(np.abs(z_dot - want) <= 1e-7 * (1.0 + np.abs(want)))
            layer, point = int(rng.integers(state.depth)), int(rng.integers(len(pts)))
            coordinate = int(rng.integers(state.dim))
            ev = Event(0.0, layer, cluster, point, coordinate, "entering")
            want = fd[layer][point, coordinate]
            assert abs(_normal_speed(state, data, field, ev) - want) <= 1e-7 * (1.0 + abs(want))
            checked += 1
        assert checked >= 90


def _trajectory_bits(traj) -> tuple:
    """Everything a trajectory reports, as exactly comparable values."""
    samples = [(smp.s, smp.state.rotations.tobytes(), smp.state.betas.tobytes(), smp.cost,
                smp.omega_norms.tobytes(), smp.beta_gaps.tobytes(), smp.truncated_counts.tobytes())
               for smp in traj.samples]
    return samples, [astuple(ev) for ev in traj.events], traj.stopped_reason


# (q, points per cluster, seed) of make_separated_config, and (seed, case) of the
# monotonicity suite's integrate_general cases: the benchmark's base configurations
EFFECTIVE_BASES = ((2, 20, 0), (2, 20, 1), (2, 40, 0), (2, 40, 1),
                   (3, 20, 0), (3, 20, 1), (3, 20, 2), (4, 10, 0))
GENERAL_BASES = ((0, 3), (0, 11), (1, 1), (1, 3))


def _base_run(base):
    if len(base) == 3:
        q, n_per, seed = base
        return integrate_effective, make_separated_config(q, n_per=n_per, seed=seed)
    state, data, integrator, _ = _monotonicity_case(*base)
    return integrator, (state, data)


# (rk4_steps, prediction_misses) of each base's trajectory to s = 1 with the shipped prediction;
# a prediction that misses more often, or climbs further on a miss, shows here
BASE_WORK = {
    (2, 20, 0): (134, 0), (2, 20, 1): (117, 0), (2, 40, 0): (128, 0), (2, 40, 1): (137, 0),
    (3, 20, 0): (134, 0), (3, 20, 1): (185, 0), (3, 20, 2): (160, 1), (4, 10, 0): (144, 1),
    (0, 3): (108, 0), (0, 11): (111, 0), (1, 1): (105, 0), (1, 3): (126, 3),
}

_PREDICT = truncflow.integrate._predict_crossing


def _half_the_prediction(*args):
    predicted, h = _PREDICT(*args), args[-1]
    return None if predicted is None else lambda dt: predicted(min(2.0 * dt, h))


WRONG_PREDICTIONS = {
    "none": lambda *args: None,  # nothing predicted: plain bisection
    "early": _half_the_prediction,
    "step end": lambda *args: lambda dt: dt >= args[-1],
}


class TestCrossingPrediction:
    """A localization predicts whether a step changes the masks, replays bisection's walk on that
    prediction and confirms the leaf with two probes; whatever the prediction, the step kept is
    the one bisection keeps."""

    @pytest.mark.parametrize("base", EFFECTIVE_BASES + GENERAL_BASES, ids=lambda base: "-".join(map(str, base)))
    def test_any_prediction_keeps_the_trajectory(self, monkeypatch, base):
        integrator, (state, data) = _base_run(base)
        want = integrator(state, data, 1.0)
        assert want.stats.localizations > 0
        rk4_steps, misses = BASE_WORK[base]
        assert want.stats.rk4_steps <= rk4_steps and want.stats.prediction_misses <= misses
        for how, predict in WRONG_PREDICTIONS.items():
            monkeypatch.setattr(truncflow.integrate, "_predict_crossing", predict)
            got = integrator(state, data, 1.0)
            assert _trajectory_bits(got) == _trajectory_bits(want), how
            assert got.stats.localizations == want.stats.localizations, how
            assert got.stats.prediction_misses > want.stats.prediction_misses, how
            assert got.stats.rk4_steps > want.stats.rk4_steps, how

    def test_prediction_is_bisections_question(self):
        # a step that flips no pushed coordinate predicts nothing; one that does predicts the
        # masks unchanged at its start and changed at its end
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        masks = FrozenMasks(_sweep(state, data)[0], data)
        k1 = effective_rhs(state, data, masks)
        field = lambda rotations, betas: effective_rhs(state.derive(rotations, betas), data, masks)  # noqa: E731
        for h, crosses in ((0.1, False), (1.0, True)):
            trial = state.derive(*truncflow.integrate._rk4_step(field, state.rotations, state.betas, k1, h)[0])
            assert _masks_equal(masks, _sweep(trial, data)[0]) != crosses
            predicted = _PREDICT(state, k1, trial, data, effective_rhs, masks, h)
            if not crosses:
                assert predicted is None
            else:
                assert not predicted(0.0) and predicted(h)

    @pytest.mark.parametrize("make", [
        lambda: (integrate_effective, make_one_dim_state([1.0, 2.0], 5.0, 1.0), 3.0),
        lambda: (_monotonicity_case(0, 5)[2], _monotonicity_case(0, 5)[:2], 1.0),
    ], ids=["oned ladder", "sliding"])
    def test_replay_stops_at_float_spacing(self, monkeypatch, make):
        # below the spacing of floats near the crossing the replayed walk ends
        # where bisection's does, and the confirmed leaf is bisection's leaf
        integrator, (state, data), s_end = make()
        opts = IntegratorOptions(bisect_tol=1e-300)
        predicted = integrator(state, data, s_end, opts)
        monkeypatch.setattr(truncflow.integrate, "_predict_crossing", WRONG_PREDICTIONS["none"])
        bisected = integrator(state, data, s_end, opts)
        assert _trajectory_bits(predicted) == _trajectory_bits(bisected)
        assert predicted.events and predicted.stats.rk4_steps < bisected.stats.rk4_steps

    def test_at_most_two_rk4_steps_per_accepted_step(self, monkeypatch):
        calls = {"rk4": 0}
        rk4 = truncflow.integrate._rk4_step

        def counting_rk4(*args):
            calls["rk4"] += 1
            return rk4(*args)

        monkeypatch.setattr(truncflow.integrate, "_rk4_step", counting_rk4)
        traj = integrate_effective(*make_separated_config(3, n_per=20, seed=1), 1.0)
        assert len(traj.events) >= 30
        assert calls["rk4"] == traj.stats.rk4_steps <= 2 * (len(traj.samples) - 1)


def checked_predictions(monkeypatch) -> dict:
    """Patch `_predict_crossing` so that every `changed(dt)` it returns is checked, at each dt
    asked, against numpy evaluating the same crossing cubics over arrays, as the predicate did
    before it held them as floats; the returned log counts the localizations, the midpoints
    checked, and the most crossing coordinates in one localization."""
    log = {"localizations": 0, "midpoints": 0, "most_crossings": 0}

    def checking(state, k1, trial, data, rhs, masks, h):
        fields = []

        def recording(*args):
            fields.append(rhs(*args))
            return fields[-1]

        got = _PREDICT(state, k1, trial, data, recording, masks, h)
        log["localizations"] += 1
        ends = []
        for st, velocities in ((state, k1), (trial, fields[0])):
            zs, _, _, z_dots = push(st.rotations, st.betas, data.points, masks, velocities)
            ends.append((np.concatenate(zs, axis=None), np.concatenate(z_dots, axis=None)))
        (z0, d0), (z1, d1) = ends
        side = z0 > 0.0
        crosses = (z1 > 0.0) != side
        if not crosses.any():
            assert got is None
            return None
        log["most_crossings"] = max(log["most_crossings"], int(crosses.sum()))
        z0, z1, c, d1, side = (x[crosses] for x in (z0, z1, h * d0, h * d1, side))
        a = 2.0 * (z0 - z1) + c + d1
        b = 3.0 * (z1 - z0) - 2.0 * c - d1

        def changed(dt):
            u = dt / h
            want = bool(np.any(((((a * u + b) * u + c) * u + z0) > 0.0) != side))
            assert got(dt) is want, (dt, h)
            log["midpoints"] += 1
            return want

        return changed

    monkeypatch.setattr(truncflow.integrate, "_predict_crossing", checking)
    return log


class TestFloatPredicate:
    """The crossing predicate evaluates its cubics on Python floats, by the same Horner steps as
    numpy over arrays, and gives numpy's answer at every midpoint bisection's walk visits."""

    def test_agrees_with_numpy_on_the_benchmark_trajectories(self, monkeypatch, tmp_path):
        log = checked_predictions(monkeypatch)
        localizations = 0
        for workload in ("effective_events", "general_sliding"):
            for case in perfbench_cases(workload, 0, tmp_path):
                traj = case.call()
                if hasattr(traj, "stats"):  # a run ended by a typed error returns no trajectory
                    localizations += traj.stats.localizations
        assert log["localizations"] >= localizations > 100
        assert log["midpoints"] > 20 * log["localizations"]

    def test_agrees_with_numpy_on_many_crossing_coordinates(self, monkeypatch):
        # a general flow at a long nominal step: one trial step flips a hundred pushed coordinates
        log = checked_predictions(monkeypatch)
        state, data = _random_state_and_data(3, 20, np.random.default_rng(1))
        traj = integrate_general(state, data, 2.0, IntegratorOptions(step=1.0))
        assert len(traj.events) > 40 and traj.stopped_reason is None
        assert log["localizations"] == traj.stats.localizations
        assert log["most_crossings"] >= 100 and log["midpoints"] > 20 * log["localizations"]


class TestSeparationLoss:
    """The cluster-separated flow reads only the (k, k) pairs; losing separation ends it."""

    def test_first_truncation_in_an_ignored_pair_stops_the_run(self):
        # layer 1 starts truncating cluster 2, where the effective field is no longer a
        # descent direction; in a subprocess with a timeout, so a run that stalls fails
        code = (
            "from truncflow.integrate import integrate_effective\n"
            "from truncflow.scenarios import make_separated_config\n"
            "traj = integrate_effective(*make_separated_config(4, n_per=10, seed=1), 1.0)\n"
            "print(repr(float(traj.times[-1])))\n"
            "print(traj.stopped_reason)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(truncflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        s_stop, reason = done.stdout.splitlines()
        assert 0.640843 <= float(s_stop) <= 0.640844
        assert "layer 1, cluster 2, point 0, coordinate 2" in reason

    def test_non_separated_start_stops_where_its_field_ascends_the_full_cost(self):
        # random rotations on Q=4 data: the effective field soon stops descending the full cost;
        # in a subprocess with a timeout, so a run that crawls fails instead of hanging.  This
        # start once crawled for over 15 s near s = 3.27e-3, re-localizing one crossing after
        # each cost halving; the ascent guard ends it within a few dozen RK4 steps
        code = (
            "from truncflow.integrate import integrate_effective\n"
            "from truncflow.scenarios import make_separated_config, named_initial_state\n"
            "state, data = make_separated_config(4, n_per=5, seed=0)\n"
            "start = named_initial_state('random-orthogonal', data, state.labels, seed=0)\n"
            "traj = integrate_effective(start, data, 0.2)\n"
            "print(repr(float(traj.times[-1])))\n"
            "print(traj.stopped_reason)\n"
            "print(traj.stats.rk4_steps)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(truncflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        s_stop, reason, rk4_steps = done.stdout.splitlines()
        assert int(rk4_steps) < 200
        assert 0.0028913 <= float(s_stop) <= 0.0028914
        assert reason.startswith(f"separation lost at s = {float(s_stop):.6g}: ")
        assert "ascends the full cost at rate" in reason and float(reason.split()[-1]) > 0.0

    def test_separated_start_never_pairs_with_the_full_field(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the full descent field was evaluated from a separated start")

        monkeypatch.setattr(truncflow.integrate, "_full_cost_rate", forbidden)
        traj = integrate_effective(*make_separated_config(3, n_per=5, seed=0), 0.2)
        assert traj.stopped_reason is None and traj.events

    def test_full_field_evaluations_are_counted(self, monkeypatch):
        # from a start that is not separated, each accepted state's guard evaluates the full
        # descent field too, and rhs_calls counts it with the effective field's evaluations
        calls = {"effective_rhs": 0, "general_rhs": 0}
        for name in calls:
            def counting(*args, fn=getattr(truncflow.integrate, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(truncflow.integrate, name, counting)
        state, data = make_separated_config(3, n_per=5, seed=0)
        start = named_initial_state("random-orthogonal", data, state.labels, seed=1)
        traj = integrate_effective(start, data, 0.2)
        assert calls["general_rhs"] > 0
        assert traj.stats.rhs_calls == calls["effective_rhs"] + calls["general_rhs"]

    @staticmethod
    def separation_warnings(caplog) -> list:
        return [rec for rec in caplog.records if "cluster separation violated" in rec.getMessage()]

    def test_non_separated_start_warns_once_and_stops_only_on_entering(self, caplog):
        # random rotations on separated data violate separation from the start; a crossing out of
        # truncation in an ignored pair is recorded and the run goes on, the first one into it stops it
        state, data = make_separated_config(3, n_per=5, seed=0)
        outcomes = []
        for seed in range(3):
            start = named_initial_state("random-orthogonal", data, state.labels, seed=seed)
            caplog.clear()
            with caplog.at_level("WARNING", logger="truncflow.integrate"):
                traj = integrate_effective(start, data, 0.2)
            assert len(self.separation_warnings(caplog)) == 1
            ignored = [ev.direction for ev in traj.events if ev.layer != ev.cluster]
            if traj.stopped_reason is None:
                assert traj.times[-1] == pytest.approx(0.2)
            else:
                assert traj.stopped_reason.startswith("separation lost") and "(entering)" in traj.stopped_reason
                assert traj.events[-1].layer != traj.events[-1].cluster and ignored.pop() == "entering"
            assert set(ignored) <= {"leaving"}
            outcomes.append((traj.stopped_reason is None, len(ignored)))
        # seed 0 reaches s_end; seed 1 runs on past four crossings out of truncation, then stops
        assert outcomes == [(True, 0), (False, 4), (False, 0)]

    def test_separated_start_does_not_warn(self, caplog):
        with caplog.at_level("WARNING", logger="truncflow.integrate"):
            integrate_effective(*make_separated_config(3, n_per=5, seed=0), 0.2)
        assert not self.separation_warnings(caplog)

    def test_every_start_is_pushed_once(self, caplog, monkeypatch):
        # the start's mask set lists its violations: an effective run pushes its start once, unfrozen,
        # separated or not, and the warning counts what check_cluster_separation lists
        pushes, push_ = [], truncflow.model.push
        for module in (truncflow.integrate, truncflow.flows, truncflow.measures):
            monkeypatch.setattr(module, "push", lambda rotations, betas, pts, masks=None, field=None:
                                pushes.append((rotations, masks)) or push_(rotations, betas, pts, masks, field))
        state, data = make_separated_config(3, n_per=5, seed=0)
        mixed = named_initial_state("random-orthogonal", data, state.labels, seed=1)
        for start, warned in [(state, False), (mixed, True)]:
            pushes.clear()
            caplog.clear()
            with caplog.at_level("WARNING", logger="truncflow.integrate"):
                integrate_effective(start, data, 0.05)
            assert sum(rotations is start.rotations and masks is None for rotations, masks in pushes) == 1
            counts = [rec.args[0] for rec in self.separation_warnings(caplog)]
            assert counts == ([len(check_cluster_separation(start, data)[1])] if warned else [])


class TestSectorMasks:
    @staticmethod
    def per_pair_chains(state, data) -> list:
        """Reference: cluster l pushed from layer 0 through its own chain up to each layer k, [l][k]."""
        out = []
        for pts in data.clusters:
            row = []
            for layer in range(state.depth):
                images = chained_truncation(state, pts, 0, layer)
                row.append((images + state.betas[layer]) @ state.rotations[layer].T > 0.0)
            out.append(row)
        return out

    def test_one_sweep_matches_per_pair_chains(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            state, data = _random_state_and_data(int(rng.integers(1, 5)), 6, rng)
            (got, images), want = _sweep(state, data), self.per_pair_chains(state, data)
            # got[k] is layer k over all points; cluster l's rows of it are want[l][k]
            assert len(got) == state.depth and len(want) == data.q
            assert all(g.shape == data.points.shape for g in got)
            assert all(np.array_equal(got[k][data.rows(l)], w) for l, wl in enumerate(want) for k, w in enumerate(wl))
            assert images_cost(state, data, images) == euclidean_cost(state, data)

    @pytest.mark.parametrize("q, n_per, seed", [(2, 20, 0), (3, 20, 1), (4, 10, 0)])
    def test_frozen_separated_field_is_the_field_at_every_sample(self, q, n_per, seed):
        # the integrator freezes effective_rhs at push's chained masks, while the unfrozen field
        # reads each cluster's raw z at its own layer; on the field's domain, separated states,
        # the two are bit for bit one field at every accepted sample
        state, data = make_separated_config(q, n_per=n_per, seed=seed)
        traj = integrate_effective(state, data, 1.0)
        assert traj.stopped_reason is None and traj.events and len(traj.samples) > 100
        for smp in traj.samples:
            frozen, free = effective_rhs(smp.state, data, _sweep(smp.state, data)[0]), effective_rhs(smp.state, data)
            assert all(np.array_equal(a, b) for a, b in zip(frozen, free)), smp.s

    def test_events_are_listed_layer_major(self):
        # events.csv lists crossings by layer, then cluster, point and coordinate; rows 0-1
        # of each layer's mask are cluster 0's two points, row 2 is cluster 1's one point
        data = TrainingSet([np.zeros((2, 2)), np.zeros((1, 2))])
        before = [np.array([[True, True], [True, True], [True, False]]),
                  np.array([[True, False], [True, True], [True, True]])]
        after = [np.array([[True, True], [False, True], [True, True]]),
                 np.array([[True, True], [False, True], [False, True]])]
        got = [(ev.layer, ev.cluster, ev.point, ev.coordinate, ev.direction)
               for ev in _diff_events(0.5, data, before, after)]
        assert got == [(0, 0, 1, 0, "entering"), (0, 1, 0, 1, "leaving"),
                       (1, 0, 0, 1, "leaving"), (1, 0, 1, 0, "entering"), (1, 1, 0, 0, "entering")]


class TestBoundaryValidation:
    """RK stages and localization probes build no validated objects; each
    accepted sample checks its rotations once, and no generator is wrapped."""

    @staticmethod
    def count_inits(monkeypatch, cls) -> dict:
        counter = {"n": 0}
        init = cls.__init__

        def counting(self, *args, **kwargs):
            counter["n"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
        return counter

    @pytest.mark.parametrize("integrator, q, n_per, seed", [
        (integrate_effective, 3, 20, 0),
        (integrate_general, 2, 4, 10),
    ])
    def test_constructions_bounded_by_samples(self, monkeypatch, integrator, q, n_per, seed):
        state, data = make_separated_config(q, n_per=n_per, seed=seed)
        states = self.count_inits(monkeypatch, ModelState)
        rotations = self.count_inits(monkeypatch, OrthogonalMatrix)
        generators = self.count_inits(monkeypatch, AntisymmetricMatrix)
        traj = integrator(state, data, 1.0)
        assert traj.events  # the localization ran
        # accepted samples check their rotations without building objects;
        # only a re-projection (each 100th retraction of a layer) builds one
        assert states["n"] == 0
        assert rotations["n"] <= state.depth * (len(traj.samples) // REPOLAR_EVERY + 1)
        assert generators["n"] == 0

    @pytest.mark.parametrize("integrator, rhs_name, q, n_per, seed", [
        (integrate_effective, "effective_rhs", 3, 20, 0),
        (integrate_general, "general_rhs", 2, 4, 10),
    ])
    def test_one_field_evaluation_per_accepted_state(self, monkeypatch, integrator, rhs_name,
                                                     q, n_per, seed):
        # each accepted state's field is the first stage of every step tried
        # from it (trial, cost-halving retries, localization probes) and its
        # diagnostics; each localization's prediction adds the field at the trial end
        calls = {"rhs": 0, "rk4": 0}
        rhs, rk4 = getattr(truncflow.integrate, rhs_name), truncflow.integrate._rk4_step

        def counting_rhs(*args):
            calls["rhs"] += 1
            return rhs(*args)

        def counting_rk4(*args):
            calls["rk4"] += 1
            return rk4(*args)

        monkeypatch.setattr(truncflow.integrate, rhs_name, counting_rhs)
        monkeypatch.setattr(truncflow.integrate, "_rk4_step", counting_rk4)
        state, data = make_separated_config(q, n_per=n_per, seed=seed)
        traj = integrator(state, data, 1.0)
        assert traj.events
        assert traj.stats.rk4_steps == calls["rk4"] and traj.stats.rhs_calls == calls["rhs"]
        assert calls["rhs"] == len(traj.samples) + 3 * calls["rk4"] + traj.stats.localizations

    @pytest.mark.parametrize("inflate_every", [0, 7])
    @pytest.mark.parametrize("integrator, q, n_per, seed", [
        (integrate_effective, 3, 20, 0),
        (integrate_general, 2, 4, 10),
    ])
    def test_rk4_steps_are_accepted_retried_or_probes(self, monkeypatch, integrator, q, n_per, seed,
                                                      inflate_every):
        # every RK4 step is accepted, retried at half the step for raising the cost, or a
        # localization's probe; with `inflate_every`, every that-many-th cost evaluation reads
        # 1 too high, so that the step it judges is retried
        calls = {"cost": 0, "inflated": 0}
        cost = truncflow.integrate.images_cost

        def inflating(*args):
            calls["cost"] += 1
            if inflate_every and calls["cost"] % inflate_every == 0:
                calls["inflated"] += 1
                return cost(*args) + 1.0
            return cost(*args)

        monkeypatch.setattr(truncflow.integrate, "images_cost", inflating)
        state, data = make_separated_config(q, n_per=n_per, seed=seed)
        traj = integrator(state, data, 1.0)
        stats = traj.stats
        assert stats.probes > 0 and stats.cost_retries == calls["inflated"]
        assert stats.rk4_steps == len(traj.samples) - 1 + stats.cost_retries + stats.probes

    @pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
    def test_reprojections_counted(self, monkeypatch, integrator):
        # every polar re-projection the integrator makes is counted, one per rotation
        calls = {"polar": 0}
        polar = truncflow.integrate.polar_decompose

        def counting_polar(*args):
            calls["polar"] += 1
            return polar(*args)

        monkeypatch.setattr(truncflow.integrate, "polar_decompose", counting_polar)
        state, data = make_separated_config(3, n_per=20, seed=0)
        traj = integrator(state, data, 1.0)
        assert len(traj.samples) - 1 >= REPOLAR_EVERY
        assert calls["polar"] >= state.depth
        assert traj.stats.reprojections == calls["polar"]

    @pytest.mark.parametrize("integrator, rhs, q, n_per, seed", [
        (integrate_effective, effective_rhs, 3, 20, 0),
        (integrate_general, general_rhs, 2, 4, 10),
    ])
    def test_diagnostics_report_the_true_field(self, integrator, rhs, q, n_per, seed):
        # the field evaluated at a sample's own masks is the unfrozen field there
        state, data = make_separated_config(q, n_per=n_per, seed=seed)
        traj = integrator(state, data, 1.0)
        for smp in traj.samples:
            omegas = rhs(smp.state, data)[1]
            for k in range(smp.state.depth):
                assert smp.omega_norms[k] == float(np.linalg.norm(omegas[k]))

    def test_one_collapsed_state_per_sample(self, monkeypatch):
        # RK stages step plain arrays; only the accepted samples are validated states
        cs = CollapsedState(RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)))
        states = self.count_inits(monkeypatch, CollapsedState)
        traj = integrate_collapsed(cs, 5.0)
        assert states["n"] == len(traj.samples)

    def test_rotation_off_the_group_rejected_at_entry(self):
        state, data = make_separated_config(2, n_per=4, seed=0)
        drifted = state.derive(state.rotations * (1.0 + 1e-6), state.betas)
        with pytest.raises(ValueError, match="not orthogonal"):
            integrate_effective(drifted, data, 0.1)


def unseparated_start():
    """A start that is not separated: each accepted state's guard also evaluates the full field,
    at the same masks."""
    state, data = make_separated_config(3, n_per=5, seed=0)
    return named_initial_state("random-orthogonal", data, state.labels, seed=1), data


class TestMaskPlans:
    """A mask set is planned once: the integrators wrap push's list once per mask change, and
    every field evaluation until the next change reuses its plans."""

    CASES = {
        "effective": (integrate_effective, lambda: make_separated_config(3, n_per=20, seed=0), 1.0),
        "general": (integrate_general, lambda: make_separated_config(2, n_per=4, seed=10), 1.0),
        "guarded": (integrate_effective, unseparated_start, 0.2),
        "unseparated": (integrate_general, unseparated_start, 0.2),
    }

    @staticmethod
    def count_plans(monkeypatch) -> dict:
        builds = {"_effective_plan": 0, "_general_plan": 0}
        for name in builds:
            def counting(*args, fn=getattr(truncflow.flows, name), name=name):
                builds[name] += 1
                return fn(*args)
            monkeypatch.setattr(truncflow.flows, name, counting)
        return builds

    @pytest.mark.parametrize("case, field, guard", [
        ("effective", "_effective_plan", None),
        ("general", "_effective_plan", None),  # separated mask sets: the general field sweeps their stacked entry
        ("unseparated", "_general_plan", None),
        ("guarded", "_effective_plan", "_general_plan"),
    ])
    def test_one_plan_per_mask_set(self, monkeypatch, case, field, guard):
        integrator, make, s_end = self.CASES[case]
        state, data = make()
        builds = self.count_plans(monkeypatch)
        traj = integrator(state, data, s_end)
        changes = len({ev.s for ev in traj.events})  # one accepted step per distinct event time
        assert changes > 0
        # every mask set, the start's included, is evaluated at once (its first stage)
        assert builds[field] == 1 + changes
        if guard is None:
            assert sum(builds.values()) == builds[field]
        else:
            assert 0 < builds[guard] <= 1 + changes
        assert traj.stats.rhs_calls > 2 * sum(builds.values())

    def test_stacking_decided_once_per_mask_set(self, monkeypatch, tmp_path):
        # whether the separated field's layers stack is asked once per mask set, with its plan:
        # over the benchmark's effective_events trajectories at seed 0, 140 mask sets for 4,445
        # field evaluations
        calls = {"_stacks": 0, "_effective_plan": 0}
        for name in calls:
            def counting(*args, fn=getattr(truncflow.flows, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(truncflow.flows, name, counting)
        rhs_calls = sum(case.call().stats.rhs_calls for case in perfbench_cases("effective_events", 0, tmp_path))
        assert calls == {"_stacks": 140, "_effective_plan": 140}
        assert rhs_calls == 4445

    @pytest.mark.parametrize("case", list(CASES))
    def test_planned_run_is_the_per_call_run(self, monkeypatch, case):
        # with each evaluation wrapping its masks anew, every evaluation plans them: the same
        # trajectory bit for bit, with the same work counted
        integrator, make, s_end = self.CASES[case]
        state, data = make()
        planned = integrator(state, data, s_end)
        monkeypatch.setattr(truncflow.flows, "_planned",
                            lambda masks, data, depth: truncflow.flows.FrozenMasks(masks[:depth], data))
        per_call = integrator(state, data, s_end)
        assert astuple(planned.stats) == astuple(per_call.stats)
        assert planned.events == per_call.events and planned.stopped_reason == per_call.stopped_reason
        assert len(planned.samples) == len(per_call.samples)
        for a, b in zip(planned.samples, per_call.samples):
            assert (a.s, a.cost) == (b.s, b.cost)
            assert a.state.rotations.tobytes() == b.state.rotations.tobytes()
            assert a.state.betas.tobytes() == b.state.betas.tobytes()
            assert a.omega_norms.tobytes() == b.omega_norms.tobytes()
            assert a.beta_gaps.tobytes() == b.beta_gaps.tobytes()
            assert np.array_equal(a.truncated_counts, b.truncated_counts)

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_are_the_sample_states_own(self, case):
        # the counts a mask set carries are each sample's: cluster k's truncated points per
        # coordinate at layer k, pushed at that sample's state
        integrator, make, s_end = self.CASES[case]
        state, data = make()
        traj = integrator(state, data, s_end)
        assert traj.events
        for smp in traj.samples:
            nus = push(smp.state.rotations, smp.state.betas, data.points)[1]
            for k in range(smp.state.depth):
                assert np.array_equal(smp.truncated_counts[k], np.sum(~nus[k][data.rows(k)], axis=0)), (smp.s, k)

    def test_each_sample_owns_its_counts(self, monkeypatch):
        # the counts are taken once per mask set, but every sample gets its own writable arrays,
        # (L,), (L,) and (L, Q), sharing no memory with another sample or with a mask set
        mask_sets = []

        def recording(masks, data):
            mask_sets.append(FrozenMasks(masks, data))
            return mask_sets[-1]

        monkeypatch.setattr(truncflow.integrate, "FrozenMasks", recording)
        integrator, make, s_end = self.CASES["effective"]
        state, data = make()
        traj = integrator(state, data, s_end)
        assert len(traj.samples) > len(traj.events) + 1
        assert len(mask_sets) == len({ev.s for ev in traj.events}) + 1
        shapes = [(state.depth,), (state.depth,), (state.depth, state.dim)]
        mask_counts = [c for masks in mask_sets for c in masks.counts]
        for a, b in zip(traj.samples, traj.samples[1:]):
            arrays = (a.omega_norms, a.beta_gaps, a.truncated_counts)
            assert [x.shape for x in arrays] == shapes
            for x, y in zip(arrays, (b.omega_norms, b.beta_gaps, b.truncated_counts)):
                assert x.flags.writeable
                assert not np.shares_memory(x, y)
            assert not any(np.shares_memory(a.truncated_counts, c) for c in mask_counts)


class TestCollapsedIntegration:
    def test_conservation_and_monotone_cost(self):
        for i in range(3):
            rng = np.random.default_rng(100 + i)
            cs = CollapsedState(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
            traj = integrate_collapsed(cs, 5.0)
            scale = 1.0 + np.linalg.norm(traj.invariant0)
            assert traj.max_drift <= 1e-6 * scale
            cs_arr = traj.costs
            assert np.all(np.diff(cs_arr) <= 1e-8 * (1.0 + cs_arr[:-1]))

    def test_first_stage_evaluated_once_per_state(self, monkeypatch):
        # the full step and the first half step start from the same field, and a trial retried
        # at half the step starts there again: 11 evaluations for a state's first trial (the
        # shared first stage, 3 + 3 more stages and the second half step's 4), 10 per retry
        calls = {"rhs": 0, "rk4": 0}
        rhs, rk4 = truncflow.integrate.collapsed_rhs, truncflow.integrate._collapsed_rk4

        def counting_rhs(*args):
            calls["rhs"] += 1
            return rhs(*args)

        def counting_rk4(*args):
            calls["rk4"] += 1
            return rk4(*args)

        monkeypatch.setattr(truncflow.integrate, "collapsed_rhs", counting_rhs)
        monkeypatch.setattr(truncflow.integrate, "_collapsed_rk4", counting_rk4)
        rng = np.random.default_rng(2)  # a run with a retried trial
        cs = CollapsedState(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        traj = integrate_collapsed(cs, 5.0)
        trials, accepted = calls["rk4"] // 3, len(traj.samples) - 1
        assert calls["rk4"] == 3 * trials and trials > accepted  # some trial was retried
        assert calls["rhs"] == 11 * accepted + 10 * (trials - accepted)

    def test_stationary_point(self):
        q = 3
        w = np.eye(q) + 0.1 * RNG.normal(size=(q, q))
        b = RNG.normal(size=(q, q))
        cs = CollapsedState(b, w, -(w @ b))
        traj = integrate_collapsed(cs, 2.0)
        final = traj.final_state
        assert np.max(np.abs(final.b_matrix - b)) == 0.0
        assert np.max(np.abs(final.w_out - w)) == 0.0

    def test_invariant_matches_hand_value(self):
        cs = CollapsedState(2 * np.eye(3), np.eye(3), np.eye(3))
        np.testing.assert_allclose(conserved_quantity(cs), 3 * np.eye(3), atol=0)
        traj = integrate_collapsed(cs, 3.0)
        assert traj.max_drift <= 1e-6 * (1 + 3 * np.sqrt(3))


class TestExports:
    def test_trajectory_csv_layout(self, tmp_path):
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        traj = integrate_effective(state, data, 1.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,cost,layer0_beta_gap,layer0_omega_norm,layer0_n0"
        assert len(lines) == len(traj.samples) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # 17-significant-digit round trip
        assert float(first[1]) == traj.samples[0].cost

    def test_events_csv(self, tmp_path):
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        traj = integrate_effective(state, data, 1.0)
        path = tmp_path / "events.csv"
        write_events_csv(traj.events, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,layer,cluster,point,coordinate,direction"
        assert len(lines) == 2
        assert lines[1].endswith(",0,0,1,0,entering")

    def test_determinism(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            state, data = make_separated_config(2, n_per=3, seed=5)
            traj = integrate_effective(state, data, 0.5)
            p = tmp_path / f"{tag}.csv"
            write_trajectory_csv(traj, p)
            out.append(p.read_bytes())
        assert out[0] == out[1]

    def test_collapsed_csv(self, tmp_path):
        cs = CollapsedState(2 * np.eye(2), np.eye(2), np.eye(2))
        traj = integrate_collapsed(cs, 1.0)
        path = tmp_path / "collapsed.csv"
        write_collapsed_csv(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,cost,invariant_drift"
        assert len(lines) == len(traj.samples) + 1


class TestAnalysis:
    def test_phase_fit_matches_rates(self):
        state, data = make_one_dim_state([1.0, 2.0], 5.0, 1.0)
        traj = integrate_effective(state, data, 3.0)
        phases = fit_phase_exponents(traj)
        assert len(phases) == 2
        assert phases[0]["log_gap_slopes"][0] == pytest.approx(-0.5, rel=0.01)
        assert phases[1]["log_gap_slopes"][0] == pytest.approx(-1.0, rel=0.01)

    def test_freeze_time_none_when_active(self):
        state, data = make_separated_config(2, n_per=4, seed=14)
        traj = integrate_effective(state, data, 0.2)
        # rotations still moving at the end of this short run
        if np.any(traj.samples[-1].omega_norms > 1e-10):
            assert freeze_time(traj) is None

    def test_freeze_time_zero_at_equilibrium(self):
        data, labels = make_equilibrium_data(2, "all-positive", seed=6)
        state = named_initial_state("all-positive", data, labels)
        traj = integrate_effective(state, data, 1.0)
        assert freeze_time(traj) == 0.0
