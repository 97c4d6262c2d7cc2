import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from truncflow.errors import StepUnderflow
from truncflow.flows import CollapsedState, conserved_quantity
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
import truncflow.integrate
from truncflow.flows import effective_rhs, general_rhs
from truncflow.manifold import REPOLAR_EVERY, AntisymmetricMatrix, OrthogonalMatrix
from truncflow.measures import TrainingSet
from truncflow.model import ModelState, chained_truncation, euclidean_cost, images_cost, push
from truncflow.scenarios import make_separated_config, named_initial_state, make_equilibrium_data
from truncflow.scenarios import make_one_dim_state
from truncflow.verify import _monotonicity_case, _random_state_and_data

RNG = np.random.default_rng(7)


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
        g0 = traj.samples[0].per_layer[0].beta_gap
        for target in (0.5, 1.0, 2.0):
            idx = int(np.argmin(np.abs(traj.times - target)))
            s, g = traj.times[idx], traj.samples[idx].per_layer[0].beta_gap
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
            moved = [push(st.rotations, st.betas, pts) for st in (_apply(state, *field, step) for step in (-h, h))]
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
                [(d.omega_norm, d.beta_gap, d.truncated_counts.tobytes()) for d in smp.per_layer])
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
        masks = _sweep(state, data)[0]
        k1 = effective_rhs(state, data, masks)
        for h, crosses in ((0.1, False), (1.0, True)):
            trial = truncflow.integrate._rk4_step(state, k1, data, effective_rhs, masks, h)[0]
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
        # in a subprocess with a timeout, so a run that crawls fails instead of hanging
        code = (
            "from truncflow.integrate import integrate_effective\n"
            "from truncflow.scenarios import make_separated_config, named_initial_state\n"
            "state, data = make_separated_config(4, n_per=5, seed=0)\n"
            "start = named_initial_state('random-orthogonal', data, state.labels, seed=0)\n"
            "traj = integrate_effective(start, data, 0.2)\n"
            "print(repr(float(traj.times[-1])))\n"
            "print(traj.stopped_reason)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(truncflow.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        s_stop, reason = done.stdout.splitlines()
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
            for k, diag in enumerate(smp.per_layer):
                assert diag.omega_norm == float(np.linalg.norm(omegas[k]))

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
        if any(d.omega_norm > 1e-10 for d in traj.samples[-1].per_layer):
            assert freeze_time(traj) is None

    def test_freeze_time_zero_at_equilibrium(self):
        data, labels = make_equilibrium_data(2, "all-positive", seed=6)
        state = named_initial_state("all-positive", data, labels)
        traj = integrate_effective(state, data, 1.0)
        assert freeze_time(traj) == 0.0
