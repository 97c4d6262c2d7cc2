"""Ensembles: every member of an `integrate_ensemble` call is bit for bit its one-member run.

A group steps its members of one shape together, each RK4 stage one stacked field evaluation and
one stacked retraction; localization, retries, events, samples, stops and stats stay each
member's own.  Each test compares every member's trajectory with the member integrated alone:
every sample's s, cost, state and per-layer arrays, the events, `stopped_reason` and `stats`.
"""

from dataclasses import astuple

import numpy as np
import pytest

import truncflow.integrate
import truncflow.manifold
from truncflow.flows import CollapsedState
from truncflow.integrate import (
    MAX_GROUP,
    IntegratorOptions,
    ensemble_groups,
    integrate_collapsed,
    integrate_effective,
    integrate_ensemble,
    integrate_general,
)
from truncflow.measures import TrainingSet
from truncflow.model import ModelState
from truncflow.scenarios import make_separated_config
from truncflow.verify import _conservation_starts, _monotonicity_case, _oned_ladders


def layered_bits(traj) -> list:
    out = [traj.stopped_reason, astuple(traj.stats), [astuple(ev) for ev in traj.events]]
    for smp in traj.samples:
        out.append((smp.s, smp.cost, smp.state.rotations.tobytes(), smp.state.betas.tobytes(),
                    smp.omega_norms.tobytes(), smp.beta_gaps.tobytes(), smp.truncated_counts.tobytes()))
    return out


def collapsed_bits(traj) -> list:
    out = [astuple(traj.stats), traj.invariant0.tobytes()]
    for smp in traj.samples:
        out.append((smp.s, smp.cost, smp.invariant_drift, smp.state.b_matrix.tobytes(),
                    smp.state.w_out.tobytes()))
    return out


def assert_members_are_single_runs(integrator, members, s_end, opts=None) -> list:
    """Integrate `members` as one ensemble and each alone; every member must match bit for bit.
    Returns the ensemble's trajectories."""
    bits = collapsed_bits if integrator is integrate_collapsed else layered_bits
    got = integrate_ensemble(integrator, members, s_end, opts)
    assert len(got) == len(members)
    for i, (member, traj) in enumerate(zip(members, got)):
        alone = integrator(*((member,) if integrator is integrate_collapsed else member), s_end, opts)
        assert bits(traj) == bits(alone), i
    return got


@pytest.mark.parametrize("seed", [0, 1])
def test_oned_ladders(seed):
    _, ladders = _oned_ladders(seed, 10)
    assert max(len(group) for group in ensemble_groups(ladders)) > 2
    assert_members_are_single_runs(integrate_effective, ladders, 2.5)


@pytest.mark.parametrize("seed", [0, 1])
def test_conservation_flows(seed):
    starts = _conservation_starts(seed, 10)
    assert ensemble_groups(starts) == [list(range(10))]
    assert_members_are_single_runs(integrate_collapsed, starts, 5.0)


@pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
def test_monotonicity_cases(integrator):
    cases = [_monotonicity_case(0, i) for i in range(12)]
    members = [case[:2] for case in cases if case[2] is integrator]
    assert_members_are_single_runs(integrator, members, 1.0)


@pytest.mark.parametrize("bases", [[(2, 20, 0), (2, 20, 1)], [(3, 20, 0), (3, 20, 1), (3, 20, 2)]],
                         ids=["q2", "q3"])
def test_benchmark_bases(bases):
    members = [make_separated_config(q, n_per=n, seed=seed) for q, n, seed in bases]
    assert ensemble_groups(members) == [list(range(len(bases)))]
    trajs = assert_members_are_single_runs(integrate_effective, members, 1.0)
    assert all(traj.events for traj in trajs)


def scaled(state: ModelState, data: TrainingSet, k: float):
    """The configuration with its points, biases and labels scaled by `k`: its generators grow
    about k^2 times."""
    big = ModelState(state.layers, state.output_map, state.labels * k)
    return big.derive(state.rotations, state.betas * k), TrainingSet([c * k for c in data.clusters])


def test_members_pick_their_own_pade_degree(monkeypatch):
    # one member's generators need degree 5 where the other's take degree 3; each member is
    # exponentiated at its own degree, so neither changes the other's bits, and the scaled
    # member stops early on separation lost while the other runs on to s_end
    orders, expm, retract = [], truncflow.manifold._expm_stack, truncflow.integrate.retract_stack

    def recording_expm(a, order=None):
        orders[-1].add(order)
        return expm(a, order)

    def recording_retract(rotations, generators, step):
        orders.append(set())
        return retract(rotations, generators, step)

    monkeypatch.setattr(truncflow.manifold, "_expm_stack", recording_expm)
    monkeypatch.setattr(truncflow.integrate, "retract_stack", recording_retract)
    members = [make_separated_config(2, n_per=20, seed=1),
               scaled(*make_separated_config(2, n_per=20, seed=0), 5.0)]
    got = integrate_ensemble(integrate_effective, members, 1.0)
    assert sum(len(degrees) > 1 for degrees in orders) > 0  # group retractions at two degrees
    monkeypatch.undo()
    for member, traj in zip(members, got):
        assert layered_bits(traj) == layered_bits(integrate_effective(*member, 1.0))
    assert got[0].stopped_reason is None and got[1].stopped_reason.startswith("separation lost")


def test_member_that_stops_leaves_the_others_running():
    # monotonicity seed 0: the Q = 3 general cases make one group, where some stop sliding
    cases = [_monotonicity_case(0, i) for i in range(12)]
    members = [case[:2] for case in cases if case[2] is integrate_general and case[0].dim == 3]
    assert ensemble_groups(members) == [list(range(len(members)))]
    trajs = assert_members_are_single_runs(integrate_general, members, 1.0)
    ends = [traj.stopped_reason is None for traj in trajs]
    assert any(ends) and not all(ends)
    assert all(traj.times[-1] == pytest.approx(1.0) for traj, end in zip(trajs, ends) if end)


def test_mixed_shapes_return_in_member_order():
    members = [make_separated_config(q, n_per=n, seed=seed)
               for q, n, seed in [(3, 5, 0), (2, 4, 0), (3, 5, 1), (2, 6, 0), (2, 4, 1)]]
    assert ensemble_groups(members) == [[0, 2], [1, 4], [3]]
    trajs = assert_members_are_single_runs(integrate_effective, members, 0.3)
    assert [traj.final_state.dim for traj in trajs] == [3, 2, 3, 2, 2]


def test_collapsed_stats_count_every_evaluation(monkeypatch):
    # 10 evaluations per trial beyond the shared first stage, which is evaluated once per state
    # stepped from; the coarse step makes some trials fail the error test
    calls = {"n": 0}
    rhs = truncflow.integrate.collapsed_rhs

    def counting(*args):
        calls["n"] += 1
        return rhs(*args)

    monkeypatch.setattr(truncflow.integrate, "collapsed_rhs", counting)
    traj = integrate_collapsed(_conservation_starts(0, 1)[0], 5.0, IntegratorOptions(step=0.2))
    stats = traj.stats
    assert stats.rejected > 0 and stats.accepted == len(traj.samples) - 1
    assert stats.rhs_calls == calls["n"] == 11 * stats.accepted + 10 * stats.rejected


def test_groups_are_capped():
    starts = [CollapsedState(np.eye(2), np.eye(2), np.zeros((2, 2)))] * (MAX_GROUP + 3)
    assert [len(group) for group in ensemble_groups(starts)] == [MAX_GROUP, 3]
    big = make_separated_config(8, n_per=40, seed=0)  # 320 points of Q = 8 through 8 layers
    assert [len(group) for group in ensemble_groups([big] * 3)] == [2, 1]


def test_unknown_integrator_rejected():
    with pytest.raises(ValueError, match="^integrator must be"):
        integrate_ensemble(lambda *args: None, [make_separated_config(2, n_per=4, seed=0)], 1.0)
