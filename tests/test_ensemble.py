"""Ensembles: every member of an `integrate_ensemble` call is bit for bit its one-member run.

A group steps its members of one shape together, each RK4 stage one stacked field evaluation and
one stacked retraction; localization, retries, events, samples, stops and stats stay each
member's own.  Each test compares every member's trajectory with the member integrated alone:
every sample's s, cost, state and per-layer arrays, the events, `stopped_reason` and `stats`.
Counters pin the work by count, not by time: no group for a one-member call, one kernel sweep per
stage of a general group on separated masks, one `GroupMasks` per change of a group's mask sets,
and no run or group left alive by a call.
"""

import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import truncflow.flows
import truncflow.integrate
import truncflow.manifold
from truncflow.flows import CollapsedState, GroupMasks, general_rhs
from truncflow.integrate import (
    MAX_GROUP,
    IntegratorOptions,
    _Group,
    _Run,
    ensemble_groups,
    integrate_collapsed,
    integrate_effective,
    integrate_ensemble,
    integrate_general,
)
from truncflow.measures import TrainingSet
from truncflow.model import ModelState
from truncflow.scenarios import make_separated_config, named_initial_state
from truncflow.verify import _conservation_starts, _monotonicity_case, _oned_ladders

from test_integrate import perfbench_cases


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


@pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
def test_separated_group_of_unequal_cluster_sizes(monkeypatch, integrator):
    # clusters cut to 6, 5 and 4 points do not stack, so the group reads each layer's own rows
    # (the list branch of `_own_coordinates` with a member axis); the general field, on separated
    # masks, sweeps them as one kernel too
    members = [(state, TrainingSet([c[:n] for c, n in zip(data.clusters, (6, 5, 4))]))
               for state, data in (make_separated_config(3, n_per=6, seed=seed) for seed in range(3))]
    assert ensemble_groups(members) == [[0, 1, 2]]
    layouts, own = [], truncflow.flows._own_coordinates

    def recording(state, points, data, stacked):
        layouts.append((state.rotations.ndim, stacked))
        return own(state, points, data, stacked)

    monkeypatch.setattr(truncflow.flows, "_own_coordinates", recording)
    sweeps = group_sweeps(monkeypatch)
    trajs = assert_members_are_single_runs(integrator, members, 1.0)
    if integrator is integrate_effective:
        assert (4, False) in layouts and (4, True) not in layouts
    else:
        assert sweeps
    assert all(traj.events for traj in trajs)


@pytest.mark.parametrize("integrator, bad, message", [
    (integrate_collapsed, make_separated_config(2, n_per=4, seed=0),
     r"^member 1 is \(ModelState, TrainingSet\): integrate_collapsed takes a CollapsedState$"),
    (integrate_effective, CollapsedState(np.eye(2), np.eye(2), np.zeros((2, 2))),
     r"^member 1 is a CollapsedState: integrate_effective takes a \(ModelState, TrainingSet\) pair$"),
    (integrate_general, make_separated_config(2, n_per=4, seed=0)[0],
     r"^member 1 is a ModelState: integrate_general takes a \(ModelState, TrainingSet\) pair$"),
    (integrate_general, (*make_separated_config(2, n_per=4, seed=0), 1.0),
     r"^member 1 is \(ModelState, TrainingSet, float\): integrate_general takes"),
], ids=["pair-to-collapsed", "collapsed-to-effective", "bare-state-to-general", "triple-to-general"])
def test_member_of_another_kind_rejected_before_any_run(monkeypatch, integrator, bad, message):
    good = (CollapsedState(np.eye(2), np.eye(2), np.zeros((2, 2))) if integrator is integrate_collapsed
            else make_separated_config(2, n_per=4, seed=1))
    fields = counting(monkeypatch, truncflow.integrate, "collapsed_rhs")
    runs = counting_inits(monkeypatch, _Run)
    with pytest.raises(ValueError, match=message):
        integrate_ensemble(integrator, [good, bad], 1.0)
    assert fields == [] and runs == []


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


# --- the general field's groups ---------------------------------------------------------------

def general_members(seed: int) -> list:
    """The monotonicity suite's integrate_general cases at suite seed `seed`."""
    cases = [_monotonicity_case(seed, i) for i in range(12)]
    return [case[:2] for case in cases if case[2] is integrate_general]


def counting(monkeypatch, module, name: str) -> list:
    """Count the calls of `module.name` from here on: returns a list that grows one entry a call."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def group_sweeps(monkeypatch) -> list:
    """Count the one-kernel sweeps of a group from here on: the `_descent_field` calls whose
    rotations carry a member axis.  Returns a list that grows one entry a sweep."""
    calls, sweep = [], truncflow.flows._descent_field

    def counted(state, plan, zs):
        if state.rotations.ndim == 4:
            calls.append(None)
        return sweep(state, plan, zs)

    monkeypatch.setattr(truncflow.flows, "_descent_field", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_general_groups(seed, monkeypatch):
    # the suite's general cases group by Q; separated mask sets sweep one kernel
    sweeps = group_sweeps(monkeypatch)
    members = general_members(seed)
    assert max(len(group) for group in ensemble_groups(members)) > 2
    trajs = assert_members_are_single_runs(integrate_general, members, 1.0)
    assert sweeps and sum(len(traj.events) for traj in trajs) > len(trajs)


def stage_arrays(members) -> tuple:
    """Each member's start, stacked on the member axis, as a group's first stage reads it."""
    return np.stack([state.rotations for state, _ in members]), np.stack([state.betas for state, _ in members])


def group_field_calls(monkeypatch, members) -> tuple:
    """One stage of a general group over `members`: its velocities, each member's own
    `general_rhs` at its masks, and the `_descent_field` and `push` calls the stage made."""
    runs = [_Run(state, data, False) for state, data in members]
    sweeps = counting(monkeypatch, truncflow.flows, "_descent_field")
    pushes = counting(monkeypatch, truncflow.flows, "push")
    got = _Group(runs, False).field(*stage_arrays(members))
    calls = len(sweeps), len(pushes)
    monkeypatch.undo()
    want = [general_rhs(run.state, run.data, run.masks) for run in runs]
    for b, (bd, om) in enumerate(want):
        assert got[0][b].tobytes() == bd.tobytes() and got[1][b].tobytes() == om.tobytes(), b
    assert [run.stats.rhs_calls for run in runs] == [1] * len(runs)
    return calls


def test_separated_stacked_group_sweeps_once_per_stage(monkeypatch):
    members = [make_separated_config(3, n_per=6, seed=seed) for seed in range(4)]
    assert all(_Run(state, data, False).masks.separated for state, data in members)
    assert group_field_calls(monkeypatch, members) == (1, 1)


def test_members_acting_at_different_layers_fall_back(monkeypatch):
    # a bias far out makes the top layer the identity on one member, so its plan leaves the layer
    # out while the other member's acts there: no stacked plan, each member swept alone
    state, data = make_separated_config(3, n_per=6, seed=1)
    betas = state.betas.copy()
    betas[-1] += state.rotations[-1].T @ np.full(3, 100.0)  # z = R x + 100 there
    members = [make_separated_config(3, n_per=6, seed=0), (state.derive(state.rotations, betas), data)]
    masks = [_Run(state, data, False).masks for state, data in members]
    assert all(m.stacked and m.separated for m in masks)
    assert GroupMasks(masks).effective is None
    assert group_field_calls(monkeypatch, members) == (2, 2)
    assert_members_are_single_runs(integrate_general, members, 0.5)


def test_member_not_separated_takes_the_per_member_path(monkeypatch):
    state, data = make_separated_config(3, n_per=5, seed=0)
    members = [(state, data), (named_initial_state("random-orthogonal", data, state.labels, seed=1), data)]
    assert not _Run(*members[1], False).masks.separated
    assert group_field_calls(monkeypatch, members) == (2, 2)
    assert_members_are_single_runs(integrate_general, members, 0.2)


def test_general_member_stops_sliding_while_the_others_run_on(monkeypatch):
    # monotonicity seed 2: one Q = 2 member stops sliding early in a group that sweeps one kernel
    sweeps = group_sweeps(monkeypatch)
    members = general_members(2)
    stops = [traj.stopped_reason for traj in assert_members_are_single_runs(integrate_general, members, 1.0)]
    assert sweeps
    assert any(reason and reason.startswith("sliding") for reason in stops) and None in stops


@pytest.mark.parametrize("integrator, make, s_end", [
    (integrate_general, lambda: general_members(0), 1.0),
    (integrate_effective, lambda: _oned_ladders(0, 10)[1], 2.5),
], ids=["general", "oned"])
def test_a_group_plans_once_per_mask_change(monkeypatch, integrator, make, s_end):
    # a group builds its GroupMasks once for each distinct tuple of member mask sets its stages
    # see, by identity: the cache that keeps the oned suite's groups from restacking every stage
    builds, stages = [], []
    build, field = truncflow.integrate.GroupMasks, _Group.field

    def building(masks):
        builds.append(None)
        return build(masks)

    def recording(self, rotations, betas):
        stages.append((self, tuple(run.masks for run in self.runs)))  # held, so no id is reused
        return field(self, rotations, betas)

    monkeypatch.setattr(truncflow.integrate, "GroupMasks", building)
    monkeypatch.setattr(_Group, "field", recording)
    integrate_ensemble(integrator, make(), s_end)
    distinct = {(id(group), *map(id, masks)) for group, masks in stages}
    assert 0 < len(builds) == len(distinct) < len(stages)


# --- machine-independent counters -------------------------------------------------------------

def counting_inits(monkeypatch, cls) -> list:
    """Weak references to every `cls` instance made from here on."""
    made, init = [], cls.__init__

    def recording(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", recording)
    return made


def test_no_group_for_a_one_member_call(monkeypatch, tmp_path):
    # perfbench's 8 effective_events cases at seed 0: each lone member steps itself, its rounds and
    # every cost retry and localization probe (271 of them), and no group is built
    groups = counting_inits(monkeypatch, _Group)
    extra = 0
    for case in perfbench_cases("effective_events", 0, tmp_path):
        stats = case.call().stats
        extra += stats.probes + stats.cost_retries
    assert groups == [] and extra == 271


def test_no_run_or_group_outlives_its_call(monkeypatch):
    # with the cyclic collector off, reference counts alone free every run and group when the
    # call returns: no run refers to a group, so a finished trajectory keeps neither alive
    runs, groups = counting_inits(monkeypatch, _Run), counting_inits(monkeypatch, _Group)
    enabled = gc.isenabled()
    gc.disable()
    try:
        trajs = [integrate_effective(*make_separated_config(3, n_per=20, seed=0), 1.0)]
        trajs += integrate_ensemble(integrate_general, general_members(0), 1.0)
        trajs += integrate_ensemble(integrate_effective, [make_separated_config(2, n_per=20, seed=s)
                                                          for s in range(3)], 1.0)
        assert len(runs) == len(trajs) and groups
        assert [ref() for ref in runs + groups] == [None] * (len(runs) + len(groups))
    finally:
        if enabled:
            gc.enable()
