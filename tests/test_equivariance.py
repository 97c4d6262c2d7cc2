"""Equivariance: both layered flows commute with the isometries of input space.

Take U in O(Q) and t in R^Q, and map the data x -> U x + t, each layer (R_k, beta_k) ->
(R_k U^T, U beta_k - t) and each pulled label ytilde -> U ytilde + t, keeping the output map W
and setting the labels to W (U ytilde + t).  Every pre-activation R_k (x + beta_k) is then
unchanged, and every truncation map is conjugated by the isometry, so the sectors, the events
and the cost are the same, and the flow carries the image of a start to the image of its end.

Each of the monotonicity suite's 12 cases at seed 0 is integrated in one ensemble with its image,
under a random U (every fourth a reflection) and a translation of length 3.  The event sequence
and the kind of stop must be identical, the event times agree to the localization tolerance, the
final cost to 1e-12 relative, and the final rotations and biases must be the images of the
original's to 1e-10.  The suite stays out of `verify.SUITES`, whose `verify all` report is
pinned by digest.

The flows are also blind to the order of each cluster's points: the cost and the fields are sums
over a cluster's rows.  Each case, with every cluster's points permuted, must meet the same events
with each point renamed by the permutation, and the same stop and final cost.
"""

import numpy as np
import pytest

from truncflow.integrate import IntegratorOptions, integrate_effective, integrate_ensemble, integrate_general
from truncflow.manifold import random_orthogonal
from truncflow.measures import TrainingSet
from truncflow.scenarios import state_from_arrays
from truncflow.verify import _monotonicity_case

SHIFT = 3.0  # the length of the translation t


def isometries(cases, rng) -> list:
    """One (U, t) per case: U drawn by `random_orthogonal`, every fourth turned into a reflection
    by flipping its first row, and t of length SHIFT."""
    out = []
    for j, (state, *_) in enumerate(cases):
        u = random_orthogonal(state.dim, rng).mat
        if j % 4 == 0:
            u = u * np.where(np.arange(state.dim) == 0, -1.0, 1.0)[:, None]
        t = rng.normal(size=state.dim)
        out.append((u, SHIFT * t / np.linalg.norm(t)))
    return out


def image(state, data, u, t):
    """The configuration (state, data) under x -> U x + t."""
    ytil = state.pulled_labels @ u.T + t
    moved = state_from_arrays(state.rotations @ u.T, state.betas @ u.T - t, state.output_map,
                              ytil @ state.output_map.T)
    return moved, TrainingSet([c @ u.T + t for c in data.clusters])


def stop_kind(traj) -> str | None:
    return None if traj.stopped_reason is None else traj.stopped_reason.partition(" at s = ")[0]


def event_keys(traj) -> list:
    return [(ev.layer, ev.cluster, ev.point, ev.coordinate, ev.direction) for ev in traj.events]


# effective cases first, so the reflections fall on both flows
CASES = sorted((_monotonicity_case(0, i) for i in range(12)), key=lambda case: case[2] is integrate_general)
MAPS = isometries(CASES, np.random.default_rng(0))


@pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
def test_flows_commute_with_isometries(integrator):
    picked = [j for j, case in enumerate(CASES) if case[2] is integrator]
    originals = [CASES[j][:2] for j in picked]
    images = [image(*CASES[j][:2], *MAPS[j]) for j in picked]
    assert any(np.linalg.det(MAPS[j][0]) < 0 for j in picked)
    trajs = integrate_ensemble(integrator, originals + images, 1.0)
    tol = IntegratorOptions().bisect_tol
    for j, traj, moved in zip(picked, trajs, trajs[len(picked):]):
        u, t = MAPS[j]
        assert event_keys(moved) == event_keys(traj), j
        assert stop_kind(moved) == stop_kind(traj), j
        assert all(abs(a.s - b.s) <= tol for a, b in zip(moved.events, traj.events)), j
        assert abs(moved.costs[-1] - traj.costs[-1]) <= 1e-12 * abs(traj.costs[-1]), j
        end, moved_end = traj.final_state, moved.final_state
        assert np.max(np.abs(moved_end.rotations - end.rotations @ u.T)) <= 1e-10, j
        assert np.max(np.abs(moved_end.betas - (end.betas @ u.T - t))) <= 1e-10, j
    assert sum(len(traj.events) for traj in trajs) > 0


@pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
def test_flows_ignore_the_order_of_each_clusters_points(integrator):
    rng = np.random.default_rng(1)
    originals = [case[:2] for case in CASES if case[2] is integrator]
    orders = [[rng.permutation(len(c)) for c in data.clusters] for _, data in originals]
    permuted = [(state, TrainingSet([c[order] for c, order in zip(data.clusters, perms)]))
                for (state, data), perms in zip(originals, orders)]
    trajs = integrate_ensemble(integrator, originals + permuted, 1.0)
    tol = IntegratorOptions().bisect_tol
    for j, (traj, moved, perms) in enumerate(zip(trajs, trajs[len(originals):], orders)):
        # the original's point i is the permuted set's point p with perms[cluster][p] == i
        renamed = [(layer, cluster, int(np.flatnonzero(perms[cluster] == point)[0]), *rest)
                   for layer, cluster, point, *rest in event_keys(traj)]
        assert event_keys(moved) == renamed, j
        assert stop_kind(moved) == stop_kind(traj), j
        assert all(abs(a.s - b.s) <= tol for a, b in zip(moved.events, traj.events)), j
        assert abs(moved.costs[-1] - traj.costs[-1]) <= 1e-12 * abs(traj.costs[-1]), j
    assert sum(len(traj.events) for traj in trajs) > 0
