"""The fail-fast contract of both layered integrators, on a fixed campaign of random configs.

Every run ends in one of three ways: at s_end, with a `stopped_reason`, or with a
`TruncflowError` subclass.  A stop at a crossing names it; the ascent guard's stop names s and
the rate.  No other exception and no warning escapes, and no run takes more RK4 steps per unit s
than STEPS_PER_S.  The draws are unstructured configs of Q = 1-4 at scales 1e-3 to 1e3, about
30 % with a point exactly on its first layer's hyperplanes.  The set is draws 0-23, as many as fit
in about 5 s of CPU; the configs are fixed, not searched.

Measured when recorded: the 24 draws are 3, 7, 7 and 7 of Q = 1-4, and 10 carry a point on the
hyperplanes.  The effective runs end 4 at s_end, 2 sliding and 18 on separation lost; the
general runs 5 at s_end and 19 sliding.  All 48 take 5.1 s of CPU; the slowest is draw 0's
general run (Q = 4), 0.48 s, and the most RK4 steps are draw 8's general run, 303.  Draw 28,
past the set, breaks the step bound: its general run takes 10,641 RK4 steps (375 localizations,
every one a prediction miss) and 10 s of CPU to reach a sliding stop at s = 0.0376.
"""

import re
import warnings

import numpy as np
import pytest

from truncflow.errors import TruncflowError
from truncflow.integrate import integrate_effective, integrate_general
from truncflow.measures import TrainingSet
from truncflow.scenarios import state_from_arrays
from truncflow.verify import _random_state_and_data

DRAWS = 24
S_END = 1.0
# The most RK4 steps any run took over s in [0, 2] in a campaign of 200 such draws (Q up to 8,
# scales 1e-6 to 1e6) was 933.
STEPS_PER_S = 1000
CROSSING = re.compile(r"^(sliding|separation lost) at s = \S+: layer (\d+), cluster (\d+), point (\d+), "
                      r"coordinate (\d+) \((entering|leaving)\): ")
ASCENT = re.compile(r"^separation lost at s = \S+: the effective field ascends the full cost at rate \S+$")


def contract_draw(i: int):
    """Draw i: an unstructured state and data of Q = 1-4 scaled by 10^U(-3, 3), and with
    probability 0.3 one point moved to -beta_0, so that its z at layer 0 is exactly 0."""
    rng = np.random.default_rng((0, i))
    q = int(rng.integers(1, 5))
    state, data = _random_state_and_data(q, 6, rng)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    clusters = [c * scale for c in data.clusters]
    betas = state.betas * scale
    on_hyperplane = rng.random() < 0.3
    if on_hyperplane:
        cluster = int(rng.integers(q))
        clusters[cluster][int(rng.integers(len(clusters[cluster])))] = -betas[0]
    state = state_from_arrays(state.rotations, betas, state.output_map, state.labels * scale)
    return state, TrainingSet(clusters), on_hyperplane


@pytest.mark.parametrize("integrator", [integrate_effective, integrate_general])
def test_every_run_ends_typed_and_in_budget(integrator):
    for i in range(DRAWS):
        state, data, _ = contract_draw(i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                traj = integrator(state, data, S_END)
            except TruncflowError:
                continue
        assert traj.stats.rk4_steps <= STEPS_PER_S * S_END, (i, traj.stats)
        reason = traj.stopped_reason
        if reason is None:
            assert abs(traj.times[-1] - S_END) <= 1e-9, (i, traj.times[-1])
        elif (crossing := CROSSING.match(reason)) is not None:
            named = (*map(int, crossing.group(2, 3, 4, 5)), crossing.group(6))
            assert named in [(ev.layer, ev.cluster, ev.point, ev.coordinate, ev.direction)
                             for ev in traj.events], (i, reason)
        else:
            assert integrator is integrate_effective and ASCENT.match(reason), (i, reason)


def test_the_campaign_covers_its_cases():
    # every Q and both kinds of draw are in the fixed set
    draws = [contract_draw(i) for i in range(DRAWS)]
    assert {data.q for _, data, _ in draws} == {1, 2, 3, 4}
    assert 0 < sum(on for _, _, on in draws) < DRAWS
