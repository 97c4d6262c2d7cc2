"""Every reference trajectory keeps its recorded meaning (see trajectory_record.py).

Its end kind and its event sequence (layer, cluster, point, coordinate, direction) are the
recorded ones.  Its end s, event times and final cost stay near the converged run's: within
HEADROOM times the recorded default run's distance from it, or HEADROOM times a floor where
that distance is smaller.  Measured when recorded, over the 62 cases, that distance was at
most 3.7e-7 in an event time or end s.  The final cost was within 5.6e-7 of the converged one,
except in monotonicity seed 2 case 7, where the one step after its last event leaves it 2.0e-4
off.  A change that alters an end kind or an event sequence on purpose regenerates the record
and names each case it changes.
"""

import json

import pytest

from trajectory_record import RECORD, cases, summarize
from truncflow.integrate import IntegratorOptions

RECORDED = json.loads(RECORD.read_text())
CASES = list(cases())
HEADROOM = 10.0
S_FLOOR = 1e-9      # crossing localization's bracket width (IntegratorOptions.bisect_tol)
COST_FLOOR = 1e-11  # relative to 1 + cost


def test_the_record_covers_every_case():
    assert [name for name, _ in CASES] == list(RECORDED)


def near(got: float, default: float, converged: float, floor: float) -> bool:
    """Whether `got` is as near `converged` as the recorded `default` was, with HEADROOM."""
    return abs(got - converged) <= HEADROOM * max(abs(default - converged), floor)


@pytest.mark.parametrize("name, run", CASES, ids=[name for name, _ in CASES])
def test_trajectory_keeps_its_recorded_meaning(name, run):
    got, default, converged = summarize(run(IntegratorOptions())), RECORDED[name]["default"], \
        RECORDED[name]["converged"]
    assert got["end"] == default["end"] == converged["end"]
    if got["events"] is None:  # a typed error: its s is all it names
        assert default["events"] is None and near(got["s"], default["s"], converged["s"], S_FLOOR)
        return
    assert [ev[:5] for ev in got["events"]] == [ev[:5] for ev in default["events"]]
    assert [ev[:5] for ev in converged["events"]] == [ev[:5] for ev in default["events"]]
    for ev, at_default, at_converged in zip(got["events"], default["events"], converged["events"]):
        assert near(ev[5], at_default[5], at_converged[5], S_FLOOR), ev
    assert near(got["s"], default["s"], converged["s"], S_FLOOR)
    assert near(got["cost"], default["cost"], converged["cost"], COST_FLOOR * (1.0 + converged["cost"]))
