import hashlib
import platform
import sys

import numpy as np
import pytest

import truncflow.verify
from truncflow.cli import main
from truncflow.errors import NearKink
from truncflow.verify import (
    conservation_suite,
    equivalence_suite,
    gradients_suite,
    monotonicity_suite,
    oned_suite,
    run_suites,
)


def test_oned_suite_passes():
    result = oned_suite(seed=0)
    assert result["passed"], result


def test_monotonicity_suite_small():
    result = monotonicity_suite(seed=0, cases=2)
    assert result["passed"], result
    names = [p["name"] for p in result["properties"]]
    assert names == ["cost_non_increasing", "orthogonality_drift", "descent_identity"]
    descent = result["properties"][2]
    assert descent["cases"] > 0  # the identity was actually exercised


def test_monotonicity_suite_integrates_each_case_once(monkeypatch):
    # a sliding trajectory stops and is checked as it is; nothing is re-run: the suite's
    # ensembles integrate each of its 12 cases once
    members = []
    ensemble = truncflow.verify.integrate_ensemble

    def counting(integrator, group, s_end):
        members.extend(group)
        return ensemble(integrator, group, s_end)

    monkeypatch.setattr(truncflow.verify, "integrate_ensemble", counting)
    result = monotonicity_suite(seed=0)
    assert len(members) == 12 and len({id(state) for state, _ in members}) == 12
    assert result["passed"], result
    assert [(p["cases"], p["skipped"]) for p in result["properties"][:2]] == [(12, 0), (12, 0)]


# sha256 of `truncflow verify all --seed 0 --out report.json`'s file, recorded before the general
# field swept separated mask sets as one stacked entry
VERIFY_ALL_SEED0 = "7862cf88677c08f70dc7ae041412f83972c92796c22a3d1b092e3b0c02a632c1"


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the digest is recorded on x86_64 Linux")
def test_verify_all_report_matches_recorded_digest(tmp_path):
    # every suite's verdicts, worst values, case and skip counts and stops, bit for bit, in the
    # file the CLI writes
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SEED0


def test_run_suites_aggregation():
    report = run_suites(["conservation"], seed=0)
    assert report["passed"] and report["seed"] == 0
    assert [s["suite"] for s in report["suites"]] == ["conservation"]


def test_suites_deterministic_per_seed():
    r1 = conservation_suite(seed=3, cases=3)
    r2 = conservation_suite(seed=3, cases=3)
    assert r1["properties"][0]["worst"] == r2["properties"][0]["worst"]


def test_equivalence_reports_three_properties():
    result = equivalence_suite(seed=1)
    assert result["passed"]
    assert len(result["properties"]) == 3


def test_gradients_suite_counts_skipped_cases():
    # at seed 0 one general draw sits too close to an activation boundary
    # for the finite-difference oracle; it is reported as skipped, not checked
    general = gradients_suite(seed=0)["properties"][1]
    assert general["name"] == "general_rhs_vs_fd"
    assert (general["cases"], general["skipped"]) == (49, 1)


def test_gradients_suite_skips_a_kink_adjacent_effective_draw(monkeypatch):
    # both flows share one case body: a NearKink on an effective draw is a skip too
    fd_gradients, calls = truncflow.verify.fd_gradients, []

    def kink_on_first_draw(state, data, *args, **kwargs):
        calls.append(state)
        if len(calls) == 1:  # the effective draws run first
            raise NearKink("forced")
        return fd_gradients(state, data, *args, **kwargs)

    monkeypatch.setattr(truncflow.verify, "fd_gradients", kink_on_first_draw)
    effective = gradients_suite(seed=0, cases=6)["properties"][0]
    assert effective["name"] == "effective_rhs_vs_fd"
    assert (effective["cases"], effective["skipped"]) == (2, 1)
    assert effective["passed"]
    assert len(calls) == 6  # one stencil-band check per case, not one per layer
