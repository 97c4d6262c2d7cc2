import numpy as np

import truncflow.verify
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
    # a sliding trajectory stops and is checked as it is; nothing is re-run
    calls = []
    for name in ("integrate_effective", "integrate_general"):
        integrator = getattr(truncflow.verify, name)

        def counting(*args, integrator=integrator):
            calls.append(args)
            return integrator(*args)

        monkeypatch.setattr(truncflow.verify, name, counting)
    result = monotonicity_suite(seed=0)
    assert len(calls) == 12
    assert result["passed"], result
    assert [(p["cases"], p["skipped"]) for p in result["properties"][:2]] == [(12, 0), (12, 0)]


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
