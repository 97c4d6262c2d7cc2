"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins the thread environment before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

# A cheap slice of each workload: a few seconds in all.
SLICE = {
    "effective_events": ["q2_n20_s0"],
    "general_sliding": ["sliding_mono0_5", "mono0_3"],  # the first ends in StepUnderflow
    "verify_desk": ["verify_conservation", "run_shipped_configs"],
}


def _workdir(name: str) -> Path:
    path = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # still in use


def _traced_counts(workload: str, seed: int) -> dict:
    workdir = _workdir("selftest")
    try:
        cases = [c for c in workloads.build(workload, seed, workdir, ROOT) if c.name in SLICE[workload]]
        assert [c.name for c in cases] == SLICE[workload]
        tracer = tracing.Tracer()
        with tracer.installed():
            for case in cases:
                outcome, _, _, detail = run.run_case(case, workloads.BUDGET_S[workload], tracer)
                assert outcome in ("ok", "stopped"), detail
    finally:
        _remove(workdir)
    metrics = tracer.metrics(overhead_s=0.0)
    return {k: v for k, v in metrics.items() if not k.endswith("_s") and not k.endswith(".s")}


def test_traced_counts_repeat_at_one_seed():
    for workload in SLICE:
        first = _traced_counts(workload, seed=3)
        assert first == _traced_counts(workload, seed=3), workload
        assert first["integrate.accepted_steps"] > 0, workload


def test_tracing_restores_the_package():
    import truncflow.integrate as integrate
    import truncflow.verify as verify

    before = (integrate.effective_rhs, dict(verify.SUITES), verify.gradients_suite.__defaults__)
    with tracing.Tracer().installed():
        assert integrate.effective_rhs is not before[0]
        assert verify.gradients_suite.__defaults__ != before[2]
    assert (integrate.effective_rhs, dict(verify.SUITES), verify.gradients_suite.__defaults__) == before


def test_seed_changes_inputs():
    workdir = _workdir("selftest")
    try:
        for workload in workloads.WORKLOADS:
            def digests(seed):
                return {c.name: c.digest for c in workloads.build(workload, seed, workdir, ROOT)}

            a, again, b = digests(0), digests(0), digests(1)
            assert a == again, workload
            seeded = [name for name in a if a[name] != b[name]]
            fixed = [name for name in a if a[name] == b[name]]
            assert seeded, workload
            # only the sliding case and the shipped configs stay fixed
            assert all(name.startswith(("sliding_", "run_")) for name in fixed), (workload, fixed)
    finally:
        _remove(workdir)


def test_only_the_sliding_case_may_stop():
    from truncflow.errors import StepUnderflow

    def check(name, error):
        case = next(c for c in workloads.build("general_sliding", 0, ROOT, ROOT) if c.name == name)
        return case.check(workloads.Stopped(error))

    assert check("sliding_mono0_5", StepUnderflow("chattering at s = 0.25528: pinned")) == (
        "stopped", "stopped at s = 0.25528 (StepUnderflow)")
    for name, error in [("sliding_mono0_5", StepUnderflow("chattering at s = 0.01: pinned")),
                        ("sliding_mono0_5", StepUnderflow("no stop point named")),
                        ("mono0_3", StepUnderflow("chattering at s = 0.9: pinned"))]:
        with pytest.raises(workloads.CheckFailed):
            check(name, error)


def test_budget_cuts_a_case_that_never_ends():
    def spin():
        while True:
            pass

    case = workloads.Case("spin", spin, lambda output: ("ok", ""), "")
    previous = run.signal.signal(run.signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        outcome, elapsed, _ref, _detail = run.run_case(case, budget_s=0.5)
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert outcome == "over_budget"
    assert 0.5 <= elapsed < 1.5 and time.perf_counter() - start < 2.0


def test_fails_without_the_program():
    """In a directory holding only the benchmark, a run exits non-zero and prints no result."""
    bare = _workdir("bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "effective_events",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        _remove(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no truncflow sources" in proc.stderr
