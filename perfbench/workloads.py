"""The benchmark's workloads: seeded inputs, the timed program calls, and their output checks.

Every case is built from the benchmark seed alone and handed to truncflow as
plain inputs.  Single trajectories vary about tenfold in cost between
independent draws (event counts, sliding stops), so a run's total would
follow the seed more than the code.  The trajectory workloads therefore
start from fixed base configurations and let the seed redraw a small
perturbation of the labels (sigma = LABEL_JITTER): every seed yields new
trajectories with nearly the same event structure.  ``verify_desk`` passes suite seeds
drawn from the seed to the property suites, whose case counts are fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import truncflow.cli
import truncflow.integrate
from truncflow.errors import TruncflowError
from truncflow.integrate import IntegratorOptions
from truncflow.model import ModelState
from truncflow.scenarios import make_separated_config

S_END = 1.0
LABEL_JITTER = 0.01
ORTHO_TOL = 1e-8

# (q, points per cluster, make_separated_config seed)
EFFECTIVE_BASES = ((2, 20, 0), (2, 20, 1), (2, 40, 0), (2, 40, 1),
                   (3, 20, 0), (3, 20, 1), (3, 20, 2), (4, 10, 0))
# (monotonicity-suite seed, case index): odd indices are the suite's
# integrate_general cases.
GENERAL_BASES = ((0, 3), (0, 11), (1, 1), (1, 3))
# Crawls into the chattering guard (StepUnderflow) at s = 0.25528 after about
# 4 s.  Left unperturbed: perturbed labels decide whether the guard ever
# fires, and at some seeds the case runs on past any budget (ROADMAP D4).
SLIDING = (0, 5)
# The only case that may stop before S_END; a stop before this s fails its check.
SLIDING_STOP_FROM = 0.25
VERIFY_SUITES = ("gradients", "equivalence", "conservation", "oned")

# Per-case wall-clock budget, several times the slowest healthy case.
BUDGET_S = {"effective_events": 8.0, "general_sliding": 12.0, "verify_desk": 15.0}
WORKLOADS = tuple(BUDGET_S)

DIGESTS = Path(__file__).with_name("digests.json")

_STOP_POINT = re.compile(r"\bs = ([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


class CheckFailed(Exception):
    """A case's output failed its correctness check."""

    outcome = "check_failed"


@dataclass
class Stopped:
    """A trajectory that ended before S_END with a typed truncflow error."""

    error: TruncflowError


@dataclass
class Case:
    name: str
    call: Callable[[], object]                   # the timed, budgeted program call
    check: Callable[[object], tuple[str, str]]   # untimed: (outcome, note), or raises CheckFailed
    digest: str                                  # fingerprint of the generated inputs; see selftest


def _fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _state_digest(state: ModelState, data) -> str:
    parts = [state.output_map, state.labels]
    parts += [a for lp in state.layers for a in (lp.rotation.mat, lp.beta)]
    return _fingerprint(*parts, *data.clusters)


def _jitter_labels(state: ModelState, rng: np.random.Generator) -> ModelState:
    labels = state.labels + LABEL_JITTER * rng.normal(size=state.labels.shape)
    return ModelState(state.layers, state.output_map, labels)


def _stop_point(error: TruncflowError) -> float | None:
    """The s at which a typed error stopped the integrator: its `s` attribute, or `s = <value>` in its message."""
    s = getattr(error, "s", None)
    if s is None:
        match = _STOP_POINT.search(str(error))
        s = float(match.group(1)) if match else None
    return s


def _check_stop(reason: str, s: float | None, stop_from: float | None) -> tuple[str, str]:
    note = f"stopped at s = {s} ({reason})"
    if stop_from is None:
        raise CheckFailed(f"{note}, in a case that reaches s_end")
    if s is None or s < stop_from:
        raise CheckFailed(f"{note}, before the recorded stop point s >= {stop_from}")
    return "stopped", note


def _check_trajectory(traj, stop_from: float | None) -> tuple[str, str]:
    """Check one trajectory: it reaches S_END, or it is a case allowed to stop and
    stops no earlier than `stop_from`, with a typed error or a `stopped_reason`."""
    if isinstance(traj, Stopped):
        return _check_stop(type(traj.error).__name__, _stop_point(traj.error), stop_from)
    s_last = traj.samples[-1].s
    stopped_reason = getattr(traj, "stopped_reason", None)
    if abs(s_last - S_END) > 1e-9 and not stopped_reason:
        raise CheckFailed(f"trajectory ended at s = {s_last!r} without an error or stopped_reason")
    costs = traj.costs
    slack = IntegratorOptions().cost_slack
    rise = np.diff(costs) - slack * (1.0 + costs[:-1])
    if np.any(rise > 0.0):
        raise CheckFailed(f"cost rose by {float(np.max(rise)):.3e} beyond cost_slack")
    mats = np.array([lp.rotation.mat for smp in traj.samples for lp in smp.state.layers])
    gram = np.einsum("nji,njk->nik", mats, mats) - np.eye(mats.shape[1])
    ortho = float(np.max(np.linalg.norm(gram, axis=(1, 2))))
    if ortho > ORTHO_TOL:
        raise CheckFailed(f"orthogonality error {ortho:.3e} > {ORTHO_TOL}")
    if abs(s_last - S_END) > 1e-9:
        return _check_stop(str(stopped_reason), s_last, stop_from)
    return "ok", ""


def _trajectory_case(name: str, integrator: str, state, data, stop_from: float | None = None) -> Case:
    def call():
        fn = getattr(truncflow.integrate, integrator)  # looked up per call, so tracing sees it
        try:
            return fn(state, data, S_END)
        except TruncflowError as exc:
            return Stopped(exc)

    return Case(name, call, lambda traj: _check_trajectory(traj, stop_from), _state_digest(state, data))


def _effective_cases(seed: int) -> list[Case]:
    cases = []
    for i, (q, n, cfg_seed) in enumerate(EFFECTIVE_BASES):
        state, data = make_separated_config(q, n_per=n, seed=cfg_seed)
        state = _jitter_labels(state, np.random.default_rng([0, seed % 2**32, i]))
        cases.append(_trajectory_case(f"q{q}_n{n}_s{cfg_seed}", "integrate_effective", state, data))
    return cases


def _monotonicity_general_config(suite_seed: int, index: int):
    """The integrate_general input verify's monotonicity suite builds for case `index`."""
    rng = np.random.default_rng((suite_seed, 2, index))
    q = int(rng.integers(2, 4))
    state, data = make_separated_config(q, n_per=4, seed=int(rng.integers(2**31)))
    layers = [lp.with_updates(beta=lp.beta + 0.05 * rng.normal(size=q)) for lp in state.layers]
    return ModelState(layers, state.output_map, state.labels), data


def _general_cases(seed: int) -> list[Case]:
    cases = [_trajectory_case(f"sliding_mono{SLIDING[0]}_{SLIDING[1]}", "integrate_general",
                              *_monotonicity_general_config(*SLIDING), stop_from=SLIDING_STOP_FROM)]
    for i, (suite_seed, index) in enumerate(GENERAL_BASES):
        state, data = _monotonicity_general_config(suite_seed, index)
        state = _jitter_labels(state, np.random.default_rng([1, seed % 2**32, i]))
        cases.append(_trajectory_case(f"mono{suite_seed}_{index}", "integrate_general", state, data))
    return cases


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return truncflow.cli.main(argv)


def _verify_case(suite: str, seed: int, workdir: Path) -> Case:
    """`verify <suite>` at two suite seeds drawn from `seed`: a suite's few random
    draws (e.g. the oned ladders) move its cost by up to 20 % from seed to seed."""
    runs = []
    for k in range(2):
        report = workdir / f"verify-{suite}-{k}.json"
        runs.append((["verify", suite, "--seed", str(2 * (seed % 2**32) + k), "--out", str(report)], report))

    def check(codes):
        for rc, (argv, report) in zip(codes, runs):
            try:
                doc = json.loads(report.read_text())
            finally:
                report.unlink(missing_ok=True)
            failed = [f"{s['suite']}/{p['name']}" for s in doc["suites"]
                      for p in s["properties"] if not p["passed"]]
            if rc != 0 or failed or [s["suite"] for s in doc["suites"]] != [suite]:
                raise CheckFailed(f"{' '.join(argv[:4])}: exit {rc}, failed properties {failed}")
        return "ok", ""

    digest = hashlib.sha256(repr([argv[:4] for argv, _ in runs]).encode()).hexdigest()
    return Case(f"verify_{suite}", lambda: [_cli(argv) for argv, _ in runs], check, digest)


def _run_configs_case(digests: dict, root: Path, workdir: Path) -> Case:
    """`run` on every shipped config in turn, output redirected into `workdir`."""
    configs, docs = [], []
    for name in digests:
        doc = json.loads((root / "configs" / name).read_text())
        docs.append(doc)
        doc = dict(doc, output=str(workdir / Path(name).stem))
        path = workdir / name
        path.write_text(json.dumps(doc))
        configs.append((path, Path(doc["output"]), digests[name]))

    def call():
        return [_cli(["run", str(path)]) for path, _out, _expected in configs]

    def check(codes):
        bad = []
        for rc, (path, out, expected) in zip(codes, configs):
            try:
                got = {csv: hashlib.sha256((out / csv).read_bytes()).hexdigest() for csv in expected}
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if rc != 0 or got != expected:
                bad.append(f"{path.name}: exit {rc}, CSVs {sorted(c for c in expected if got[c] != expected[c])}")
        if bad:
            raise CheckFailed(f"run differs from the recorded digests: {bad}")
        return "ok", ""

    return Case("run_shipped_configs", call, check,
                hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest())


def _verify_desk_cases(seed: int, workdir: Path, root: Path) -> list[Case]:
    cases = [_verify_case(suite, seed, workdir) for suite in VERIFY_SUITES]
    return cases + [_run_configs_case(json.loads(DIGESTS.read_text()), root, workdir)]


def build(workload: str, seed: int, workdir: Path, root: Path) -> list[Case]:
    """The cases of one workload at one seed; the same seed gives the same inputs."""
    if workload == "effective_events":
        return _effective_cases(seed)
    if workload == "general_sliding":
        return _general_cases(seed)
    if workload == "verify_desk":
        return _verify_desk_cases(seed, workdir, root)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up() -> None:
    """Run every integrator briefly so lazy initialisation is done before timing."""
    state, data = make_separated_config(2, n_per=4, seed=0)
    truncflow.integrate.integrate_effective(state, data, 0.05)
    truncflow.integrate.integrate_general(state, data, 0.05)
