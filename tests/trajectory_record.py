"""What the reference trajectories mean: how each one ends, its events and its final cost, at
the default integrator options and at a converged step.

The cases are the benchmark's 13 trajectory cases (``effective_events`` and ``general_sliding``
in perfbench/workloads.py) at seeds 0 and 1, and the 12 integrations of the monotonicity suite
at seeds 0-2.  Each is summarized by :func:`summarize`.  Bitwise checks (the trajectory
fingerprints, the shipped-config digests) say only *that* an output moved; this record lets a
change that moves bits on purpose show that the events, the stops and the converged answer held.

    PYTHONPATH=src python tests/trajectory_record.py

rewrites trajectory_record.json next to this file, running every case twice: at the default
options and at CONVERGED.  The converged half takes a few minutes of CPU.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import re
import sys
import tempfile
from pathlib import Path

import truncflow.integrate
from truncflow.errors import TruncflowError
from truncflow.integrate import IntegratorOptions
from truncflow.verify import _monotonicity_case

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("trajectory_record.json")
CONVERGED = IntegratorOptions(step=1e-4)
BENCHMARK_SEEDS = (0, 1)
MONOTONICITY_SEEDS = (0, 1, 2)
MONOTONICITY_CASES = 12


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _integrators_at(opts: IntegratorOptions):
    """Both layered integrators, as `truncflow.integrate` names them, called at `opts`; the
    benchmark's cases look their integrator up there on every call."""
    names = ("integrate_effective", "integrate_general")
    saved = [getattr(truncflow.integrate, name) for name in names]
    for name, fn in zip(names, saved):
        setattr(truncflow.integrate, name, functools.partial(fn, opts=opts))
    try:
        yield
    finally:
        for name, fn in zip(names, saved):
            setattr(truncflow.integrate, name, fn)


def cases():
    """(name, run) for every case in record order; `run(opts)` integrates the case at `opts` and
    returns its trajectory, or the typed error it raised."""
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as workdir:  # the trajectory cases write nothing there
        for seed in BENCHMARK_SEEDS:
            for workload in ("effective_events", "general_sliding"):
                for case in workloads.build(workload, seed, Path(workdir), ROOT):
                    yield f"{workload}/seed{seed}/{case.name}", functools.partial(_benchmark_run, case)
    for seed in MONOTONICITY_SEEDS:
        for i in range(MONOTONICITY_CASES):
            yield f"monotonicity/seed{seed}/case{i}", functools.partial(_monotonicity_run, seed, i)


def _benchmark_run(case, opts):
    with _integrators_at(opts):
        result = case.call()
    return getattr(result, "error", result)  # the benchmark wraps a typed error as Stopped(error)


def _monotonicity_run(seed: int, i: int, opts):
    state, data, integrator, _ = _monotonicity_case(seed, i)
    try:
        return integrator(state, data, 1.0, opts)
    except TruncflowError as exc:
        return exc


def summarize(result) -> dict:
    """How a run ended and what happened on the way.

    `end` is "s_end", the kind of its `stopped_reason` ("sliding", "separation lost"), or the
    name of the typed error it raised; `s` is where it ended.  `events` lists each crossing as
    [layer, cluster, point, coordinate, direction, s]; `cost` is the final cost.  A raised error
    carries neither events nor a cost.
    """
    if isinstance(result, TruncflowError):
        return {"end": type(result).__name__, "s": getattr(result, "s", None), "events": None, "cost": None}
    reason = result.stopped_reason
    return {
        "end": "s_end" if reason is None else reason.split(" at s = ")[0],
        "s": float(result.times[-1]),
        "events": [[ev.layer, ev.cluster, ev.point, ev.coordinate, ev.direction, ev.s] for ev in result.events],
        "cost": float(result.costs[-1]),
    }


def main() -> None:
    record = {}
    for name, run in cases():
        record[name] = {"default": summarize(run(IntegratorOptions())), "converged": summarize(run(CONVERGED))}
        print(name, record[name]["default"]["end"], flush=True)
    RECORD.write_text(dumps(record))


def dumps(record: dict) -> str:
    """The record as JSON, one event per line, so that two records diff by event."""
    return re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: f"[{' '.join(m.group(1).split())}]",
                  json.dumps(record, indent=1)) + "\n"


if __name__ == "__main__":
    main()
