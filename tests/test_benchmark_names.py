"""The names the benchmark's tracer looks up in truncflow still resolve, and its trajectories are
the recorded ones.

perfbench/tracing.py wraps truncflow functions and constructors by module and
attribute name, and perfbench/workloads.py builds its inputs through the
scenario builders and rebuilds states through the LayerParams view; a rename,
deletion or signature change would break the benchmark, so it is caught here
instead.  A speed-up of the integrators must leave their output as it was:
the benchmark's trajectory cases are fingerprinted against a recorded digest.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from truncflow.model import ModelState
from truncflow.scenarios import make_separated_config

ROOT = Path(__file__).parents[1]


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"truncflow.{module}"), attr)


def test_every_traced_name_resolves():
    tracing = load_perfbench("tracing")
    for module, attr in [*tracing.SPANS.values(), *tracing.COUNTED.values()]:
        assert inspect.isfunction(resolve(module, attr)), f"{module}.{attr}"
    for module, cls, _timed in tracing.CONSTRUCTORS.values():
        assert inspect.isclass(resolve(module, cls)), f"{module}.{cls}"
    for attr in tracing.INTEGRATORS + tracing.CSV_WRITERS:
        assert inspect.isfunction(resolve("integrate", attr)), f"integrate.{attr}"
    suites = resolve("verify", "SUITES")
    for suite in tracing.VERIFY_SUITES:
        assert inspect.isfunction(suites[suite]), f"verify.SUITES[{suite!r}]"


def test_layers_view_round_trips():
    # the workloads jitter labels and biases through state.layers and LayerParams.with_updates
    state, _ = make_separated_config(3, n_per=4, seed=0)
    layers = [lp.with_updates(beta=lp.beta + 0.0) for lp in state.layers]
    rebuilt = ModelState(layers, state.output_map, state.labels)
    assert np.array_equal(rebuilt.rotations, state.rotations)
    assert np.array_equal(rebuilt.betas, state.betas)
    assert np.array_equal(rebuilt.pulled_labels, state.pulled_labels)
    assert all(np.array_equal(lp.rotation.mat, r) for lp, r in zip(rebuilt.layers, state.rotations))


def test_every_workload_builds(tmp_path):
    # the inputs of every case, built as the benchmark builds them at seed 0
    workloads = load_perfbench("workloads")
    for workload in workloads.WORKLOADS:
        cases = workloads.build(workload, 0, tmp_path, ROOT)
        assert cases, workload
        assert all(case.digest for case in cases), workload


# sha256 of the 13 trajectory cases of effective_events and general_sliding at seed 0 (see
# trajectory_fingerprint), recorded before the integrators planned each mask set once
TRAJECTORIES_SEED0 = "e5d035cc6d59fcb9154a06fea3d3f0a2bcacb6e3be789a45c6e5c6d3ced0c248"
# the same at seed 1, recorded before the fields swept their mask sets' plans as they are
TRAJECTORIES_SEED1 = "536f13572879eb9a16510f5ae2416e45e58f0ff6fc4a3afeedd825fb4767f71c"


def trajectory_fingerprint(workloads, seed: int, workdir: Path) -> str:
    """One digest of every trajectory case at `seed`, in order: each sample's s, cost, layer
    arrays and diagnostics, the events, the stop, the integrator stats; a typed error's repr."""
    h = hashlib.sha256()
    for workload in ("effective_events", "general_sliding"):
        for case in workloads.build(workload, seed, workdir, ROOT):
            traj = case.call()
            h.update(case.name.encode())
            if isinstance(traj, workloads.Stopped):
                h.update(repr(traj.error).encode())
                continue
            for smp in traj.samples:
                h.update(np.array([smp.s, smp.cost]).tobytes())
                h.update(smp.state.rotations.tobytes())
                h.update(smp.state.betas.tobytes())
                for k in range(smp.state.depth):
                    h.update(np.array([smp.omega_norms[k], smp.beta_gaps[k]]).tobytes())
                    h.update(np.asarray(smp.truncated_counts[k], dtype=np.int64).tobytes())
            h.update(repr([dataclasses.astuple(ev) for ev in traj.events]).encode())
            h.update(repr(traj.stopped_reason).encode())
            h.update(repr(dataclasses.astuple(traj.stats)).encode())
    return h.hexdigest()


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the fingerprint is recorded on x86_64 Linux")
def test_benchmark_trajectories_match_recorded_fingerprint(tmp_path):
    # samples, states, costs, diagnostics, events, stops and stats, bit for bit
    assert trajectory_fingerprint(load_perfbench("workloads"), 0, tmp_path) == TRAJECTORIES_SEED0


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the fingerprint is recorded on x86_64 Linux")
def test_benchmark_trajectories_match_recorded_fingerprint_at_seed_1(tmp_path):
    # the same cases drawn at a second seed: other starts, other events
    assert trajectory_fingerprint(load_perfbench("workloads"), 1, tmp_path) == TRAJECTORIES_SEED1
