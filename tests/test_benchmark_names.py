"""The names the benchmark's tracer looks up in truncflow still resolve.

perfbench/tracing.py wraps truncflow functions and constructors by module and
attribute name, and perfbench/workloads.py rebuilds states through the
LayerParams view; a rename or deletion would break the benchmark at import
time, so it is caught here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from truncflow.model import ModelState
from truncflow.scenarios import make_separated_config

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"truncflow.{module}"), attr)


def test_every_traced_name_resolves():
    tracing = load_tracing()
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
