"""Command-line front end: run a scenario from a JSON config, or verify
property suites.

Exit codes: 0 success, 2 config/validation failure, 3 step underflow or a
trajectory stopped at a sliding configuration or at lost cluster separation
(its files cover the run up to the stop, and summary.json names the reason).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import BadOrdering, EmptyCluster, LabelInsideData, SingularGram, StepUnderflow, TruncflowError
from .flows import one_dim_flow, CollapsedState
from .integrate import (
    IntegratorOptions,
    fit_log_slope,
    fit_phase_exponents,
    freeze_time,
    integrate_collapsed,
    integrate_effective,
    integrate_general,
    write_collapsed_csv,
    write_csv,
    write_events_csv,
    write_trajectory_csv,
)
from .measures import TrainingSet
from .model import finite_array
from .scenarios import INITIAL_STATES, make_one_dim_state, named_initial_state, state_from_arrays
from .verify import SUITES, clustered_closed_vs_ode, run_suites

MODES = ("effective", "general", "collapsed", "clustered", "oned")


class ConfigError(TruncflowError):
    """Invalid scenario configuration; the message names the offending field."""


def _is_int(value) -> bool:
    """A JSON integer; booleans are ints to Python but not numbers in a config."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _field_error(prefix: str, exc: Exception) -> ConfigError:
    """A library error whose message reads "<key> <reason>", as a ConfigError naming field prefix + key."""
    key, _, reason = str(exc).partition(" ")
    return ConfigError(f"field '{prefix}{key}' {reason}")


@dataclass
class ScenarioConfig:
    q: int
    mode: str
    s_end: float
    output: str
    l: int | None = None
    data: dict | None = None
    init: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        for key in ("q", "mode", "s_end", "output"):
            if key not in doc:
                raise ConfigError(f"missing required field '{key}'")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown field(s) {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not _is_int(self.q) or self.q < 1:
            raise ConfigError(f"field 'q' must be a positive integer, got {self.q!r}")
        if self.mode not in MODES:
            raise ConfigError(f"field 'mode' must be one of {MODES}, got {self.mode!r}")
        if not _is_number(self.s_end) or not 0 < self.s_end < np.inf:
            raise ConfigError(f"field 's_end' must be positive and finite, got {self.s_end!r}")
        if not isinstance(self.output, str):
            raise ConfigError(f"field 'output' must be a directory path string, got {self.output!r}")
        for name in ("data", "init", "tolerances"):
            value = getattr(self, name)
            if not isinstance(value, dict) and not (name == "data" and value is None):
                raise ConfigError(f"field '{name}' must be a JSON object, got {value!r}")
        if self.data is not None and not isinstance(self.data.get("path", ""), str):
            raise ConfigError(f"field 'data.path' must be a file path string, got {self.data['path']!r}")
        if self.l is not None and (not _is_int(self.l) or self.l < 1):
            raise ConfigError(f"field 'l' must be a positive integer, got {self.l!r}")
        if self.l is not None and self.mode not in ("effective", "general"):
            raise ConfigError(f"field 'l' is not used by mode '{self.mode}'; "
                              "only the layered modes 'effective' and 'general' take a depth")
        if self.mode in ("effective", "general", "oned", "clustered") and self.data is None:
            raise ConfigError(f"field 'data' is required for mode '{self.mode}'")
        for key in {"collapsed": ("b", "w", "y"), "clustered": ("w0",), "oned": ("b0",)}.get(self.mode, ()):
            if key not in self.init:
                raise ConfigError(f"field 'init.{key}' is required for mode '{self.mode}'")
        if self.mode == "oned":
            if self.q != 1:
                raise ConfigError("field 'q' must be 1 for mode 'oned'")
            b0 = self.init["b0"]
            if not _is_number(b0) or not -np.inf < b0 < np.inf:
                raise ConfigError(f"field 'init.b0' must be a finite number, got {b0!r}")
        if self.mode in ("effective", "general"):
            kind, kinds = self.init.get("kind", "identity"), INITIAL_STATES + ("explicit",)
            if kind not in kinds:
                raise ConfigError(f"field 'init.kind' must be one of {kinds}, got {kind!r}")
            seed = self.init.get("seed", 0)
            if not _is_int(seed) or seed < 0:
                raise ConfigError(f"field 'init.seed' must be a non-negative integer, got {seed!r}")
            if self.l is not None and self.l > self.q:
                raise ConfigError(f"field 'l' must not exceed q = {self.q} (one cluster and label "
                                  f"per layer), got {self.l!r}")

    @property
    def depth(self) -> int:
        return self.l if self.l is not None else self.q

    def integrator_options(self) -> IntegratorOptions:
        unknown = set(self.tolerances) - {f.name for f in fields(IntegratorOptions)}
        if unknown:
            raise ConfigError(f"unknown field(s) {sorted('tolerances.' + name for name in unknown)}")
        values = {}
        for name, value in self.tolerances.items():
            if not _is_number(value):
                raise ConfigError(f"field 'tolerances.{name}' must be a number, got {value!r}")
            values[name] = float(value)
        try:
            return IntegratorOptions(**values)
        except ValueError as exc:
            raise _field_error("tolerances.", exc) from exc


def _init_array(cfg: ScenarioConfig, key: str, shape: tuple | None = None) -> np.ndarray:
    """Config array `init.<key>`, q x q unless `shape` says otherwise, read by the library's
    :func:`~truncflow.model.finite_array`; a rejected one is a ConfigError naming the field."""
    try:
        return finite_array(cfg.init[key], key, shape or (cfg.q, cfg.q))
    except ValueError as exc:
        raise _field_error("init.", exc) from exc


def _load_data(cfg: ScenarioConfig):
    doc = cfg.data
    try:
        data, labels = TrainingSet.load(doc["path"]) if "path" in doc else TrainingSet.from_dict(doc)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"field 'data.path': {exc}") from exc
    except (ValueError, EmptyCluster) as exc:
        raise _field_error("data.", exc) from exc
    if data.q != cfg.q:
        raise ConfigError(f"field 'data' has {data.q} clusters but q = {cfg.q}")
    if labels is None:
        raise ConfigError("field 'data.labels' is required")
    return data, labels


def _build_state(cfg: ScenarioConfig, data, labels):
    init = cfg.init
    kind = init.get("kind", "identity")
    output_map = _init_array(cfg, "output_map") if "output_map" in init else None
    try:
        if kind == "explicit":
            for key in ("rotations", "betas"):
                if key not in init:
                    raise ConfigError(f"field 'init.{key}' is required for explicit init")
            q = cfg.q
            rotations = _init_array(cfg, "rotations", ("L", q, q))
            depth = len(rotations)
            betas = _init_array(cfg, "betas", (depth, q))
            if depth > q:
                raise ConfigError(f"field 'init.rotations' has {depth} layers but q = {q} "
                                  "(one cluster and label per layer)")
            if cfg.l is not None and depth != cfg.l:
                raise ConfigError(f"field 'init.rotations' has {depth} layers but l = {cfg.l}")
            return state_from_arrays(rotations, betas,
                                     output_map if output_map is not None else np.eye(q), labels)
        return named_initial_state(kind, data, labels, output_map=output_map,
                                   depth=cfg.depth, seed=init.get("seed", 0))
    except ValueError as exc:  # the layers and the output map are checked together
        raise ConfigError(f"field 'init': {exc}") from exc


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_summary(path: Path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _trajectory_outputs(mode: str, traj, out: Path) -> dict:
    """Write a layered trajectory's trajectory.csv and events.csv; return the summary
    keys that every layered mode reports."""
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_events_csv(traj.events, out / "events.csv")
    return {
        "mode": mode,
        "final_cost": traj.costs[-1],
        "initial_cost": traj.costs[0],
        "n_events": len(traj.events),
        "phases": fit_phase_exponents(traj),
        "stopped_reason": traj.stopped_reason,
        "integrator": asdict(traj.stats),
    }


def _run_layered(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    data, labels = _load_data(cfg)
    state = _build_state(cfg, data, labels)
    integrate = integrate_effective if cfg.mode == "effective" else integrate_general
    traj = integrate(state, data, cfg.s_end, opts)
    final = traj.final_state
    return {
        **_trajectory_outputs(cfg.mode, traj, out),
        "final_state": {"rotations": final.rotations, "betas": final.betas},
        "rotation_freeze_s": freeze_time(traj),
        "max_orthogonality_error": traj.max_orthogonality_error,
    }


def _run_collapsed(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    cs = CollapsedState(*(_init_array(cfg, key) for key in ("b", "w", "y")))
    traj = integrate_collapsed(cs, cfg.s_end, opts)
    out.mkdir(parents=True, exist_ok=True)
    write_collapsed_csv(traj, out / "trajectory.csv")
    write_events_csv([], out / "events.csv")
    ts, costs = traj.times, traj.costs
    tail = ts >= 0.5 * cfg.s_end
    return {
        "mode": "collapsed",
        "final_cost": costs[-1],
        "initial_cost": costs[0],
        "final_state": {"b": traj.final_state.b_matrix, "w": traj.final_state.w_out},
        "conservation_drift": traj.max_drift,
        "phases": [{"s_lo": 0.5 * cfg.s_end, "s_hi": cfg.s_end,
                    "log_cost_slope": fit_log_slope(ts[tail], costs[tail])}],
    }


def _run_clustered(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    """Closed form against a fixed-step ODE solve; neither takes step control from `opts`."""
    data, labels = _load_data(cfg)
    try:
        table, summary = clustered_closed_vs_ode(_init_array(cfg, "w0"), data, labels, cfg.s_end)
    except SingularGram as exc:
        raise ConfigError(f"field 'data.clusters': {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "trajectory.csv", ["s", "cost", "closed_vs_ode"], table)
    write_events_csv([], out / "events.csv")
    return {"mode": "clustered", **summary}


def _run_oned(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    data, labels = _load_data(cfg)
    points = data.clusters[0].reshape(-1)  # integrated in config order, so events name config indices
    y, b0 = float(labels[0, 0]), float(cfg.init["b0"])
    try:
        flow = one_dim_flow(np.sort(points), y, b0)
    except BadOrdering as exc:
        raise ConfigError(f"field 'data.clusters': {exc}") from exc
    except LabelInsideData as exc:  # the label is checked against the points before b0 against it
        name = "data.labels" if y <= points.max() else "init.b0"
        raise ConfigError(f"field '{name}': {exc}") from exc
    traj = integrate_effective(*make_one_dim_state(points, y, b0), cfg.s_end, opts)
    return {
        **_trajectory_outputs("oned", traj, out),
        "final_gap": traj.samples[-1].beta_gaps[0],
        "closed_form_breakpoints": list(flow.breakpoints),
        "closed_form_frozen": flow.frozen,
    }


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run the config's mode; each runner makes the output directory only once its
    library call has returned, so a rejected config or a StepUnderflow leaves none."""
    out = Path(cfg.output)
    runner = {
        "effective": _run_layered,
        "general": _run_layered,
        "collapsed": _run_collapsed,
        "clustered": _run_clustered,
        "oned": _run_oned,
    }[cfg.mode]
    summary = runner(cfg, out, cfg.integrator_options())
    _write_summary(out / "summary.json", summary)
    return summary


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        cfg = ScenarioConfig.from_dict(doc)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_scenario(cfg)
    except StepUnderflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, TruncflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {cfg.output}/trajectory.csv, events.csv, summary.json "
          f"(final cost {summary['final_cost']:.6g})")
    if summary.get("stopped_reason"):
        print(f"error: {summary['stopped_reason']}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    names = args.suite
    if names != "all" and names not in SUITES:
        print(f"error: unknown suite {names!r}; choose from {list(SUITES) + ['all']}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    report = run_suites(names, seed=args.seed)
    for suite in report["suites"]:
        for prop in suite["properties"]:
            status = "PASS" if prop["passed"] else "FAIL"
            print(f"[{status}] {suite['suite']}/{prop['name']}: "
                  f"worst {prop['worst']:.3e} (tol {prop['tolerance']:.3e}, "
                  f"{prop['cases']} cases, {prop['skipped']} skipped)")
        for stop in suite.get("stopped", []):
            print(f"[STOP] {suite['suite']}/case {stop['case']}: {stop['reason']}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    print("all suites passed" if report["passed"] else "FAILURES detected")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="truncflow",
        description="Simulate and verify input-space gradient flows of deep ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config", help="path to the scenario config JSON")
    p_run.set_defaults(fn=_cmd_run)
    p_verify = sub.add_parser("verify", help="run property-verification suites")
    p_verify.add_argument("suite", help=f"one of {list(SUITES) + ['all']}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
