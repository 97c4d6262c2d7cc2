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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyCluster, StepUnderflow, TruncflowError
from .flows import clustered_explicit, clustered_rhs, one_dim_flow, CollapsedState
from .integrate import (
    IntegratorOptions,
    _fit_log_slope,
    fit_phase_exponents,
    freeze_time,
    integrate_collapsed,
    integrate_effective,
    integrate_general,
    write_collapsed_csv,
    write_events_csv,
    write_trajectory_csv,
)
from .manifold import orthogonality_error
from .measures import TrainingSet
from .oracle import rk4_array
from .scenarios import INITIAL_STATES, make_one_dim_state, named_initial_state, state_from_arrays
from .verify import SUITES, run_suites

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


def _floats(name: str, value) -> np.ndarray:
    """Config field `name` as a float array; anything else, or a non-finite entry, is a ConfigError naming it."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{name}' must be an array of numbers: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"field '{name}' must be finite")
    return out


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
        for key in ("q", "mode", "s_end", "output"):
            if key not in doc:
                raise ConfigError(f"missing required field '{key}'")
        known = {"q", "l", "mode", "data", "init", "s_end", "tolerances", "output"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown field(s) {sorted(unknown)}")
        cfg = cls(
            q=doc["q"],
            mode=doc["mode"],
            s_end=doc["s_end"],
            output=doc["output"],
            l=doc.get("l"),
            data=doc.get("data"),
            init=doc.get("init") or {},
            tolerances=doc.get("tolerances") or {},
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        doc = {"q": self.q, "mode": self.mode, "s_end": self.s_end, "output": self.output}
        if self.l is not None:
            doc["l"] = self.l
        if self.data is not None:
            doc["data"] = self.data
        if self.init:
            doc["init"] = self.init
        if self.tolerances:
            doc["tolerances"] = self.tolerances
        return doc

    def validate(self) -> None:
        if not _is_int(self.q) or self.q < 1:
            raise ConfigError(f"field 'q' must be a positive integer, got {self.q!r}")
        if self.mode not in MODES:
            raise ConfigError(f"field 'mode' must be one of {MODES}, got {self.mode!r}")
        if not _is_number(self.s_end) or not 0 < self.s_end < np.inf:
            raise ConfigError(f"field 's_end' must be positive and finite, got {self.s_end!r}")
        if self.l is not None and (not _is_int(self.l) or self.l < 1):
            raise ConfigError(f"field 'l' must be a positive integer, got {self.l!r}")
        if self.mode in ("effective", "general", "oned", "clustered") and self.data is None:
            raise ConfigError(f"field 'data' is required for mode '{self.mode}'")
        if self.mode == "collapsed":
            for key in ("b", "w", "y"):
                if key not in self.init:
                    raise ConfigError(f"field 'init.{key}' is required for mode 'collapsed'")
        if self.mode == "clustered" and "w0" not in self.init:
            raise ConfigError("field 'init.w0' is required for mode 'clustered'")
        if self.mode == "oned":
            if "b0" not in self.init:
                raise ConfigError("field 'init.b0' is required for mode 'oned'")
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
        known = {"step", "min_step", "cost_slack", "bisect_tol", "atol", "rtol"}
        unknown = set(self.tolerances) - known
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


def _load_data(cfg: ScenarioConfig):
    doc = cfg.data
    try:
        data, labels = TrainingSet.load(doc["path"]) if "path" in doc else TrainingSet.from_dict(doc)
    except json.JSONDecodeError as exc:
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
    output_map = _floats("init.output_map", init["output_map"]) if "output_map" in init else None
    try:
        if kind == "explicit":
            for key in ("rotations", "betas"):
                if key not in init:
                    raise ConfigError(f"field 'init.{key}' is required for explicit init")
            state = state_from_arrays(
                _floats("init.rotations", init["rotations"]),
                _floats("init.betas", init["betas"]),
                output_map if output_map is not None else np.eye(cfg.q),
                labels,
            )
            if state.depth > cfg.q:
                raise ConfigError(f"field 'init.rotations' has {state.depth} layers but q = {cfg.q} "
                                  "(one cluster and label per layer)")
            if cfg.l is not None and state.depth != cfg.l:
                raise ConfigError(f"field 'init.rotations' has {state.depth} layers but l = {cfg.l}")
            return state
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


def _run_layered(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    data, labels = _load_data(cfg)
    state = _build_state(cfg, data, labels)
    integrate = integrate_effective if cfg.mode == "effective" else integrate_general
    traj = integrate(state, data, cfg.s_end, opts)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_events_csv(traj.events, out / "events.csv")
    final = traj.final_state
    return {
        "mode": cfg.mode,
        "final_cost": traj.costs[-1],
        "initial_cost": traj.costs[0],
        "final_state": {"rotations": final.rotations, "betas": final.betas},
        "n_events": len(traj.events),
        "phases": fit_phase_exponents(traj),
        "rotation_freeze_s": freeze_time(traj),
        "max_orthogonality_error": max(
            orthogonality_error(r) for smp in traj.samples for r in smp.state.rotations
        ),
        "stopped_reason": traj.stopped_reason,
        "integrator": asdict(traj.stats),
    }


def _run_collapsed(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    cs = CollapsedState(*(_floats(f"init.{key}", cfg.init[key]) for key in ("b", "w", "y")))
    traj = integrate_collapsed(cs, cfg.s_end, opts)
    write_collapsed_csv(traj, out / "trajectory.csv")
    write_events_csv([], out / "events.csv")
    ts, costs = traj.times, traj.costs
    tail = ts >= 0.5 * cfg.s_end
    slope = _fit_log_slope(ts[tail], costs[tail])
    return {
        "mode": "collapsed",
        "final_cost": costs[-1],
        "initial_cost": costs[0],
        "final_state": {"b": traj.final_state.b_matrix, "w": traj.final_state.w_out},
        "conservation_drift": traj.max_drift,
        "phases": [{"s_lo": 0.5 * cfg.s_end, "s_hi": cfg.s_end, "log_cost_slope": slope}],
    }


def _run_clustered(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    """Closed form against a fixed-step ODE solve; neither takes step control from `opts`."""
    data, labels = _load_data(cfg)
    w0 = _floats("init.w0", cfg.init["w0"])
    x0 = data.points.T
    y_ext = np.repeat(labels, data.counts, axis=0).T.copy()  # column i is point i's label
    n = x0.shape[1]

    def cost(w):
        e = w @ x0 - y_ext
        return 0.5 * float(np.sum(e * e)) / n

    grid = np.linspace(0.0, cfg.s_end, 201)
    rows = []
    worst_vs_ode = 0.0
    w_ode = w0.reshape(-1)
    s_prev = 0.0
    for s in grid:
        w_closed = clustered_explicit(w0, x0, y_ext, s)
        if s > s_prev:
            w_ode = rk4_array(
                lambda w: clustered_rhs(w.reshape(w0.shape), x0, y_ext).reshape(-1),
                w_ode, s - s_prev, step=1e-3,
            )
            s_prev = s
        diff = float(np.linalg.norm(w_closed - w_ode.reshape(w0.shape)))
        worst_vs_ode = max(worst_vs_ode, diff)
        rows.append((s, cost(w_closed), diff))
    lines = ["s,cost,closed_vs_ode"] + [
        ",".join(format(v, ".17g") for v in row) for row in rows
    ]
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    write_events_csv([], out / "events.csv")
    gram = x0 @ x0.T
    limit = (y_ext @ x0.T) @ np.linalg.inv(gram)
    w_end = clustered_explicit(w0, x0, y_ext, cfg.s_end)
    return {
        "mode": "clustered",
        "final_cost": cost(w_end),
        "initial_cost": cost(w0),
        "final_state": {"w": w_end},
        "closed_vs_ode_max": worst_vs_ode,
        "distance_to_limit": float(np.linalg.norm(w_end - limit)),
    }


def _run_oned(cfg: ScenarioConfig, out: Path, opts: IntegratorOptions) -> dict:
    data, labels = _load_data(cfg)
    if cfg.q != 1:
        raise ConfigError("field 'q' must be 1 for mode 'oned'")
    points = data.clusters[0].reshape(-1)  # integrated in config order, so events name config indices
    y = float(np.asarray(labels, dtype=float).reshape(-1)[0])
    b0 = float(cfg.init["b0"])
    flow = one_dim_flow(np.sort(points), y, b0)
    state, dset = make_one_dim_state(points, y, b0)
    traj = integrate_effective(state, dset, cfg.s_end, opts)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_events_csv(traj.events, out / "events.csv")
    return {
        "mode": "oned",
        "final_cost": traj.costs[-1],
        "initial_cost": traj.costs[0],
        "final_gap": traj.samples[-1].per_layer[0].beta_gap,
        "closed_form_breakpoints": list(flow.breakpoints),
        "closed_form_frozen": flow.frozen,
        "phases": fit_phase_exponents(traj),
        "n_events": len(traj.events),
        "stopped_reason": traj.stopped_reason,
        "integrator": asdict(traj.stats),
    }


def run_scenario(cfg: ScenarioConfig) -> dict:
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
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
