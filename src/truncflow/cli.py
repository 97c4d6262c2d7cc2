"""Command-line front end: run a scenario from a JSON config, or verify
property suites.

Exit codes: 0 success, 2 config/validation failure, 3 step underflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import StepUnderflow, TruncflowError
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
from .measures import TrainingSet
from .oracle import rk4_array
from .scenarios import make_one_dim_state, named_initial_state, state_from_arrays
from .verify import SUITES, run_suites

MODES = ("effective", "general", "collapsed", "clustered", "oned")


class ConfigError(TruncflowError):
    """Invalid scenario configuration; the message names the offending field."""


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
        if not isinstance(self.q, int) or self.q < 1:
            raise ConfigError(f"field 'q' must be a positive integer, got {self.q!r}")
        if self.mode not in MODES:
            raise ConfigError(f"field 'mode' must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.s_end, (int, float)) or not 0 < self.s_end < np.inf:
            raise ConfigError(f"field 's_end' must be positive and finite, got {self.s_end!r}")
        if self.l is not None and (not isinstance(self.l, int) or self.l < 1):
            raise ConfigError(f"field 'l' must be a positive integer, got {self.l!r}")
        if self.mode in ("effective", "general", "oned", "clustered") and self.data is None:
            raise ConfigError(f"field 'data' is required for mode '{self.mode}'")
        if self.mode == "collapsed":
            for key in ("b", "w", "y"):
                if key not in self.init:
                    raise ConfigError(f"field 'init.{key}' is required for mode 'collapsed'")
        if self.mode == "clustered" and "w0" not in self.init:
            raise ConfigError("field 'init.w0' is required for mode 'clustered'")
        if self.mode == "oned" and "b0" not in self.init:
            raise ConfigError("field 'init.b0' is required for mode 'oned'")

    @property
    def depth(self) -> int:
        return self.l if self.l is not None else self.q

    def integrator_options(self) -> IntegratorOptions:
        known = {"step", "min_step", "cost_slack", "bisect_tol", "atol", "rtol"}
        unknown = set(self.tolerances) - known
        if unknown:
            raise ConfigError(f"unknown tolerance field(s) {sorted(unknown)}")
        values = {}
        for name, value in self.tolerances.items():
            try:
                values[name] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"field 'tolerances.{name}' must be a number, got {value!r}") from None
        try:
            return IntegratorOptions(**values)
        except ValueError as exc:  # the message is "<field> <reason>"
            name, _, reason = str(exc).partition(" ")
            raise ConfigError(f"field 'tolerances.{name}' {reason}") from exc


def _load_data(cfg: ScenarioConfig):
    doc = cfg.data
    if "path" in doc:
        data, labels = TrainingSet.load(doc["path"])
    else:
        data, labels = TrainingSet.from_dict(doc)
    if data.q != cfg.q:
        raise ConfigError(f"field 'data' has {data.q} clusters but q = {cfg.q}")
    if labels is None:
        raise ConfigError("field 'data.labels' is required")
    return data, labels


def _build_state(cfg: ScenarioConfig, data, labels):
    init = cfg.init
    kind = init.get("kind", "identity")
    output_map = np.asarray(init["output_map"], dtype=float) if "output_map" in init else None
    if kind == "explicit":
        for key in ("rotations", "betas"):
            if key not in init:
                raise ConfigError(f"field 'init.{key}' is required for explicit init")
        return state_from_arrays(
            [np.asarray(r, dtype=float) for r in init["rotations"]],
            [np.asarray(b, dtype=float) for b in init["betas"]],
            output_map if output_map is not None else np.eye(cfg.q),
            labels,
        )
    try:
        return named_initial_state(
            kind, data, labels, output_map=output_map,
            depth=cfg.depth, seed=int(init.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'init.kind': {exc}") from exc


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


def _run_layered(cfg: ScenarioConfig, out: Path) -> dict:
    data, labels = _load_data(cfg)
    state = _build_state(cfg, data, labels)
    opts = cfg.integrator_options()
    integrate = integrate_effective if cfg.mode == "effective" else integrate_general
    traj = integrate(state, data, cfg.s_end, opts)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_events_csv(traj.events, out / "events.csv")
    final = traj.final_state
    return {
        "mode": cfg.mode,
        "final_cost": traj.costs[-1],
        "initial_cost": traj.costs[0],
        "final_state": {
            "rotations": [lp.rotation.mat for lp in final.layers],
            "betas": [lp.beta for lp in final.layers],
        },
        "n_events": len(traj.events),
        "phases": fit_phase_exponents(traj),
        "rotation_freeze_s": freeze_time(traj),
        "max_orthogonality_error": max(
            lp.rotation.orthogonality_error() for smp in traj.samples for lp in smp.state.layers
        ),
    }


def _run_collapsed(cfg: ScenarioConfig, out: Path) -> dict:
    cs = CollapsedState(
        np.asarray(cfg.init["b"], dtype=float),
        np.asarray(cfg.init["w"], dtype=float),
        np.asarray(cfg.init["y"], dtype=float),
    )
    traj = integrate_collapsed(cs, cfg.s_end, cfg.integrator_options())
    write_collapsed_csv(traj, out / "trajectory.csv")
    (out / "events.csv").write_text("s,layer,cluster,point,coordinate,direction\n")
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


def _run_clustered(cfg: ScenarioConfig, out: Path) -> dict:
    data, labels = _load_data(cfg)
    w0 = np.asarray(cfg.init["w0"], dtype=float)
    x0 = np.vstack(data.clusters).T
    y_ext = np.column_stack([
        np.repeat(labels[l][:, None], data.counts[l], axis=1) for l in range(data.q)
    ])
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
    (out / "events.csv").write_text("s,layer,cluster,point,coordinate,direction\n")
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


def _run_oned(cfg: ScenarioConfig, out: Path) -> dict:
    data, labels = _load_data(cfg)
    if cfg.q != 1:
        raise ConfigError("field 'q' must be 1 for mode 'oned'")
    points = np.sort(data.clusters[0].reshape(-1))
    y = float(np.asarray(labels, dtype=float).reshape(-1)[0])
    b0 = float(cfg.init["b0"])
    flow = one_dim_flow(points, y, b0, len(points))
    state, dset = make_one_dim_state(points, y, b0)
    traj = integrate_effective(state, dset, cfg.s_end, cfg.integrator_options())
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
    summary = runner(cfg, out)
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
