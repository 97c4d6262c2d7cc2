"""Per-layer tracing of truncflow from outside the package.

The modules of truncflow call one another through module-level names
(``truncflow.integrate.effective_rhs``, ``truncflow.oracle.euclidean_cost``,
...).  :class:`Tracer` replaces every such binding of a traced function with
a wrapper that counts the call and records its span, restores the originals
on exit, and leaves the package itself untouched.  A span's self time is its
duration minus the time covered by the traced spans it caused.

Counts are kept per case: :meth:`Tracer.begin_case` opens a tally,
:meth:`Tracer.end_case` merges it into the totals or, for a case cut by its
wall-clock budget, drops it, so the totals of two runs at one seed agree.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter

# Functions timed as spans: metric prefix -> (module, attribute).
SPANS = {
    "manifold.retract": ("manifold", "retract"),
    "manifold.expm_antisym": ("manifold", "expm_antisym"),
    "model.euclidean_cost": ("model", "euclidean_cost"),
    "model.chained_truncation_batch": ("model", "chained_truncation_batch"),
    "measures.check_cluster_separation": ("measures", "check_cluster_separation"),
    "measures.compute_moments": ("measures", "compute_moments"),
    "flows.effective_rhs": ("flows", "effective_rhs"),
    "flows.general_rhs": ("flows", "general_rhs"),
    "flows.moment_form_rhs": ("flows", "moment_form_rhs"),
    "flows.collapsed_rhs": ("flows", "collapsed_rhs"),
    "oracle.fd_grad_beta": ("oracle", "fd_grad_beta"),
    "oracle.fd_grad_rotation": ("oracle", "fd_grad_rotation"),
    "cli.run_scenario": ("cli", "run_scenario"),
}
# Functions only counted; their time stays in the caller's self time.
COUNTED = {"manifold.reproject": ("manifold", "reproject")}
# Constructors: prefix -> (module, class, timed as a span?).
CONSTRUCTORS = {
    "manifold.OrthogonalMatrix": ("manifold", "OrthogonalMatrix", False),
    "manifold.AntisymmetricMatrix": ("manifold", "AntisymmetricMatrix", False),
    "model.ModelState": ("model", "ModelState", True),
}
INTEGRATORS = ("integrate_effective", "integrate_general", "integrate_collapsed")
CSV_WRITERS = ("write_trajectory_csv", "write_events_csv", "write_collapsed_csv")
VERIFY_SUITES = ("gradients", "equivalence", "conservation", "oned")
# Right-hand sides whose calls inside an integrate_* span count as RHS evaluations.
RHS = ("flows.effective_rhs", "flows.general_rhs", "flows.collapsed_rhs")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit, in report order."""
    out = []
    for prefix in SPANS:
        if prefix != "cli.run_scenario":
            out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    out += [(f"{prefix}.calls", "count") for prefix in COUNTED]
    for prefix, (_mod, _cls, timed) in CONSTRUCTORS.items():
        out.append((f"{prefix}.inits", "count"))
        if timed:
            out.append((f"{prefix}.self_s", "s"))
    out += [("integrate.self_s", "s"), ("integrate.accepted_steps", "count"),
            ("integrate.events", "count"), ("integrate.sliding_stops", "count"),
            ("integrate.rhs_evals_per_step", "evals/step"),
            ("integrate.write_csv.self_s", "s"), ("integrate.csv_bytes", "bytes")]
    out += [(f"verify.{name}.s", "s") for name in VERIFY_SUITES]
    out += [("cli.run_scenario.self_s", "s"), ("trace.overhead_s", "ref_s")]
    return out


class _Tally:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.total_s = Counter()

    def merge(self, other: "_Tally") -> None:
        self.counts.update(other.counts)
        self.self_s.update(other.self_s)
        self.total_s.update(other.total_s)


class Tracer:
    """Wraps truncflow's module-level names while :meth:`installed` is open."""

    def __init__(self):
        self.totals = _Tally()
        self._case = _Tally()
        self._stack: list[float] = []  # child time accumulated per open span
        self._integrating = 0

    # -- case bookkeeping -------------------------------------------------

    def begin_case(self) -> None:
        self._case = _Tally()
        self._stack.clear()
        self._integrating = 0

    def exclude(self, seconds: float) -> None:
        """Count `seconds` spent outside the program as a child of the open span."""
        if self._stack:
            self._stack[-1] += seconds

    def end_case(self, keep: bool) -> None:
        if keep:
            self.totals.merge(self._case)
        self._case = _Tally()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally = self._case
            tally.counts[name] += 1
            if self._integrating and name in RHS:
                tally.counts["integrate.rhs_evals"] += 1
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tally.self_s[name] += elapsed - self._stack.pop()
                tally.total_s[name] += elapsed
                if self._stack:
                    self._stack[-1] += elapsed
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._case.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _integrator(self, fn, typed_error):
        timed = self._span("integrate", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._integrating += 1
            try:
                traj = timed(*args, **kwargs)
            except typed_error:
                self._case.counts["integrate.sliding_stops"] += 1
                raise
            finally:
                self._integrating -= 1
            if getattr(traj, "stopped_reason", None):
                self._case.counts["integrate.sliding_stops"] += 1
            self._case.counts["integrate.accepted_steps"] += len(traj.samples) - 1
            self._case.counts["integrate.events"] += len(getattr(traj, "events", ()))
            return traj
        return wrapper

    def _csv_writer(self, fn):
        timed = self._span("integrate.write_csv", fn)

        @functools.wraps(fn)
        def wrapper(traj, path):
            timed(traj, path)
            self._case.counts["integrate.csv_bytes"] += os.path.getsize(path)
        return wrapper

    # -- installation -----------------------------------------------------

    def _wrappers(self) -> dict:
        """Map id(original) -> (original, wrapper) for every traced function."""
        pkg = lambda mod: sys.modules[f"truncflow.{mod}"]
        typed_error = pkg("errors").TruncflowError
        out = {}

        def add(orig, wrapper):
            out[id(orig)] = (orig, wrapper)

        for name, (mod, attr) in SPANS.items():
            orig = getattr(pkg(mod), attr)
            add(orig, self._span(name, orig))
        for name, (mod, attr) in COUNTED.items():
            orig = getattr(pkg(mod), attr)
            add(orig, self._count(name, orig))
        for attr in INTEGRATORS:
            orig = getattr(pkg("integrate"), attr)
            add(orig, self._integrator(orig, typed_error))
        for attr in CSV_WRITERS:
            orig = getattr(pkg("integrate"), attr)
            add(orig, self._csv_writer(orig))
        for suite in VERIFY_SUITES:
            orig = pkg("verify").SUITES[suite]
            add(orig, self._span(f"verify.{suite}", orig))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to a traced function inside truncflow."""
        wrappers = self._wrappers()
        undo = []

        def wrapper_for(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        def rebind(owner, key, value, setter):
            wrapper = wrapper_for(value)
            if wrapper is not None:
                undo.append((setter, owner, key, value))
                setter(owner, key, wrapper)

        def set_item(d, k, v):
            d[k] = v

        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "truncflow" and not modname.startswith("truncflow."):
                    continue
                for key, value in list(vars(mod).items()):
                    rebind(mod, key, value, setattr)
                    if isinstance(value, dict):  # e.g. verify.SUITES
                        for k, v in list(value.items()):
                            rebind(value, k, v, set_item)
                    if inspect.isfunction(value) and value.__defaults__:
                        # defaults bound at definition, e.g. gradients_suite(effective_fn=...)
                        new = tuple(wrapper_for(d) or d for d in value.__defaults__)
                        if new != value.__defaults__:
                            undo.append((setattr, value, "__defaults__", value.__defaults__))
                            value.__defaults__ = new
            for name, (mod, cls_name, timed) in CONSTRUCTORS.items():
                cls = getattr(sys.modules[f"truncflow.{mod}"], cls_name)
                orig = cls.__init__
                undo.append((setattr, cls, "__init__", orig))
                cls.__init__ = self._span(name, orig) if timed else self._count(name, orig)
            yield self
        finally:
            for setter, owner, key, value in reversed(undo):
                setter(owner, key, value)

    # -- report -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics over the kept cases, keyed as in :func:`metric_names`."""
        t = self.totals
        derived = {
            "integrate.rhs_evals_per_step":
                t.counts["integrate.rhs_evals"] / max(1, t.counts["integrate.accepted_steps"]),
            "trace.overhead_s": overhead_s,
        }
        values = {}
        for name, _unit in metric_names():
            prefix, _, field = name.rpartition(".")
            if name in derived:
                values[name] = derived[name]
            elif field in ("calls", "inits"):
                values[name] = t.counts[prefix]
            elif field == "self_s":
                values[name] = t.self_s[prefix]
            elif field == "s":  # verify.<suite>.s: the suite's whole span
                values[name] = t.total_s[prefix]
            else:  # integrate.accepted_steps, .events, .sliding_stops, .csv_bytes
                values[name] = t.counts[name]
        return values
