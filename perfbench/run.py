"""truncflow benchmark: seeded workloads, end-to-end times, per-layer traced counters.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload effective_events --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout, in this process, with
BLAS/OpenMP and TRUNCFLOW_THREADS pinned to one thread.  A run sets up three
times (fresh-interpreter import, input generation, warm-up) and reports the
median as ``setup_s``.  The timed phase repeats passes over the workload's
cases until ``--seconds`` would be exceeded; every case runs under a
wall-clock budget, and a case over budget counts as failed while the run
goes on.  Every output is checked.  With ``--trace 1`` the run makes one
untraced and one traced pass and reports the per-layer metrics of the traced
pass instead.

Times are reported in reference seconds (unit ``ref_s``).  On a shared 2-core
machine the same computation runs up to 2x slower for stretches of 5-20 s,
CPU time and wall time alike, so raw times follow the machine more than the
code.  While a case runs, a SIGPROF timer interrupts it every SAMPLE_EVERY_S
of CPU time to time a fixed speed probe: small numpy operations in Python
loops, the kind of work truncflow does.  The probes' time is taken out of
the case's time, and the rest is scaled by PROBE_REFERENCE_S over the mean
probe time, counting one more probe just before and one just after the
case.  A case cut by its budget keeps its raw wall time.  Set-up is scaled
the same way; its unit stays ``s``, as BENCHMARK.json fixes it.  Raw times
are on the line before the result.

The last line of standard output is the result object; the line before it
records the environment, the seed and the case outcomes.
"""

import os

# Pinned before numpy loads, in this process and in the import-timing children.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "TRUNCFLOW_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
FAILED = ("over_budget", "check_failed", "error")
# Speed samples inside a case: one every SAMPLE_EVERY_S of CPU time.  The
# probe takes PROBE_REFERENCE_S on the reference machine (2-core x86_64,
# Python 3.11, numpy 2.4, OpenBLAS); reference seconds read as seconds on a
# machine this fast.  The samples add about 5 % to a case's wall time.
SAMPLE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.0035


def speed_probe() -> float:
    """Seconds taken by fixed small numpy operations inside Python loops.

    Most of it is single small solves and products (the effective flow's
    kind of work), the rest batched (N, Q, Q) products (the general flow's).
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    x = rng.normal(size=(40, 4))
    mask = (rng.random(size=(40, 3)) > 0.5).astype(float)
    r, eye3, eye4 = a[:3, :3], np.eye(3), np.eye(4)
    acc = 0.0
    start = time.perf_counter()
    for i in range(100):
        acc += float(np.linalg.norm(np.linalg.solve(a @ a.T + eye4, x[i % 40])))
        acc += float(np.sum(np.maximum((x + 0.1) @ a.T, 0.0)))
    for _ in range(25):
        d = np.broadcast_to(eye3, (40, 3, 3)) @ ((r.T[None, :, :] * mask[:, None, :]) @ r)
        acc += float(np.einsum("nqp,nq->np", d, x[:, :3]).sum())
    return time.perf_counter() - start


class SpeedSampler:
    """Times speed_probe before, after, and every SAMPLE_EVERY_S of CPU time during a stretch of work."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds the in-work samples took
        self.running = False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(speed_probe())
        spent = time.perf_counter() - start
        self.spent += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def start(self) -> None:
        self.samples.append(speed_probe())
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self.running = False
            self.samples.append(speed_probe())

    def reference(self, seconds: float) -> float:
        return seconds * PROBE_REFERENCE_S / statistics.fmean(self.samples)


class OverBudget(BaseException):
    """Raised by SIGALRM inside a case that ran past its budget.

    A BaseException, so no handler inside the program can swallow it.
    """


def _alarm(signum, frame):
    raise OverBudget()


def run_case(case, budget_s, tracer=None):
    """Run one case under its budget; returns (outcome, raw seconds, reference seconds, detail).

    Raw seconds leave out the in-case speed samples.  A case cut by its
    budget reports its raw wall time as its reference time.
    """
    sampler = SpeedSampler(tracer)
    if tracer is not None:
        tracer.begin_case()
    sampler.start()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            output = case.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sampler.stop()
        elapsed = time.perf_counter() - start - sampler.spent
        outcome, detail = case.check(output)
    except OverBudget:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)  # the alarm may have cut the finally short
        sampler.stop()
        outcome, detail = "over_budget", f"over its {budget_s} s budget"
    except Exception as exc:  # every other failure is reported, and the run goes on
        elapsed = time.perf_counter() - start - sampler.spent
        outcome = getattr(exc, "outcome", "error")  # workloads.CheckFailed sets "check_failed"
        detail = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    if tracer is not None:
        tracer.end_case(keep=outcome not in FAILED)
    ref = elapsed if outcome == "over_budget" else sampler.reference(elapsed)
    return outcome, elapsed, ref, detail


class Record:
    """Outcomes and case times of one run."""

    def __init__(self):
        self.outcomes = Counter()
        self.failures: list[str] = []
        self.stops: list[str] = []  # documented stops, with their stop points
        self.log: list[tuple[str, float, float]] = []  # (case, raw seconds, reference seconds)

    def run_pass(self, cases, budget_s, tracer=None) -> list[tuple[str, float, float]]:
        """Run every case once; returns this pass's (case, raw seconds, reference seconds) rows."""
        rows = []
        for case in cases:
            outcome, elapsed, ref, detail = run_case(case, budget_s, tracer)
            self.outcomes[outcome] += 1
            if outcome in FAILED:
                self.failures.append(f"{case.name}: {outcome} {detail}")
            elif outcome == "stopped":
                self.stops.append(f"{case.name}: {detail}")
            rows.append((case.name, elapsed, ref))
        self.log += rows
        return rows


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import truncflow.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "truncflow" / "__init__.py").is_file():
        print(f"error: no truncflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not sys.modules["truncflow"].__file__.startswith(str(SRC)):
        print("error: truncflow was not imported from this checkout", file=sys.stderr)
        return 2
    budget_s = workloads.BUDGET_S[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, setups_raw = [], []
        for _ in range(SETUP_REPEATS):
            sampler = SpeedSampler()
            sampler.start()
            start = time.perf_counter()
            import_s = _import_seconds()
            cases = workloads.build(args.workload, args.seed, workdir, ROOT)
            workloads.warm_up()
            elapsed = time.perf_counter() - start - sampler.spent
            sampler.stop()
            setups_raw.append(elapsed)
            setups.append(sampler.reference(elapsed))

        record = Record()
        deadline = time.perf_counter() + args.seconds
        passes = []
        if args.trace:
            tracer = tracing.Tracer()
            passes.append(record.run_pass(cases, budget_s))
            with tracer.installed():
                passes.append(record.run_pass(cases, budget_s, tracer))
        else:
            while not passes or time.perf_counter() + sum(r[1] for r in passes[-1]) <= deadline:
                passes.append(record.run_pass(cases, budget_s))
        pass_ref_s = [sum(r[2] for r in rows) for rows in passes]
        case_ref_s: dict[str, list[float]] = {}
        for name, _raw, ref in record.log:
            case_ref_s.setdefault(name, []).append(ref)
        case_medians = {name: statistics.median(ts) for name, ts in case_ref_s.items()}

        if args.trace:
            metrics = tracer.metrics(overhead_s=pass_ref_s[1] - pass_ref_s[0])
            units = dict(tracing.metric_names())
        else:
            metrics = {
                "wall_s": statistics.median(pass_ref_s),
                "case_s_p50": statistics.median(case_medians.values()),
                "case_s_max": max(case_medians.values()),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"wall_s": "ref_s", "case_s_p50": "ref_s", "case_s_max": "ref_s",
                     "setup_s": "s", "peak_rss_mb": "MB"}

        attempted = sum(record.outcomes.values())
        failed = sum(record.outcomes[o] for o in FAILED)
        correct = not (record.outcomes["check_failed"] or record.outcomes["error"])
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": _environment(), "budget_s": budget_s,
            "cases": len(cases), "passes": len(passes),
            "pass_raw_s": [sum(r[1] for r in rows) for rows in passes], "pass_ref_s": pass_ref_s,
            "setup_raw_s": setups_raw,
            "import_s": import_s,
            "failed_ratio": failed / attempted, "outcomes": dict(record.outcomes),
            "failures": record.failures, "stops": sorted(set(record.stops)),
            "case_ref_s": case_medians, "log": record.log,
        }
        print(json.dumps(info))
        print(json.dumps({
            "correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
