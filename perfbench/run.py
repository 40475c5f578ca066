"""nlogis benchmark: seeded CLI workloads, each op verified, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never
from an installed copy, and every op goes through the public entry points
nlogis.cli.parse_config, nlogis.cli.run and nlogis.cli.csv_text in this one
process (jobs = 1, no pool).  The loop is closed with one client: the next
op starts when the previous one is verified.

--trace 0 runs rounds of fresh draws until --seconds is used up and
prints the end-to-end metrics.  --trace 1 runs each op of one round twice,
once untraced and once with spans around the package's public functions,
and prints the per-layer metrics of the traced runs plus the tracing
overhead.  The last line of standard output is the result as one JSON
object.  See NOTES.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are pinned before numpy loads: one thread keeps the
# floating-point reduction order, and with it which inputs make the descent
# stall, independent of the machine's core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from verify import verify  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median

_OPS = ("dirichlet", "classical", "periodic", "transmission", "conv")
PER_LAYER = {
    "grids.calls": "count", "grids.s": "s", "grids.self_s": "s",
    **{f"operators.{k}.{m}": u for k in _OPS
       for m, u in (("calls", "count"), ("s", "s"))},
    "operators.bytes_computed": "bytes", "operators.self_s": "s",
    "spectral.eig.calls": "count", "spectral.eig.s": "s",
    "spectral.eig.iters": "count", "spectral.eig.factorizations": "count",
    "spectral.self_s": "s",
    "logistic.solve.calls": "count", "logistic.solve.s": "s",
    "logistic.solve.self_s": "s", "logistic.iters": "count",
    "logistic.iters_max": "count", "logistic.stalled": "count",
    "logistic.factorizations": "count", "logistic.factorize_s": "s",
    "transmission.lambda.calls": "count", "transmission.lambda.s": "s",
    "transmission.minimize.calls": "count", "transmission.minimize.s": "s",
    "transmission.iters": "count", "transmission.self_s": "s",
    "strategic.harmonic.calls": "count", "strategic.harmonic.s": "s",
    "strategic.forced.calls": "count", "strategic.forced.s": "s",
    "strategic.radii": "count", "strategic.self_s": "s",
    "cli.parse.s": "s", "cli.run.s": "s", "cli.csv.s": "s",
    "cli.rows": "count", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.CANDIDATES, "baseline-defects"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up seconds")
    return p.parse_args(argv)


def _import_nlogis():
    if not (SRC / "nlogis" / "__init__.py").is_file():
        raise SystemExit(f"error: no nlogis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlogis
    import nlogis.cli
    if Path(nlogis.__file__).resolve().parent != SRC / "nlogis":
        raise SystemExit(f"error: imported nlogis from {nlogis.__file__}")
    return nlogis


def run_op(nlogis, op: dict) -> tuple[float, list[str]]:
    """Parse, run, render and verify one op; (latency, problems)."""
    cli = nlogis.cli
    t0 = time.perf_counter()
    try:
        config = cli.parse_config(json.dumps(op["config"]))
        rows = cli.run(config)
        cli.csv_text(rows, config.experiment)
        problems = verify(config.experiment, config.params, op["expect"], rows)
    except (nlogis.ConvergenceError, ValueError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, problems


class Run:
    """Latencies and failures of the ops run so far."""

    def __init__(self, nlogis):
        self.nlogis = nlogis
        self.ops: list[dict] = []
        self.latencies: list[float] = []
        self.rounds: list[float] = []
        self.failures: list[tuple[str, list[str]]] = []

    def _op(self, op: dict) -> float:
        latency, problems = run_op(self.nlogis, op)
        self.ops.append(op)
        self.latencies.append(latency)
        if problems:
            self.failures.append((op["id"], problems))
        return latency

    def round(self, ops: list[dict]) -> float:
        t0 = time.perf_counter()
        for op in ops:
            self._op(op)
        self.rounds.append(time.perf_counter() - t0)
        return self.rounds[-1]

    def paired_round(self, ops: list[dict], tracer) -> tuple[float, float]:
        """Each op untraced and traced, alternating which runs first so
        that neither side always gets the warm repeat; returns the
        (untraced, traced) sums of op latencies."""
        sums = [0.0, 0.0]
        for i, op in enumerate(ops):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                restore = (spans.instrument(tracer, self.nlogis) if traced
                           else None)
                try:
                    sums[traced] += self._op(op)
                finally:
                    if restore is not None:
                        restore()
        return sums[0], sums[1]


def _setup_probe_seconds(argv: list[str]) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _blas_threads(numpy, scipy) -> dict:
    """Thread count each bundled OpenBLAS reports, by library file."""
    out = {}
    for pkg in (numpy, scipy):
        site = Path(pkg.__file__).resolve().parent.parent
        libdir = site / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    get = getattr(dll, sym)
                    get.argtypes, get.restype = [], ctypes.c_int
                    out[lib.name] = get()
                    break
    return out


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(numpy, scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "process_pool": False,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_table(workload, metrics, run):
    attempted = len(run.latencies)
    print(f"workload {workload}: {attempted} ops, "
          f"{len(run.failures)} failed")
    rows = {**{k: (v["value"], v["unit"]) for k, v in metrics.items()},
            "fail_ratio": (len(run.failures) / max(1, attempted), "ratio"),
            "ops": (attempted, "count")}
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    if workload == "baseline-defects":
        failed = dict(run.failures)
        # one line per op, so two commits can be compared op by op
        for op, latency in zip(run.ops, run.latencies):
            status = "FAILED" if op["id"] in failed else "ok"
            print(f"  {latency:10.3f} s  {status:6s} {op['id']}")
    for op_id, problems in run.failures:
        print(f"  FAILED {op_id}: {'; '.join(problems)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    nlogis = _import_nlogis()
    if args.workload == "baseline-defects":
        first = workloads.defect_ops()
    else:
        first = workloads.round_ops(args.workload, args.seed, 0)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(f"{setup_main!r}")
        return 0
    setup_all = [setup_main]
    if args.trace == 0 and args.workload != "baseline-defects":
        setup_all += _setup_probe_seconds(argv)

    run = Run(nlogis)
    if args.workload == "baseline-defects":
        metrics = {"wall_s": _metric(run.round(first), "s")}
    elif args.trace == 0:
        k, t_start = 0, time.perf_counter()
        ops = first
        while True:
            run.round(ops)
            k += 1
            # stop when another round would end more than half a round
            # past --seconds, so one slow round cannot cut the run short
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * statistics.median(run.rounds) > args.seconds:
                break
            ops = workloads.round_ops(args.workload, args.seed, k)
        metrics = {
            "setup_s": _metric(statistics.median(setup_all), "s"),
            "wall_s": _metric(statistics.median(run.rounds), "s"),
            "op_p50_s": _metric(statistics.median(run.latencies), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    else:
        tracer = spans.Tracer()
        untraced, traced = run.paired_round(first, tracer)
        found = tracer.metrics()
        found.update({"trace.wall_s": traced,
                      "trace.untraced_wall_s": untraced,
                      "trace.overhead_s": traced - untraced})
        metrics = {name: _metric(found.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops_digest": workloads.digest(run.ops),
                      "ops": len(run.ops),
                      "setup_samples_s": setup_all,
                      "round_s": run.rounds,
                      "environment": environment()}))
    _print_table(args.workload, metrics, run)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.latencies),
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
