"""Time the solver's layers at two checkouts and compare their traced counts.

    python3 tools/bench_layers.py --before PARENT --out BENCH.json

PARENT is a checkout (with src/ and perfbench/) compared against the one
this script lives in.  One child process per checkout imports nlogis from
its checkout's src/ and pins BLAS to one thread; the two stay alive for
the whole run and take turns, case by case, so that a drift in the
machine's speed over minutes falls on both sides alike.  For each case the
children run ROUNDS rounds, alternating which goes first; in each round a
child times REPEATS calls, after one untimed call on its first round.  The
report gives each case's node count, per side the median and quartiles of
all samples, and the calls one call makes (counted on a further call, by
the name the module calls them by): of the dense factorizations,
spectral's cho_factor, logistic's dpotrf and its symmetric-indefinite
solve, each with the order of the matrix it factors, a dpotrf that finds
the matrix not positive definite counted apart as "failed"; of spectral's
cho_solve, the Lanczos iteration's solves with that factor, by its order;
of logistic's MINRES solves (the periodic cell's Newton steps), with their
order and, as "iterations", the MINRES iterations they took together; of
solve_dirichlet from inside logistic, by the classification it returns;
of logistic's survival certificate _survives, which critical_radius
calls in its place, by its verdict ("survives" or "extinct"); and of the
n x n assembly assemble_dirichlet and the even-half builders
_half_dirichlet and _half_classical (where the checkout has them) as
operators calls them, by the order of what they build.

Cases: the fractional Dirichlet and classical operators and the
convolution matrix (uniform kernel, rho = 1/4) on the unit interval, and
the transmission form on (0, 1) and (1.5, 2.5), at n = 255, 511, 1023,
2047 (the transmission form at the nearest size its two intervals allow);
the periodic operator and the periodic convolution matrix
(uniform kernel, rho = 1/4) at n = 256 ... 4096; the first eigenpair of the
Dirichlet operator and two Dirichlet solves, mu = 1, on the unit interval
at n = 255 ... 2047: sigma = 1.2 times the first eigenvalue, so the solve
has a nontrivial state, and sigma = 0.8 times it, an extinct one; these
habitats and resources mirror, so the solves are built and run on the
even half, and only the nontrivial one assembles the n x n operator, for
its eigenvector; next to them a Dirichlet solve that does not mirror, on
(-1, 1) at the same n with sigma the resource-sweep dip (level 30, centre
0.6, width 0.2); the first eigenpair of the Dirichlet operator on the
mirrored pair (0, 1) and
(1.5, 2.5), at the transmission form's even sizes, and on (0, 1) and
(1.5, 2.25), which does not mirror, at the nearest size its intervals
allow; eigen_scaling at r = 4 (the base eigenvalue and the dilated one)
on the unit interval and on the pair (0, 0.5) and (0.625, 1.125), at base
spacings 1/256 and 1/512, named by the dilated grid's node count
(1022 ... 2047); two periodic solves, mu = 1, tau = 0.5 with the uniform kernel
(rho = 1/4), at n = 128 ... 2048: sigma = 2 and sigma = 2 + cos 2 pi x;
the first eigenpair of the transmission form (lambda_star without
its assembly) and the same two transmission solves, mu = 1, at the
transmission form's sizes, sigma a multiple of lambda_star; the critical
radius of the unit interval at each spacing in CRITICAL_RADIUS_H, under
the node count of its undilated grid; at each n in HALF_SIZES on the
unit interval, the critical radius's certificate model (sigma = mu = 1)
on its even half, "half-assembly" (logistic._half_model, which
assembles it directly), and that certificate, "certificate"
(_survives, which factors it, since sigma = 1 < lambda_1);
build_strategic on the strategic experiment's default resource
(sigma = mu = 1, eps = 0.1, support radii 4, 6, 8) at each spacing in
STRATEGIC_H, tau = 0 and tau = 1/2 with the uniform kernel (rho = 1/2),
under the node count of its grid on (-4, 4), with the calls of one op to
strategic's assemble_dirichlet, _half_dirichlet (the harmonic fit's even
half, where the checkout has it) and convolution_matrix, by the order of
what they build.  All at s = S.  The cases are built one at a time, so
that a child holds only the current case's matrices.

Then each checkout's perfbench/run.py --trace 1 --seed TRACE_SEED runs
every workload once, and the report lists the counts (calls, iterations,
factorizations, bytes computed, rows) of both sides, each count that
differs between them, and the span times of both.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

AFTER = Path(__file__).resolve().parent.parent
ROUNDS = 5
REPEATS = 3
TRACE_SEED = 7
S = 0.3
SIZES = (255, 511, 1023, 2047)
PERIODIC_SIZES = (256, 512, 1024, 2048, 4096)
PERIODIC_SOLVE_SIZES = (128, 256, 512, 1024, 2048)
CRITICAL_RADIUS_H = (2.0**-7, 2.0**-8)
HALF_SIZES = (255, 256, 511, 1023, 2047)
STRATEGIC_H = (2.0**-6, 2.0**-7)
# the eigen-scaling workload's habitats, a unit interval and a congruent
# pair a quarter length apart, at base spacing 1/(n + 1) and dilated by r
EIGEN_SCALING = (("eigen-scaling", [(0.0, 1.0)]),
                 ("eigen-scaling-pair", [(0.0, 0.5), (0.625, 1.125)]))
EIGEN_SCALING_SIZES = (255, 511)
EIGEN_SCALING_R = 4.0
STRATEGIC_TAUS = (0.0, 0.5)
WORKLOADS = ("resource-sweep", "threshold-bisection", "eigen-scaling",
             "coupled-habitats")
COUNT_SUFFIXES = (".calls", ".iters", ".iters_max", ".factorizations",
                  ".bytes_computed", ".stalled", ".radii", ".rows")
SPAN_TIMES = ("operators.dirichlet.s", "operators.classical.s",
              "operators.periodic.s", "operators.transmission.s",
              "operators.conv.s", "operators.self_s", "spectral.eig.s",
              "logistic.solve.s", "logistic.factorize_s")
# (case name, sigma as a multiple of the first eigenvalue) of the solves
DIRICHLET_SOLVES = (("dirichlet-solve", 1.2), ("extinct-solve", 0.8))
# (level, centre, width) of the dip resource of the solve that does not mirror
DIP = (30.0, 0.6, 0.2)
# (case name, sigma) of the periodic solves
PERIODIC_SOLVES = (("periodic-solve", 2.0),
                   ("periodic-oscillatory-solve",
                    lambda x: 2.0 + math.cos(2.0 * math.pi * x)))
TRANSMISSION_SOLVES = (("transmission-solve", 1.2),
                       ("transmission-extinct-solve", 0.8))
# (module, name) of every dense factorization entry point a case may call,
# of spectral's solves with its factor, of the iterative solve of the
# periodic Newton steps, and of the survival test critical_radius calls:
# the certificate _survives or, at an older checkout, solve_dirichlet; and
# of the assemblies of the strategic construction, and of the n x n and
# even-half assemblies
COUNTED = (("spectral", "cho_factor"), ("spectral", "cho_solve"),
           ("logistic", "dpotrf"),
           ("logistic", "solve"), ("logistic", "minres"),
           ("logistic", "solve_dirichlet"), ("logistic", "_survives"),
           ("strategic", "assemble_dirichlet"),
           ("strategic", "_half_dirichlet"),
           ("strategic", "convolution_matrix"),
           ("operators", "assemble_dirichlet"),
           ("operators", "_half_dirichlet"), ("operators", "_half_classical"))


def _cases(nl):
    """(name, n, make) for every case; make() does the case's setup and
    returns the zero-argument call that is timed."""
    out = []
    for n in SIZES:
        grid = nl.build_grid([(0.0, 1.0)], 1.0 / (n + 1))
        kernel = nl.build_kernel("uniform", 0.25, grid.h)
        ts = _transmission_spec(nl, n, 1.0)
        out += [("dirichlet", n, _ready(nl.assemble_dirichlet, grid, S)),
                ("classical", n, _ready(nl.assemble_classical, grid)),
                ("grid-convolution", n,
                 _ready(nl.convolution_matrix, kernel, grid)),
                ("transmission", ts.grid.n,
                 _ready(nl.assemble_transmission, ts))]
    for n in PERIODIC_SIZES:
        pg = nl.build_periodic_grid(n)
        kernel = nl.build_kernel("uniform", 0.25, pg.h)
        out += [("periodic", n, _ready(nl.assemble_periodic, pg, S)),
                ("convolution", n, _ready(nl.convolution_matrix, kernel, pg))]
    for n in SIZES:
        grid = nl.build_grid([(0.0, 1.0)], 1.0 / (n + 1))
        out.append(("eigenpair", n, _eigenpair(nl, nl.assemble_dirichlet,
                                               grid, S)))
        for name, factor in DIRICHLET_SOLVES:
            out.append((name, n, _dirichlet_solve(nl, grid, factor)))
        out.append(("dip-solve", n, _dip_solve(nl, n)))
    for n in SIZES:
        pair = nl.build_grid([(0.0, 1.0), (1.5, 2.5)], 2.0 / (n + 1))
        k = (n + 2) // 7  # (0, 1) and (1.5, 2.25) at h = 1/(4k)
        lopsided = nl.build_grid([(0.0, 1.0), (1.5, 2.25)], 1.0 / (4 * k))
        out += [("eigenpair-pair", pair.n,
                 _eigenpair(nl, nl.assemble_dirichlet, pair, S)),
                ("eigenpair-asymmetric", lopsided.n,
                 _eigenpair(nl, nl.assemble_dirichlet, lopsided, S))]
    for n in EIGEN_SCALING_SIZES:
        h = 1.0 / (n + 1)
        for name, intervals in EIGEN_SCALING:
            dilated = [(EIGEN_SCALING_R * a, EIGEN_SCALING_R * b)
                       for a, b in intervals]
            out.append((name, nl.build_grid(dilated, h).n,
                        _ready(nl.eigen_scaling, intervals,
                               [EIGEN_SCALING_R], S, h)))
    for n in PERIODIC_SOLVE_SIZES:
        for name, sigma in PERIODIC_SOLVES:
            out.append((name, n, _periodic_solve(nl, n, sigma)))
    for n in SIZES:
        ts = _transmission_spec(nl, n, 1.0)
        out.append(("transmission-eigenpair", ts.grid.n,
                    _eigenpair(nl, nl.assemble_transmission, ts)))
        for name, factor in TRANSMISSION_SOLVES:
            out.append((name, ts.grid.n, _transmission_solve(nl, n, factor)))
    for h in CRITICAL_RADIUS_H:
        out.append(("critical-radius", round(1.0 / h) - 1,
                    _ready(nl.critical_radius, (0.0, 1.0), S, h)))
    for n in HALF_SIZES:
        out += [("half-assembly", n, _certificate(nl, n, "half")),
                ("certificate", n, _certificate(nl, n, "survives"))]
    for h in STRATEGIC_H:
        for tau in STRATEGIC_TAUS:
            out.append((f"strategic-tau={tau:g}", round(8.0 / h) - 1,
                        _strategic(nl, h, tau)))
    return out


def _ready(fn, *args):
    """make() for a case with no setup: fn(*args)."""
    return lambda: partial(fn, *args)


def _eigenpair(nl, assemble, *args):
    """make() for the first eigenpair of assemble(*args)."""
    def make():
        return partial(nl.first_eigenpair, assemble(*args))
    return make


def _dirichlet_solve(nl, grid, factor):
    """make() for a Dirichlet solve, sigma = factor times lambda_1."""
    def make():
        lam = nl.first_eigenpair(nl.assemble_dirichlet(grid, S)).lambda_
        return partial(nl.solve_dirichlet,
                       nl.problem_spec(grid, S, factor * lam, 1.0))
    return make


def _dip_solve(nl, n):
    """make() for the solve on (-1, 1) at n nodes under the DIP resource."""
    level, centre, width = DIP

    def dip(x):
        if abs(x - centre) >= width:
            return level
        return level * 0.5 * (1.0 - math.cos(math.pi * (x - centre) / width))

    def make():
        grid = nl.build_grid([(-1.0, 1.0)], 2.0 / (n + 1))
        return partial(nl.solve_dirichlet, nl.problem_spec(
            grid, S, nl.sample_function(grid, dip), 1.0))
    return make


def _periodic_solve(nl, n, sigma):
    """make() for a periodic solve on n nodes under sigma."""
    def make():
        pg = nl.build_periodic_grid(n)
        return partial(nl.solve_periodic, nl.problem_spec(
            pg, S, sigma, 1.0, tau=0.5,
            kernel=nl.build_kernel("uniform", 0.25, pg.h)))
    return make


def _transmission_solve(nl, n, factor):
    """make() for a transmission solve, sigma = factor times lambda_star."""
    def make():
        lam = nl.lambda_star(_transmission_spec(nl, n, 1.0)).lambda_
        return partial(nl.minimize_transmission,
                       _transmission_spec(nl, n, factor * lam))
    return make


def _certificate(nl, n, what):
    """make() for the critical radius's certificate on the unit interval at
    n nodes, sigma = mu = 1: its half model ("half") or the whole
    certificate ("survives")."""
    def make():
        lg = nl.logistic
        spec = nl.problem_spec(nl.build_grid([(0.0, 1.0)], 1.0 / (n + 1)),
                               S, 1.0, 1.0)
        if what == "survives":
            return partial(lg._survives, spec)
        return partial(lg._half_model, spec)
    return make


def _strategic(nl, h, tau):
    """make() for build_strategic on the default resource at spacing h."""
    def make():
        import numpy as np
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        kernel = nl.build_kernel("uniform", 0.5, h) if tau > 0.0 else None
        return partial(nl.build_strategic, one, one, tau, kernel, S, 0.1, h)
    return make


def _transmission_spec(nl, n, sigma):
    """The transmission problem on (0, 1) and (1.5, 2.5) at about n nodes."""
    return nl.transmission_spec((0.0, 1.0), (1.5, 2.5), 2.0 / (n + 1), s=S,
                                s1=0.4, s2=0.6, nu1=1.0, nu2=1.0, sigma=sigma,
                                mu=1.0)


def _calls(nl, fn) -> dict:
    """Calls of each COUNTED entry point made by one call of fn."""
    counts = {}
    undo = []
    for module_name, attr in COUNTED:
        module = getattr(nl, module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        key = f"{module_name}.{attr}"

        def counted(*args, _key=key, _fn=original, **kwargs):
            if _key == "logistic.minres":
                iterations = f"{_key} iterations order={args[0].shape[0]}"
                counts.setdefault(iterations, 0)

                def step(x, _iterations=iterations):
                    counts[_iterations] += 1
                kwargs["callback"] = step
            result = _fn(*args, **kwargs)
            if _key == "logistic.solve_dirichlet":
                _key += " " + result.classification
            elif _key == "logistic._survives":
                _key += " survives" if result else " extinct"
            elif _key.startswith(("strategic.", "operators.")):
                _key += f" order={getattr(result, 'a', result).shape[0]}"
            else:
                # cho_solve takes the factor as (matrix, lower)
                matrix = args[0][0] if _key == "spectral.cho_solve" else args[0]
                _key += f" order={matrix.shape[0]}"
                if _key.startswith("logistic.dpotrf") and result[1] != 0:
                    _key += " failed"
            counts[_key] = counts.get(_key, 0) + 1
            return result
        setattr(module, attr, counted)
        undo.append((module, attr, original))
    try:
        fn()
    finally:
        for module, attr, original in undo:
            setattr(module, attr, original)
    return counts


def _time_child(src: Path) -> None:
    """Serve "time I" (REPEATS timings of case I) and "calls I" (its
    counted calls) from stdin, one JSON line each; the first line out is
    the list of case names."""
    sys.path.insert(0, str(src))
    import nlogis as nl

    cases = _cases(nl)
    print(json.dumps([f"{name}/n={n}" for name, n, _ in cases]), flush=True)
    current, fn = None, None
    for line in sys.stdin:
        command, index = line.split()
        if int(index) != current:
            current, fn = int(index), None  # free the last case first
            fn = cases[current][2]()
            fn()
        if command == "time":
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            print(json.dumps(samples), flush=True)
        else:
            print(json.dumps(_calls(nl, fn)), flush=True)


class _Child:
    """A timing child for one checkout, asked one line at a time."""

    def __init__(self, checkout: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--time-src",
             str(checkout / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.cases = self._answer()

    def ask(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def _answer(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"timing child {self.proc.args} exited "
                               f"with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _summary(samples: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": statistics.median(samples), "q1_s": q1, "q3_s": q3,
            "samples": len(samples)}


def _traced(checkout: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(TRACE_SEED), "--seconds", "25", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def _trace_report(sides: dict[str, Path]) -> dict:
    report = {}
    for workload in WORKLOADS:
        metrics = {side: _traced(path, workload)
                   for side, path in sides.items()}
        counts = {side: {k: v for k, v in m.items()
                         if k.endswith(COUNT_SUFFIXES)}
                  for side, m in metrics.items()}
        keys = sorted(set(counts["before"]) | set(counts["after"]))
        report[workload] = {
            "count_differences": {
                k: {side: counts[side].get(k) for side in sides}
                for k in keys
                if counts["before"].get(k) != counts["after"].get(k)},
            "counts": counts,
            "span_s": {side: {k: m.get(k, 0.0) for k in SPAN_TIMES}
                       for side, m in metrics.items()},
        }
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--time-src", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.time_src is not None:
        _time_child(args.time_src)
        return 0
    if args.before is None or args.out is None:
        p.error("--before and --out are required")
    sides = {"before": args.before.resolve(), "after": AFTER}
    children = {side: _Child(path) for side, path in sides.items()}
    layers = {}
    try:
        if children["before"].cases != children["after"].cases:
            raise RuntimeError("the two checkouts build different cases")
        for index, case in enumerate(children["after"].cases):
            pooled = {side: [] for side in sides}
            for r in range(ROUNDS):
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for side in order:
                    pooled[side] += children[side].ask(f"time {index}")
            before = _summary(pooled["before"])
            after = _summary(pooled["after"])
            layers[case] = {
                "before": before, "after": after,
                "ratio": after["median_s"] / before["median_s"],
                "calls": {side: children[side].ask(f"calls {index}")
                          for side in sides}}
    finally:
        for child in children.values():
            child.close()
    import numpy
    import scipy
    report = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "blas_threads": 1},
        "method": {"rounds": ROUNDS, "repeats": REPEATS, "s": S},
        "layers": layers,
        "trace": {"seed": TRACE_SEED, **_trace_report(sides)},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for case, row in layers.items():
        counts = row["calls"]
        print(f"{case:34s} {row['before']['median_s'] * 1e3:9.2f} ms -> "
              f"{row['after']['median_s'] * 1e3:9.2f} ms"
              + (f"  calls {counts['before']} -> {counts['after']}"
                 if counts["before"] or counts["after"] else ""))
    for workload, row in report["trace"].items():
        if isinstance(row, dict):
            print(f"{workload:34s} counts that differ: "
                  f"{row['count_differences'] or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
