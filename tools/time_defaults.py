"""Time each CLI experiment at its default config at two checkouts.

    python3 tools/time_defaults.py --before PARENT [--out FILE] [EXPERIMENT ...]

Each experiment (all of nlogis.cli.EXPERIMENTS unless some are named) runs
at its default config, solve with sigma at 1.2 times the first eigenvalue
as in tools/csv_digests.py, through nlogis.cli.parse_config and run, with
one job, in PAIRS pairs.  A pair is one child process per checkout,
PARENT and the checkout holding this script, run one after the other,
the order alternating from pair to pair, so that a drift in the
machine's speed over minutes falls on both sides alike.  A child pins
BLAS to one thread, imports nlogis from its checkout's src/, and for each
experiment runs it once untimed, counting its descents and their
iterations (logistic's _descend_loop, every start of every solve), then
times REPEATS runs and keeps the best.

Printed per experiment: each side's median best-of-REPEATS time over the
pairs, with its quartiles, the descents and descent iterations of one
run, and the pairs in which the checkout holding this script was faster.
--out writes the same report, with every pair's times, as JSON.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py; it must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_layers import REPEATS, _summary  # noqa: E402
from csv_digests import DEFAULT_SOLVE_SIGMA  # noqa: E402

AFTER = Path(__file__).resolve().parent.parent
PAIRS = 10


def _config(cli, experiment: str):
    config = {"experiment": experiment}
    if experiment == "solve":
        config["sigma"] = DEFAULT_SOLVE_SIGMA
    return cli.parse_config(json.dumps(config))


def _counted_run(cli, logistic, config) -> dict:
    """Run config once; its descents and their summed iterations."""
    counts = {"descents": 0, "iterations": 0}
    original = logistic._descend_loop

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        counts["descents"] += 1
        counts["iterations"] += out[2]
        return out
    logistic._descend_loop = counted
    try:
        cli.run(config)
    finally:
        logistic._descend_loop = original
    return counts


def _child(src: Path, experiments: list[str]) -> None:
    """Print one JSON object: per experiment its best time and counts."""
    sys.path.insert(0, str(src))
    import nlogis.cli as cli
    from nlogis import logistic

    out = {}
    for experiment in experiments:
        config = _config(cli, experiment)
        counts = _counted_run(cli, logistic, config)
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cli.run(config)
            samples.append(time.perf_counter() - t0)
        out[experiment] = {"best_s": min(samples), **counts}
    print(json.dumps(out), flush=True)


def _run_child(checkout: Path, experiments: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child-src",
         str(checkout / "src"), *experiments],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("experiments", nargs="*", metavar="EXPERIMENT")
    p.add_argument("--before", type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--child-src", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child_src is not None:
        _child(args.child_src, args.experiments)
        return 0
    if args.before is None:
        p.error("--before is required")
    sys.path.insert(0, str(AFTER / "src"))
    from nlogis.cli import EXPERIMENTS
    experiments = args.experiments or list(EXPERIMENTS)
    unknown = sorted(set(experiments) - set(EXPERIMENTS))
    if unknown:
        p.error(f"unknown experiments: {', '.join(unknown)}")
    sides = {"before": args.before.resolve(), "after": AFTER}
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(_run_child(sides[side], experiments))
    report = {"method": {"pairs": PAIRS, "repeats": REPEATS,
                         "blas_threads": 1},
              "experiments": {}}
    for experiment in experiments:
        row = {}
        for side in sides:
            times = [run[experiment]["best_s"] for run in runs[side]]
            last = runs[side][-1][experiment]
            row[side] = {**_summary(times), "pair_best_s": times,
                         "descents": last["descents"],
                         "iterations": last["iterations"]}
        row["after_wins"] = sum(
            a < b for a, b in zip(row["after"]["pair_best_s"],
                                  row["before"]["pair_best_s"]))
        report["experiments"][experiment] = row
        before, after = row["before"], row["after"]
        print(f"{experiment:18s} {before['median_s'] * 1e3:9.1f} ms "
              f"[{before['q1_s'] * 1e3:.1f}, {before['q3_s'] * 1e3:.1f}] -> "
              f"{after['median_s'] * 1e3:9.1f} ms "
              f"[{after['q1_s'] * 1e3:.1f}, {after['q3_s'] * 1e3:.1f}]  "
              f"iterations {before['iterations']} -> {after['iterations']}"
              f"  descents {before['descents']} -> {after['descents']}"
              f"  faster in {row['after_wins']}/{PAIRS} pairs")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
