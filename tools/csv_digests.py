"""Print one line per benchmark candidate and default config: its id, its
verification status and the sha1 of its CSV.

    python3 tools/csv_digests.py [--root CHECKOUT] [--csv] > digests.txt

The package is imported from CHECKOUT/src and the candidates from
CHECKOUT/perfbench (CHECKOUT defaults to the checkout holding this script),
so the same script runs against any commit.  Two commits compute the same
results bit for bit exactly when their outputs are identical:

    diff parent.txt change.txt

Every timed candidate of perfbench.workloads is run (the excluded ones are
left out), then each experiment at its default config (solve with sigma at
1.2 times the first eigenvalue, so that it has a nontrivial state), each
through nlogis.cli.parse_config, run and csv_text with one job.  The
exit status is 1 when any line's status is not ok.  With --csv each line is
instead a JSON object holding the id, status, digest and the CSV text
itself ("" when the op failed), which tools/csv_diff.py compares cell by
cell.
"""

from __future__ import annotations

import os

# one BLAS thread keeps the floating-point reduction order fixed; it must be
# set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

DEFAULT_SOLVE_SIGMA = {"kind": "eigenvalue-multiple", "factor": 1.2}


def _ops(workloads, experiments):
    for name in workloads.CANDIDATES:
        for stratum in workloads.strata(name):
            yield from stratum
    for experiment in experiments:
        config = {"experiment": experiment}
        if experiment == "solve":
            config["sigma"] = DEFAULT_SOLVE_SIGMA
        yield {"id": f"default/{experiment}", "config": config, "expect": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to use")
    parser.add_argument("--csv", action="store_true",
                        help="print JSON lines that carry each CSV's text")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import nlogis
    import nlogis.cli as cli
    import workloads
    from verify import verify

    failed = False
    for op in _ops(workloads, cli.EXPERIMENTS):
        try:
            config = cli.parse_config(json.dumps(op["config"]))
            rows = cli.run(config)
            text = cli.csv_text(rows, config.experiment)
            problems = verify(config.experiment, config.params,
                              op["expect"], rows)
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            digest = hashlib.sha1(text.encode()).hexdigest()
        except (nlogis.ConvergenceError, ValueError) as exc:
            status, digest, text = f"FAILED {type(exc).__name__}: {exc}", "-", ""
        failed |= status != "ok"
        if args.csv:
            print(json.dumps({"id": op["id"], "status": status,
                              "digest": digest, "csv": text}), flush=True)
        else:
            print(f"{op['id']}\t{status}\t{digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
