"""Seeded generation of the benchmark's CLI configs.

An op is one CLI config plus what the generator knows about its result in
advance (for example the classification that sigma vs lambda_1 predicts).
Each workload is a list of strata; a round draws one candidate from every
stratum and shuffles them.  Strata group candidates of similar cost, so the
time of a round varies little from seed to seed while the inputs do.

Candidates that fail or stall at commit f60ee72 are listed in EXCLUDED
with what was measured, and so are the coupled-habitats candidates that
pass but take more than three times their stratum's median (and over
0.5 s).  They are left out of the timed draw (a workload's ops must all
pass) and run on their own by the baseline-defects workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

H6, H7, H8, H9, H10 = (2.0**-k for k in (6, 7, 8, 9, 10))

# resource-sweep: every op solves on the same habitat and grid
SWEEP_INTERVAL = [-1.0, 1.0]
SWEEP_S = (0.25, 0.5, 0.75, 1.0)


def _op(cid: str, config: dict, **expect) -> dict:
    return {"id": cid, "config": config, "expect": expect}


def _solve(s: float, tag: str, sigma, **extra) -> dict:
    config = {"experiment": "solve", "h": H8, "intervals": [SWEEP_INTERVAL],
              "s": s, "sigma": sigma, **extra}
    expect = {}
    if isinstance(sigma, dict) and sigma["kind"] == "eigenvalue-multiple":
        # constant sigma, tau = 0: survival exactly when sigma > lambda_1
        expect["classification"] = ("nontrivial" if sigma["factor"] > 1.0
                                    else "trivial")
    return _op(f"solve/s={s}/{tag}", config, **expect)


def _resource_sweep() -> list[list[dict]]:
    strata = []
    for s in SWEEP_S:
        strata.append([
            _solve(s, f"dip/level={lvl}/center={c}", {
                "kind": "dip", "level": lvl, "center": c, "width": 0.2})
            for lvl in (20.0, 30.0, 40.0) for c in (0.6, 0.7)])
        strata.append([
            _solve(s, f"indicator/ball={lo}/inside={m}", {
                "kind": "indicator", "ball": [lo, 0.5], "inside": m,
                "outside": 0.0})
            for lo in (-0.5, -0.25) for m in (10.0, 20.0, 40.0)])
        strata.append([
            _solve(s, f"cosine/mean={m}/freq={f}", {
                "kind": "cosine", "mean": m, "amplitude": 1.0,
                "frequency": f})
            for m in (2.0, 3.0, 4.0) for f in (1, 2)])
        strata.append([
            _solve(s, f"multiple/factor={f}", {
                "kind": "eigenvalue-multiple", "factor": f})
            for f in (0.8, 1.2, 1.4, 1.6, 2.0)])
        strata.append([
            _solve(s, f"reach/sigma={sig}/tau={tau}", sig, tau=tau,
                   kernel={"shape": "uniform", "rho": 0.25})
            for sig in (1.0, 2.0, 3.0) for tau in (0.25, 0.5)])
    return strata


def _threshold(h: float, s: float) -> dict:
    return _op(f"threshold/h=2^{round(math.log2(h))}/s={s}", {
        "experiment": "threshold-radius", "h": h, "interval": [0.0, 1.0],
        "s_values": [s], "tolerance": 0.05})


def _s_grid(lo: float, hi: float, step: float = 0.025) -> list[float]:
    n = round((hi - lo) / step)
    return [round(lo + i * step, 3) for i in range(n)]


def _threshold_bisection() -> list[list[dict]]:
    # cost per op rises steeply as s falls (at h = 2^-8 from 1.6 s at
    # s = 0.8 to 7 s at s = 0.3), so strata are narrow where it is steep,
    # and s < 0.4 is drawn at h = 2^-7 only.  s = 0.4 at h = 2^-8 has the
    # workload's largest grids; it is in every round so that peak memory
    # does not depend on the draw.  The round has an odd number of strata
    # (eleven), so the median op of a run falls inside one stratum (s near
    # 0.4 at h = 2^-7) rather than in the gap between two.
    edges = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8)
    strata = [[_threshold(H7, s) for s in _s_grid(lo, hi)]
              for lo, hi in zip(edges, edges[1:])]
    strata += [[_threshold(H8, 0.4)]]
    strata += [[_threshold(H8, s) for s in _s_grid(lo, hi)]
               for lo, hi in ((0.425, 0.55), (0.55, 0.8))]
    return strata


EIGEN_S = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _eigen(habitat: str, length: float, r: int, s: float) -> dict:
    if habitat == "single":
        intervals = [[0.0, length]]
    else:  # congruent pair, a quarter length apart
        half = length / 2.0
        intervals = [[0.0, half], [half + length / 4.0, length + length / 4.0]]
    return _op(f"eigen/{habitat}/L={length}/r={r}/s={s}", {
        "experiment": "eigen", "h": H9, "intervals": intervals,
        "s_values": [s], "radii": [float(r)], "tolerance": 0.1})


REFERENCE_OP = _op("eigen/reference", {
    "experiment": "eigen", "h": H10, "intervals": [[-1.0, 1.0]],
    "s_values": [0.5], "radii": [1.0], "tolerance": 0.01}, lambda_ref=True)


def _eigen_scaling() -> list[list[dict]]:
    # base grids of about 255 or 511 nodes dilated by r = 2, 3, 4: n spans
    # 254..2047
    strata = [[_eigen(hab, length, r, s) for s in s_bin]
              for hab in ("single", "pair") for length in (0.5, 1.0)
              for r in (2, 3, 4) for s_bin in (EIGEN_S[:4], EIGEN_S[4:])]
    return strata + [[REFERENCE_OP]]


def _transmission(h: float, s: float, s1: float, s2: float, nu1: float,
                  nu2: float) -> dict:
    return _op(f"transmission/h={h}/s={s}/s1={s1}/s2={s2}/nu={nu1},{nu2}", {
        "experiment": "transmission", "h": h,
        "interval_local": [0.0, 0.5], "interval_nonlocal": [0.75, 1.25],
        "s": s, "s1": s1, "s2": s2, "nu1": nu1, "nu2": nu2})


def _periodic(n: int, s: float, tau: float) -> dict:
    return _op(f"periodic/n={n}/s={s}/tau={tau}", {
        "experiment": "periodic", "n": n, "s": s, "tau": tau,
        "kernel": {"shape": "uniform", "rho": 0.25}})


def _strategic(h: float, s: float, tau: float) -> dict:
    config = {"experiment": "strategic", "h": h, "s": s, "eps": 0.1}
    if tau > 0.0:
        config.update(tau=tau, kernel={"shape": "uniform", "rho": 0.5})
    return _op(f"strategic/h={h}/s={s}/tau={tau}", config)


def _coupled_habitats() -> list[list[dict]]:
    trans = [[_transmission(h, s, s1, s2, nu1, nu2)
              for s in (0.3, 0.5, 0.7) for s1, s2 in ((0.3, 0.7), (0.6, 0.4))
              for nu1, nu2 in ((0.5, 1.0), (1.0, 0.5))]
             for h in (H8, H9)]
    per_s = _s_grid(0.25, 0.8, 0.05)
    periodic = [[_periodic(n, s, tau) for s in per_s
                 for tau in (0.25, 1.0)]
                for n in (128, 160, 192, 224, 256, 320, 384, 448, 512, 640,
                          768, 896, 1024)]
    strategic = [[_strategic(h, s, tau) for s in (0.3, 0.5, 0.7)]
                 for h in (H6, H7) for tau in (0.0, 0.5)]
    return trans + periodic + strategic


CANDIDATES = {
    "resource-sweep": _resource_sweep(),
    "threshold-bisection": _threshold_bisection(),
    "eigen-scaling": _eigen_scaling(),
    "coupled-habitats": _coupled_habitats(),
}

# measured at commit f60ee72 with one BLAS thread
EXCLUDED: dict[str, str] = {
    "solve/s=0.25/reach/sigma=3.0/tau=0.5":
        "no result within 5 s",
    "solve/s=0.5/dip/level=20.0/center=0.6":
        "no result within 5 s",
    "solve/s=0.5/dip/level=20.0/center=0.7":
        "no result within 5 s",
    "solve/s=0.5/dip/level=30.0/center=0.7":
        "el_residual 2.269e-07 exceeds 9.000e-08",
    "solve/s=0.5/indicator/ball=-0.5/inside=20.0":
        "no result within 5 s",
    "solve/s=0.5/indicator/ball=-0.25/inside=20.0":
        "no result within 5 s",
    "solve/s=0.5/multiple/factor=1.2":
        "no result within 5 s",
    "solve/s=0.75/dip/level=20.0/center=0.6":
        "no result within 5 s",
    "solve/s=0.75/dip/level=20.0/center=0.7":
        "no result within 5 s",
    "solve/s=0.75/indicator/ball=-0.25/inside=10.0":
        "no result within 5 s",
    "solve/s=0.75/reach/sigma=2.0/tau=0.5":
        "no result within 5 s",
    "solve/s=1.0/indicator/ball=-0.5/inside=20.0":
        "no result within 5 s",
    "solve/s=1.0/indicator/ball=-0.25/inside=40.0":
        "no result within 5 s",
    "solve/s=1.0/cosine/mean=4.0/freq=1":
        "no result within 5 s",
    "solve/s=1.0/multiple/factor=1.6":
        "no result within 5 s",
    "solve/s=1.0/reach/sigma=3.0/tau=0.25":
        "no result within 5 s",
    "eigen/single/L=1.0/r=3/s=0.9":
        "ConvergenceError, eigen iteration ran out of its 400 steps "
        "(residual 1.340e-10)",
    "eigen/single/L=1.0/r=4/s=0.9":
        "ConvergenceError, eigen iteration ran out of its 400 steps "
        "(residual 1.498e-10)",
    "eigen/pair/L=0.5/r=3/s=0.9":
        "ratio_error 0.116 exceeds the tolerance 0.1",
    "eigen/pair/L=0.5/r=4/s=0.9":
        "ratio_error 0.131 exceeds the tolerance 0.1",
    "transmission/h=0.00390625/s=0.5/s1=0.3/s2=0.7/nu=0.5,1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 2.239e-09)",
    "transmission/h=0.001953125/s=0.3/s1=0.6/s2=0.4/nu=1.0,0.5":
        "passes, but took 6.09 s; its stratum's median is 0.11 s",
    "periodic/n=128/s=0.3/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 7.637e-08)",
    "periodic/n=128/s=0.3/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 7.637e-08)",
    "periodic/n=128/s=0.45/tau=0.25":
        "passes, but took 0.86 s; its stratum's median is 0.03 s",
    "periodic/n=128/s=0.45/tau=1.0":
        "passes, but took 0.97 s; its stratum's median is 0.03 s",
    "periodic/n=160/s=0.3/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 7.772e-08)",
    "periodic/n=160/s=0.3/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 7.772e-08)",
    "periodic/n=160/s=0.4/tau=0.25":
        "passes, but took 1.06 s; its stratum's median is 0.04 s",
    "periodic/n=160/s=0.4/tau=1.0":
        "passes, but took 1.10 s; its stratum's median is 0.04 s",
    "periodic/n=192/s=0.3/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 4.140e-08)",
    "periodic/n=192/s=0.3/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 4.140e-08)",
    "periodic/n=192/s=0.35/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 3.371e-08)",
    "periodic/n=192/s=0.35/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 3.371e-08)",
    "periodic/n=224/s=0.4/tau=0.25":
        "passes, but took 1.48 s; its stratum's median is 0.04 s",
    "periodic/n=224/s=0.4/tau=1.0":
        "passes, but took 1.17 s; its stratum's median is 0.04 s",
    "periodic/n=224/s=0.45/tau=0.25":
        "passes, but took 1.16 s; its stratum's median is 0.04 s",
    "periodic/n=224/s=0.45/tau=1.0":
        "passes, but took 1.13 s; its stratum's median is 0.04 s",
    "periodic/n=256/s=0.45/tau=0.25":
        "passes, but took 2.07 s; its stratum's median is 0.06 s",
    "periodic/n=256/s=0.45/tau=1.0":
        "passes, but took 1.96 s; its stratum's median is 0.06 s",
    "periodic/n=320/s=0.3/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 2.157e-08)",
    "periodic/n=320/s=0.3/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 2.157e-08)",
    "periodic/n=320/s=0.45/tau=0.25":
        "passes, but took 2.35 s; its stratum's median is 0.05 s",
    "periodic/n=320/s=0.45/tau=1.0":
        "passes, but took 1.97 s; its stratum's median is 0.05 s",
    "periodic/n=320/s=0.5/tau=0.25":
        "passes, but took 1.80 s; its stratum's median is 0.05 s",
    "periodic/n=320/s=0.5/tau=1.0":
        "passes, but took 1.79 s; its stratum's median is 0.05 s",
    "periodic/n=384/s=0.25/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 6.542e-08)",
    "periodic/n=384/s=0.25/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 6.542e-08)",
    "periodic/n=448/s=0.35/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 3.327e-08)",
    "periodic/n=448/s=0.35/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 3.327e-08)",
    "periodic/n=448/s=0.45/tau=0.25":
        "passes, but took 4.54 s; its stratum's median is 0.07 s",
    "periodic/n=448/s=0.45/tau=1.0":
        "passes, but took 3.87 s; its stratum's median is 0.07 s",
    "periodic/n=512/s=0.3/tau=0.25":
        "no result within 8 s",
    "periodic/n=512/s=0.3/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 9.430e-08)",
    "periodic/n=512/s=0.35/tau=0.25":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 1.677e-08)",
    "periodic/n=512/s=0.35/tau=1.0":
        "ConvergenceError, unconverged start undercut the minimum "
        "(residual 1.677e-08)",
    "periodic/n=512/s=0.45/tau=0.25":
        "passes, but took 6.98 s; its stratum's median is 0.27 s",
    "periodic/n=512/s=0.45/tau=1.0":
        "passes, but took 7.12 s; its stratum's median is 0.27 s",
    "periodic/n=640/s=0.35/tau=0.25":
        "no result within 8 s",
    "periodic/n=640/s=0.35/tau=1.0":
        "no result within 8 s",
    "periodic/n=640/s=0.45/tau=0.25":
        "no result within 8 s",
    "periodic/n=640/s=0.45/tau=1.0":
        "no result within 8 s",
    "periodic/n=768/s=0.3/tau=0.25":
        "no result within 8 s",
    "periodic/n=768/s=0.3/tau=1.0":
        "no result within 8 s",
    "periodic/n=768/s=0.35/tau=0.25":
        "no result within 8 s",
    "periodic/n=768/s=0.35/tau=1.0":
        "no result within 8 s",
    "periodic/n=768/s=0.4/tau=0.25":
        "passes, but took 0.90 s; its stratum's median is 0.27 s",
    "periodic/n=768/s=0.4/tau=1.0":
        "passes, but took 0.95 s; its stratum's median is 0.27 s",
    "periodic/n=768/s=0.45/tau=0.25":
        "no result within 8 s",
    "periodic/n=768/s=0.45/tau=1.0":
        "no result within 8 s",
    "periodic/n=896/s=0.35/tau=0.25":
        "no result within 8 s",
    "periodic/n=896/s=0.35/tau=1.0":
        "no result within 8 s",
    "periodic/n=896/s=0.4/tau=0.25":
        "no result within 8 s",
    "periodic/n=896/s=0.4/tau=1.0":
        "no result within 8 s",
    "periodic/n=1024/s=0.45/tau=0.25":
        "no result within 8 s",
    "periodic/n=1024/s=0.45/tau=1.0":
        "no result within 8 s",
    "periodic/n=1024/s=0.5/tau=0.25":
        "no result within 8 s",
    "periodic/n=1024/s=0.5/tau=1.0":
        "no result within 8 s",
    "strategic/h=0.015625/s=0.3/tau=0.5":
        "passes, but took 1.19 s; its stratum's median is 0.06 s",
    "strategic/h=0.0078125/s=0.7/tau=0.5":
        "ConvergenceError, forced minimization stalled (residual 9.969e-09)",
}


def strata(workload: str) -> list[list[dict]]:
    """The workload's strata with the excluded candidates removed."""
    out = [[op for op in stratum if op["id"] not in EXCLUDED]
           for stratum in CANDIDATES[workload]]
    return [stratum for stratum in out if stratum]


def round_ops(workload: str, seed: int, k: int) -> list[dict]:
    """Round k of a run: one draw per stratum, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    ops = [rng.choice(stratum) for stratum in strata(workload)]
    rng.shuffle(ops)
    return ops


def defect_ops() -> list[dict]:
    """The excluded candidates, in a fixed order."""
    every = [op for strata_ in CANDIDATES.values() for stratum in strata_
             for op in stratum]
    return [op for op in every if op["id"] in EXCLUDED]


def digest(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of an op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
