"""Tests of the benchmark itself: generator, verifier, span arithmetic.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import nlogis  # noqa: E402
import nlogis.cli as cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from verify import verify  # noqa: E402


def _canonical(ops):
    return json.dumps(ops, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("workload", sorted(workloads.CANDIDATES))
def test_generator_is_deterministic_for_a_seed(workload):
    first = [workloads.round_ops(workload, 7, k) for k in range(3)]
    again = [workloads.round_ops(workload, 7, k) for k in range(3)]
    assert _canonical(first) == _canonical(again)
    other = [workloads.round_ops(workload, 8, k) for k in range(3)]
    assert _canonical(other) != _canonical(first)


def test_generator_is_deterministic_across_processes():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(workloads.digest("
            "workloads.round_ops('resource-sweep', 3, 0)))")
    out = [subprocess.run([sys.executable, "-c", code, str(HERE)],
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout.strip() for _ in range(2)]
    assert out[0] == out[1] == workloads.digest(
        workloads.round_ops("resource-sweep", 3, 0))


def test_generated_configs_parse_and_exclusions_name_candidates():
    ids = set()
    for workload in workloads.CANDIDATES:
        for stratum in workloads.CANDIDATES[workload]:
            for op in stratum:
                cli.parse_config(json.dumps(op["config"]))
                ids.add(op["id"])
    assert set(workloads.EXCLUDED) <= ids


def _solve_rows():
    config = cli.parse_config(json.dumps({
        "experiment": "solve", "h": 1.0 / 16.0, "intervals": [[-1.0, 1.0]],
        "s": 0.5, "sigma": {"kind": "eigenvalue-multiple", "factor": 2.0}}))
    return config, cli.run(config)


def test_verifier_accepts_a_good_solve():
    config, rows = _solve_rows()
    assert verify("solve", config.params,
                  {"classification": "nontrivial"}, rows) == []


def test_verifier_rejects_a_negated_solution():
    config, rows = _solve_rows()
    v = rows[0].values
    v["min_u"], v["max_u"] = -v["max_u"], -v["min_u"]
    problems = verify("solve", config.params, {}, rows)
    assert any("min_u" in p for p in problems)


def test_verifier_rejects_a_residual_times_100():
    config, rows = _solve_rows()
    bound = 1e-10 * max(1.0, rows[0].values["sigma_max"] ** 2)
    rows[0].values["el_residual"] = 0.5 * bound
    assert verify("solve", config.params, {}, rows) == []
    rows[0].values["el_residual"] *= 100.0
    problems = verify("solve", config.params, {}, rows)
    assert any("el_residual" in p for p in problems)


def test_verifier_rejects_a_wrong_classification():
    config, rows = _solve_rows()
    problems = verify("solve", config.params,
                      {"classification": "trivial"}, rows)
    assert any("predicts trivial" in p for p in problems)


def test_verifier_checks_the_reference_eigenvalue():
    config = cli.parse_config(json.dumps(workloads.REFERENCE_OP["config"]))
    rows = [cli.ResultRow("eigen", {"lambda": 1.818627 * 1.001,
                                    "ratio_error": 0.0}, passed=True)]
    assert verify("eigen", config.params, {"lambda_ref": True}, rows) == []
    rows[0].values["lambda"] = 1.818627 * 1.003
    assert verify("eigen", config.params, {"lambda_ref": True}, rows)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    tree = [spans.Span("root", 0.0, 10.0, -1), spans.Span("a", 1.0, 4.0, 0),
            spans.Span("c", 2.0, 3.0, 1), spans.Span("b", 5.0, 9.0, 0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_sum_self_times_by_layer():
    tracer = spans.Tracer(spans=[
        spans.Span("cli.run", 0.0, 10.0, -1),
        spans.Span("logistic.solve", 1.0, 7.0, 0),
        spans.Span("spectral.eig", 2.0, 4.0, 1),
        spans.Span("grids", 8.0, 9.0, 0)])
    m = tracer.metrics()
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["logistic.solve.self_s"] == pytest.approx(4.0)
    assert m["logistic.solve.s"] == pytest.approx(6.0)
    assert m["spectral.self_s"] == pytest.approx(2.0)
    assert m["grids.self_s"] == pytest.approx(1.0)
    assert m["grids.calls"] == 1


def test_instrument_records_spans_and_restores():
    original = nlogis.logistic.solve_dirichlet
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, nlogis)
    try:
        config, rows = _solve_rows()
        cli.csv_text(rows, "solve")
    finally:
        restore()
    assert nlogis.logistic.solve_dirichlet is original
    assert nlogis.cli.parse_config is cli.parse_config
    m = tracer.metrics()
    assert m["logistic.solve.calls"] == 1
    assert m["spectral.eig.calls"] == 2  # sigma's lambda_1, then the solve's
    assert m["operators.dirichlet.calls"] == 2
    assert m["operators.bytes_computed"] == 2 * 8 * 31 * 31
    assert m["logistic.factorizations"] >= 1
    assert m["logistic.iters"] >= 1


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run, json; "
            "print(json.dumps([run.END_TO_END, run.PER_LAYER]))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    end_to_end, per_layer = json.loads(out)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == end_to_end
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CANDIDATES)
