import json

import pytest

import nlogis.cli as cli
from nlogis.cli import (
    COLUMNS,
    ConfigError,
    ResultRow,
    csv_text,
    main,
    parse_config,
    report_summary,
    run,
)


def test_minimal_config_gets_defaults():
    cfg = parse_config(json.dumps({"experiment": "eigen"}))
    assert cfg.params["h"] == 2.0**-9
    assert cfg.params["solver_tol"] == 1e-10
    assert cfg.params["s_values"] == [0.25, 0.5, 0.75]


def test_wide_experiments_get_coarser_default_spacing():
    # defaults keep the largest grids inside the dense desk-scale budget
    assert parse_config(json.dumps({"experiment": "ext-crossing"})).params["h"] \
        == 2.0**-6
    assert parse_config(json.dumps({"experiment": "strategic"})).params["h"] \
        == 1.0 / 16.0


def test_misspelled_key_is_named():
    with pytest.raises(ConfigError, match="sgima"):
        parse_config(json.dumps({"experiment": "solve", "sgima": 1.0}))


def test_negative_tau_cites_constraint():
    with pytest.raises(ConfigError, match="tau >= 0"):
        parse_config(json.dumps({"experiment": "solve", "sigma": 1.0,
                                 "tau": -0.5}))


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config(json.dumps({"experiment": "frobnicate"}))


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(json.dumps({"experiment": "eigen", "solver_tol": 0.0}))


def test_malformed_geometry_rejected():
    with pytest.raises(ConfigError, match="intervals"):
        parse_config(json.dumps({"experiment": "eigen", "intervals": [[1, 0]]}))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope")


def test_coefficient_object_validation():
    with pytest.raises(ConfigError, match="unknown coefficient kind"):
        parse_config(json.dumps({"experiment": "solve",
                                 "sigma": {"kind": "mystery"}}))
    with pytest.raises(ConfigError, match="required for kind"):
        parse_config(json.dumps({"experiment": "solve",
                                 "sigma": {"kind": "dip", "level": 1.0}}))


def _eigen_config(**extra):
    # generous tolerance: these tests exercise plumbing at a coarse grid,
    # the acceptance suite pins the 1% accuracy at h = 2^-9
    base = {"experiment": "eigen", "h": 2.0**-5, "s_values": [0.5],
            "radii": [1.0, 2.0], "tolerance": 0.05}
    base.update(extra)
    return base


def test_eigen_run_and_csv_determinism(tmp_path):
    cfg = parse_config(json.dumps(_eigen_config()))
    rows1 = run(cfg)
    rows2 = run(cfg)
    text1 = csv_text(rows1, "eigen")
    text2 = csv_text(rows2, "eigen")
    assert text1 == text2
    assert text1.splitlines()[0] == ",".join(COLUMNS["eigen"])
    assert all(r.passed for r in rows1)
    assert "\r" not in text1


def test_csv_written_to_out(tmp_path):
    out = tmp_path / "eigen.csv"
    cfg = parse_config(json.dumps(_eigen_config(out=str(out))))
    run(cfg)
    data = out.read_bytes()
    assert data.startswith(b"experiment,s,r,lambda")
    assert b"\r\n" not in data


def test_golden_column_sets():
    assert COLUMNS["threshold-radius"] == [
        "experiment", "s", "r_star", "predicted", "rel_gap", "tolerance",
        "pass",
    ]
    assert COLUMNS["periodic"][:5] == ["experiment", "case", "n", "s", "tau"]
    for columns in COLUMNS.values():
        assert columns[-1] == "pass"
        assert columns[0] == "experiment"


def test_report_summary_ten_claims():
    rows = []
    for experiment in ("solve", "threshold-radius", "ext-crossing",
                       "congruence", "abundance", "beat", "periodic",
                       "transmission", "strategic"):
        rows.append(ResultRow(experiment, {"experiment": experiment},
                              passed=True))
    rows[0].values["max_principle_ok"] = True
    text = report_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    claims = {line.split()[-1] for line in lines}
    assert "extinction-survival" in claims
    assert "resource-max-principle" in claims
    assert "strategic-plan" in claims


def test_report_summary_flags_failures():
    rows = [ResultRow("periodic", {"experiment": "periodic"}, passed=False)]
    assert report_summary(rows).startswith("FAIL")
    with pytest.raises(ValueError, match="no result rows"):
        report_summary([])


def test_main_eigen_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    out_path = tmp_path / "eigen.csv"
    cfg_path.write_text(json.dumps(_eigen_config()))
    code = main(["eigen", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert out_path.exists()


def test_main_byte_identical_reruns(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["eigen", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["eigen", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    # invariant failure: an absurd tolerance no eigenvalue ratio can meet
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_eigen_config(tolerance=1e-15)))
    assert main(["eigen", "--config", str(cfg_path)]) == 3
    capsys.readouterr()
    # malformed config
    cfg_path.write_text(json.dumps({"experiment": "eigen", "sgima": 2}))
    assert main(["eigen", "--config", str(cfg_path)]) == 64
    capsys.readouterr()
    # missing config file
    assert main(["eigen", "--config", str(tmp_path / "absent.json")]) == 64
    capsys.readouterr()
    # subcommand / config mismatch
    cfg_path.write_text(json.dumps(_eigen_config()))
    assert main(["solve", "--config", str(cfg_path)]) == 64
    capsys.readouterr()


def test_main_nonconvergence_exit_code(tmp_path, capsys):
    # a residual target below the floating-point floor cannot be met
    cfg_path = tmp_path / "stall.json"
    cfg_path.write_text(json.dumps({
        "experiment": "solve", "h": 2.0**-4, "s": 0.5,
        "sigma": {"kind": "eigenvalue-multiple", "factor": 1.5},
        "solver_tol": 1e-30,
    }))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


def test_main_io_failure_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    bad_out = tmp_path / "no-such-dir" / "out.csv"
    assert main(["eigen", "--config", str(cfg_path),
                 "--out", str(bad_out)]) == 4
    capsys.readouterr()


def test_main_h_override(tmp_path, capsys):
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    code = main(["eigen", "--config", str(cfg_path), "--h", str(2.0**-6)])
    assert code == 0
    capsys.readouterr()


def test_jobs_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLOGIS_JOBS", "2")
    cfg_path = tmp_path / "eigen.json"
    cfg_path.write_text(json.dumps(_eigen_config()))
    assert main(["eigen", "--config", str(cfg_path)]) == 0
    capsys.readouterr()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, n_items, expected", [
    (10**6, 4, 3, 3),     # capped by the number of points
    (10**6, 4, 100, 4),   # capped by the processors
    (2, 4, 100, 2),       # the request itself
    (10**6, None, 100, None),  # cpu_count unknown: one worker, no pool
    (10**6, 4, 1, None),  # a single point runs in-process
])
def test_pmap_caps_workers(monkeypatch, jobs, cpus, n_items, expected):
    _RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    items = list(range(n_items))
    assert cli._pmap(lambda x: x * x, items, jobs) == [x * x for x in items]
    assert _RecordingPool.sizes == ([] if expected is None else [expected])


def test_solve_experiment_with_eigenvalue_multiple(tmp_path):
    cfg = parse_config(json.dumps({
        "experiment": "solve",
        "h": 2.0**-5,
        "s": 0.5,
        "sigma": {"kind": "eigenvalue-multiple", "factor": 1.2},
        "expect": "nontrivial",
    }))
    rows = run(cfg)
    assert len(rows) == 1
    assert rows[0].passed
    assert rows[0].values["classification"] == "nontrivial"


def test_periodic_experiment_rows(tmp_path):
    cfg = parse_config(json.dumps({
        "experiment": "periodic", "n": 32, "s": 0.5,
        "sigma": 2.0, "mu": 1.0, "tau": 0.5,
    }))
    rows = run(cfg)
    assert [r.values["case"] for r in rows] == ["constant", "oscillatory"]
    assert rows[0].values["max_deviation"] <= 1e-8
    assert all(r.passed for r in rows)


def test_congruence_experiment_row_shape():
    cfg = parse_config(json.dumps({"experiment": "congruence", "h": 2.0**-5}))
    rows = run(cfg)
    domains = [r.values["domain"] for r in rows]
    assert domains == ["gap-fractional", "habitat-1", "habitat-2", "union",
                       "gap-classical"]
    classes = {r.values["domain"]: r.values["classification"] for r in rows}
    assert classes["habitat-1"] == "trivial"
    assert classes["habitat-2"] == "trivial"
    assert classes["union"] == "nontrivial"
