import csv
import io
import json
import math

import pytest

import cliquewitness
from cliquewitness.harness import (
    check_records,
    emit,
    EXPERIMENTS,
    ExperimentConfig,
    main,
    ResultRecord,
    run,
)


def test_experiment_names():
    assert set(EXPERIMENTS) == {
        "psd_frontier",
        "norm_scaling",
        "expansion_identities",
        "labeling_audit",
        "detection",
        "w_conditions",
    }


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope", n_grid=(10,))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="w_conditions", n_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="w_conditions", n_grid=(10,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="w_conditions", n_grid=(10,), kappa_rule="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="w_conditions", n_grid=(10,), kappa_rule="fixed")
    # the audit runs on fixed label budgets, so an empty grid is allowed there
    ExperimentConfig(experiment="labeling_audit", n_grid=())


def test_kappa_rules():
    fixed = ExperimentConfig(
        experiment="w_conditions", n_grid=(50,), kappa_rule="fixed", kappa=0.01
    )
    assert fixed.kappa_for(50) == 0.01
    thm = ExperimentConfig(experiment="w_conditions", n_grid=(50,), c0=0.5)
    assert abs(thm.kappa_for(50) - 0.5 * 50 ** (-2 / 3) / math.log(50)) <= 1e-15
    search = ExperimentConfig(
        experiment="psd_frontier", n_grid=(40,), kappa_rule="binary_search"
    )
    with pytest.raises(ValueError):
        search.kappa_for(40)


def test_tolerance_lookup():
    cfg = ExperimentConfig(
        experiment="w_conditions", n_grid=(50,), tolerances={"residual": 1e-9}
    )
    assert cfg.tol("residual", 1e-12) == 1e-9
    assert cfg.tol("other", 1e-12) == 1e-12


def expansion_config(**kw):
    return ExperimentConfig(
        experiment="expansion_identities", n_grid=(15,), trials=2, **kw
    )


def test_psd_frontier_pin():
    # n=40 bisection at seed0 0, pinned to the last bit: a verdict that
    # drifts at any step of the search moves kappa*
    cfg = ExperimentConfig(
        experiment="psd_frontier", n_grid=(40,), kappa_rule="binary_search", trials=10
    )
    (record, _) = run(cfg)
    assert dict(record.aggregates) == {
        "kappa_star": 0.010436495435419099,
        "success_fraction": 0.9,
    }


def test_run_and_emit_are_deterministic():
    cfg = expansion_config()
    first = emit(run(cfg), "csv", None, cfg)
    second = emit(run(cfg), "csv", None, cfg)
    assert first == second
    jf = emit(run(cfg), "json", None, cfg)
    js = emit(run(cfg), "json", None, cfg)
    assert jf == js


def test_csv_shape_and_round_trip():
    cfg = expansion_config()
    text = emit(run(cfg), "csv", None, cfg)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["experiment", "n", "p", "kappa", "seed", "metric_name", "metric_value"]
    body = rows[1:]
    assert body
    for row in body:
        assert row[0] == "expansion_identities"
        assert int(row[1]) == 15
        float(row[2]), float(row[3]), float(row[6])  # parse without loss markers
        assert int(row[4]) >= -1
    # aggregates carry the sentinel seed -1 and include the residual scale
    names = {row[5] for row in body if int(row[4]) == -1}
    assert {"max_residual", "scale"} <= names
    # float round trip through repr is exact
    for row in body:
        assert float(repr(float(row[6]))) == float(row[6])


def test_json_metadata():
    cfg = expansion_config(tolerances={"residual": 1e-11})
    text = emit(run(cfg), "json", None, cfg)
    doc = json.loads(text)
    meta = doc["metadata"]
    assert meta["version"] == cliquewitness.__version__
    assert "philox" in meta["rng"]
    assert meta["tolerances"]["residual"] == 1e-11
    assert meta["config"]["experiment"] == "expansion_identities"
    assert doc["records"]


def test_emit_validation(tmp_path):
    cfg = expansion_config()
    records = run(cfg)
    with pytest.raises(ValueError):
        emit([], "csv", None, cfg)
    with pytest.raises(ValueError):
        emit(records, "yaml", None, cfg)
    with pytest.raises(OSError):
        emit(records, "csv", str(tmp_path / "missing-dir" / "out.csv"), cfg)
    out = tmp_path / "out.csv"
    text = emit(records, "csv", str(out), cfg)
    assert out.read_text() == text


def test_check_records_expansion_and_w_conditions():
    cfg = expansion_config()
    assert check_records(cfg, run(cfg)) is True
    strict = expansion_config(tolerances={"residual": 0.0})
    assert check_records(strict, run(strict)) is False
    wcfg = ExperimentConfig(experiment="w_conditions", n_grid=(10**6,), c0=1.0)
    assert check_records(wcfg, run(wcfg)) is False


def frontier_record(n, kappa_star, slope=None):
    aggregates = []
    if kappa_star is not None:
        aggregates += [("kappa_star", kappa_star), ("success_fraction", 0.9)]
    if slope is not None:
        aggregates.append(("slope", slope))
    return ResultRecord(
        experiment="psd_frontier",
        n=n,
        p=0.5,
        kappa=kappa_star or 0.0,
        per_seed=(),
        aggregates=tuple(aggregates),
        wall_clock=0.0,
    )


def test_check_records_frontier_predicate():
    cfg = ExperimentConfig(
        experiment="psd_frontier", n_grid=(40, 60), kappa_rule="binary_search"
    )
    good = [
        frontier_record(40, 0.01),
        frontier_record(60, 0.007),
        frontier_record(0, None, slope=-0.6),
    ]
    assert check_records(cfg, good) is True
    steep = good[:2] + [frontier_record(0, None, slope=-0.9)]
    assert check_records(cfg, steep) is False
    out_of_range = [
        frontier_record(40, 0.5),
        frontier_record(60, 0.007),
        frontier_record(0, None, slope=-0.6),
    ]
    assert check_records(cfg, out_of_range) is False
    one_point = ExperimentConfig(
        experiment="psd_frontier", n_grid=(40,), kappa_rule="binary_search"
    )
    single = [frontier_record(40, 0.01), frontier_record(0, None, slope=float("nan"))]
    assert check_records(one_point, single) is True
    assert check_records(one_point, [frontier_record(40, 0.5)] + single[1:]) is False


def test_main_stdout_and_check_exit(capsys):
    code = main(["--experiment", "w_conditions", "--n", "1000000", "--c0", "1.0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "minor1" in text and text.startswith("experiment,")
    code = main(
        ["--experiment", "w_conditions", "--n", "1000000", "--c0", "1.0", "--check"]
    )
    assert code == 2


def test_main_output_file_and_json(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(
        [
            "--experiment",
            "w_conditions",
            "--n",
            "100000",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["metadata"]["config"]["experiment"] == "w_conditions"


def test_main_config_file_with_cli_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "w_conditions",
                "n_grid": [1000],
                "c0": 0.25,
                "p": 0.5,
            }
        )
    )
    code = main(["--config", str(cfg_path), "--n", "2000"])
    assert code == 0
    text = capsys.readouterr().out
    assert ",2000," in text and ",1000," not in text


def test_main_rejects_missing_experiment_and_bad_tol(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--experiment", "w_conditions", "--n", "100", "--tol", "oops"])
    capsys.readouterr()


def test_detection_comb_via_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "detect.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "detection",
                "n_grid": [12],
                "trials": 2,
                "extras": {"test": "comb", "k": 3, "mu": 2.0},
            }
        )
    )
    code = main(["--config", str(cfg_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "h0_fraction" in text and "h1_fraction" in text


def test_malformed_config_file_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # a JSON decode error is a ValueError, so it lands on the argparse exit
    with pytest.raises(SystemExit):
        main(["--config", str(bad)])
    capsys.readouterr()


def test_seed0_offsets_per_seed_rows():
    cfg = ExperimentConfig(
        experiment="detection",
        n_grid=(12,),
        trials=2,
        seed0=7,
        extras={"test": "comb", "k": 3, "mu": 2.0},
    )
    records = run(cfg)
    seeds = sorted({seed for seed, _, _ in records[0].per_seed})
    assert seeds == [7, 8]
