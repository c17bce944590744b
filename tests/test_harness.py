import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cliquewitness
from cliquewitness import harness, witness
from cliquewitness.harness import (
    check_records,
    emit,
    EXPERIMENTS,
    ExperimentConfig,
    main,
    ResultRecord,
    run,
)
from cliquewitness.models import sample_er
from cliquewitness.params import derive_alphas
from cliquewitness.spectral import psd_check
from cliquewitness.witness import (
    CliqueStructure,
    block_psd_check,
    build_matrix,
    fill,
    padded_table,
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
    for bad in ({"p": 0.0}, {"p": 1.5}, {"kappa": -0.1}, {"kappa": 0.0}, {"c0": 0.0},
                {"constant": 0.0}, {"constant": -1.0}):
        with pytest.raises(ValueError, match="must"):
            ExperimentConfig(experiment="w_conditions", n_grid=(10,), **bad)
    ExperimentConfig(experiment="w_conditions", n_grid=(10,), p=1.0)
    # every grid point at least the experiment's smallest n, and a nonnegative seed0
    for experiment, least in (("psd_frontier", 4), ("norm_scaling", 4), ("detection", 4),
                              ("expansion_identities", 5), ("w_conditions", 5)):
        ExperimentConfig(experiment=experiment, n_grid=(least,))
        for grid in ((least - 1,), (10, least - 1)):
            with pytest.raises(ValueError, match="must be at least"):
                ExperimentConfig(experiment=experiment, n_grid=grid)
    with pytest.raises(ValueError, match="must be nonnegative"):
        ExperimentConfig(experiment="w_conditions", n_grid=(10,), seed0=-1)
    # the audit runs on fixed label budgets, so its grid may be empty or anything
    ExperimentConfig(experiment="labeling_audit", n_grid=())
    ExperimentConfig(experiment="labeling_audit", n_grid=(1,))


def test_config_casts_each_field_to_its_type():
    # a config file may give ints for floats and a list for the grid
    tolerances = {"psd": 1}
    cfg = ExperimentConfig(experiment="detection", n_grid=[30, 40.0], p=1, kappa_rule="fixed",
                           kappa=1, c0=2, constant=3, trials=2.0, seed0=1.0,
                           tolerances=tolerances, extras={"k": 3})
    assert (cfg.n_grid, cfg.trials, cfg.seed0) == ((30, 40), 2, 1)
    assert [type(v) for v in (cfg.p, cfg.kappa, cfg.c0, cfg.constant)] == [float] * 4
    assert [type(v) for v in cfg.n_grid + (cfg.trials, cfg.seed0)] == [int] * 4
    assert cfg.tolerances == tolerances and cfg.tolerances is not tolerances
    assert cfg.extras == {"k": 3}
    assert ExperimentConfig(experiment="w_conditions", n_grid=(10,)).kappa is None


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


# kappa* of the n=40 and n=50 frontiers at seed0 0
FRONTIER_STARS = {40: 0.010436495435419099, 50: 0.008126660357097705}


def frontier_verdicts(structures, table, tol, buf):
    # the frontier's verdict on each graph: fill into the shared buffer, then
    # factor in place, vouching for a finite table
    exact = bool(np.all(np.isfinite(table)))
    return [block_psd_check(fill(s.codes, table, out=buf[: s.codes.size].reshape(s.codes.shape)),
                            tol, exact, in_place=True) for s in structures]


@pytest.mark.parametrize("n", sorted(FRONTIER_STARS))
def test_block_verdicts_match_psd_check(n, monkeypatch):
    # the in-place fill-and-factor reports against psd_check on the dense
    # witness, which drops the non-clique rows itself, from 0.5x to 2x kappa*.
    # At tol 1e-4 the shift decides verdicts at kappa* and 1.1 kappa*.
    structures = [CliqueStructure.of(sample_er(n, 0.5, seed=seed)) for seed in range(10)]
    buf = np.empty(max(s.codes.size for s in structures))

    def no_fallback(*args, **kwargs):
        raise AssertionError("the block verdict fell back to psd_check")

    monkeypatch.setattr(witness, "psd_check", no_fallback)
    seen = set()
    for factor in (0.5, 0.9, 1.0, 1.1, 2.0):
        params = derive_alphas(factor * FRONTIER_STARS[n], 0.5)
        dense = [build_matrix(sample_er(n, 0.5, seed=seed), params, "M").values
                 for seed in range(10)]
        for tol in (1e-8, 1e-4):
            got = frontier_verdicts(structures, padded_table(params), tol, buf)
            # field by field, certified_min_eig included
            assert got == [psd_check(x, tol=tol) for x in dense], (factor, tol)
            seen.update(report.psd for report in got)
    assert seen == {False, True}


def test_block_verdicts_preconditions(monkeypatch):
    structures = [CliqueStructure.of(sample_er(12, 0.5, seed=seed)) for seed in range(3)]
    buf = np.empty(max(s.codes.size for s in structures))
    table = padded_table(derive_alphas(0.01, 0.5))

    def no_factor(*args, **kwargs):
        raise AssertionError("the in-place factorization ran")

    # a zero diagonal entry (alpha_2 = 0) takes psd_check, which drops the
    # pair rows; a non-finite table takes it too, and it raises
    monkeypatch.setattr(witness, "certified_factorization", no_factor)
    zero_diag = table.copy()
    zero_diag[2] = 0.0
    got = frontier_verdicts(structures, zero_diag, 1e-8, buf)
    assert got == [psd_check(fill(s.codes, zero_diag)) for s in structures]
    for bad in (np.nan, np.inf):
        broken = table.copy()
        broken[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            frontier_verdicts(structures, broken, 1e-8, buf)
        monkeypatch.setattr(harness, "padded_table", lambda params, table=broken: table)
        with pytest.raises(ValueError, match="non-finite"):
            run(ExperimentConfig(experiment="psd_frontier", n_grid=(12,), trials=3,
                                 kappa_rule="binary_search"))
    # an asymmetric code table is refused once per graph, before any verdict
    codes = structures[0].codes.copy()
    codes[0, -1] = 4 if codes[-1, 0] != 4 else 3
    monkeypatch.setattr(witness, "_full_matrix", lambda *args: codes)
    with pytest.raises(ValueError, match="not symmetric"):
        CliqueStructure.of(sample_er(12, 0.5, seed=0))


def test_frontier_builds_one_code_table_per_graph(monkeypatch):
    calls = []
    full_matrix = witness._full_matrix

    def counted(*args, **kwargs):
        calls.append(args[0].seed)
        return full_matrix(*args, **kwargs)

    monkeypatch.setattr(witness, "_full_matrix", counted)
    cfg = ExperimentConfig(experiment="psd_frontier", n_grid=(12,), trials=3,
                           kappa_rule="binary_search")
    (record, _) = run(cfg)
    assert calls == [0, 1, 2]  # one per graph, across every bisection step
    assert 0.0 < dict(record.aggregates)["kappa_star"] < 0.1


# sha256 of the CSVs these configs print.  The detection digests predate the
# block form of the witness, the expansion and audit digests the one subset
# layout in SubsetIndexer, the frontier digest the one clique structure
# behind every kind-M witness, the comb and H1-settings digests the config
# built from one merged mapping; each route must reproduce them byte for byte.
# They hold with OpenBLAS at one thread and at two (the default on 2 vCPUs)
CLI_PINS = {
    "submatrix_feasible": (
        {"experiment": "detection", "n_grid": [30], "trials": 3, "kappa_rule": "fixed",
         "kappa": 0.002, "extras": {"test": "submatrix", "k": 6.0}},
        "bd1d9048983bd5fbd08db1a12df9a45ec2bcd58be90184cab264e48fe2004359",
    ),
    "submatrix_infeasible": (
        {"experiment": "detection", "n_grid": [30], "trials": 3, "kappa_rule": "fixed",
         "kappa": 0.05, "extras": {"test": "submatrix", "k": 6.0}},
        "56e2b33433a42893ded3d633fcbd703bcb04190cdeecd9f502762183d398d079",
    ),
    "clique": (
        {"experiment": "detection", "n_grid": [20], "trials": 4, "kappa_rule": "fixed",
         "kappa": 0.02, "extras": {"test": "clique", "k": 0.4}},
        "237b0ed50f63083d952bc9598b2f3e9a1df616cb60ff1104b6d4625ebefc792b",
    ),
    "comb": (
        {"experiment": "detection", "n_grid": [12, 20], "trials": 5,
         "extras": {"test": "comb", "k": 6.0, "mu": 2.0}},
        "1e184122a7d89e4a2cd158c1d644d5cca6c0afb6cf99494365338f669c4bed85",
    ),
    "submatrix_h1_settings": (
        {"experiment": "detection", "n_grid": [30], "trials": 3, "kappa_rule": "fixed",
         "kappa": 0.002, "extras": {"test": "submatrix", "k": 6.0, "hypothesis": "H1",
                                    "c_star": 0.4, "lambda": 0.8, "scaling": 0.7}},
        "ab3cb2999c37c9d8d16078c7285de77d075b803edd38091cb033a9851617abb9",
    ),
    "expansion_identities": (
        {"experiment": "expansion_identities", "n_grid": [15, 30], "trials": 3},
        "c157d99d5a182e021994aa238fba0e2e88a8f26c781186ad8f0b97eb8c344f60",
    ),
    "labeling_audit": (
        {"experiment": "labeling_audit"},
        "0e74bebb74ff951833fd98f708893cfd231e44054fbd1ae84093f2f5f6d180ec",
    ),
    "psd_frontier": (
        {"experiment": "psd_frontier", "n_grid": [40, 50], "trials": 10},
        "220c37a65c0f0a872e343b83b8f426f1a3210f7e48e321cf3017451ab4d0c8e3",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_detection_cli_bytes_pinned(name, tmp_path, capsys):
    fields, digest = CLI_PINS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert main(["--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# sha256 of --format json stdout, whose metadata echoes every config field,
# at OpenBLAS one thread and two
JSON_PINS = (
    (["--experiment", "w_conditions", "--n", "1000000", "--c0", "1.0"],
     "2351c77be38c00f5f5fc693cafe78c89e1851754b0440af0be1de6fb57123237"),
    ({"experiment": "detection", "n_grid": [30], "trials": 2, "kappa_rule": "fixed",
      "kappa": 0.002, "extras": {"test": "submatrix", "k": 6.0}},
     "99db91166f97ae978eb287c51d24d01433edea08669e1ac46154c78b8d14a63f"),
)


@pytest.mark.parametrize("args, digest", JSON_PINS, ids=["w_conditions", "submatrix"])
def test_json_bytes_pinned(args, digest, tmp_path, capsys):
    if isinstance(args, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(args))
        args = ["--config", str(path)]
    assert main([*args, "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def run_python(args, **env):
    # stdout of a fresh interpreter that imports this checkout's package
    src = os.path.dirname(os.path.dirname(cliquewitness.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_scipy_special_loads_only_for_detection():
    # Gaussian sampling and the detection threshold import scipy.special
    # where they call it; the package import and a norm run never load it
    script = """
import sys
from cliquewitness.harness import ExperimentConfig, run
run(ExperimentConfig(experiment="norm_scaling", n_grid=(12,), trials=1))
print("scipy.special" in sys.modules)
run(ExperimentConfig(experiment="detection", n_grid=(30,), trials=1, kappa_rule="fixed",
                     kappa=0.002, extras={"test": "submatrix", "k": 6.0}))
print("scipy.special" in sys.modules)
"""
    assert run_python(["-c", script]).split() == ["False", "True"]


def test_scipy_sparse_loads_only_for_norms():
    # the ARPACK norm estimators and operators import scipy.sparse where they
    # are called; the package import and the witness runs never load it
    script = """
import sys
import cliquewitness
from cliquewitness.harness import ExperimentConfig, run
run(ExperimentConfig(experiment="psd_frontier", n_grid=(12,), trials=3,
                     kappa_rule="binary_search"))
run(ExperimentConfig(experiment="detection", n_grid=(30,), trials=1, kappa_rule="fixed",
                     kappa=0.002, extras={"test": "submatrix", "k": 6.0}))
run(ExperimentConfig(experiment="expansion_identities", n_grid=(15,), trials=1))
run(ExperimentConfig(experiment="labeling_audit", n_grid=()))
print("scipy.sparse" in sys.modules)
run(ExperimentConfig(experiment="norm_scaling", n_grid=(12,), trials=1))
print("scipy.sparse" in sys.modules)
"""
    assert run_python(["-c", script]).split() == ["False", "True"]


def test_norm_scaling_across_blas_thread_counts():
    # the ratios' last bits depend on the BLAS thread count; the records and
    # the ratios to 1e-12 relative do not
    argv = ["-m", "cliquewitness", "--experiment", "norm_scaling", "--n", "30", "--n", "50",
            "--n", "100", "--trials", "2", "--c0", "0.25"]
    one, two = (list(csv.reader(io.StringIO(run_python(argv, OPENBLAS_NUM_THREADS=t))))
                for t in ("1", "2"))
    assert one[0] == two[0] and len(one) == len(two) == 37
    for a, b in zip(one[1:], two[1:]):
        assert a[:6] == b[:6] and "ratio" in a[5]
        assert abs(float(a[6]) - float(b[6])) <= 1e-12 * abs(float(a[6])), (a, b)


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


def test_nan_residual_reaches_max_residual_and_fails_check(monkeypatch):
    # one seed's H22 residual is NaN: Python's max(0.0, nan, x) dropped it
    verify = harness.verify_expansion_H22
    calls = []

    def nan_on_second_seed(graph, params):
        calls.append(graph)
        return float("nan") if len(calls) == 2 else verify(graph, params)

    monkeypatch.setattr(harness, "verify_expansion_H22", nan_on_second_seed)
    cfg = expansion_config()
    records = run(cfg)
    assert math.isnan(dict(records[0].aggregates)["max_residual"])
    assert check_records(cfg, records) is False


def norm_record(n, median):
    aggregates = [(f"median_{name}", median) for name, _ in harness._RATIO_KINDS]
    return ResultRecord(experiment="norm_scaling", n=n, p=0.5, kappa=0.01,
                        per_seed=(), aggregates=tuple(aggregates), wall_clock=0.0)


def test_check_records_norm_scaling_fails_on_nan_medians():
    cfg = ExperimentConfig(experiment="norm_scaling", n_grid=(12, 30))
    assert check_records(cfg, [norm_record(12, 1.0), norm_record(30, 2.0)]) is True
    assert check_records(cfg, [norm_record(12, 1.0), norm_record(30, 5.0)]) is False
    assert check_records(cfg, [norm_record(12, 1.0), norm_record(30, float("nan"))]) is False
    assert check_records(cfg, [norm_record(12, float("nan")), norm_record(30, 1.0)]) is False


def detection_record(n, **aggregates):
    return ResultRecord(experiment="detection", n=n, p=0.5, kappa=0.01, per_seed=(),
                        aggregates=tuple(aggregates.items()), wall_clock=0.0)


@pytest.mark.parametrize("mode, good, bad", [
    ("submatrix", {"exceed_fraction": 1.0}, {"exceed_fraction": 0.5}),
    ("clique", {"verdict_fraction": 1.0}, {"verdict_fraction": 0.5}),
    ("comb", {"h0_fraction": 0.0, "h1_fraction": 1.0},
     {"h0_fraction": 0.3, "h1_fraction": 1.0}),
])
def test_check_records_detection_reads_every_grid_point(mode, good, bad):
    # k = 3 keeps comb's exhaustive search at n = 60 within its budget
    cfg = ExperimentConfig(experiment="detection", n_grid=(30, 60),
                           extras={"test": mode, "k": 3})
    assert check_records(cfg, [detection_record(30, **good), detection_record(60, **good)]) is True
    assert check_records(cfg, [detection_record(30, **good), detection_record(60, **bad)]) is False
    assert check_records(cfg, [detection_record(30, **good)]) is False


def test_check_records_reads_the_first_record_of_a_repeated_point():
    cfg = ExperimentConfig(experiment="detection", n_grid=(30, 30), extras={"test": "clique"})
    passing = detection_record(30, verdict_fraction=1.0)
    failing = detection_record(30, verdict_fraction=0.5)
    assert check_records(cfg, [passing, failing]) is True
    assert check_records(cfg, [failing, passing]) is False


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
    # out-of-range values end in a usage error (exit 2), not a traceback from run
    for bad in (["--c0", "0"], ["--kappa", "-0.1"], ["--p", "0"], ["--p", "1.5"],
                ["--seed", "-1"], ["--n", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "w_conditions", "--n", "20", "--trials", "1", *bad])
        assert exc.value.code == 2
        assert "must" in capsys.readouterr().err
    for experiment, n in (("norm_scaling", "3"), ("expansion_identities", "4")):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", experiment, "--n", n, "--trials", "1"])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err


def detection_config(**extras):
    return {"experiment": "detection", "n_grid": [10], "trials": 1, "extras": extras}


# config files that name an unknown field or an out-of-range value; each ends
# in a usage error before anything runs
BAD_CONFIGS = {
    "misspelled_fields": {"experiment": "w_conditions", "n_grid": [10], "trails": 3,
                          "constnt": 2},
    "unknown_extra": detection_config(test="comb", k=3, muu=2.0),
    "unknown_mode": detection_config(test="nope"),
    "unknown_hypothesis": detection_config(hypothesis="H2"),
    "mu_not_a_number": detection_config(test="comb", k=3, mu="big"),
    "c_star_zero": detection_config(c_star=0.0),
    "scaling_above_one": detection_config(scaling=1.5),
    "scaling_negative": detection_config(scaling=-0.1),
    "comb_over_budget": {**detection_config(test="comb", k=6, mu=2.0), "n_grid": [20, 30]},
    "comb_k_above_n": {**detection_config(test="comb", k=8), "n_grid": [6]},
    "comb_k_zero": detection_config(test="comb", k=0),
    "planted_k_above_n": {**detection_config(hypothesis="H1", k=12), "n_grid": [30, 10]},
    "binary_search_off_frontier": {"experiment": "norm_scaling", "n_grid": [10],
                                   "kappa_rule": "binary_search"},
    "not_an_object": [{"experiment": "w_conditions", "n_grid": [10]}],
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_a_usage_error(name, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BAD_CONFIGS[name]))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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
