import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from cliquewitness import detect, witness
from cliquewitness.detect import clique_lower_bound, DetectionOutcome, scale_witness
from cliquewitness.detect import TestConfig as DetectConfig
from cliquewitness.detect import test_clique as clique_test
from cliquewitness.detect import test_comb as comb_test
from cliquewitness.detect import test_submatrix as submatrix_test
from cliquewitness.models import GaussianInstance, sample_er, sample_gaussian, sample_planted
from cliquewitness.params import derive_alphas
from cliquewitness.witness import build_block, build_matrix, check_sos_feasibility


def window_kappa(n, c0=0.25):
    return c0 * n ** (-2 / 3) / math.log(n)


def test_config_defaults_and_validation():
    cfg = DetectConfig()
    assert cfg.c_star == 0.5 and cfg.lambda_thresh == 1.0 and cfg.scaling == 1.0
    with pytest.raises(ValueError):
        DetectConfig(c_star=0.0)
    with pytest.raises(ValueError):
        DetectConfig(scaling=1.5)
    with pytest.raises(ValueError):
        DetectConfig(kappa=-1.0)
    with pytest.raises(ValueError):
        DetectConfig(lambda_thresh=None).edge_probability()


def test_threshold_quantities_match_normal_law():
    for lam in (0.5, 1.0, 2.0):
        cfg = DetectConfig(lambda_thresh=lam)
        assert abs(cfg.edge_probability() - norm.sf(lam)) <= 1e-12
        assert abs(cfg.threshold_density() - norm.pdf(lam)) <= 1e-12


def test_scale_witness_preserves_feasibility():
    n = 25
    g = sample_er(n, 0.5, seed=3)
    kappa = window_kappa(n)
    mat = build_matrix(g, derive_alphas(kappa, 0.5), "M")
    rep = check_sos_feasibility(mat, g)
    assert rep.feasible
    half = scale_witness(mat, 0.5)
    rep_half = check_sos_feasibility(half, g)
    assert rep_half.feasible
    assert half.values[0, 0] == 1.0
    assert abs(rep_half.objective - 0.5 * rep.objective) <= 1e-12
    want = 0.5 * mat.values
    want[0, 0] = 1.0
    assert np.array_equal(half.values, want)
    assert not np.shares_memory(half.values, mat.values)
    # the default scaling is the identity and copies nothing
    same = scale_witness(mat, 1.0)
    assert np.shares_memory(same.values, mat.values)
    assert np.array_equal(same.values, mat.values)


def test_scale_witness_validation():
    g = sample_er(6, 0.5, seed=0)
    mat = build_matrix(g, derive_alphas(0.01, 0.5), "N")
    with pytest.raises(ValueError):
        scale_witness(mat, 0.5)
    good = build_matrix(g, derive_alphas(0.01, 0.5), "M")
    with pytest.raises(ValueError):
        scale_witness(good, 1.2)


def test_clique_lower_bound_certificate():
    n = 25
    g = sample_er(n, 0.5, seed=3)
    kappa = window_kappa(n)
    bound, feasible = clique_lower_bound(g, kappa)
    assert feasible
    assert abs(bound - n * kappa) <= 1e-12
    # far above the admissible window the witness loses positivity
    bound_big, feas_big = clique_lower_bound(g, n ** (-1 / 3))
    assert not feas_big and bound_big == 0.0


def test_clique_verdicts():
    n = 25
    g = sample_er(n, 0.5, seed=3)
    kappa = window_kappa(n)
    cfg = DetectConfig(kappa=kappa)
    k_small = 0.9 * n * kappa / cfg.c_star
    out = clique_test(g, cfg, k_small)
    assert isinstance(out, DetectionOutcome)
    assert out.verdict == 1 and out.feasibility
    assert abs(out.statistic_trace - n * kappa) <= 1e-12
    assert clique_test(g, cfg, n + 1).verdict == 0
    with pytest.raises(ValueError):
        clique_test(g, DetectConfig(), 3.0)


def dense_route(monkeypatch):
    # detection with the dense witness in place of the block form
    monkeypatch.setattr(detect, "build_block", lambda g, params: build_matrix(g, params, "M"))


def criterion9_kappa(n):
    return n ** (-2 / 3) / (16.0 * math.log(n))


@pytest.mark.parametrize("scaling", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("hypothesis", ["H0", "H1"])
@pytest.mark.parametrize("n", [12, 30, 60])
def test_submatrix_block_route_matches_dense(n, hypothesis, scaling, monkeypatch):
    # every outcome field, at a kappa where the witness is feasible (but on
    # the n=12 planted block) and one where it is not
    planted = hypothesis == "H1"
    inst = sample_gaussian(n, 2.0 if planted else 0.0, 4 if planted else None, hypothesis, 3)
    for kappa in (criterion9_kappa(n), 0.05):
        cfg = DetectConfig(kappa=kappa, scaling=scaling)
        block = submatrix_test(inst, cfg, 6.0, 1e-4)
        with monkeypatch.context() as m:
            dense_route(m)
            dense = submatrix_test(inst, cfg, 6.0, 1e-4)
        assert block == dense
        if scaling == 1.0 and kappa == 0.05:
            assert not block.feasibility


@pytest.mark.parametrize("n", [12, 30])
def test_clique_block_route_matches_dense(n, monkeypatch):
    for seed in range(3):
        g = sample_er(n, 0.5, seed=seed)
        for kappa in (window_kappa(n), 0.05):
            cfg = DetectConfig(kappa=kappa)
            block = (clique_lower_bound(g, kappa), clique_test(g, cfg, 0.1))
            with monkeypatch.context() as m:
                dense_route(m)
                dense = (clique_lower_bound(g, kappa), clique_test(g, cfg, 0.1))
            assert block == dense
            assert block[0][1] == (kappa != 0.05)


@pytest.mark.parametrize("planted", [False, True])
def test_block_and_dense_feasibility_reports_equal(planted):
    # flags, objective and psd_report, scaled and not, feasible and not
    for seed in range(3):
        g = sample_planted(20, 0.5, 6, seed=seed) if planted else sample_er(20, 0.5, seed=seed)
        for kappa in (window_kappa(20), 0.03):
            params = derive_alphas(kappa, 0.5)
            for scaling in (1.0, 0.5):
                block = scale_witness(build_block(g, params), scaling)
                dense = scale_witness(build_matrix(g, params, "M"), scaling)
                assert check_sos_feasibility(block, g) == check_sos_feasibility(dense, g)


def test_detection_never_builds_dense_witness(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense witness built")

    monkeypatch.setattr(detect, "build_matrix", refuse)
    inst = sample_gaussian(30, 0.0, None, "H0", seed=1)
    assert submatrix_test(inst, DetectConfig(kappa=1e-3, scaling=0.5), 6.0, 1e-4).feasibility
    g = sample_er(30, 0.5, seed=1)
    assert clique_test(g, DetectConfig(kappa=window_kappa(30)), 0.1).feasibility


def test_submatrix_builds_one_code_table(monkeypatch):
    # the audit reads the support from the block's structure
    calls = []
    full_matrix = witness._full_matrix

    def counted(*args, **kwargs):
        calls.append(args[2])
        return full_matrix(*args, **kwargs)

    monkeypatch.setattr(witness, "_full_matrix", counted)
    inst = sample_gaussian(30, 0.0, None, "H0", seed=1)
    assert submatrix_test(inst, DetectConfig(kappa=criterion9_kappa(30)), 6.0, 1e-4).feasibility
    assert calls == ["M"]


def test_gaussian_thresholding_density():
    # the submatrix test thresholds at lambda; check the implied edge law
    cfg = DetectConfig(lambda_thresh=1.0, kappa=1e-3)
    inst = sample_gaussian(60, 0.0, None, "H0", seed=2)
    adjacency = inst.A >= cfg.lambda_thresh
    np.fill_diagonal(adjacency, False)
    pairs = math.comb(60, 2)
    frac = adjacency[np.triu_indices(60, 1)].mean()
    p = cfg.edge_probability()
    assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / pairs)


def test_submatrix_outcome_fields():
    cfg = DetectConfig(lambda_thresh=1.0, kappa=1e-3, scaling=0.5)
    inst = sample_gaussian(20, 0.0, None, "H0", seed=1)
    k, mu = 5.0, 1e-6
    out = submatrix_test(inst, cfg, k, mu)
    assert out.threshold_used == cfg.c_star * mu * k * k
    assert abs(out.statistic_trace - cfg.scaling * 20 * cfg.kappa) <= 1e-12
    assert np.isfinite(out.statistic_weighted)
    assert out.verdict in (0, 1)


def test_submatrix_weighted_statistic_monotone():
    cfg = DetectConfig(kappa=1e-3)
    inst = sample_gaussian(20, 0.0, None, "H0", seed=1)
    base = submatrix_test(inst, cfg, 5.0, 1e-6)
    bumped = inst.A.copy()
    bumped[0, 1] = bumped[1, 0] = max(bumped[0, 1], 0.0) + 2.0
    inst_b = GaussianInstance(n=20, mu=0.0, k=None, A=bumped, hypothesis="H0",
                              planted=None, seed=1)
    out = submatrix_test(inst_b, cfg, 5.0, 1e-6)
    assert out.statistic_weighted >= base.statistic_weighted


def test_mu_zero_h1_matches_h0():
    a0 = sample_gaussian(12, 0.0, None, "H0", 5)
    a1 = sample_gaussian(12, 0.0, 4, "H1", 5)
    assert np.array_equal(a0.A, a1.A)


def brute_force_comb(inst, k, mu):
    best = -np.inf
    n = inst.A.shape[0]
    for size in range(2, k + 1):
        for subset in itertools.combinations(range(n), size):
            val = sum(
                inst.A[i, j] for i, j in itertools.combinations(subset, 2)
            )
            best = max(best, val)
    return int(best >= 0.5 * math.comb(k, 2) * mu)


def test_comb_matches_brute_force():
    for seed in range(4):
        inst = sample_gaussian(8, 1.0, 3, "H1", seed)
        for mu in (0.2, 1.0, 3.0):
            assert comb_test(inst, 3, mu) == brute_force_comb(inst, 3, mu)


def reference_comb(inst, k, mu):
    # the enumerate-per-call search: every call rebuilds each size's subsets
    # and gathers their entries with two index arrays; returns the verdict
    # and the per-size sums it read
    n = inst.n
    threshold = 0.5 * math.comb(k, 2) * mu
    sums = []
    for size in range(2, min(k, n) + 1):
        rows = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), size)),
            dtype=np.int64,
        ).reshape(-1, size)
        pi, pj = np.triu_indices(size, 1)
        sums.append(inst.A[rows[:, pi], rows[:, pj]].sum(axis=1))
        if float(sums[-1].max()) >= threshold:
            return 1, sums
    return 0, sums


def assert_comb_matches_reference(inst, k, mu):
    verdict, sums = reference_comb(inst, k, mu)
    assert comb_test(inst, k, mu) == verdict
    for size, want in enumerate(sums, start=2):
        assert np.array_equal(detect._subset_sums(inst.A, size), want), (inst.n, size)


def test_comb_matches_reference_search():
    for seed in range(10):
        assert_comb_matches_reference(sample_gaussian(20, 0.0, None, "H0", seed), 6, 2.0)
        assert_comb_matches_reference(sample_gaussian(20, 2.0, 6, "H1", seed), 6, 2.0)


def test_comb_tables_are_kept_per_n():
    # a table cached for one n is never read at another
    for n in (20, 12, 20):
        assert_comb_matches_reference(sample_gaussian(n, 0.0, None, "H0", n), 6, 2.0)


def test_comb_edge_cases():
    zero = GaussianInstance(n=10, mu=0.0, k=None, A=np.zeros((10, 10)),
                            hypothesis="H0", planted=None, seed=0)
    assert comb_test(zero, 3, 1.0) == 0
    assert comb_test(zero, 3, 0.0) == 1  # nonpositive threshold always fires
    planted = sample_gaussian(20, 10.0, 6, "H1", 0)
    assert comb_test(planted, 6, 10.0) == 1


def test_comb_budget():
    big = sample_gaussian(30, 0.0, None, "H0", 0)
    with pytest.raises(ValueError):
        comb_test(big, 8, 1.0)
    assert comb_test(big, 3, 50.0) in (0, 1)
