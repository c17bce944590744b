import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from cliquewitness.detect import clique_lower_bound, DetectionOutcome, scale_witness
from cliquewitness.detect import TestConfig as DetectConfig
from cliquewitness.detect import test_clique as clique_test
from cliquewitness.detect import test_comb as comb_test
from cliquewitness.detect import test_submatrix as submatrix_test
from cliquewitness.models import GaussianInstance, sample_er, sample_gaussian
from cliquewitness.params import derive_alphas
from cliquewitness.witness import build_matrix, check_sos_feasibility


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
