import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator

from cliquewitness import spectral
from cliquewitness.models import GraphInstance, sample_er
from cliquewitness.params import WitnessParams, derive_alphas
from cliquewitness.spectral import (
    _SYM_BLOCK,
    evaluate_W_conditions,
    eigenvalues_expected_H22,
    expected_block,
    expected_H12_norms,
    expected_rows,
    ProjectorFamily,
    psd_check,
    rect_operator_norm,
    schur_condition_check,
    sym_operator_norm,
)
from cliquewitness.subsets import SubsetIndexer
from cliquewitness.witness import CliqueStructure, build_matrix, extract_blocks, fill, padded_table

PARAMS = derive_alphas(0.05, 0.5)


# ----------------------------------------------------------------------
# projector family
# ----------------------------------------------------------------------


def test_projectors_are_orthogonal_idempotents():
    fam = ProjectorFamily(10)
    dense = [fam.dense(a) for a in range(3)]
    for a, b in itertools.product(range(3), repeat=2):
        prod = dense[a] @ dense[b]
        target = dense[a] if a == b else np.zeros_like(prod)
        assert np.max(np.abs(prod - target)) <= 1e-12
    total = dense[0] + dense[1] + dense[2]
    assert np.max(np.abs(total - np.eye(fam.num_pairs))) <= 1e-12


def test_projector_ranks():
    n = 10
    fam = ProjectorFamily(n)
    traces = [round(np.trace(fam.dense(a))) for a in range(3)]
    assert traces == [1, n - 1, n * (n - 3) // 2]


def test_apply_matches_dense():
    fam = ProjectorFamily(8)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(fam.num_pairs)
    for a in range(3):
        assert np.max(np.abs(fam.apply(a, v) - fam.dense(a) @ v)) <= 1e-12
    with pytest.raises(ValueError):
        fam.apply(3, v)


def test_basis_vectors_live_in_their_eigenspaces():
    n = 9
    fam = ProjectorFamily(n)
    v0 = fam.basis_v0()
    assert abs(np.linalg.norm(v0) - 1.0) <= 1e-12
    assert np.max(np.abs(fam.apply(0, v0) - v0)) <= 1e-12
    for i in (1, 4, n):
        v1 = fam.basis_v1(i)
        assert np.max(np.abs(fam.apply(1, v1) - v1)) <= 1e-12
    v2 = fam.basis_v2(2, 7)
    assert np.max(np.abs(fam.apply(2, v2) - v2)) <= 1e-12


def test_v1_gram_identity():
    n = 12
    fam = ProjectorFamily(n)
    v1 = np.stack([fam.basis_v1(i) for i in range(1, n + 1)])
    gram = v1 @ v1.T
    target = (n / (n - 1)) * np.eye(n) - np.ones((n, n)) / (n - 1)
    assert np.max(np.abs(gram - target)) <= 1e-12


def test_q_apply_is_vertex_mean_projector():
    fam = ProjectorFamily(7)
    u = np.arange(7.0)
    assert np.max(np.abs(fam.q_apply(u) - u.mean())) == 0.0


# ----------------------------------------------------------------------
# expected blocks: brute-force expectation over every graph on 5 vertices
# ----------------------------------------------------------------------


def all_graph_average(n, params, block):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    total = None
    p = params.p
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        edges = [e for e, b in zip(pairs, picks) if b]
        g = GraphInstance.from_edges(n, edges, p=p)
        h = build_matrix(g, params, "H")
        h11, h12, h22 = extract_blocks(h)
        part = {"H11": h11, "H12": h12, "H22": h22}[block]
        weight = p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
        total = weight * part if total is None else total + weight * part
    return total


def test_expected_blocks_match_all_graph_average():
    pr = derive_alphas(0.1, 0.4)
    for block in ("H11", "H12", "H22"):
        avg = all_graph_average(5, pr, block)
        closed = expected_block(block, 5, pr)
        assert np.max(np.abs(avg - closed)) <= 1e-14


def reference_expected_block(block, n, params):
    # the whole-block formulas: overlap counts of every pair against every
    # pair (or singleton against pair), and the H22 diagonal filled last
    a1, a2, a3, a4 = params.alpha
    p = params.p
    ix = SubsetIndexer(n)
    if block == "H12":
        out = np.full((n, ix.num_pairs), a3 * p * p - a1 * a2)
        rows = np.arange(1, n + 1)[:, None]
        out[(ix.pair_heads[None, :] == rows) | (ix.pair_tails[None, :] == rows)] = a2 - a1 * a2
        return out
    hi, ti = ix.pair_heads[:, None], ix.pair_tails[:, None]
    hj, tj = ix.pair_heads[None, :], ix.pair_tails[None, :]
    ov = (hi == hj).astype(np.int8) + (hi == tj) + (ti == hj) + (ti == tj)
    out = np.full((ix.num_pairs, ix.num_pairs), a4 * p**4 - a2 * a2)
    out[ov == 1] = a3 * p - a2 * a2
    np.fill_diagonal(out, a2 - a2 * a2)
    return out


@pytest.mark.parametrize("n", [5, 12, 40])
def test_expected_rows_are_the_rows_of_the_whole_block(n):
    pr = derive_alphas(0.05, 0.3)
    for block in ("H12", "H22"):
        want = reference_expected_block(block, n, pr)
        assert expected_block(block, n, pr).tobytes() == want.tobytes()
        rows_of = expected_rows(block, n, pr)
        pieces = [rows_of(slice(lo, lo + 7)) for lo in range(0, len(want), 7)]
        assert np.concatenate(pieces).tobytes() == want.tobytes()


def test_expected_block_requires_n_at_least_five():
    with pytest.raises(ValueError):
        expected_block("H11", 4, PARAMS)
    with pytest.raises(ValueError):
        expected_block("H33", 6, PARAMS)
    with pytest.raises(ValueError, match="n >= 5"):
        expected_rows("H22", 4, PARAMS)


def test_expected_h11_spectrum_closed_form():
    n = 11
    a1, a2 = PARAMS.alpha1, PARAMS.alpha2
    p = PARAMS.p
    vals = np.linalg.eigvalsh(expected_block("H11", n, PARAMS))
    bulk = a1 - a2 * p
    top = bulk + n * (a2 * p - a1 * a1)
    target = np.sort(np.concatenate([np.full(n - 1, bulk), [top]]))
    assert np.max(np.abs(vals - target)) <= 1e-14


def test_expected_h22_spectrum_matches_dense_eigensolve():
    for pr in (PARAMS, WitnessParams(kappa=None, p=0.3, alpha=(0.3, 0.05, 0.01, 0.002))):
        for n in (6, 9):
            spectrum = eigenvalues_expected_H22(n, pr)
            lams = (spectrum.lambda0, spectrum.lambda1, spectrum.lambda2)
            target = np.sort(
                np.concatenate([np.full(m, v) for v, m in zip(lams, spectrum.multiplicities)])
            )
            dense = np.sort(np.linalg.eigvalsh(expected_block("H22", n, pr)))
            scale = max(abs(v) for v in lams)
            assert np.max(np.abs(dense - target)) <= 1e-12 * scale
            assert spectrum.multiplicities == (1, n - 1, n * (n - 3) // 2)


def test_expected_h12_norm_table_matches_dense_svd():
    n = 9
    pr = derive_alphas(0.07, 0.6)
    h12 = expected_block("H12", n, pr)
    fam = ProjectorFamily(n)
    q = np.full((n, n), 1.0 / n)
    q_perp = np.eye(n) - q
    table = expected_H12_norms(n, pr)
    dense = [
        np.linalg.norm(q_perp @ h12 @ fam.dense(a), 2) for a in range(3)
    ] + [np.linalg.norm(q @ h12 @ fam.dense(a), 2) for a in range(3)]
    assert np.max(np.abs(np.array(dense) - np.array(table.as_tuple()))) <= 1e-12
    # four compressions vanish identically, two survive
    assert table.qperp_p0 == table.qperp_p2 == table.q_p1 == table.q_p2 == 0.0
    assert table.qperp_p1 == math.sqrt(n - 2) * abs(pr.alpha2 - pr.alpha3 * pr.p**2)
    assert table.q_p0 > 0.0


# ----------------------------------------------------------------------
# psd certification against dense eigensolves
# ----------------------------------------------------------------------


@pytest.fixture
def potrf_calls(monkeypatch):
    """One entry per potrf call that psd_check makes."""
    calls = []

    def counting_lapack_funcs(names, arrays):
        (potrf,) = scipy.linalg.get_lapack_funcs(names, arrays)

        def counted(*args, **kwargs):
            calls.append(1)
            return potrf(*args, **kwargs)

        return (counted,)

    monkeypatch.setattr(spectral, "get_lapack_funcs", counting_lapack_funcs)
    return calls


def _assert_one_factorization_verdicts(dim, calls):
    # a Gram matrix and the same matrix with one diagonal entry pulled far
    # below its smallest eigenvalue: one potrf each, and the eigvalsh verdict
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim + 10))
    gram = a @ a.T
    spiked = gram.copy()
    spiked[0, 0] -= scipy.linalg.eigvalsh(gram)[0] + 1.0 + gram[0, 0]
    for x, want in ((gram, True), (spiked, False)):
        lowest = scipy.linalg.eigvalsh(x)[0]
        assert (lowest >= -1e-8 * np.max(np.abs(np.diagonal(x)))) == want
        calls.clear()
        rep = psd_check(x)
        assert len(calls) == 1
        assert rep.psd == want
        assert rep.method == "shifted-factorization"


def test_psd_check_dense_path(potrf_calls):
    # below the 600-row cutoff of the operator norms: one Cholesky too
    _assert_one_factorization_verdicts(40, potrf_calls)


def test_psd_check_tolerance_semantics():
    base = np.diag([1.0, 1.0, -1e-12])
    assert psd_check(base, tol=1e-8).psd
    assert psd_check(np.diag([1.0, 1.0, -1e-4]), tol=1e-8).psd is False


def test_psd_check_verdict_is_one_factorization(potrf_calls):
    # one Cholesky of X + s I, s = tol * scale, agrees with the eigenvalue
    # verdict a decade either side of -s and within 1e-3 s of it, and a
    # success certifies a lower bound on the smallest eigenvalue within
    # 1e-3 s of -s
    tol = 1e-8
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((40, 40)))
    base = (q * np.linspace(0.0, 1.0, 40)) @ q.T
    base = 0.5 * (base + base.T)
    scale = float(np.max(np.diagonal(base)))
    for gap in (10.0, -10.0, -(1 - 1e-3), -(1 + 1e-3)):
        x = base + gap * tol * scale * np.eye(40)
        lowest = scipy.linalg.eigvalsh(x)[0]
        s = tol * np.max(np.diagonal(x))
        want = lowest >= -s
        assert want == (gap > -1)
        potrf_calls.clear()
        rep = psd_check(x, tol=tol)
        assert len(potrf_calls) == 1
        assert rep.psd == want
        assert rep.method == "shifted-factorization"
        if want:
            assert -s * (1 + 1e-3) < rep.certified_min_eig <= lowest
        else:
            assert rep.certified_min_eig is None


def test_psd_check_certificate_on_frontier_witness():
    # the n=40 frontier at its pinned kappa*: seed 0 is PSD, seed 7 is not
    table = padded_table(derive_alphas(0.010436495435419099, 0.5))
    for seed, want in ((0, True), (7, False)):
        values = fill(CliqueStructure.of(sample_er(40, 0.5, seed=seed)).codes, table)
        rep = psd_check(values)
        assert rep.psd == want
        if want:
            assert rep.certified_min_eig <= scipy.linalg.eigvalsh(values)[0]
        else:
            assert rep.certified_min_eig is None


def test_psd_check_certificate_pays_for_asymmetry():
    # potrf reads the upper triangle, so a tolerated lower-triangle gap
    # leaves the factorization alone and lowers the certificate by D gap / 2
    dim, gap = 30, 1e-12
    sym = np.eye(dim) + 0.01 * np.ones((dim, dim))
    skew = sym.copy()
    skew[dim - 1, 0] += gap
    exact, tolerated = psd_check(sym), psd_check(skew)
    assert exact.psd and tolerated.psd
    drop = exact.certified_min_eig - tolerated.certified_min_eig
    assert dim * gap / 2 * 0.99 < drop < dim * gap / 2 * 1.01


def test_psd_check_large_factorization_path(potrf_calls):
    _assert_one_factorization_verdicts(650, potrf_calls)


def test_psd_check_rejects_asymmetry():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        psd_check(bad)
    # one asymmetric entry whose row and column fall in different row blocks
    dim = 2 * _SYM_BLOCK + 7
    for r, c in ((3, dim - 2), (dim - 2, 3)):
        far = np.eye(dim)
        far[r, c] = 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            psd_check(far)
        far[c, r] = 1e-9
        assert psd_check(far).psd


def test_psd_check_rejects_non_finite_entries():
    # a NaN pair in different row blocks, NaN and inf on the diagonal, and a
    # NaN in a dropped (zero-diagonal) row
    dim = 2 * _SYM_BLOCK + 7
    pair = np.eye(dim)
    pair[3, dim - 2] = pair[dim - 2, 3] = np.nan
    dropped = np.eye(5)
    dropped[3, 3] = 0.0
    dropped[3, 1] = np.nan
    for x in (pair, np.diag([1.0, np.nan]), np.diag([1.0, np.inf]), dropped):
        with pytest.raises(ValueError, match="non-finite"):
            psd_check(x)


def test_psd_check_zero_row_compression():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    gram = a @ a.T
    big = np.zeros((10, 10))
    keep = [0, 2, 3, 5, 7, 9]
    big[np.ix_(keep, keep)] = gram
    rep = psd_check(big)
    assert rep.psd
    assert rep.certified_min_eig <= 0.0  # zero rows contribute a zero eigenvalue
    neg = big.copy()
    neg[np.ix_(keep, keep)] = gram - 2 * np.linalg.eigvalsh(gram)[-1] * np.eye(6)
    assert psd_check(neg).psd is False


def test_psd_check_dropped_rows_and_columns_stay_symmetric():
    # a zero-diagonal row whose one nonzero sits on one side only: the row
    # and column are dropped, yet the full matrix is not symmetric
    for r, c in ((3, 1), (1, 3)):
        x = np.eye(5)
        x[3, 3] = 0.0
        x[r, c] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            psd_check(x)


def test_psd_check_zero_diagonal_with_coupling_fails_fast(potrf_calls):
    x = np.zeros((5, 5))
    x[0, 0] = 1.0
    x[1, 2] = x[2, 1] = 0.5  # zero diagonal rows 2,3 carry mass: indefinite
    rep = psd_check(x)
    assert rep.psd is False
    assert rep.method == "zero-diagonal-row"
    assert rep.certified_min_eig is None
    assert not potrf_calls


def test_psd_check_zero_matrix():
    for side in (4, 0):
        rep = psd_check(np.zeros((side, side)))
        assert rep.psd
        assert rep.method == "zero-matrix"
        assert rep.certified_min_eig == 0.0


# ----------------------------------------------------------------------
# operator norms
# ----------------------------------------------------------------------


def symmetric_operator(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    sym = (a + a.T) / 2
    return sym, LinearOperator(sym.shape, matvec=lambda v: sym @ v, dtype=np.float64)


def test_sym_operator_norm_matches_dense():
    sym, op = symmetric_operator(25, 2)
    dense = np.max(np.abs(np.linalg.eigvalsh(sym)))
    assert abs(sym_operator_norm(op) - dense) <= 1e-6 * dense


def test_sym_operator_norm_retries_with_a_fresh_start(arpack_stub):
    sym, op = symmetric_operator(30, 8)
    calls = arpack_stub(failures=1)
    got = sym_operator_norm(op)
    assert len(calls["v0"]) == 2
    assert not np.array_equal(calls["v0"][0], calls["v0"][1])
    assert got == float(abs(calls["vals"][0][0]))
    dense = np.max(np.abs(np.linalg.eigvalsh(sym)))
    assert abs(got - dense) <= 1e-6 * dense


def test_sym_operator_norm_gives_up_after_three_starts(arpack_stub):
    _, op = symmetric_operator(30, 8)
    calls = arpack_stub(failures=3)
    with pytest.raises(RuntimeError, match="did not converge after 3 starts"):
        sym_operator_norm(op)
    assert len(calls["v0"]) == 3


def test_rect_operator_norm_matches_dense():
    rng = np.random.default_rng(4)
    wide = rng.standard_normal((12, 300))
    tall = rng.standard_normal((300, 12))
    for mat in (wide, tall):
        dense = np.linalg.norm(mat, 2)
        assert abs(rect_operator_norm(mat) - dense) <= 1e-8 * dense


def test_rect_operator_norm_matvec_interface():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((9, 14))
    got = rect_operator_norm(LinearOperator(
        mat.shape, matvec=lambda v: mat @ v, rmatvec=lambda u: mat.T @ u, dtype=np.float64))
    assert abs(got - np.linalg.norm(mat, 2)) <= 1e-6 * np.linalg.norm(mat, 2)


# ----------------------------------------------------------------------
# Schur-complement condition checks
# ----------------------------------------------------------------------


def expected_blocks(n, params):
    return (
        expected_block("H11", n, params),
        expected_block("H12", n, params),
        expected_block("H22", n, params),
    )


def test_schur_conditions_on_expected_blocks():
    # expectation blocks: the inverse bound and the exact Schur form hold,
    # while the mean-direction part of the projected quadratic bound
    # overshoots the pair block by a constant factor near 4/p at any kappa
    n = 20
    pr = derive_alphas(1e-3, 0.5)
    rep = schur_condition_check(expected_blocks(n, pr), pr)
    assert rep.h11_psd
    assert rep.inverse_dominated
    assert rep.projected_bound is False
    assert rep.exact_schur
    assert not rep.degenerate
    assert rep.note == ""


def test_schur_all_conditions_pass_on_dominated_blocks():
    pr = WitnessParams(kappa=None, p=0.5, alpha=(0.9, 1.7, 0.0, 0.0))
    rep = schur_condition_check((np.eye(5), np.zeros((5, 10)), np.eye(10)), pr)
    assert rep.h11_psd
    assert rep.inverse_dominated
    assert rep.projected_bound
    assert rep.exact_schur
    assert not rep.degenerate


def test_schur_exact_condition_cross_checked_densely():
    n = 14
    pr = derive_alphas(0.2 * n ** (-2 / 3) / math.log(n), 0.5)
    h11, h12, h22 = expected_blocks(n, pr)
    rep = schur_condition_check((h11, h12, h22), pr)
    comp = h22 - h12.T @ np.linalg.inv(h11) @ h12
    dense_psd = np.linalg.eigvalsh(comp)[0] >= -1e-8 * np.max(np.abs(comp))
    assert rep.exact_schur == dense_psd


def test_schur_detects_violations():
    pr = WitnessParams(kappa=None, p=0.5, alpha=(0.5, 0.6, 0.01, 0.001))
    h11 = np.eye(4)
    h12 = 3.0 * np.ones((4, 6))
    h22 = 0.1 * np.eye(6)
    rep = schur_condition_check((h11, h12, h22), pr)
    assert rep.h11_psd
    assert not rep.degenerate
    assert rep.exact_schur is False
    assert rep.projected_bound is False


def test_schur_degenerate_paths():
    h11 = np.eye(5)
    h12 = np.zeros((5, 10))
    h22 = np.eye(10)
    flat = WitnessParams(kappa=None, p=0.5, alpha=(0.0, 0.1, 0.0, 0.0))
    rep = schur_condition_check((h11, h12, h22), flat)
    assert rep.degenerate and "alpha1" in rep.note
    assert rep.inverse_dominated is None
    thin = WitnessParams(kappa=None, p=0.5, alpha=(0.9, 0.1, 0.0, 0.0))
    rep2 = schur_condition_check((h11, h12, h22), thin)  # 0.05 < 0.81
    assert rep2.degenerate and "denominator" in rep2.note
    good = WitnessParams(kappa=None, p=0.5, alpha=(0.1, 0.5, 0.0, 0.0))
    rep3 = schur_condition_check((np.zeros((5, 5)), h12, h22), good)
    assert rep3.degenerate and "singular" in rep3.note
    with pytest.raises(ValueError):
        schur_condition_check((h11, np.zeros((4, 10)), h22), good)


# ----------------------------------------------------------------------
# deterministic dominance system
# ----------------------------------------------------------------------


def test_w_condition_minors_match_exact_determinants():
    # the reported minors sit on heavy cancellation, so the oracle evaluates
    # the determinant of the float entries exactly over the rationals
    from fractions import Fraction

    n = 10**6
    kappa = n ** (-2 / 3) / math.log(n)
    rep = evaluate_W_conditions(n, derive_alphas(kappa, 0.5))
    system = rep.wbar - rep.w  # wbar is stored as the diagonal 3 x 3 matrix
    frac = [[Fraction(system[i, j]) for j in range(3)] for i in range(3)]
    exact = [
        frac[0][0],
        frac[0][0] * frac[1][1] - frac[0][1] * frac[1][0],
        (
            frac[0][0] * (frac[1][1] * frac[2][2] - frac[1][2] * frac[2][1])
            - frac[0][1] * (frac[1][0] * frac[2][2] - frac[1][2] * frac[2][0])
            + frac[0][2] * (frac[1][0] * frac[2][1] - frac[1][1] * frac[2][0])
        ),
    ]
    for k in range(3):
        scale = float(np.prod(np.abs(system[: k + 1, : k + 1]).max(axis=1)))
        assert abs(rep.sylvester[k] - float(exact[k])) <= 1e-12 * scale


def test_w_condition_validation_and_degeneracy():
    pr = derive_alphas(1e-4, 0.5)
    with pytest.raises(ValueError):
        evaluate_W_conditions(4, pr)
    with pytest.raises(ValueError):
        evaluate_W_conditions(100, pr, constant=0.0)
    # alpha2 p <= alpha1^2 leaves the perturbation undefined: reported
    weird = WitnessParams(kappa=None, p=0.5, alpha=(0.9, 0.1, 0.0, 0.0))
    rep = evaluate_W_conditions(100, weird)
    assert rep.degenerate
    assert not rep.wbar_dominates


def test_w_condition_scalars_scale_with_constant():
    n = 10**5
    pr = derive_alphas(n ** (-2 / 3) / math.log(n), 0.5)
    small = evaluate_W_conditions(n, pr, constant=1.0)
    large = evaluate_W_conditions(n, pr, constant=10.0)
    assert large.constant == 10.0
    assert small.nbar == large.nbar == n * math.log(n)
    # growing the constant only grows the perturbation entries
    assert np.all(large.w >= small.w)
