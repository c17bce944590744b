import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

from cliquewitness import decomposition
from cliquewitness.decomposition import (
    _BLOCK_BYTES,
    _COMPONENT_ROW_CHUNK,
    _DENSE_COMPONENT_LIMIT,
    _PAIR_CHUNK,
    _pair_factor,
    build_component,
    class1_sum_norm,
    class1_sum_operator,
    component_norm,
    component_operator,
    component_values,
    ComponentKind,
    EDGE_CHOICES,
    kernel_identities,
    projected_norm,
    verify_expansion_H12,
    verify_expansion_H22,
)
from cliquewitness.models import sample_er, sample_planted
from cliquewitness.params import derive_alphas
from cliquewitness.spectral import (
    ProjectorFamily,
    blas_threads,
    expected_block,
    sym_operator_norm,
)
from cliquewitness.subsets import SubsetIndexer
from cliquewitness.witness import build_matrix, extract_blocks

PARAMS = derive_alphas(0.05, 0.5)

# all 34 component kinds
ALL_KINDS = [ComponentKind("K"), ComponentKind("L", 1, 1), ComponentKind("L", 1, 2),
             ComponentKind("L", 2, 1)]
ALL_KINDS += [ComponentKind("J", eta, nu) for eta, nu in EDGE_CHOICES]
ALL_KINDS += [ComponentKind("Jtilde", eta, nu) for eta, nu in EDGE_CHOICES]


def brute_force_component(graph, params, kind, rows=None):
    # entrywise oracle straight from the case definitions, on the given row
    # indices (all rows by default; the others stay zero)
    ix = SubsetIndexer(graph.n)
    g = graph.centered
    pairs = [(int(h), int(t)) for h, t in zip(ix.pair_heads, ix.pair_tails)]
    ends = lambda code, a, b: (a[0] if code[0] == "h" else a[1],
                               b[0] if code[1] == "h" else b[1])
    if kind.family == "L":
        out = np.zeros((graph.n, ix.num_pairs))
        for a in range(1, graph.n + 1):
            if rows is not None and a - 1 not in rows:
                continue
            for c, (h, t) in enumerate(pairs):
                if a in (h, t):
                    continue
                if kind.eta == 1:
                    other = h if kind.nu == 1 else t
                    out[a - 1, c] = params.alpha3 * params.p * g[a - 1, other - 1]
                else:
                    out[a - 1, c] = params.alpha3 * g[a - 1, h - 1] * g[a - 1, t - 1]
        return out
    out = np.zeros((ix.num_pairs, ix.num_pairs))
    for r, a in enumerate(pairs):
        if rows is not None and r not in rows:
            continue
        for c, b in enumerate(pairs):
            shared = len(set(a) & set(b))
            if kind.family == "K":
                if shared != 1:
                    continue
                x = a[0] if a[1] in b else a[1]
                y = b[0] if b[1] in a else b[1]
                out[r, c] = params.alpha3 * g[x - 1, y - 1]
            else:
                if kind.family == "J" and shared != 0:
                    continue
                val = params.alpha4 * params.p ** (4 - kind.eta)
                for code in EDGE_CHOICES[(kind.eta, kind.nu)]:
                    u, v = ends(code, a, b)
                    val *= 0.0 if u == v else g[u - 1, v - 1]
                out[r, c] = val
    return out


def test_edge_choice_table_shape():
    by_eta = {}
    for (eta, nu), codes in EDGE_CHOICES.items():
        assert len(codes) == eta
        assert len(set(codes)) == eta
        assert set(codes) <= {"hh", "ht", "th", "tt"}
        by_eta.setdefault(eta, set()).add(frozenset(codes))
    # every subset of the four cross edges of each size appears exactly once
    for eta, count in ((1, 4), (2, 6), (3, 4), (4, 1)):
        assert len(by_eta[eta]) == count


def test_component_kind_validation():
    assert ComponentKind("K").label() == "K"
    assert ComponentKind("J", 2, 5).label() == "J(2,5)"
    assert ComponentKind("Jtilde", 1, 3).label() == "Jt(1,3)"
    assert ComponentKind("L", 2, 1).label() == "L(2,1)"
    with pytest.raises(ValueError):
        ComponentKind("Q")
    with pytest.raises(ValueError):
        ComponentKind("K", 1, 1)
    with pytest.raises(ValueError):
        ComponentKind("J", 2, 7)
    with pytest.raises(ValueError):
        ComponentKind("L", 2, 2)


def test_components_match_brute_force():
    graphs = [sample_er(n, p, seed=13 + n) for n in (5, 7, 12) for p in (0.1, 0.5, 0.9)]
    graphs.append(sample_planted(8, 0.5, 5, seed=3))
    for graph in graphs:
        params = derive_alphas(0.05, graph.p)
        for kind in ALL_KINDS:
            got = build_component(graph, params, kind)
            oracle = brute_force_component(graph, params, kind)
            assert np.max(np.abs(got.values - oracle)) <= 1e-15, (graph.n, graph.p, kind.label())


def test_components_match_brute_force_across_row_blocks():
    n = 70
    # L has n rows and the pair kinds C(n, 2): both span several row blocks
    assert n > _COMPONENT_ROW_CHUNK
    g = sample_er(n, 0.5, seed=17)
    rng = np.random.default_rng(4)
    for kind in (ComponentKind("K"), ComponentKind("J", 2, 4), ComponentKind("Jtilde", 3, 2),
                 ComponentKind("L", 1, 2)):
        got = build_component(g, PARAMS, kind).values
        # sampled rows, the last one (in the last block) among them
        rows = set(rng.choice(got.shape[0], size=5, replace=False).tolist()) | {got.shape[0] - 1}
        oracle = brute_force_component(g, PARAMS, kind, rows)
        for r in rows:
            assert np.max(np.abs(got[r] - oracle[r])) <= 1e-15, (kind.label(), r)


@pytest.mark.parametrize("n", [5, 12])
def test_batched_build_is_bit_identical_to_single_builds(n):
    # graphs stacked on a trailing axis; at n=12 the 66 pair rows cross the
    # row block
    graphs = [sample_er(n, p, seed=40 + b) for b, p in enumerate((0.2, 0.5, 0.8))]
    g = np.stack([graph.centered for graph in graphs], axis=-1)
    assert len(ALL_KINDS) == 34
    for kind in ALL_KINDS:
        single = [build_component(graph, PARAMS, kind) for graph in graphs]
        batched = component_values(g, kind, single[0].prefactor)
        assert batched.shape == single[0].values.shape + (3,)
        for b, one in enumerate(single):
            assert np.array_equal(batched[..., b], one.values), (n, kind.label(), b)
            assert batched[..., b].tobytes() == one.values.tobytes(), (n, kind.label(), b)


def test_prefactors():
    g = sample_er(6, 0.5, seed=0)
    assert build_component(g, PARAMS, ComponentKind("K")).prefactor == PARAMS.alpha3
    for eta, nu in EDGE_CHOICES:
        want = PARAMS.alpha4 * PARAMS.p ** (4 - eta)
        assert build_component(g, PARAMS, ComponentKind("J", eta, nu)).prefactor == want
    assert (
        build_component(g, PARAMS, ComponentKind("L", 1, 1)).prefactor
        == PARAMS.alpha3 * PARAMS.p
    )
    assert build_component(g, PARAMS, ComponentKind("L", 2, 1)).prefactor == PARAMS.alpha3


def test_j_vanishes_on_overlaps_jtilde_does_not():
    g = sample_er(8, 0.5, seed=21)
    ix = SubsetIndexer(8)
    j = build_component(g, PARAMS, ComponentKind("J", 2, 6)).values
    jt = build_component(g, PARAMS, ComponentKind("Jtilde", 2, 6)).values
    r = ix.pair_index(1, 2) - 9
    c = ix.pair_index(2, 3) - 9
    assert j[r, c] == 0.0
    disjoint = ix.pair_index(3, 4) - 9
    assert j[r, disjoint] == jt[r, disjoint]
    assert np.any(jt != j)


def operator_rows(graph, params, kind, rows):
    # entry formula for the given rows of K or J(4,1)
    ix = SubsetIndexer(graph.n)
    g = graph.centered
    h, t = ix.pair_heads - 1, ix.pair_tails - 1
    i, j = h[rows, None], t[rows, None]
    if kind.family == "K":
        # one shared vertex; g_ii = 0 zeroes the terms whose vertices coincide
        return params.alpha3 * (
            (i == h) * g[j, t] + (i == t) * g[j, h] + (j == h) * g[i, t] + (j == t) * g[i, h]
        )
    return params.alpha4 * g[i, h] * g[i, t] * g[j, h] * g[j, t]


def test_operator_matches_dense():
    g = sample_er(12, 0.5, seed=2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(SubsetIndexer(12).num_pairs)
    for kind in (ComponentKind("K"), ComponentKind("J", 4, 1), ComponentKind("Jtilde", 4, 1)):
        dense = build_component(g, PARAMS, kind).values
        op = component_operator(g, PARAMS, kind)
        assert np.max(np.abs(op @ v - dense @ v)) <= 1e-12 * np.max(np.abs(dense @ v) + 1)
        assert np.array_equal(operator_rows(g, PARAMS, kind, np.arange(v.size)), dense)
    with pytest.raises(ValueError):
        component_operator(g, PARAMS, ComponentKind("J", 2, 1))


def test_operator_matches_entry_formula_across_pair_chunks():
    n = 75
    npairs = SubsetIndexer(n).num_pairs
    assert npairs > _PAIR_CHUNK  # the J(4,1) matvec sums over several chunks
    g = sample_er(n, 0.5, seed=11)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(npairs)
    rows = rng.choice(npairs, size=40, replace=False)
    for kind in (ComponentKind("K"), ComponentKind("J", 4, 1)):
        want = operator_rows(g, PARAMS, kind, rows) @ v
        got = (component_operator(g, PARAMS, kind) @ v)[rows]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def reference_j41_matvec(graph, params):
    # the rebuild-per-call J(4,1) matvec: every call rebuilds each chunk's
    # pair-product factor from g, with the operator's chunk boundaries
    ix = SubsetIndexer(graph.n)
    g = graph.centered
    hi, ti = ix.pair_heads - 1, ix.pair_tails - 1

    def matvec(v):
        v = np.asarray(v).ravel()
        s = np.zeros((graph.n, graph.n))
        for lo in range(0, ix.num_pairs, _PAIR_CHUNK):
            cols = slice(lo, lo + _PAIR_CHUNK)
            a = g[:, hi[cols]] * g[:, ti[cols]]
            s += (a * v[cols]) @ a.T
        return params.alpha4 * s[hi, ti]

    return matvec


@pytest.mark.parametrize("n", [5, 75])  # one partial chunk; a full and a partial one
def test_j41_matvec_is_bit_identical_to_rebuild_reference(n):
    g = sample_er(n, 0.5, seed=n)
    ref = reference_j41_matvec(g, PARAMS)
    rng = np.random.default_rng(n)
    npairs = SubsetIndexer(n).num_pairs
    v, w = rng.standard_normal(npairs), rng.standard_normal(npairs)
    for kind in (ComponentKind("J", 4, 1), ComponentKind("Jtilde", 4, 1)):
        op = component_operator(g, PARAMS, kind)
        first = op @ v
        assert np.array_equal(first, ref(v))
        assert np.array_equal(op @ w, ref(w))
        # the held factor is read, never written: the first result repeats
        assert np.array_equal(op @ v, first)


@pytest.mark.parametrize("n", [30, 75])
def test_j41_norm_equals_reference_operator_norm(n):
    g = sample_er(n, 0.5, seed=n + 1)
    npairs = SubsetIndexer(n).num_pairs
    ref = reference_j41_matvec(g, PARAMS)
    want = sym_operator_norm(
        LinearOperator((npairs, npairs), matvec=ref, rmatvec=ref, dtype=np.float64))
    assert component_norm(g, PARAMS, ComponentKind("J", 4, 1)) == want


@pytest.mark.parametrize("n", [5, 66, 141])  # one partial chunk; one full chunk; five chunks
def test_pair_factor_equals_the_gathered_product(n):
    g = sample_er(n, 0.5, seed=n).centered
    hi, ti = SubsetIndexer(n).pair_ends
    wide = np.full((n, _PAIR_CHUNK + 3), np.nan, order="F")
    for lo in range(0, hi.size, _PAIR_CHUNK):
        heads, tails = hi[lo:lo + _PAIR_CHUNK], ti[lo:lo + _PAIR_CHUNK]
        want = g[:, heads] * g[:, tails]
        got = _pair_factor(g, heads, tails)
        assert got.flags.f_contiguous and np.array_equal(got, want)
        # into a leading slice of a wider buffer, as a rebuilding share does
        into = _pair_factor(g, heads, tails, out=wide[:, :heads.size])
        assert into.flags.f_contiguous and np.array_equal(into, want)
        assert np.shares_memory(into, wide)


def run_fresh(script, threads):
    # a fresh interpreter, since OpenBLAS reads its thread count when it loads;
    # the script imports this checkout's package and this test module
    src = os.path.dirname(os.path.dirname(decomposition.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.skipif(blas_threads() is None, reason="BLAS thread count cannot be read")
def test_j41_shares_are_bit_identical_to_the_reference_at_one_blas_thread():
    # one BLAS thread on two CPUs or more: share 1 runs on the pool and
    # rebuilds its chunks, yet every product and the norm keep their bits
    script = """
import threading
import numpy as np
from scipy.sparse.linalg import LinearOperator
from cliquewitness import decomposition
from cliquewitness.decomposition import ComponentKind, component_norm, component_operator
from cliquewitness.models import sample_er
from cliquewitness.spectral import blas_threads, sym_operator_norm
from test_decomposition import PARAMS, reference_j41_matvec

assert blas_threads() == 1
assert (decomposition._share_count(2), decomposition._share_count(5)) == (2, 2)
kind = ComponentKind("J", 4, 1)
for n in (75, 141):  # two chunks, one of them rebuilt; five chunks
    g = sample_er(n, 0.5, seed=n)
    op, ref = component_operator(g, PARAMS, kind), reference_j41_matvec(g, PARAMS)
    rng = np.random.default_rng(n)
    for v in rng.standard_normal((2, op.shape[0])):
        first = op @ v
        assert np.array_equal(first, ref(v)), n
        assert np.array_equal(op @ v, first), n
assert threading.active_count() > 1, "no share ran on the pool"
g = sample_er(75, 0.5, seed=76)
ref = reference_j41_matvec(g, PARAMS)
npairs = 75 * 74 // 2
want = sym_operator_norm(
    LinearOperator((npairs, npairs), matvec=ref, rmatvec=ref, dtype=np.float64))
print(repr(component_norm(g, PARAMS, kind)), repr(want))
"""
    got, want = run_fresh(script, threads=1).split()
    assert got == want


def test_j41_norm_starts_no_thread_at_two_blas_threads():
    script = """
import threading
from cliquewitness import decomposition
from cliquewitness.decomposition import ComponentKind, component_norm
from cliquewitness.models import sample_er
from test_decomposition import PARAMS

assert decomposition._share_count(2) == 1
before = threading.active_count()
component_norm(sample_er(75, 0.5, seed=76), PARAMS, ComponentKind("J", 4, 1))
print(before, threading.active_count())
"""
    before, after = run_fresh(script, threads=2).split()
    assert before == after


def test_share_pool_starts_once_under_concurrent_first_use(monkeypatch):
    # eight threads released at once ask for the pool: all get the one pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(decomposition, "_share_pool", None)
            start = threading.Barrier(8, timeout=60)

            def first_use(_):
                start.wait()
                return decomposition._pool()

            with ThreadPoolExecutor(8) as callers:
                pools = list(callers.map(first_use, range(8), timeout=60))
            assert len(set(map(id, pools))) == 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shares, budget_mib", [(1, 16.9), (2, 17.4)])
def test_j41_norm_traces_the_held_factor_and_its_buffers(monkeypatch, shares, budget_mib):
    # n = 141 (five chunks), construction and norm: the held factor is 10.6 MiB
    # at one share, and at two the chunks share 1 rebuilds give way to its two
    # chunk buffers; ARPACK's workspace and the matvec's temporaries add the rest
    monkeypatch.setattr(decomposition, "_share_count", lambda chunks: min(chunks, shares))
    g = sample_er(141, 0.5, seed=0)
    g.centered

    def norm():
        sym_operator_norm(component_operator(g, PARAMS, ComponentKind("J", 4, 1)))

    assert traced_peak(norm) <= budget_mib * 2**20


def test_jtilde41_equals_j41():
    g = sample_er(9, 0.5, seed=5)
    a = build_component(g, PARAMS, ComponentKind("J", 4, 1)).values
    b = build_component(g, PARAMS, ComponentKind("Jtilde", 4, 1)).values
    # with g_ii = 0 any overlap kills one of the four factors, so the
    # disjointness restriction is automatic at eta = 4
    assert np.array_equal(a, b)


def test_class1_sum_operator_matches_dense():
    g = sample_er(11, 0.5, seed=7)
    dense = sum(
        build_component(g, PARAMS, ComponentKind("Jtilde", 1, nu)).values
        for nu in range(1, 5)
    )
    op = class1_sum_operator(g, PARAMS)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(dense.shape[0])
    assert np.max(np.abs(op @ v - dense @ v)) <= 1e-12 * np.max(np.abs(dense @ v) + 1)
    got = class1_sum_norm(g, PARAMS)
    want = np.linalg.norm(dense, 2)
    assert abs(got - want) <= 1e-6 * max(want, 1e-300)


def test_component_norms_match_dense():
    g = sample_er(10, 0.5, seed=3)
    for kind in (ComponentKind("K"), ComponentKind("J", 3, 2), ComponentKind("L", 2, 1)):
        want = np.linalg.norm(build_component(g, PARAMS, kind).values, 2)
        got = component_norm(g, PARAMS, kind)
        assert abs(got - want) <= 1e-6 * max(want, 1e-300)
    # K and J(4,1) take their operators at every n, the smallest included
    for n in (5, 12, 30):
        g = sample_er(n, 0.5, seed=n)
        for kind in (ComponentKind("K"), ComponentKind("J", 4, 1)):
            want = np.linalg.norm(build_component(g, PARAMS, kind).values, 2)
            got = component_norm(g, PARAMS, kind)
            assert abs(got - want) <= 1e-6 * max(want, 1e-300), (n, kind.label())


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("kind", [ComponentKind("J", 2, 1), ComponentKind("Jtilde", 2, 6)],
                         ids=lambda kind: kind.label())
def test_symmetric_dense_components_take_rect_norm(n, kind):
    # symmetric dense components take rect_operator_norm like every other
    # dense one: the dense SVD at n=10, the Gram operator at n=40
    g = sample_er(n, 0.5, seed=n)
    vals = build_component(g, PARAMS, kind).values
    assert np.array_equal(vals, vals.T)
    want = float(np.max(np.abs(np.linalg.eigvalsh(vals))))
    assert abs(component_norm(g, PARAMS, kind) - want) <= 1e-6 * want


def test_component_norm_rejects_dense_route_above_limit(monkeypatch):
    def no_dense_build(*args):
        raise AssertionError("built a dense component above the limit")

    monkeypatch.setattr(decomposition, "build_component", no_dense_build)
    g = sample_er(_DENSE_COMPONENT_LIMIT + 1, 0.5, seed=0)
    with pytest.raises(ValueError, match="no matrix-free route"):
        component_norm(g, PARAMS, ComponentKind("J", 2, 1))


def test_expansions_are_exact():
    for seed in (0, 1):
        g = sample_er(12, 0.5, seed=seed)
        assert verify_expansion_H22(g, PARAMS) <= 1e-15 * PARAMS.alpha2
        assert verify_expansion_H12(g, PARAMS) <= 1e-15 * PARAMS.alpha2


def reference_recon_H22(graph, params):
    # the reconstruction from whole components, one build_component each,
    # summed in the order verify_expansion_H22 keeps entry by entry
    def J(eta, nu):
        return build_component(graph, params, ComponentKind("J", eta, nu)).values

    def Jt(eta, nu):
        return build_component(graph, params, ComponentKind("Jtilde", eta, nu)).values

    recon = build_component(graph, params, ComponentKind("K")).values
    recon += J(2, 1) + J(2, 6) + J(4, 1)
    for nu in range(1, 5):
        recon += J(3, nu)
    relaxed = [(1, nu) for nu in range(1, 5)] + [(2, nu) for nu in range(2, 6)]
    tilde = {key: Jt(*key) for key in relaxed}
    for key in relaxed:
        recon += J(*key) - tilde[key]
    for key in relaxed:
        recon += tilde[key]
    return recon


def reference_recon_H12(graph, params):
    return (
        build_component(graph, params, ComponentKind("L", 1, 1)).values
        + build_component(graph, params, ComponentKind("L", 1, 2)).values
        + build_component(graph, params, ComponentKind("L", 2, 1)).values
    )


def reference_residual(graph, params, block, recon):
    _, h12, h22 = extract_blocks(build_matrix(graph, params, kind="H"))
    target = (h22 if block == "H22" else h12) - expected_block(block, graph.n, params)
    return float(np.max(np.abs(target - recon)))


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def streamed_recon(graph, params, kinds, fold):
    # the rows verify_expansion_H22 / _H12 subtract, gathered into one block
    npairs = SubsetIndexer(graph.n).num_pairs
    recon = np.empty((graph.n if kinds[0].family == "L" else npairs, npairs))
    prefs = [decomposition._prefactor(kind, params) for kind in kinds]
    for rows, blocks in decomposition._component_blocks(graph.centered, kinds, prefs):
        recon[rows] = fold(*blocks)
    return recon


# n = 12 has 66 pair rows, past one row block; n = 40 spans 13 blocks
@pytest.mark.parametrize("n, p, clique", [(n, p, None) for n in (5, 12, 40) for p in (0.1, 0.5)]
                         + [(8, 0.5, 5)])
def test_streamed_reconstructions_are_bit_identical_to_whole_components(n, p, clique):
    graph = sample_er(n, p, seed=n) if clique is None else sample_planted(n, p, clique, seed=3)
    params = derive_alphas(0.05, graph.p)
    for block, kinds, fold, reference, verify in (
        ("H22", decomposition._H22_KINDS, decomposition._sum_H22, reference_recon_H22,
         verify_expansion_H22),
        ("H12", decomposition._H12_KINDS, decomposition._sum_H12, reference_recon_H12,
         verify_expansion_H12),
    ):
        want = reference(graph, params)
        recon = streamed_recon(graph, params, kinds, fold)
        assert recon.tobytes() == want.tobytes(), (graph.n, graph.p, block)
        assert repr(verify(graph, params)) == repr(reference_residual(graph, params, block, want))


@pytest.mark.parametrize("nan_block", [0, 1])
def test_streamed_residual_keeps_a_nan_of_any_row_block(monkeypatch, nan_block):
    calls = []
    fold = decomposition._sum_H22

    def one_nan_block(*blocks):
        out = fold(*blocks)
        if len(calls) == nan_block:
            out[0, 0] = np.nan
        calls.append(len(out))
        return out

    monkeypatch.setattr(decomposition, "_sum_H22", one_nan_block)
    g = sample_er(15, 0.5, seed=0)  # 105 pair rows: two row blocks
    assert np.isnan(verify_expansion_H22(g, PARAMS))
    assert calls == [64, 41]


def test_expansion_checks_validate_before_any_work(monkeypatch):
    def no_engine(*args):
        raise AssertionError("the engine ran before the inputs were checked")

    monkeypatch.setattr(decomposition, "_component_blocks", no_engine)
    for verify in (verify_expansion_H22, verify_expansion_H12):
        with pytest.raises(ValueError, match="edge probability mismatch"):
            verify(sample_er(12, 0.5, seed=0), derive_alphas(0.05, 0.3))
        with pytest.raises(ValueError, match="n >= 5"):
            verify(sample_er(4, 0.5, seed=0), PARAMS)


def test_expansion_h22_builds_each_component_once(monkeypatch):
    # K, J(2,1), J(2,6), J(4,1), J(3,1..4), and J and Jtilde of (1,1..4)
    # and (2,2..5): 24 distinct components, each evaluated once per row
    # block by one engine pass, and no whole component built
    passes, evaluated = [], []
    engine = decomposition._component_blocks

    def counted(g, kinds, prefs):
        passes.append(list(kinds))
        for rows, blocks in engine(g, kinds, prefs):
            evaluated.append(len(blocks))
            yield rows, blocks

    def no_build(*args):
        raise AssertionError("built a whole component")

    monkeypatch.setattr(decomposition, "_component_blocks", counted)
    monkeypatch.setattr(decomposition, "build_component", no_build)
    g = sample_er(15, 0.5, seed=0)  # 105 pair rows: two row blocks
    assert verify_expansion_H22(g, PARAMS) <= 1e-15 * PARAMS.alpha2
    assert len(passes) == 1
    assert len(passes[0]) == 24 and len(set(passes[0])) == 24
    assert evaluated == [24, 24]


def test_expansion_h22_holds_no_whole_component():
    # the residual is taken one engine row block at a time, so the peak is
    # the 24 component blocks of at most _BLOCK_BYTES: 2.1 pair blocks at
    # n = 40 and 0.41 at n = 60.  Holding the whole target and reconstruction
    # read 4.1 and 3.0, and reconstructing from whole components 13.1 at n = 40
    for n, bound in ((40, 2.5), (60, 0.5)):
        g = sample_er(n, 0.5, seed=0)
        pair_block = SubsetIndexer(n).num_pairs ** 2 * 8
        verify_expansion_H22(g, PARAMS)  # warm caches outside the trace
        peak = traced_peak(verify_expansion_H22, g, PARAMS)
        assert peak < bound * pair_block, (n, peak / pair_block)


def test_expansion_h12_builds_no_pair_block():
    n = 40
    g = sample_er(n, 0.5, seed=0)
    pair_block = SubsetIndexer(n).num_pairs ** 2 * 8
    verify_expansion_H12(g, PARAMS)  # warm caches outside the trace
    peak = traced_peak(verify_expansion_H12, g, PARAMS)
    # building the whole H to read its mixed block peaked at 3.5 pair blocks
    assert peak < pair_block, peak / pair_block


def test_one_kind_build_holds_two_row_blocks():
    # L(2,1) at n=141: 5-row blocks of singletons.  Beyond the result the
    # build holds the two gathers of one block, each within _BLOCK_BYTES;
    # the product takes the first gather without a copy, and the last block
    # is gone before the next
    n = 141
    g = sample_er(n, 0.5, seed=1)
    full = n * SubsetIndexer(n).num_pairs * 8
    peak = traced_peak(component_values, g.centered, ComponentKind("L", 2, 1), 1.0)
    assert peak < full + 2.5 * _BLOCK_BYTES, (peak - full) / _BLOCK_BYTES


@pytest.mark.parametrize("n, graphs, kind, rows", [
    (141, 1, ComponentKind("L", 2, 1), 5),
    (5, 1024, ComponentKind("L", 2, 1), 4),
    (5, 1024, ComponentKind("J", 2, 1), 4),
    (40, 1, ComponentKind("K"), _COMPONENT_ROW_CHUNK),
])
def test_row_blocks_fit_the_byte_budget(n, graphs, kind, rows):
    # a wide row, over many columns or many stacked graphs, takes fewer rows
    # than _COMPONENT_ROW_CHUNK; a pair block at n <= 40 keeps them all
    g = sample_er(n, 0.5, seed=2).centered
    g = np.repeat(g[..., None], graphs, axis=-1) if graphs > 1 else g
    sizes = []
    for _, (block,) in decomposition._component_blocks(g, [kind], [1.0]):
        assert block.nbytes <= _BLOCK_BYTES, (block.shape, block.nbytes)
        sizes.append(len(block))
    assert sizes[0] == rows
    assert sum(sizes) == (n if kind.family == "L" else SubsetIndexer(n).num_pairs)


def test_j41_norm_reuses_the_zero_probe():
    # the zero probe's product is ARPACK's first: one application fewer than
    # probing and then running ARPACK, with the same norm
    g = sample_er(100, 0.5, seed=0)
    op = component_operator(g, PARAMS, ComponentKind("J", 4, 1))
    calls = []

    def counted(v):
        calls.append(1)
        return op.matvec(v)

    got = sym_operator_norm(LinearOperator(op.shape, matvec=counted, dtype=np.float64))
    assert len(calls) == 151
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    want = abs(eigsh(op, k=1, which="LM", v0=v0, tol=1e-6, return_eigenvectors=False)[0])
    assert repr(got) == repr(float(want))


def test_engine_blocks_match_one_kind_builds():
    g = sample_er(12, 0.5, seed=6)  # 66 pair rows: a full and a partial block
    pair_kinds = [kind for kind in ALL_KINDS if kind.family != "L"]
    prefs = [build_component(g, PARAMS, kind).prefactor for kind in pair_kinds]
    together = decomposition._component_arrays(g.centered, pair_kinds, prefs)
    for kind, pref, vals in zip(pair_kinds, prefs, together):
        assert vals.tobytes() == component_values(g.centered, kind, pref).tobytes(), kind.label()


def test_engine_rejects_mixed_row_sets():
    g = sample_er(6, 0.5, seed=0)
    with pytest.raises(ValueError, match="one row set"):
        list(decomposition._component_blocks(
            g.centered, [ComponentKind("K"), ComponentKind("L", 2, 1)], [1.0, 1.0]))


def reference_kernel_identities(graph, params):
    # each relaxed component from its own build_component call
    p2 = ProjectorFamily(graph.n).dense(2)

    def Jt(eta, nu):
        return build_component(graph, params, ComponentKind("Jtilde", eta, nu)).values

    sum1 = Jt(1, 1) + Jt(1, 2) + Jt(1, 3) + Jt(1, 4)
    return (
        float(np.linalg.norm(p2 @ sum1, 2)),
        float(np.linalg.norm(sum1 @ p2, 2)),
        float(np.linalg.norm((Jt(2, 2) + Jt(2, 4)) @ p2, 2)),
        float(np.linalg.norm(p2 @ (Jt(2, 3) + Jt(2, 5)), 2)),
    )


def test_kernel_identities_vanish():
    g = sample_er(12, 0.5, seed=4)
    rep = kernel_identities(g, PARAMS)
    assert rep.max_norm() <= 1e-12 * PARAMS.alpha4 * 12
    got = (rep.left_class1, rep.right_class1, rep.right_22_24, rep.left_23_25)
    assert repr(got) == repr(reference_kernel_identities(g, PARAMS))
    assert rep.prefactor == PARAMS.alpha4 * PARAMS.p**2


def test_transpose_pairing_within_class2():
    # the (2,2)/(2,3) and (2,4)/(2,5) relaxed members are transposes
    g = sample_er(8, 0.5, seed=9)
    jt = {nu: build_component(g, PARAMS, ComponentKind("Jtilde", 2, nu)).values
          for nu in range(1, 7)}
    assert np.array_equal(jt[2], jt[3].T)
    assert np.array_equal(jt[4], jt[5].T)
    assert np.array_equal(jt[1], jt[1].T)
    assert np.array_equal(jt[6], jt[6].T)


def test_projected_norm_matches_dense():
    g = sample_er(9, 0.5, seed=6)
    fam = ProjectorFamily(9)
    dense_p = [fam.dense(a) for a in range(3)]
    x = build_component(g, PARAMS, ComponentKind("K"))
    for a, b in ((1, 1), (2, 2), (0, 1), (2, 1)):
        want = np.linalg.norm(dense_p[a] @ x.values @ dense_p[b], 2)
        got = projected_norm(a, x, b)
        assert abs(got - want) <= 1e-6 * max(want, 1e-12)


def test_projected_norm_exact_zero_composition():
    for n in (10, 40):
        g = sample_er(n, 0.5, seed=8)
        sum1 = sum(
            build_component(g, PARAMS, ComponentKind("Jtilde", 1, nu)).values
            for nu in range(1, 5)
        )
        assert projected_norm(2, sum1, 1) == 0.0
        assert projected_norm(1, sum1, 2) == 0.0


def test_projected_norm_gives_up_after_three_starts(arpack_stub):
    x = build_component(sample_er(9, 0.5, seed=6), PARAMS, ComponentKind("K"))
    calls = arpack_stub(failures=3)
    with pytest.raises(RuntimeError, match="did not converge after 3 starts"):
        projected_norm(1, x, 1)
    assert len(calls["v0"]) == 3


def test_projected_norm_validation():
    with pytest.raises(ValueError):
        projected_norm(3, np.eye(10), 0)
    with pytest.raises(ValueError):
        projected_norm(0, np.ones((3, 4)), 0)
