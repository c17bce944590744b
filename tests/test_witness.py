import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquewitness import witness
from cliquewitness.models import GraphInstance, clique_indicator, sample_er, sample_planted
from cliquewitness.params import WitnessParams, derive_alphas
from cliquewitness.spectral import psd_check
from cliquewitness.subsets import SubsetIndexer
from cliquewitness.witness import (
    _slots,
    _unions_agree,
    build_block,
    build_matrix,
    check_sos_feasibility,
    dump_matrix,
    extract_blocks,
    h_rows,
    load_matrix,
    MomentMatrix,
)

PARAMS = derive_alphas(0.05, 0.5)


def brute_force_matrix(graph, params, kind):
    # independent entrywise construction straight from the definitions, used
    # as the oracle for every vectorized builder below
    ix = SubsetIndexer(graph.n)
    subsets = ix.all_subsets()
    dim = len(subsets)
    out = np.zeros((dim, dim))
    adj = graph.adjacency
    for r, a in enumerate(subsets):
        for c, b in enumerate(subsets):
            union = a | b
            coef = params.alpha_of_size(len(union))
            if kind == "M":
                ind = clique_indicator(graph, union)
                out[r, c] = coef * ind
            else:
                val = coef
                for i in a - b:
                    for j in b - a:
                        if i != j:
                            val *= float(adj[i - 1, j - 1])
                out[r, c] = val
    if kind == "H":
        by = np.concatenate(
            [np.full(graph.n, params.alpha1), np.full(ix.num_pairs, params.alpha2)]
        )
        return out[1:, 1:] - np.outer(by, by)
    return out


def oracle_graphs(seed):
    # sparse to dense draws and a planted clique: empty sets, singletons and
    # pairs meet every overlap pattern, with and without their cross edges
    for n in (4, 6, 8):
        for p in (0.1, 0.5, 0.9):
            yield sample_er(n, p, seed=seed + n)
    yield sample_planted(8, 0.5, 5, seed=seed)


def test_entries_match_brute_force_m_and_n():
    for g in oracle_graphs(3):
        pr = derive_alphas(0.05, g.p)
        for kind in ("M", "N"):
            mat = build_matrix(g, pr, kind)
            assert np.max(np.abs(mat.values - brute_force_matrix(g, pr, kind))) == 0.0


def test_h_matches_brute_force():
    for g in oracle_graphs(11):
        pr = derive_alphas(0.05, g.p)
        mat = build_matrix(g, pr, "H")
        assert np.max(np.abs(mat.values - brute_force_matrix(g, pr, "H"))) <= 1e-15


def test_m_equals_dnd():
    # the clique-indicator matrix is the single-set indicator conjugation of
    # the centered-free one: M = D N D with D = diag(indicator of each set)
    g = sample_er(7, 0.5, seed=5)
    m = build_matrix(g, PARAMS, "M").values
    nmat = build_matrix(g, PARAMS, "N").values
    ix = SubsetIndexer(7)
    d = np.array([clique_indicator(g, s) for s in ix.all_subsets()], dtype=float)
    assert np.max(np.abs(m - d[:, None] * nmat * d[None, :])) == 0.0


def test_block_form_is_the_clique_block_of_m():
    # the block holds every nonzero of M, on the rows and columns of cliques
    for seed in range(3):
        for g in oracle_graphs(seed):
            params = derive_alphas(0.05, g.p)
            block = build_block(g, params)
            full = brute_force_matrix(g, params, "M")
            rows = [r for r, a in enumerate(SubsetIndexer(g.n).all_subsets())
                    if clique_indicator(g, a)]
            assert np.array_equal(block.index, rows)
            assert np.array_equal(block.values, full[np.ix_(rows, rows)])
            assert np.count_nonzero(block.values) == np.count_nonzero(full)
            assert block.objective() == build_matrix(g, params, "M").objective()


def test_block_form_validation(tmp_path):
    g = sample_er(6, 0.5, seed=2)
    block = build_block(g, PARAMS)
    ix, structure, values = block.indexer, block.structure, block.values
    index, codes = structure.index, structure.codes
    for bad in (index[1:], index[::-1], np.append(index[:-1], ix.dim)):
        with pytest.raises(ValueError, match="index must ascend"):
            replace(structure, index=bad, codes=codes[: len(bad), : len(bad)])
    with pytest.raises(ValueError, match="codes need shape"):
        replace(structure, codes=codes[1:, 1:])
    with pytest.raises(ValueError):
        MomentMatrix(ix, "N", values, PARAMS, structure)
    with pytest.raises(ValueError):
        MomentMatrix(ix, "M", values[1:, 1:], PARAMS, structure)
    with pytest.raises(ValueError, match="structure n=6"):
        MomentMatrix(SubsetIndexer(7), "M", values, PARAMS, structure)
    with pytest.raises(ValueError):
        dump_matrix(block, str(tmp_path / "block.txt"))


def test_block_audit_rejects_another_graphs_structure():
    g1, g2 = sample_er(8, 0.5, seed=1), sample_er(8, 0.5, seed=2)
    assert not np.array_equal(g1.adjacency, g2.adjacency)
    block = build_block(g1, PARAMS)
    assert check_sos_feasibility(block, g1).vanishes_off_cliques
    with pytest.raises(ValueError, match="another graph"):
        check_sos_feasibility(block, g2)


def test_h_blocks_are_the_blocks_of_h():
    # bit for bit, on rows and columns that differ in size and in clique
    # status, whole and in row slices that split the rows unevenly
    for g in oracle_graphs(5):
        pr = derive_alphas(0.05, g.p)
        _, h12, h22 = extract_blocks(build_matrix(g, pr, "H"))
        for block, want in (("H12", h12), ("H22", h22)):
            rows_of = h_rows(g, pr, block)
            assert rows_of(slice(None)).tobytes() == np.ascontiguousarray(want).tobytes()
            pieces = [rows_of(slice(lo, lo + 3)) for lo in range(0, len(want), 3)]
            assert np.concatenate(pieces).tobytes() == np.ascontiguousarray(want).tobytes()
    with pytest.raises(ValueError):
        h_rows(g, pr, "H11")
    with pytest.raises(ValueError):
        h_rows(g, derive_alphas(0.05, 0.3), "H22")


def test_complete_graph_values():
    g = sample_er(6, 1.0, seed=0)
    pr = derive_alphas(0.05, 1.0)
    m = build_matrix(g, pr, "M")
    nmat = build_matrix(g, pr, "N")
    assert np.array_equal(m.values, nmat.values)
    assert m.values[0, 0] == 1.0
    ix = m.indexer
    sizes = np.array([len(s) for s in ix.all_subsets()])
    unions = np.maximum(sizes[:, None], sizes[None, :])
    # on the complete graph every entry is alpha of the union size; check the
    # generic positions where the two sets are disjoint or nested
    assert m.values[1, 2] == pr.alpha2
    assert m.values[ix.pair_index(1, 2), ix.pair_index(3, 4)] == pr.alpha4
    assert m.values[ix.pair_index(1, 2), ix.pair_index(1, 3)] == pr.alpha3
    assert m.values[ix.pair_index(1, 2), ix.pair_index(1, 2)] == pr.alpha2
    assert np.all(m.values[unions == 0] == 1.0)


def test_singleton_block_of_n_keeps_edge_factor():
    # distinct singletons in the centered-free matrix carry the edge
    # indicator, so M and N agree on that block
    g = GraphInstance.from_edges(5, [(1, 2)], p=0.5)
    nmat = build_matrix(g, PARAMS, "N").values
    m = build_matrix(g, PARAMS, "M").values
    assert nmat[1, 2] == PARAMS.alpha2
    assert nmat[1, 3] == 0.0
    assert np.array_equal(nmat[1:6, 1:6], m[1:6, 1:6])


def test_objective_counts_singletons():
    g = sample_er(9, 1.0, seed=2)
    pr = derive_alphas(0.05, 1.0)
    # complete graph: every singleton survives, so the objective is n alpha1
    assert abs(build_matrix(g, pr, "M").objective() - 9 * pr.alpha1) <= 1e-15
    assert abs(build_matrix(g, pr, "N").objective() - 9 * pr.alpha1) <= 1e-15


def test_extract_blocks_shapes():
    g = sample_er(6, 0.5, seed=1)
    h = build_matrix(g, PARAMS, "H")
    h11, h12, h22 = extract_blocks(h)
    assert h11.shape == (6, 6)
    assert h12.shape == (6, 15)
    assert h22.shape == (15, 15)
    full = np.block([[h11, h12], [h12.T, h22]])
    assert np.array_equal(full, h.values)


def test_kind_and_probability_validation():
    g = sample_er(5, 0.5, seed=0)
    with pytest.raises(ValueError):
        build_matrix(g, PARAMS, "X")
    mismatched = derive_alphas(0.05, 0.4)
    with pytest.raises(ValueError):
        build_matrix(g, mismatched, "M")


def test_feasibility_on_planted_instance():
    g = sample_planted(12, 0.5, 5, seed=8)
    kappa = 0.25 * 12 ** (-2 / 3) / math.log(12)
    pr = derive_alphas(kappa, 0.5)
    rep = check_sos_feasibility(build_matrix(g, pr, "M"), g)
    assert rep.empty_entry_is_one
    assert rep.entries_in_range
    assert rep.vanishes_off_cliques
    assert rep.union_symmetric
    assert rep.psd
    assert rep.feasible
    assert abs(rep.objective - 12 * kappa) <= 1e-15


def test_feasibility_flags_out_of_range():
    g = sample_er(6, 0.5, seed=4)
    loud = WitnessParams(kappa=0.9, p=0.5, alpha=(0.9, 0.95, 0.99, 1.0))
    rep = check_sos_feasibility(build_matrix(g, loud, "M"), g)
    assert rep.entries_in_range  # 1.0 still inside the closed interval
    vals = build_matrix(g, loud, "M").values * 1.5
    vals[0, 0] = 1.0
    hot = MomentMatrix(indexer=SubsetIndexer(6), kind="M", values=vals, params=loud)
    rep2 = check_sos_feasibility(hot, g)
    assert not rep2.entries_in_range
    assert not rep2.feasible


def test_feasibility_flags_broken_symmetry_and_support():
    g = sample_planted(8, 0.5, 4, seed=1)
    pr = derive_alphas(0.01, 0.5)
    mat = build_matrix(g, pr, "M")
    vals = mat.values.copy()
    ix = mat.indexer
    i, j = sorted(g.planted)[:2]
    # every position whose union is {i, j} must share one value; bump one
    vals[ix.pair_index(i, j), 0] = pr.alpha2 * 1.01
    vals[0, ix.pair_index(i, j)] = pr.alpha2 * 1.01
    u, w = next(
        (u, w)
        for u in range(1, 9)
        for w in range(u + 1, 9)
        if not g.adjacency[u - 1, w - 1]
    )
    # a non-edge pair is not a clique; giving it weight violates the support
    vals[ix.pair_index(u, w), ix.pair_index(u, w)] = pr.alpha2
    broken = MomentMatrix(indexer=ix, kind="M", values=vals, params=pr)
    rep = check_sos_feasibility(broken, g)
    assert not rep.union_symmetric
    assert not rep.vanishes_off_cliques
    assert rep.feasible is False


@pytest.mark.parametrize(
    "a, b, mirrored",
    [
        ((0,), (), True),
        ((0, 1), (), True),
        ((0, 1), (2,), True),
        ((0, 1), (2, 3), True),
        ((2, 3), (0, 1), False),
    ],
    ids=["union1", "union2", "union3", "union4", "lone_transpose"],
)
def test_feasibility_flags_each_union_size(a, b, mirrored):
    # a, b pick planted vertices by rank.  The edit is one ulp: the union
    # audit is exact, while a lone unmirrored edit stays far below the
    # asymmetry tolerance of the PSD check.  That lone edit sits on the
    # orientation the per-union gather does not read, so only the symmetry
    # test sees it.
    g = sample_planted(8, 0.5, 5, seed=1)
    pr = derive_alphas(0.01, 0.5)
    mat = build_matrix(g, pr, "M")
    ix = mat.indexer
    clique = sorted(g.planted)
    r = ix.index_of(clique[v] for v in a)
    c = ix.index_of(clique[v] for v in b)
    vals = mat.values.copy()
    vals[r, c] = np.nextafter(vals[r, c], 1.0)
    if mirrored:
        vals[c, r] = vals[r, c]
    rep = check_sos_feasibility(MomentMatrix(ix, "M", vals, pr), g)
    assert rep.vanishes_off_cliques
    assert not rep.union_symmetric


def reference_flags(values, graph):
    # the full-matrix flag computation: every entry's range and support,
    # and every union of subsets, one group of entries per union, checked
    # over both orientations of each entry (so the group test includes
    # symmetry)
    subsets = SubsetIndexer(graph.n).all_subsets()
    support_ok, groups = True, {}
    for r, a in enumerate(subsets):
        for c, b in enumerate(subsets):
            union = frozenset(a | b)
            if values[r, c] != 0.0 and not clique_indicator(graph, union):
                support_ok = False
            groups.setdefault(union, set()).add(values[r, c])
    return (
        bool(values[0, 0] == 1.0),
        bool(np.all((0.0 <= values) & (values <= 1.0))),
        support_ok,
        all(len(seen) == 1 for seen in groups.values()),
    )


def _block_edit(vals, ix, g):
    # disagreement inside the clique block: a clique pair against the empty set
    i, j = sorted(g.planted)[:2]
    vals[ix.pair_index(i, j), 0] = vals[0, ix.pair_index(i, j)] = vals[0, 1] * 0.5


def _non_edge(g):
    return next(
        (u, w) for u in range(1, g.n + 1) for w in range(u + 1, g.n + 1)
        if not g.adjacency[u - 1, w - 1]
    )


def _one_sided_non_clique_row(vals, ix, g):
    vals[ix.pair_index(*_non_edge(g)), 1] = 5e-324


def _off_support_in_block(vals, ix, g):
    # two singletons are cliques; a non-edge between them is not
    u, w = _non_edge(g)
    vals[ix.index_of([u]), ix.index_of([w])] = vals[ix.index_of([w]), ix.index_of([u])] = 0.25


def _non_clique_union(vals, ix, g, second):
    # two positions of the union {u, w}, one of them in a non-clique row
    u, w = _non_edge(g)
    r, a, b = ix.pair_index(u, w), ix.index_of([u]), ix.index_of([w])
    vals[r, 0] = vals[0, r] = 0.25
    vals[a, b] = vals[b, a] = second


def _whole_non_clique_union(vals, ix, g):
    # every position of {u, w} holds one value: the union agrees, the
    # support does not
    u, w = _non_edge(g)
    r, a, b = ix.pair_index(u, w), ix.index_of([u]), ix.index_of([w])
    for x, y in ((r, 0), (r, a), (r, b), (r, r), (a, b)):
        vals[x, y] = vals[y, x] = 0.25


def _negative_in_non_clique_row(vals, ix, g):
    r = ix.pair_index(*_non_edge(g))
    vals[r, 0] = vals[0, r] = -0.25


FEASIBILITY_EDITS = {
    "none": lambda vals, ix, g: None,
    "block": _block_edit,
    "one_sided_non_clique_row": _one_sided_non_clique_row,
    "negative_in_non_clique_row": _negative_in_non_clique_row,
    "off_support_in_block": _off_support_in_block,
    "non_clique_union_disagrees": lambda vals, ix, g: _non_clique_union(vals, ix, g, 0.5),
    "non_clique_union_agrees_in_part": lambda vals, ix, g: _non_clique_union(vals, ix, g, 0.25),
    "non_clique_union_agrees": _whole_non_clique_union,
}


@pytest.mark.parametrize("edit", sorted(FEASIBILITY_EDITS))
@pytest.mark.parametrize("n, k, seed", [(8, 5, 1), (12, 5, 8)])
def test_feasibility_flags_match_full_matrix_reference(edit, n, k, seed):
    g = sample_planted(n, 0.5, k, seed=seed)
    pr = derive_alphas(0.01, 0.5)
    mat = build_matrix(g, pr, "M")
    vals = mat.values.copy()
    FEASIBILITY_EDITS[edit](vals, mat.indexer, g)
    rep = check_sos_feasibility(MomentMatrix(mat.indexer, "M", vals, pr), g)
    got = (rep.empty_entry_is_one, rep.entries_in_range, rep.vanishes_off_cliques,
           rep.union_symmetric)
    assert got == reference_flags(vals, g)
    assert rep.psd == psd_check(vals).psd  # the block verdict is the full-matrix one


def test_dense_audit_factors_its_own_block(monkeypatch):
    # a dense witness is audited on its own copy of the clique block: one code
    # table, the block verdict in place of psd_check, and the caller's matrix
    # untouched.  Mass off the block still takes psd_check on the whole.
    g = sample_planted(20, 0.5, 6, seed=0)
    mat = build_matrix(g, derive_alphas(0.01, 0.5), "M")
    want = psd_check(mat.values)
    before = mat.values.tobytes()
    calls = []
    full_matrix = witness._full_matrix

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return full_matrix(*args, **kwargs)

    def no_psd_check(*args, **kwargs):
        raise AssertionError("the dense audit called psd_check")

    monkeypatch.setattr(witness, "_full_matrix", counted)
    monkeypatch.setattr(witness, "psd_check", no_psd_check)
    rep = check_sos_feasibility(mat, g)
    assert rep.feasible and rep.psd_report == want
    assert calls == [20]
    assert mat.values.tobytes() == before
    vals = mat.values.copy()
    FEASIBILITY_EDITS["one_sided_non_clique_row"](vals, mat.indexer, g)
    with pytest.raises(AssertionError, match="called psd_check"):
        check_sos_feasibility(MomentMatrix(mat.indexer, "M", vals, mat.params), g)


def test_union_audit_reads_zero_off_the_block():
    # the union {1, 2} on a constant region: with only the empty set and the
    # singletons as rows, ({1}, {2}) reads 0.25 and ({1, 2}, {}) reads 0
    ix = SubsetIndexer(4)
    unions = {2: np.array([[1, 2]])}
    assert not _unions_agree(np.full((5, 5), 0.25), _slots(ix, np.arange(5)), unions)
    whole = np.arange(ix.dim)
    assert _unions_agree(np.full((ix.dim, ix.dim), 0.25), _slots(ix, whole), unions)


def test_rejects_non_m_kind_feasibility():
    g = sample_er(5, 0.5, seed=0)
    with pytest.raises(ValueError):
        check_sos_feasibility(build_matrix(g, PARAMS, "N"), g)


def test_dump_load_round_trip(tmp_path):
    g = sample_er(6, 0.5, seed=9)
    mat = build_matrix(g, PARAMS, "M")
    text_path = tmp_path / "m.txt"
    dump_matrix(mat, str(text_path))
    back = load_matrix(str(text_path), PARAMS)
    assert back.kind == "M"
    assert np.max(np.abs(back.values - mat.values)) == 0.0
    bin_path = tmp_path / "m.npz"
    dump_matrix(mat, str(bin_path), binary=True)
    back2 = load_matrix(str(bin_path), PARAMS, binary=True)
    assert np.array_equal(back2.values, mat.values)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_support_and_symmetry_properties(n, seed):
    # on any draw: zero outside cliques, symmetric, empty-set entry one, and
    # all entries within [0, 1] for in-range coefficients
    g = sample_er(n, 0.5, seed=seed)
    pr = derive_alphas(0.05, 0.5)
    m = build_matrix(g, pr, "M").values
    ix = SubsetIndexer(n)
    subsets = ix.all_subsets()
    for r, c in itertools.product(range(len(subsets)), repeat=2):
        if clique_indicator(g, subsets[r] | subsets[c]) == 0:
            assert m[r, c] == 0.0
    assert np.array_equal(m, m.T)
    assert m[0, 0] == 1.0
    assert np.all((0.0 <= m) & (m <= 1.0))
