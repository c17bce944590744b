import gc
import math
import weakref

import pytest

from cliquewitness import labelings
from cliquewitness.decomposition import EDGE_CHOICES, ComponentKind
from cliquewitness.labelings import (
    LabelingPartition,
    build_cyclic_ribbon,
    build_primitive,
    constrained_family_v_star,
    count_bound,
    count_contributing,
    enumerate_contributing,
    exact_expected_trace,
    norm_bound,
    star_ribbon_members,
    TraceBoundParams,
    v_star,
)
from cliquewitness.params import derive_alphas


# ----------------------------------------------------------------------
# primitive shapes
# ----------------------------------------------------------------------


def test_cycle_shapes():
    c6 = build_primitive("cycle", 6)
    assert len(c6.vertices) == 6 and len(c6.edges) == 6 and not c6.couples
    c2 = build_primitive("cycle", 2)
    # length-2 cycle: two vertices joined by a doubled edge
    assert len(c2.vertices) == 2 and len(c2.edges) == 2
    assert c2.edges[0] == c2.edges[1]


def test_bridge_and_ribbon_shapes():
    b2 = build_primitive("bridge", 2)
    assert len(b2.vertices) == 6 and len(b2.edges) == 8 and len(b2.couples) == 2
    r41 = build_primitive("ribbon", 1, 4, 1)
    assert len(r41.vertices) == 6 and len(r41.edges) == 8 and len(r41.couples) == 3
    r11 = build_primitive("ribbon", 2, 1, 1)
    assert len(r11.vertices) == 10 and len(r11.edges) == 4 and len(r11.couples) == 5
    cyc = build_cyclic_ribbon(3, 2, 2)
    assert len(cyc.vertices) == 8 and len(cyc.edges) == 12 and len(cyc.couples) == 4


def test_primitive_validation():
    with pytest.raises(ValueError):
        build_primitive("wheel", 3)
    with pytest.raises(ValueError):
        build_primitive("ribbon", 1, 2, 7)
    with pytest.raises(ValueError):
        build_cyclic_ribbon(5, 1, 2)


def test_star_ribbon_member_family():
    ones = list(star_ribbon_members(1))
    assert len(ones) == 4
    assert all(g.kind == "star_ribbon" for g in ones)
    twos = list(star_ribbon_members(2))
    assert len(twos) == 16
    # identifications only merge vertices, never grow the ribbon
    assert max(len(g.vertices) for g in twos) <= 10


# ----------------------------------------------------------------------
# distinct-label maxima
# ----------------------------------------------------------------------


def test_v_star_cycles():
    for m in range(1, 5):
        assert v_star(build_primitive("cycle", 2 * m)) == m + 1


def test_v_star_bridges():
    for m in range(1, 3):
        assert v_star(build_primitive("bridge", m)) == 2 * m + 1


def test_v_star_ribbons():
    for m in range(1, 3):
        assert v_star(build_primitive("ribbon", m, 4, 1)) == 2 * m + 2
    for nu in (1, 3):
        for m in range(1, 3):
            assert v_star(build_primitive("ribbon", m, 1, nu)) == 3 * m + 2


def test_v_star_star_ribbons_capped():
    for m in range(1, 3):
        assert max(v_star(g) for g in star_ribbon_members(m)) <= m + 2


def test_v_star_constrained_family():
    for m in range(1, 4):
        assert constrained_family_v_star(m) == m + 2


def test_enumeration_budget():
    with pytest.raises(ValueError):
        enumerate_contributing(build_primitive("ribbon", 4, 1, 1))


def reference_contributing(primitive):
    # leaf-only search: every conflict-free set partition, with the
    # "each labeled edge at least twice" test made only at the leaf
    verts = primitive.vertices
    nv = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in primitive.edges]
    couples = [(index[u], index[v]) for u, v in primitive.couples]
    for u, v in couples:
        if u == v:
            return ()
    conflict = [set() for _ in range(nv)]
    for u, v in edges:
        if u == v:
            return ()
        conflict[u].add(v)
        conflict[v].add(u)
    for u, v in couples:
        conflict[u].add(v)
        conflict[v].add(u)

    assign = [0] * nv
    out = []

    def finish(num_blocks):
        counts = {}
        for u, v in edges:
            bu, bv = assign[u], assign[v]
            key = (bu, bv) if bu <= bv else (bv, bu)
            counts[key] = counts.get(key, 0) + 1
        if any(c < 2 for c in counts.values()):
            return
        arcs = sorted({(assign[u], assign[v]) for u, v in couples})
        if not labelings._acyclic(num_blocks, arcs):
            return
        blocks = [[] for _ in range(num_blocks)]
        for i, v in enumerate(verts):
            blocks[assign[i]].append(v)
        out.append(LabelingPartition(blocks=tuple(tuple(b) for b in blocks),
                                     order_constraints=tuple(arcs)))

    def descend(i, num_blocks):
        if i == nv:
            finish(num_blocks)
            return
        for b in range(num_blocks + 1):
            if any(assign[j] == b for j in conflict[i] if j < i):
                continue
            assign[i] = b
            descend(i + 1, max(num_blocks, b + 1))

    descend(0, 0)
    return tuple(out)


def test_pruned_enumeration_equals_leaf_only_reference():
    prims = [build_primitive("cycle", 2 * m) for m in range(1, 6)]
    prims += [build_primitive("bridge", m) for m in range(1, 4)]
    prims += [build_primitive("ribbon", m, 4, 1) for m in (1, 2)]
    prims += [build_primitive("ribbon", m, 1, nu) for nu in range(1, 5) for m in (1, 2)]
    prims += [g for m in range(1, 4) for g in star_ribbon_members(m)]
    prims += [build_cyclic_ribbon(eta, nu, 1) for eta, nu in EDGE_CHOICES]
    for prim in prims:
        assert tuple(enumerate_contributing(prim)) == reference_contributing(prim), (
            prim.kind, prim.m, prim.eta, prim.nu)


def test_evicted_enumeration_is_freed_without_the_collector():
    # the cache holds one enumeration; the one it evicts must go at once
    gc.disable()
    try:
        parts = enumerate_contributing(build_primitive("ribbon", 2, 1, 4))
        ref = weakref.ref(parts[0])
        del parts
        enumerate_contributing(build_primitive("cycle", 4))
        assert ref() is None
    finally:
        gc.enable()


def test_contributing_partitions_are_acyclic_and_couple_strict():
    prim = build_primitive("bridge", 1)
    parts = enumerate_contributing(prim)
    assert parts
    for part in parts:
        seen = [v for block in part.blocks for v in block]
        assert sorted(seen) == sorted(prim.vertices)
        for a, b in part.order_constraints:
            assert a != b


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------


def test_cycle2_count_closed_form():
    # a doubled edge contributes one ordered pair of distinct labels
    for n in (5, 7):
        assert count_contributing(build_primitive("cycle", 2), n) == n * (n - 1)


def test_count_bound_dominates_count():
    cases = [
        build_primitive("cycle", 4),
        build_primitive("bridge", 2),
        build_primitive("ribbon", 1, 4, 1),
        build_primitive("ribbon", 1, 1, 2),
        next(iter(star_ribbon_members(2))),
    ]
    for prim in cases:
        for n in (len(prim.vertices), len(prim.vertices) + 5):
            assert count_contributing(prim, n) <= count_bound(prim, n)


def test_count_grows_with_label_budget():
    prim = build_primitive("cycle", 4)
    counts = [count_contributing(prim, n) for n in (4, 6, 9)]
    assert counts[0] < counts[1] < counts[2]
    # at least one labeling uses the full v* distinct labels
    assert counts[0] >= math.comb(4, v_star(prim))


# ----------------------------------------------------------------------
# dual trace oracle
# ----------------------------------------------------------------------


def test_expected_traces_agree():
    params = derive_alphas(0.3, 0.5)
    kinds = [ComponentKind("K"), ComponentKind("J", 2, 1), ComponentKind("L", 2, 1)]
    for kind in kinds:
        for m in (1, 2):
            res = exact_expected_trace(kind, m, 4, 0.5, params)
            assert res.rel_difference <= 1e-12, kind.label()


def test_graph_average_builds_each_graph_once(monkeypatch):
    params = derive_alphas(0.3, 0.5)
    kind = ComponentKind("J", 2, 1)
    labelings._graph_grams.cache_clear()
    fresh = exact_expected_trace(kind, 2, 4, 0.5, params).graph_average
    builds = []
    real = labelings.component_values
    monkeypatch.setattr(labelings, "component_values",
                        lambda g, *args: builds.append(g.shape) or real(g, *args))
    labelings._graph_grams.cache_clear()
    exact_expected_trace(kind, 1, 4, 0.5, params)
    cached = exact_expected_trace(kind, 2, 4, 0.5, params).graph_average
    # one batched build of every graph on 4 vertices serves both orders
    assert builds == [(4, 4, 2 ** 6)]
    assert cached == fresh


def test_expected_trace_validation():
    params = derive_alphas(0.3, 0.5)
    with pytest.raises(ValueError):
        exact_expected_trace(ComponentKind("K"), 1, 4, 0.4, params)
    with pytest.raises(ValueError):
        exact_expected_trace(ComponentKind("K"), 3, 4, 0.5, params)
    with pytest.raises(ValueError):
        exact_expected_trace(ComponentKind("K"), 1, 7, 0.5, params)
    with pytest.raises(ValueError, match="4 <= n <= 6"):
        exact_expected_trace(ComponentKind("K"), 1, 3, 0.5, params)


# ----------------------------------------------------------------------
# trace-derived norm bound
# ----------------------------------------------------------------------


def test_norm_bound_example_point():
    n = round(math.exp(math.e))
    res = norm_bound(TraceBoundParams(c1=1, c2=1, c3=1, c4=1, c5=1, gamma=3), n)
    # log n = e at this point, so the core collapses to sqrt(e^3 n)
    assert abs(res.bound - math.sqrt(math.exp(3) * n)) <= 1e-9
    assert abs(res.failure_prob - n**-1.0) <= 1e-12
    assert not res.degenerate


def test_norm_bound_prefactors_and_beta():
    tb = TraceBoundParams(c1=1, c2=4, c3=1, c4=2, c5=6, gamma=6, beta=0.5)
    res = norm_bound(tb, 50)
    assert abs(res.bound_c5 / res.bound - 3.0) <= 1e-12
    doubled = norm_bound(
        TraceBoundParams(c1=1, c2=4, c3=1, c4=2, c5=6, gamma=6, beta=1.0), 50
    )
    assert abs(doubled.bound - 2 * res.bound) <= 1e-12


def test_norm_bound_degenerate_and_invalid():
    deg = norm_bound(TraceBoundParams(c1=1, c2=2, c3=1, c4=1, c5=1, gamma=2), 100)
    assert deg.degenerate and deg.failure_prob == 1.0
    with pytest.raises(ValueError):
        norm_bound(TraceBoundParams(c1=1, c2=2, c3=1, c4=1, c5=1, gamma=1.5), 100)
    with pytest.raises(ValueError):
        TraceBoundParams(c1=1, c2=0, c3=1, c4=1, c5=1, gamma=3)
    with pytest.raises(ValueError):
        norm_bound(TraceBoundParams(c1=1, c2=1, c3=1, c4=1, c5=1, gamma=3), 2)
