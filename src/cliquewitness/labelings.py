"""Combinatorial oracle for the moment method.

Primitive graphs (cycles, bridges, ribbons, star ribbons) carry three pieces
of data: vertices, a multiset of edges, and ordered couples (u, v) encoding
the constraint label(u) < label(v).  A labeling is valid when couples are
respected and no edge is collapsed; it contributes to an expected trace when
every labeled edge occurs at least twice.  Enumeration runs over set
partitions (label-pattern classes) rather than raw label maps, with couple
precedence checked per partition.

The module also evaluates expected traces of the component matrices exactly
by two independent routes (labeling sums versus brute-force averages over all
graphs), and computes the trace-power norm bound with its failure
probability.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, exp, log, sqrt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import EDGE_CHOICES, ComponentKind, _prefactor, component_values
# build_component is no longer called here; it stays bound because the traced
# benchmark (perfbench/spans.py) wraps labelings.build_component by name
from .decomposition import build_component  # noqa: F401
from .params import WitnessParams

__all__ = [
    "PrimitiveGraph",
    "LabelingPartition",
    "TraceBoundParams",
    "NormBoundResult",
    "ExpectedTraceResult",
    "build_primitive",
    "build_cyclic_ribbon",
    "star_ribbon_members",
    "constrained_family_v_star",
    "enumerate_contributing",
    "v_star",
    "count_contributing",
    "count_bound",
    "exact_expected_trace",
    "norm_bound",
]

_ENUMERATION_BUDGET = 14


# ----------------------------------------------------------------------
# primitive graphs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveGraph:
    """Vertex/edge/couple lists of one moment-method primitive.

    Edges form a multiset (repeated entries mean repeated edges); couples
    (u, v) require label(u) < label(v).
    """

    kind: str
    m: int
    eta: Optional[int]
    nu: Optional[int]
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    couples: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        names = set(self.vertices)
        if len(names) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for u, v in self.edges:
            if u not in names or v not in names:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
        for u, v in self.couples:
            if u not in names or v not in names:
                raise ValueError(f"couple ({u}, {v}) uses unknown vertices")


def _edge(u: str, v: str) -> Tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _face_edges(eta: int, nu: int, ha: str, ta: str, hb: str, tb: str) -> List[Tuple[str, str]]:
    ends = {"hh": (ha, hb), "ht": (ha, tb), "th": (ta, hb), "tt": (ta, tb)}
    return [_edge(*ends[code]) for code in EDGE_CHOICES[(eta, nu)]]


def build_primitive(
    kind: str,
    m: int,
    eta: Optional[int] = None,
    nu: Optional[int] = None,
    member: int = 0,
) -> PrimitiveGraph:
    """Explicit primitive; for star ribbons `member` picks the identification
    pattern (bit j = 0 identifies the head pair of face j+1, 1 the tail pair).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if kind == "cycle":
        if m < 2:
            raise ValueError("cycle of length 1 would be a self-loop")
        verts = tuple(f"x{i}" for i in range(1, m + 1))
        edges = tuple(_edge(f"x{i}", f"x{i % m + 1}") for i in range(1, m + 1))
        return PrimitiveGraph(kind, m, None, None, verts, edges, ())
    if kind == "bridge":
        verts = tuple(
            f"{c}{i}" for c in ("u", "v", "w") for i in range(1, m + 1)
        )
        edges = []
        for i in range(1, m + 1):
            nxt = i % m + 1
            edges += [
                _edge(f"u{i}", f"v{i}"),
                _edge(f"u{i}", f"w{i}"),
                _edge(f"u{nxt}", f"v{i}"),
                _edge(f"u{nxt}", f"w{i}"),
            ]
        couples = tuple((f"v{i}", f"w{i}") for i in range(1, m + 1))
        return PrimitiveGraph(kind, m, None, None, verts, tuple(edges), couples)
    if kind == "ribbon":
        if (eta, nu) not in EDGE_CHOICES:
            raise ValueError(f"invalid ribbon class ({eta}, {nu})")
        length = 2 * m
        verts = tuple(
            f"{c}{i}" for i in range(1, length + 2) for c in ("u", "v")
        )
        edges = []
        for j in range(1, length + 1):
            left = (f"u{j}", f"v{j}")
            right = (f"u{j + 1}", f"v{j + 1}")
            # odd faces read left-to-right, even faces right-to-left; the
            # alternation matches how transposed factors interleave in the
            # trace expansion
            a, b = (left, right) if j % 2 == 1 else (right, left)
            edges += _face_edges(eta, nu, a[0], a[1], b[0], b[1])
        couples = tuple((f"u{j}", f"v{j}") for j in range(1, length + 2))
        return PrimitiveGraph(kind, m, eta, nu, verts, tuple(edges), couples)
    if kind == "star_ribbon":
        if (eta, nu) != (2, 1):
            raise ValueError(f"star ribbons are defined for class (2, 1), got ({eta}, {nu})")
        return _star_member(m, member)
    raise ValueError(f"unknown primitive kind {kind!r}")


def build_cyclic_ribbon(eta: int, nu: int, m: int) -> PrimitiveGraph:
    """Ribbon of length 2m with wraparound: 4m vertices, 2m couples."""
    if (eta, nu) not in EDGE_CHOICES:
        raise ValueError(f"invalid ribbon class ({eta}, {nu})")
    length = 2 * m
    verts = tuple(f"{c}{i}" for i in range(1, length + 1) for c in ("u", "v"))
    edges = []
    for j in range(1, length + 1):
        nxt = j % length + 1
        left = (f"u{j}", f"v{j}")
        right = (f"u{nxt}", f"v{nxt}")
        a, b = (left, right) if j % 2 == 1 else (right, left)
        edges += _face_edges(eta, nu, a[0], a[1], b[0], b[1])
    couples = tuple((f"u{j}", f"v{j}") for j in range(1, length + 1))
    return PrimitiveGraph("cyclic_ribbon", m, eta, nu, verts, tuple(edges), couples)


def _star_member(m: int, member: int) -> PrimitiveGraph:
    length = 2 * m
    if not 0 <= member < 1 << length:
        raise ValueError(f"member must be in [0, {1 << length}), got {member}")
    base = build_primitive("ribbon", m, 2, 1)
    parent: Dict[str, str] = {v: v for v in base.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            # keep the lexicographically first name as representative
            lo, hi = sorted((rx, ry))
            parent[hi] = lo

    for j in range(1, length + 1):
        side = "u" if (member >> (j - 1)) & 1 == 0 else "v"
        union(f"{side}{j}", f"{side}{j + 1}")

    verts = tuple(sorted({find(v) for v in base.vertices}))
    edges = []
    for u, v in base.edges:
        ru, rv = find(u), find(v)
        if ru != rv:  # identification deletes the collapsed edge
            edges.append(_edge(ru, rv))
    couples = tuple(sorted({(find(u), find(v)) for u, v in base.couples}))
    return PrimitiveGraph("star_ribbon", m, 2, 1, verts, tuple(edges), couples)


def star_ribbon_members(m: int) -> Iterator[PrimitiveGraph]:
    """All identification patterns of the class-(2,1) star ribbon."""
    for member in range(1 << (2 * m)):
        yield _star_member(m, member)


# ----------------------------------------------------------------------
# labeling enumeration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LabelingPartition:
    """One contributing label pattern: blocks plus block-level precedences."""

    blocks: Tuple[Tuple[str, ...], ...]
    order_constraints: Tuple[Tuple[int, int], ...]


def _acyclic(num: int, arcs: Sequence[Tuple[int, int]]) -> bool:
    succ: List[List[int]] = [[] for _ in range(num)]
    indeg = [0] * num
    for a, b in arcs:
        succ[a].append(b)
        indeg[b] += 1
    stack = [v for v in range(num) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == num


def enumerate_contributing(primitive: PrimitiveGraph) -> List[LabelingPartition]:
    """All set partitions that are realizable and contributing."""
    return list(_contributing(primitive))


# v_star, count_contributing and count_bound read the same enumeration; one
# cached primitive lets consecutive queries on it share a single enumeration
@functools.lru_cache(maxsize=1)
def _contributing(primitive: PrimitiveGraph) -> Tuple[LabelingPartition, ...]:
    """Contributing set partitions, in depth-first order of block choice.

    Vertex i joins an earlier block or opens a new one, never sharing a
    block with a neighbour or couple partner.  An edge closes when its later
    endpoint is placed; `lonely` counts the block pairs its closed edges hit
    exactly once.  Each open edge can pair off at most one of them, so a
    branch whose `lonely` exceeds its open edges holds no contributing leaf
    and is cut.  A leaf contributes when `lonely` is zero (every labeled
    edge occurs at least twice) and its block precedences are acyclic.
    """
    verts = primitive.vertices
    nv = len(verts)
    if nv > _ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget is {_ENUMERATION_BUDGET} vertices, got {nv}")
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in primitive.edges]
    couples = [(index[u], index[v]) for u, v in primitive.couples]
    if any(u == v for u, v in edges + couples):
        return ()  # a collapsed edge or couple admits no valid labeling

    # earlier[i] = earlier vertices that may never share a block with i;
    # closing[i] = earlier endpoints of the edges that close at i
    earlier: List[set] = [set() for _ in range(nv)]
    closing: List[List[int]] = [[] for _ in range(nv)]
    for u, v in edges + couples:
        earlier[max(u, v)].add(min(u, v))
    for u, v in edges:
        closing[max(u, v)].append(min(u, v))
    # still_open[i] = edges that close at vertex i or later
    still_open = list(itertools.accumulate(map(len, reversed(closing))))[::-1]

    assign = [0] * nv
    hits = [0] * (nv * nv)  # closed edges per block pair (lo, hi) at lo*nv + hi
    out: List[LabelingPartition] = []

    def finish(num_blocks: int) -> None:
        arcs = sorted({(assign[u], assign[v]) for u, v in couples})
        if not _acyclic(num_blocks, arcs):
            return
        blocks: List[List[str]] = [[] for _ in range(num_blocks)]
        for i, v in enumerate(verts):
            blocks[assign[i]].append(v)
        out.append(
            LabelingPartition(
                blocks=tuple(tuple(b) for b in blocks),
                order_constraints=tuple(arcs),
            )
        )

    def descend(i: int, num_blocks: int, lonely: int) -> None:
        if i == nv:
            if lonely == 0:
                finish(num_blocks)
            return
        if lonely > still_open[i]:
            return
        forbidden = {assign[j] for j in earlier[i]}
        for b in range(num_blocks + 1):
            if b in forbidden:
                continue
            assign[i] = b
            keys = [min(b, assign[j]) * nv + max(b, assign[j]) for j in closing[i]]
            now = lonely
            for k in keys:
                hits[k] += 1
                if hits[k] == 1:
                    now += 1
                elif hits[k] == 2:
                    now -= 1
            descend(i + 1, max(num_blocks, b + 1), now)
            for k in keys:
                hits[k] -= 1

    descend(0, 0, 0)
    return tuple(out)


def v_star(primitive: PrimitiveGraph) -> int:
    """Maximum distinct-label count over contributing labelings (0 if none)."""
    partitions = _contributing(primitive)
    if not partitions:
        return 0
    return max(len(p.blocks) for p in partitions)


# the audit's partitions repeat few (size, precedence) shapes: 1,665 distinct
# keys among 6,785 calls
@functools.lru_cache(maxsize=4096)
def _linear_extensions(num: int, arcs: Tuple[Tuple[int, int], ...]) -> int:
    preds = [0] * num
    for a, b in arcs:
        preds[b] |= 1 << a
    full = (1 << num) - 1
    dp = [0] * (1 << num)
    dp[0] = 1
    for mask in range(1 << num):
        if dp[mask] == 0:
            continue
        for v in range(num):
            bit = 1 << v
            if mask & bit:
                continue
            if preds[v] & ~mask:
                continue
            dp[mask | bit] += dp[mask]
    return dp[full]


def count_contributing(primitive: PrimitiveGraph, n: int) -> int:
    """Number of contributing labelings with labels in [n]."""
    total = 0
    for part in _contributing(primitive):
        b = len(part.blocks)
        total += comb(n, b) * _linear_extensions(b, part.order_constraints)
    return total


def count_bound(primitive: PrimitiveGraph, n: int) -> int:
    """Counting bound binom(n, v*) * v*^|V| from the trace expansion."""
    vs = v_star(primitive)
    return comb(n, vs) * vs ** len(primitive.vertices)


def constrained_family_v_star(m: int) -> int:
    """v* of the cyclic class-(3,2) ribbon with the alternating transversal
    u_1, v_2, u_3, v_4, ... forced onto a single label."""
    base = build_cyclic_ribbon(3, 2, m)
    merged = tuple(f"{'u' if l % 2 == 1 else 'v'}{l}" for l in range(1, 2 * m + 1))
    rep = merged[0]
    remap = {v: (rep if v in merged else v) for v in base.vertices}
    verts = tuple(sorted({remap[v] for v in base.vertices}))
    edges = []
    for u, v in base.edges:
        ru, rv = remap[u], remap[v]
        if ru == rv:
            return 0  # degenerate; no valid labeling
        edges.append(_edge(ru, rv))
    couples = tuple(sorted({(remap[u], remap[v]) for u, v in base.couples}))
    quotient = PrimitiveGraph("constrained", m, 3, 2, verts, tuple(edges), couples)
    return v_star(quotient)


# ----------------------------------------------------------------------
# exact expected traces (dual oracle)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedTraceResult:
    """Expected trace by labeling sum and by all-graphs average."""

    labeling_sum: float
    graph_average: float

    @property
    def rel_difference(self) -> float:
        scale = max(abs(self.labeling_sum), abs(self.graph_average), 1e-300)
        return abs(self.labeling_sum - self.graph_average) / scale


def _central_moment(p: float, t: int) -> float:
    """E[(edge indicator - p)^t] for a Bernoulli(p) edge."""
    if t == 0:
        return 1.0
    return p * (1 - p) ** t + (1 - p) * (-p) ** t


def _entry_edges(
    kind: ComponentKind, row, col: Tuple[int, int]
) -> Optional[List[Tuple[int, int]]]:
    """g-factor endpoints of one matrix entry, or None when unsupported."""
    k, l = col
    if kind.family == "L":
        a = row
        if a == k or a == l:
            return None
        if kind.eta == 2:
            return [(a, k), (a, l)]
        return [(a, k)] if kind.nu == 1 else [(a, l)]
    i, j = row
    if kind.family == "K":
        shared = len({i, j} & {k, l})
        if shared != 1:
            return None
        a = i if j in (k, l) else j
        b = k if l in (i, j) else l
        return [(a, b) if a < b else (b, a)]
    ends = {"hh": (i, k), "ht": (i, l), "th": (j, k), "tt": (j, l)}
    if kind.family == "J" and len({i, j} & {k, l}) != 0:
        return None
    edges = []
    for code in EDGE_CHOICES[(kind.eta, kind.nu)]:
        a, b = ends[code]
        if a == b:
            return None  # centered diagonal factor is identically zero
        edges.append((a, b) if a < b else (b, a))
    return edges


def _trace_by_labelings(
    kind: ComponentKind, m: int, n: int, p: float, params: WitnessParams
) -> float:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rows = list(range(1, n + 1)) if kind.family == "L" else pairs
    beta = _prefactor(kind, params)
    total = 0.0
    for cols in itertools.product(pairs, repeat=m):
        for rws in itertools.product(rows, repeat=m):
            multiplicity: Dict[Tuple[int, int], int] = {}
            dead = False
            for l in range(m):
                for col in (cols[l], cols[(l + 1) % m]):
                    edges = _entry_edges(kind, rws[l], col)
                    if edges is None:
                        dead = True
                        break
                    for e in edges:
                        multiplicity[e] = multiplicity.get(e, 0) + 1
                if dead:
                    break
            if dead:
                continue
            term = 1.0
            for t in multiplicity.values():
                term *= _central_moment(p, t)
                if term == 0.0:
                    break
            total += term
    return beta ** (2 * m) * total


def _trace_by_graphs(
    kind: ComponentKind, m: int, n: int, p: float, params: WitnessParams
) -> float:
    total = 0.0
    for weight, gram in _graph_grams(kind, n, p, params):
        total += weight * float(np.trace(np.linalg.matrix_power(gram, m)))
    return total


# every trace order averages over the same 2^C(n, 2) graphs; one cached
# enumeration lets consecutive orders of a component share its builds
@functools.lru_cache(maxsize=1)
def _graph_grams(
    kind: ComponentKind, n: int, p: float, params: WitnessParams
) -> Tuple[Tuple[float, np.ndarray], ...]:
    """(probability, X^T X) of the component X on every graph on n vertices.

    Graph `bits` has pair s = (i, j) as an edge when bit s is set.  All
    graphs are stacked on a trailing axis of the centered variables and
    built in one component_values call.
    """
    heads, tails = np.triu_indices(n, 1)
    num_slots = heads.size
    graphs = np.arange(1 << num_slots)
    bits = (graphs >> np.arange(num_slots)[:, None]) & 1
    g = np.zeros((n, n, graphs.size))
    g[heads, tails] = g[tails, heads] = bits - p
    # graph-major copy: each x.T @ x runs on the same C-contiguous matrix as a
    # one-graph build, so the grams keep their bits
    xs = np.moveaxis(component_values(g, kind, _prefactor(kind, params)), -1, 0).copy()
    out = []
    for e, x in zip(bits.sum(axis=0).tolist(), xs):
        gram = x.T @ x
        gram.flags.writeable = False  # the cache hands it to every caller
        out.append((p ** e * (1 - p) ** (num_slots - e), gram))
    return tuple(out)


def exact_expected_trace(
    kind: ComponentKind, m: int, n: int, p: float, params: WitnessParams
) -> ExpectedTraceResult:
    """E Tr((X^T X)^m) by labeling sums and by exhaustive graph averaging."""
    if not 4 <= n <= 6 or m > 2:
        raise ValueError(f"exactness budget is 4 <= n <= 6, m <= 2; got n={n}, m={m}")
    if params.p != p:
        raise ValueError(f"edge probability mismatch: p={p}, params.p={params.p}")
    return ExpectedTraceResult(
        labeling_sum=_trace_by_labelings(kind, m, n, p, params),
        graph_average=_trace_by_graphs(kind, m, n, p, params),
    )


# ----------------------------------------------------------------------
# trace-power norm bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceBoundParams:
    """Constants of the trace-power hypothesis; beta rescales the matrix."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    gamma: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4", "c5"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.c2 < self.c4:
            raise ValueError(f"c2 >= c4 required, got c2={self.c2}, c4={self.c4}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class NormBoundResult:
    """Norm bound with both prefactor readings and the failure probability."""

    bound: float
    bound_c5: float
    failure_prob: float
    degenerate: bool


def norm_bound(params: TraceBoundParams, n: int) -> NormBoundResult:
    """High-probability spectral-norm bound from the trace-power hypothesis.

    bound carries the c4 prefactor as displayed; bound_c5 carries c5, the
    constant the proof actually rescales by.  gamma == c2 is allowed but
    flagged degenerate (failure probability 1).
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if params.gamma < params.c2:
        raise ValueError(
            f"gamma > c2 required, got gamma={params.gamma}, c2={params.c2}"
        )
    core = sqrt(
        exp(params.c1 * params.gamma)
        * n ** params.c1
        * log(n) ** (params.c3 - params.c1)
    )
    failure = float(n ** (-(params.gamma - params.c2) / 2))
    return NormBoundResult(
        bound=params.beta * params.c4 * core,
        bound_c5=params.beta * params.c5 * core,
        failure_prob=failure,
        degenerate=params.gamma == params.c2,
    )
