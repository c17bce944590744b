"""Component matrices of the deviation H - E{H} and their exact identities.

The pair-block deviation splits exactly into a one-overlap matrix K plus the
four-cross-edge families J(eta, nu), where eta counts how many of the four
cross edges {h(A)h(B), h(A)t(B), t(A)h(B), t(A)t(B)} contribute a centered
factor g and nu enumerates which subset of that size.  J restricts support to
disjoint index pairs; the relaxed Jtilde drops that restriction (with the
g_ii = 0 convention).  The mixed-block deviation splits into the three rank
structured matrices L(1,1), L(1,2), L(2,1).

Everything here is verified by exact reconstruction: the residual of the
deviation minus the component sum is floating-point zero, which pins down the
(eta, nu) -> edge-subset convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .models import GraphInstance
from .params import WitnessParams
from .spectral import (
    ProjectorFamily,
    _pairs_count,
    expected_rows,
    rect_operator_norm,
    sym_operator_norm,
)
from .subsets import SubsetIndexer
from .witness import h_rows
# build_matrix is no longer called here; it stays bound because the traced
# benchmark (perfbench/spans.py) wraps decomposition.build_matrix by name
from .witness import build_matrix  # noqa: F401

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

__all__ = [
    "ComponentKind",
    "ComponentMatrix",
    "EDGE_CHOICES",
    "build_component",
    "component_values",
    "component_operator",
    "class1_sum_operator",
    "component_norm",
    "class1_sum_norm",
    "verify_expansion_H22",
    "verify_expansion_H12",
    "KernelReport",
    "kernel_identities",
    "projected_norm",
]

# (eta, nu) -> cross edges carrying a centered factor.  Codes: first letter
# picks h(A)/t(A), second picks h(B)/t(B).  nu ordering within each class is
# pinned by the exact kernel identities (see kernel_identities): the class-1
# sum and the (2,2)+(2,4), (2,3)+(2,5) combinations must annihilate the V2
# projector, and (2,2)/(2,3) must be transposes.
EDGE_CHOICES = {
    (1, 1): ("hh",),
    (1, 2): ("ht",),
    (1, 3): ("th",),
    (1, 4): ("tt",),
    (2, 1): ("hh", "tt"),
    (2, 2): ("hh", "th"),
    (2, 3): ("hh", "ht"),
    (2, 4): ("ht", "tt"),
    (2, 5): ("th", "tt"),
    (2, 6): ("ht", "th"),
    (3, 1): ("hh", "ht", "th"),
    (3, 2): ("hh", "th", "tt"),
    (3, 3): ("hh", "ht", "tt"),
    (3, 4): ("ht", "th", "tt"),
    (4, 1): ("hh", "ht", "th", "tt"),
}

# an L row is a singleton a with both ends a: L(1,1) and L(1,2) take its
# edge to the head or to the tail of the column pair, L(2,1) both
_L_EDGES = {(1, 1): ("hh",), (1, 2): ("ht",), (2, 1): ("hh", "ht")}
# the four codes, each with the code that swaps both ends
_FLIP = {"hh": "tt", "ht": "th", "th": "ht", "tt": "hh"}

# a block of _component_blocks takes as many rows, at most
# _COMPONENT_ROW_CHUNK and at least one, as fit _BLOCK_BYTES of float64 over
# its columns and batch axes: the 64-row H22 block at n = 40 is one budget,
# so every block at n <= 40 has 64 rows, and L(2,1) at n = 141 has 5
_COMPONENT_ROW_CHUNK = 64
_BLOCK_BYTES = 64 * comb(40, 2) * 8


@dataclass(frozen=True)
class ComponentKind:
    """Identifier of one component family member."""

    family: str
    eta: Optional[int] = None
    nu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in ("K", "J", "Jtilde", "L"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "K":
            if self.eta is not None or self.nu is not None:
                raise ValueError("K carries no (eta, nu)")
            return
        if self.family == "L":
            if (self.eta, self.nu) not in _L_EDGES:
                raise ValueError(f"L restricted to {tuple(_L_EDGES)}, got ({self.eta}, {self.nu})")
            return
        if (self.eta, self.nu) not in EDGE_CHOICES:
            raise ValueError(f"invalid (eta, nu) = ({self.eta}, {self.nu})")

    def label(self) -> str:
        if self.family == "K":
            return "K"
        name = {"J": "J", "Jtilde": "Jt", "L": "L"}[self.family]
        return f"{name}({self.eta},{self.nu})"


@dataclass(frozen=True)
class ComponentMatrix:
    """Dense component with its scalar prefactor recorded for norm ratios."""

    kind: ComponentKind
    values: np.ndarray
    prefactor: float


def _pair_products(g: np.ndarray, hi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """The pair-product factor a[i, (k, l)] = g_ik g_il over the given pairs."""
    return g[:, hi] * g[:, ti]


def _prefactor(kind: ComponentKind, params: WitnessParams) -> float:
    if kind.family == "K":
        return params.alpha3
    if kind.family == "L":
        return params.alpha3 * params.p if kind.eta == 1 else params.alpha3
    return params.alpha4 * params.p ** (4 - kind.eta)


def build_component(graph: GraphInstance, params: WitnessParams, kind: ComponentKind) -> ComponentMatrix:
    """Dense component matrix (pairs x pairs, or singletons x pairs for L)."""
    pref = _prefactor(kind, params)
    values = component_values(graph.centered, kind, pref)
    return ComponentMatrix(kind=kind, values=values, prefactor=pref)


def component_values(g: np.ndarray, kind: ComponentKind, pref: float) -> np.ndarray:
    """Values of one component, scaled by pref, from centered variables g.

    g is (n, n, *batch): trailing axes stack graphs, and the result is
    (rows, columns, *batch), each graph's slice equal to its own build.
    """
    return _component_arrays(g, [kind], [pref])[0]


def _component_arrays(
    g: np.ndarray, kinds: Sequence[ComponentKind], prefs: Sequence[float]
) -> List[np.ndarray]:
    """Full values of each kind, scaled by its pref, from one engine pass."""
    n = g.shape[0]
    nrows = n if kinds[0].family == "L" else comb(n, 2)
    vals = [np.empty((nrows, comb(n, 2)) + g.shape[2:]) for _ in kinds]
    for rows, blocks in _component_blocks(g, kinds, prefs):
        for v, block in zip(vals, blocks):
            v[rows] = block
        del blocks, block  # frees this row block before the engine builds the next
    return vals


def _component_blocks(
    g: np.ndarray, kinds: Sequence[ComponentKind], prefs: Sequence[float]
) -> Iterator[Tuple[slice, List[np.ndarray]]]:
    """Row blocks of several components of one row set, built together.

    Yields, per block of rows (see _BLOCK_BYTES), the row slice and each
    kind's block (block rows, columns, *batch) scaled by its pref, in kinds
    order.  Every entry is computed elementwise, so the values do not depend
    on the blocking.
    The kinds must share a row set: pairs for K, J and Jtilde, singletons
    for L.

    One cross-edge rule builds every kind.  A pair (i, j) has head end i
    and tail end j; the L row of a singleton a has both ends a.  The code
    xy gathers g[row end x, column end y].  J, Jtilde and L multiply their
    codes' gathers, and J and L(1, nu) zero the entries whose index sets
    overlap (g_ii = 0 zeroes them in Jtilde and L(2, 1)).  K sums, over the
    codes whose row and column ends are equal, the gather of the flipped
    code.  Each block takes every column gather it needs and the four
    end-equality masks once, and all kinds read them.
    """
    n = g.shape[0]
    cols = dict(zip("ht", SubsetIndexer(n).pair_ends))
    singleton = {kind.family == "L" for kind in kinds}
    if len(singleton) != 1:
        raise ValueError("kinds must share one row set: singletons for L, pairs for the others")
    ends = dict.fromkeys("ht", np.arange(n)) if singleton.pop() else cols
    # per kind: its codes (None for K), whether overlaps are zeroed, its pref
    plan = []
    for kind, pref in zip(kinds, prefs):
        if kind.family == "L":
            codes = _L_EDGES[(kind.eta, kind.nu)]
        else:
            codes = EDGE_CHOICES.get((kind.eta, kind.nu))
        plan.append((codes, kind.family == "J" or (kind.family == "L" and kind.eta == 1), pref))
    overlaps_needed = any(codes is None or masked for codes, masked, _ in plan)
    # each gathered code and the last kind to read it: when that kind reads
    # it first, it takes the gather itself as its product
    last = {code: i for i, (codes, _, _) in enumerate(plan) for code in codes or ()}

    def row_block(rows: slice) -> List[np.ndarray]:
        ends_at = {end: v[rows] for end, v in ends.items()}
        edges = {x + y: g[ends_at[x]].take(cols[y], axis=1) for x, y in last}
        overlaps = {}
        if overlaps_needed:
            overlaps = {x + y: ends_at[x][:, None] == cols[y] for x, y in _FLIP}
        blocks = []
        for i, (codes, masked, pref) in enumerate(plan):
            if codes is None:
                # one code meets at a one-overlap entry, and the two that meet on
                # the diagonal flip to g_ii = 0: each entry sums at most one g
                out = np.zeros(overlaps["hh"].shape + g.shape[2:])
                for code, (u, v) in _FLIP.items():
                    r, c = np.divmod(np.flatnonzero(overlaps[code]), out.shape[1])
                    out[r, c] += g[ends_at[u][r], cols[v][c]]
            else:
                first, *rest = codes
                if last[first] == i:
                    out = edges.pop(first)
                elif rest:  # the first product is the new array
                    out = np.multiply(edges[first], edges[rest.pop(0)])
                else:
                    out = edges[first].copy()
                for code in rest:
                    out *= edges[code]
                if masked:
                    for code in _FLIP:
                        out[overlaps[code]] = 0.0
            np.multiply(pref, out, out=out)
            blocks.append(out)
        return blocks

    row_bytes = 8 * cols["h"].size * prod(g.shape[2:])
    step = max(1, min(_COMPONENT_ROW_CHUNK, _BLOCK_BYTES // max(row_bytes, 1)))
    for start in range(0, ends["h"].size, step):
        rows = slice(start, start + step)
        yield rows, row_block(rows)


# ----------------------------------------------------------------------
# matrix-free operators for the norm probes
# ----------------------------------------------------------------------


# pair columns per block of the J(4,1) matvec; the chunk boundaries fix the
# order in which the matvec sums its BLAS-3 products
_PAIR_CHUNK = 2048


def component_operator(
    graph: GraphInstance, params: WitnessParams, kind: ComponentKind
) -> LinearOperator:
    """Matrix-free matvec for K and J(4,1) (= Jtilde(4,1)).

    J(4,1) v is alpha4 (a diag(v) a^T) read at the pairs, for the
    pair-product factor a[i, (k, l)] = g_ik g_il: one BLAS-3 product per
    _PAIR_CHUNK pair columns.  The operator builds the factor chunks once
    and holds them, n C(n, 2) floats; the matvec only reads them.  Other
    single components have no operator; the class-1 relaxed sum has its own
    below.
    """
    from scipy.sparse.linalg import LinearOperator  # loaded on first use, not at package import

    ix = SubsetIndexer(graph.n)
    g = graph.centered
    hi, ti = ix.pair_ends
    n = graph.n
    npairs = ix.num_pairs

    if kind.family == "K":
        a3 = params.alpha3

        def matvec(v: np.ndarray) -> np.ndarray:
            V = ix.lift(np.asarray(v).ravel())
            W = V @ g
            return a3 * (W + W.T)[hi, ti]

    elif kind.eta == 4:
        a4 = params.alpha4
        chunks = []
        for lo in range(0, npairs, _PAIR_CHUNK):
            cols = slice(lo, lo + _PAIR_CHUNK)
            chunks.append((cols, _pair_products(g, hi[cols], ti[cols])))

        def matvec(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v).ravel()
            s = np.zeros((n, n))
            for cols, a in chunks:
                s += (a * v[cols]) @ a.T
            return a4 * s[hi, ti]

    else:
        raise ValueError(f"no matrix-free route for {kind.label()}")

    return LinearOperator((npairs, npairs), matvec=matvec, rmatvec=matvec, dtype=np.float64)


def class1_sum_operator(graph: GraphInstance, params: WitnessParams) -> LinearOperator:
    """Matrix-free sum of the four class-1 relaxed components."""
    from scipy.sparse.linalg import LinearOperator  # loaded on first use, not at package import

    fam = ProjectorFamily(graph.n)
    g = graph.centered
    scale = params.alpha4 * params.p ** 3

    def matvec(v: np.ndarray) -> np.ndarray:
        # S^T g S v; matmat passes (N, 1) columns, which incidence_sum rejects
        return scale * fam.incidence_lift(g @ fam.incidence_sum(np.asarray(v).ravel()))

    npairs = fam.num_pairs
    return LinearOperator((npairs, npairs), matvec=matvec, rmatvec=matvec, dtype=np.float64)


_DENSE_COMPONENT_LIMIT = 140


def component_norm(graph: GraphInstance, params: WitnessParams, kind: ComponentKind) -> float:
    """Spectral norm of a component.

    K and J(4,1) go through component_operator at every n.  L components
    are dense n x C(n, 2) blocks.  The other pair components have no
    operator: they are densified up to n = _DENSE_COMPONENT_LIMIT, and
    component_operator rejects them above it.  Every dense component takes
    rect_operator_norm.
    """
    dense = kind.family == "L" or graph.n <= _DENSE_COMPONENT_LIMIT
    if kind.family == "K" or kind.eta == 4 or not dense:
        return sym_operator_norm(component_operator(graph, params, kind))
    return rect_operator_norm(build_component(graph, params, kind).values)


def class1_sum_norm(graph: GraphInstance, params: WitnessParams) -> float:
    """Spectral norm of the class-1 relaxed sum at any n."""
    return sym_operator_norm(class1_sum_operator(graph, params))


# ----------------------------------------------------------------------
# exact expansions
# ----------------------------------------------------------------------


def _sum_H22(k, j21, j26, j41, *rest):
    """One row block of the H22 reconstruction, in one fixed order per entry:
    K + ((J(2,1) + J(2,6)) + J(4,1)), then J(3, 1..4), then J - Jtilde for
    each relaxed key, then each Jtilde added back."""
    j3, j, jt = rest[:4], rest[4:12], rest[12:]
    out = k
    out += (j21 + j26) + j41
    for x in j3:
        out += x
    for x, xt in zip(j, jt):
        out += x - xt
    for xt in jt:
        out += xt
    return out


def _sum_H12(l11, l12, l21):
    """One row block of the H12 reconstruction: (L(1,1) + L(1,2)) + L(2,1)."""
    return (l11 + l12) + l21


_RELAXED = [(1, nu) for nu in range(1, 5)] + [(2, nu) for nu in range(2, 6)]
_DIRECT = [(2, 1), (2, 6), (4, 1)] + [(3, nu) for nu in range(1, 5)]
# the kinds in the order _sum_H22 reads them
_H22_KINDS = [ComponentKind("K")] + [ComponentKind("J", *key) for key in _DIRECT + _RELAXED]
_H22_KINDS += [ComponentKind("Jtilde", *key) for key in _RELAXED]
_H12_KINDS = [ComponentKind("L", 1, 1), ComponentKind("L", 1, 2), ComponentKind("L", 2, 1)]


def _residual(
    graph: GraphInstance, params: WitnessParams, block: str,
    kinds: Sequence[ComponentKind], fold: Callable[..., np.ndarray],
) -> float:
    """Max abs of the block's H - E{H} minus fold(components), one engine
    row block at a time: no whole target, expectation or sum is held.  Each
    entry is (H - E{H}) - fold, as over whole blocks, and np.maximum keeps
    a NaN of any row block."""
    target = h_rows(graph, params, block)
    expected = expected_rows(block, graph.n, params)
    prefs = [_prefactor(kind, params) for kind in kinds]
    worst = 0.0
    for rows, blocks in _component_blocks(graph.centered, kinds, prefs):
        recon = fold(*blocks)
        del blocks  # frees the other components before the target rows are built
        diff = target(rows)
        diff -= expected(rows)
        diff -= recon
        worst = np.maximum(worst, np.max(np.abs(diff, out=diff)))
        del recon, diff  # frees this row block before the engine builds the next
    return float(worst)


def verify_expansion_H22(graph: GraphInstance, params: WitnessParams) -> float:
    """Max abs residual of the exact pair-block deviation reconstruction."""
    return _residual(graph, params, "H22", _H22_KINDS, _sum_H22)


def verify_expansion_H12(graph: GraphInstance, params: WitnessParams) -> float:
    """Max abs residual of the exact mixed-block deviation reconstruction."""
    return _residual(graph, params, "H12", _H12_KINDS, _sum_H12)


# ----------------------------------------------------------------------
# kernel identities and projected norms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    """Norms of the four compositions that vanish identically."""

    left_class1: float
    right_class1: float
    right_22_24: float
    left_23_25: float
    prefactor: float

    def max_norm(self) -> float:
        return max(self.left_class1, self.right_class1, self.right_22_24, self.left_23_25)


def kernel_identities(graph: GraphInstance, params: WitnessParams) -> KernelReport:
    """Measure the exact projector kernels of the relaxed class-1/2 sums."""
    fam = ProjectorFamily(graph.n)
    p2 = fam.dense(2)

    kinds = [ComponentKind("Jtilde", 1, nu) for nu in range(1, 5)]
    kinds += [ComponentKind("Jtilde", 2, nu) for nu in range(2, 6)]
    jt11, jt12, jt13, jt14, jt22, jt23, jt24, jt25 = _component_arrays(
        graph.centered, kinds, [_prefactor(kind, params) for kind in kinds]
    )
    sum1 = jt11 + jt12 + jt13 + jt14
    a = np.linalg.norm(p2 @ sum1, 2)
    b = np.linalg.norm(sum1 @ p2, 2)
    c = np.linalg.norm((jt22 + jt24) @ p2, 2)
    d = np.linalg.norm(p2 @ (jt23 + jt25), 2)
    pref = params.alpha4 * params.p ** 2
    return KernelReport(
        left_class1=float(a),
        right_class1=float(b),
        right_22_24=float(c),
        left_23_25=float(d),
        prefactor=pref,
    )


def projected_norm(a: int, x: Union[np.ndarray, ComponentMatrix], b: int) -> float:
    """Spectral norm of P_a X P_b: rect_operator_norm of that product as an
    operator, with the matrix-free projectors (adjoint P_b X^T P_a).

    A composition that is an exact zero leaves only rounding noise, so a
    norm at most 1e-13 max |X| reads 0.0.
    """
    if a not in (0, 1, 2) or b not in (0, 1, 2):
        raise ValueError(f"projector labels must be 0, 1 or 2, got ({a}, {b})")
    vals = x.values if isinstance(x, ComponentMatrix) else np.asarray(x)
    npairs = vals.shape[0]
    if vals.shape != (npairs, npairs):
        raise ValueError(f"square pairs x pairs matrix required, got {vals.shape}")
    fam = ProjectorFamily(_pairs_count(npairs))
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0.0
    from scipy.sparse.linalg import LinearOperator  # loaded on first use, not at package import

    op = LinearOperator(
        vals.shape,
        matvec=lambda v: fam.apply(a, vals @ fam.apply(b, v)),
        rmatvec=lambda v: fam.apply(b, vals.T @ fam.apply(a, v)),
        dtype=np.float64,
    )
    sigma = rect_operator_norm(op)
    return 0.0 if sigma <= 1e-13 * scale else sigma
