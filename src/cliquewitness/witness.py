"""Pseudo-moment witness matrices and SOS feasibility checking.

Three matrices on the subset index space share one entry engine:

* kind "M": entry (A, B) = alpha_{|A u B|} * [A u B induces a clique],
* kind "N": entry (A, B) = alpha_{|A u B|} * prod of cross edges between
  A \\ B and B \\ A (shared vertices contribute no factor),
* kind "H": N restricted to singletons and pairs, minus the rank-one
  correction alpha_{|A|} * alpha_{|B|} (the Schur complement of the empty-set
  entry of N).

M = D N D with D the diagonal of clique indicators, and PSD-ness cascades
H >= 0  =>  N >= 0  =>  M >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import numpy as np

from .models import GraphInstance
from .params import WitnessParams, derive_alphas
from .spectral import PsdReport, psd_check
from .subsets import SubsetIndexer

__all__ = [
    "WitnessParams",
    "derive_alphas",
    "MomentMatrix",
    "build_matrix",
    "extract_blocks",
    "FeasibilityReport",
    "check_sos_feasibility",
    "dump_matrix",
    "load_matrix",
]

_ROW_CHUNK = 128


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentMatrix:
    """Dense symmetric matrix over the subset index space.

    Kinds "M" and "N" live on the full space (dim x dim, index 0 = empty
    set); kind "H" omits the empty-set row/column (size dim - 1).
    """

    indexer: SubsetIndexer
    kind: str
    values: np.ndarray
    params: WitnessParams

    def __post_init__(self) -> None:
        if self.kind not in ("M", "N", "H"):
            raise ValueError(f"kind must be 'M', 'N' or 'H', got {self.kind}")
        expected = self.indexer.dim - (1 if self.kind == "H" else 0)
        if self.values.shape != (expected, expected):
            raise ValueError(
                f"kind {self.kind} needs shape {(expected, expected)}, got {self.values.shape}"
            )

    @property
    def n(self) -> int:
        return self.indexer.n

    def objective(self) -> float:
        """Sum of the singleton diagonal entries."""
        offset = 0 if self.kind == "H" else 1
        idx = np.arange(offset, offset + self.n)
        return float(self.values[idx, idx].sum())


def _labels(graph: GraphInstance, ix: SubsetIndexer) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-padded (first, second) labels of every subset, and the padded adjacency.

    The empty set is (0, 0) and a singleton {v} is (0, v).  In the padded
    adjacency, label 0 and the diagonal count as adjacent, so a subset is a
    clique exactly when adj[first, second] holds.
    """
    n, dim = ix.n, ix.dim
    first = np.zeros(dim, dtype=np.int64)
    second = np.zeros(dim, dtype=np.int64)
    second[1 : n + 1] = np.arange(1, n + 1)
    first[n + 1 :] = ix.pair_heads
    second[n + 1 :] = ix.pair_tails
    adj = np.ones((n + 1, n + 1), dtype=bool)
    adj[1:, 1:] = graph.adjacency | np.eye(n, dtype=bool)
    return first, second, adj


def _clique_subsets(graph: GraphInstance, ix: SubsetIndexer) -> np.ndarray:
    """Indices of the subsets that are cliques: the rows where M can be nonzero."""
    first, second, adj = _labels(graph, ix)
    return np.flatnonzero(adj[first, second])


def _full_matrix(
    graph: GraphInstance, ix: SubsetIndexer, kind: str, index: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Union sizes |A u B| (int8) and the 0/1 support of kind M or N.

    Rows and columns span the subsets at positions `index` of the indexer.
    The support of N is the product of the cross edges between A \\ B and
    B \\ A; M also needs A and B to be cliques (M = D N D).  The sizes depend
    on n alone.
    """
    first, second, adj = _labels(graph, ix)
    first, second = first[index], second[index]
    dim = len(first)
    count = (first > 0).astype(np.int8) + (second > 0)
    clique = adj[first, second]

    sizes = np.empty((dim, dim), dtype=np.int8)
    support = np.empty((dim, dim), dtype=bool)
    for start in range(0, dim, _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        a1, a2 = first[rows, None], second[rows, None]
        # eq_ij: label i of A equals label j of B
        eq11, eq12, eq21, eq22 = a1 == first, a1 == second, a2 == first, a2 == second
        sizes[rows] = count[rows, None] + ((first > 0) & ~(eq11 | eq21)) + ((second > 0) & ~(eq12 | eq22))
        # an edge term is void when either end lies in both sets
        adj1, adj2 = adj[first[rows]], adj[second[rows]]
        block = support[rows]
        np.logical_and(adj1[:, first] | eq12 | eq21, adj1[:, second] | eq11 | eq22, out=block)
        block &= adj2[:, first] | eq22 | eq11
        block &= adj2[:, second] | eq21 | eq12
        if kind == "M":
            block &= clique[rows, None] & clique
    return sizes, support


def build_matrix(graph: GraphInstance, params: WitnessParams, kind: str) -> MomentMatrix:
    """Construct the witness matrix of the requested kind for a graph."""
    if kind not in ("M", "N", "H"):
        raise ValueError(f"kind must be 'M', 'N' or 'H', got {kind}")
    if params.p != graph.p:
        raise ValueError(
            f"edge probability mismatch: params.p={params.p}, graph.p={graph.p}"
        )
    ix = SubsetIndexer(graph.n)
    sizes, support = _full_matrix(graph, ix, "M" if kind == "M" else "N", np.arange(ix.dim))
    values = params.by_union_size()[sizes]
    values[~support] = 0.0  # in place: np.where would hold a second dense copy
    if kind in ("M", "N"):
        return MomentMatrix(indexer=ix, kind=kind, values=values, params=params)
    by_size = np.concatenate([np.full(ix.n, params.alpha1), np.full(ix.num_pairs, params.alpha2)])
    values = values[1:, 1:] - np.outer(by_size, by_size)
    return MomentMatrix(indexer=ix, kind="H", values=values, params=params)


def extract_blocks(mat: MomentMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views (H11, H12, H22) of the singleton, mixed and pair blocks."""
    if mat.kind != "H":
        raise ValueError(f"blocks are defined for kind 'H', got {mat.kind}")
    n = mat.n
    return mat.values[:n, :n], mat.values[:n, n:], mat.values[n:, n:]


# ----------------------------------------------------------------------
# feasibility checking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the constraint checks on a candidate pseudo-moment matrix."""

    empty_entry_is_one: bool
    entries_in_range: bool
    vanishes_off_cliques: bool
    union_symmetric: bool
    psd: bool
    objective: float
    psd_report: PsdReport
    tolerance: float

    @property
    def feasible(self) -> bool:
        return (
            self.empty_entry_is_one
            and self.entries_in_range
            and self.vanishes_off_cliques
            and self.union_symmetric
            and self.psd
        )


def _union_patterns(size: int) -> list:
    """Unordered (A, B) with A u B = {1..size}, as 0-padded label pairs."""
    labels = range(1, size + 1)
    subsets = [(0, 0)] + [(0, v) for v in labels] + list(combinations(labels, 2))
    return [
        (a, b)
        for i, a in enumerate(subsets)
        for b in subsets[i:]
        if set(a + b) - {0} == set(labels)
    ]


def _extend_cliques(cliques: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Cliques one vertex larger: each row plus a common neighbour above its last label."""
    common = np.arange(1, adjacency.shape[0] + 1) > cliques[:, -1:]
    for labels in cliques.T:
        common &= adjacency[labels - 1]
    rows, extra = np.nonzero(common)
    return np.column_stack([cliques[rows], extra + 1])


def _clique_unions(adjacency: np.ndarray) -> dict:
    """Every clique of 1-4 vertices as sorted 1-based labels, keyed by size."""
    unions = {1: np.arange(1, adjacency.shape[0] + 1)[:, None]}
    unions[2] = np.argwhere(np.triu(adjacency, 1)) + 1
    for size in (3, 4):
        unions[size] = _extend_cliques(unions[size - 1], adjacency)
    return unions


def _entry_unions(first: np.ndarray, second: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> dict:
    """The label sets A u B of the entries (rows, cols), keyed by union size."""
    labels = np.sort(np.stack([first[rows], second[rows], first[cols], second[cols]], axis=1), axis=1)
    labels[:, 1:][labels[:, 1:] == labels[:, :-1]] = 0
    labels.sort(axis=1)
    size = np.count_nonzero(labels, axis=1)
    return {k: labels[size == k, 4 - k :] for k in range(1, 5)}


def _unions_agree(values: np.ndarray, ix: SubsetIndexer, unions: dict) -> bool:
    """True when each listed union U takes one value at every (A, B) with A u B = U.

    `unions[size]` holds one union per row as `size` vertex labels; each is
    checked by gathering the fixed positions that produce it, one orientation
    per position (the caller tests symmetry).
    """
    n = ix.n
    index = np.zeros((n + 1, n + 1), dtype=np.int64)
    index[0, 1:] = index[1:, 0] = np.arange(1, n + 1)
    pairs = np.arange(n + 1, ix.dim)
    index[ix.pair_heads, ix.pair_tails] = index[ix.pair_tails, ix.pair_heads] = pairs
    for size, listed in unions.items():
        # column 0 holds label 0, so pattern labels index the columns
        labels = np.zeros((len(listed), size + 1), dtype=np.int64)
        labels[:, 1:] = listed
        got = np.stack([
            values[index[labels[:, a1], labels[:, a2]], index[labels[:, b1], labels[:, b2]]]
            for (a1, a2), (b1, b2) in _union_patterns(size)
        ], axis=1)
        if not np.array_equal(got, np.broadcast_to(got[:, :1], got.shape)):
            return False
    return True


def check_sos_feasibility(
    mat: MomentMatrix, graph: GraphInstance, tol: float = 1e-8
) -> FeasibilityReport:
    """Verify the degree-4 pseudo-moment constraints on a kind-M matrix.

    Checks, in order: the empty-set diagonal entry equals 1; all entries lie
    in [0, 1]; entries vanish whenever the union of the index subsets is not
    a clique; entries agree exactly whenever the unions agree; the matrix is
    PSD up to tol (relative to the largest diagonal entry).  The first four
    are exact comparisons, not tolerance-based.

    The first four run on the block of clique rows and columns once the
    other rows and columns are seen to vanish, and on the whole matrix
    otherwise.  A union that is not a clique has a position with a
    non-clique side, so its positions agree exactly when none holds a
    nonzero entry off the support: the union audit lists the clique unions
    of the graph and the unions of those entries.
    """
    if mat.kind != "M":
        raise ValueError(f"feasibility checks apply to kind 'M', got {mat.kind}")
    if mat.n != graph.n:
        raise ValueError(f"dimension mismatch: matrix n={mat.n}, graph n={graph.n}")
    ix = mat.indexer
    values = mat.values
    first, second, adj = _labels(graph, ix)
    index = np.flatnonzero(adj[first, second])
    region = values[np.ix_(index, index)]
    if np.count_nonzero(region) != np.count_nonzero(values):
        # a non-clique row or column carries mass: test the whole matrix
        index, region = np.arange(ix.dim), values
    _, support = _full_matrix(graph, ix, "M", index)
    in_range = bool(np.all(region >= 0.0) and np.all(region <= 1.0))
    union_ok = np.array_equal(region, region.T) and _unions_agree(
        values, ix, _clique_unions(graph.adjacency)
    )
    # off-support nonzeros, a block of rows at a time: each fails the support
    # test, and the union audit lists their unions
    stray = 0
    for start in range(0, len(index), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        r, c = np.nonzero((region[rows] != 0.0) & ~support[rows])
        stray += r.size
        if union_ok and r.size:
            union_ok = _unions_agree(values, ix, _entry_unions(first, second, index[r + start], index[c]))

    psd_report = psd_check(region, tol=tol)  # rows left out of region vanish
    offset = 1
    idx = np.arange(offset, offset + ix.n)
    return FeasibilityReport(
        empty_entry_is_one=bool(values[0, 0] == 1.0),
        entries_in_range=in_range,
        vanishes_off_cliques=stray == 0,
        union_symmetric=union_ok,
        psd=psd_report.psd,
        objective=float(values[idx, idx].sum()),
        psd_report=psd_report,
        tolerance=tol,
    )


# ----------------------------------------------------------------------
# dumps
# ----------------------------------------------------------------------


def dump_matrix(mat: MomentMatrix, path: str, binary: bool = False) -> None:
    """Header "n dim kind", then upper-triangle entries in row-major order.

    Text mode writes one repr'd float per line; binary mode writes raw
    little-endian 64-bit floats after the header line.
    """
    side = mat.values.shape[0]
    iu = np.triu_indices(side)
    tri = mat.values[iu]
    header = f"{mat.n} {side} {mat.kind}\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            fh.write(tri.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            fh.writelines(f"{float(v)!r}\n" for v in tri)


def load_matrix(path: str, params: WitnessParams, binary: bool = False) -> MomentMatrix:
    """Inverse of dump_matrix (params are not stored in the dump)."""
    mode = "rb" if binary else "r"
    with open(path, mode) as fh:
        header = fh.readline()
        if binary:
            header = header.decode()
        n_str, side_str, kind = header.split()
        n, side = int(n_str), int(side_str)
        if binary:
            tri = np.frombuffer(fh.read(), dtype="<f8")
        else:
            tri = np.array([float(line) for line in fh])
    values = np.zeros((side, side))
    iu = np.triu_indices(side)
    values[iu] = tri
    values.T[iu] = tri
    return MomentMatrix(indexer=SubsetIndexer(n), kind=kind, values=values, params=params)
