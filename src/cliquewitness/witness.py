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

Every entry is read from an int8 code table: |A u B| where the support
holds, OFF_SUPPORT elsewhere, filled from the alpha table padded with 0.0
at OFF_SUPPORT.  M can be nonzero only on the rows and columns of cliques,
and there its support is N's.  A graph's CliqueStructure holds the code
table of that block, built once; the dense and block builds of M, the
feasibility audit and the block PSD verdict all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from .models import GraphInstance
from .params import WitnessParams, derive_alphas
from .spectral import PsdReport, certified_factorization, psd_check
from .subsets import SubsetIndexer

__all__ = [
    "WitnessParams",
    "derive_alphas",
    "CliqueStructure",
    "MomentMatrix",
    "build_matrix",
    "build_block",
    "h_rows",
    "block_psd_check",
    "extract_blocks",
    "FeasibilityReport",
    "check_sos_feasibility",
    "dump_matrix",
    "load_matrix",
]

_ROW_CHUNK = 128
# rows per np.take of a fill; bounds the intp copy of the codes it makes
_FILL_ROWS = 256
# rows per array of listed unions; bounds the union audit's gathers
_UNION_ROWS = 1 << 14
OFF_SUPPORT = 5  # the code of an entry off the support


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueStructure:
    """Which subset unions of one graph are cliques, and how large: the
    kind-M witness of the graph at every alpha.  Build it with `of`.

    `index` holds the ascending subset positions of the cliques, which start
    with the empty set and the singletons; M vanishes off their rows and
    columns.  `codes` is the code table of M on them.  It is tested for
    exact symmetry here, once, so every fill of it is exactly symmetric.
    """

    graph: GraphInstance
    indexer: SubsetIndexer
    index: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        n, index = self.indexer.n, self.index
        if not (np.array_equal(index[: n + 1], np.arange(n + 1))
                and np.all(np.diff(index) > 0) and index[-1] < self.indexer.dim):
            raise ValueError("index must ascend from the empty set and singletons")
        if self.codes.shape != (len(index), len(index)):
            raise ValueError(f"codes need shape {(len(index), len(index))}, got {self.codes.shape}")
        if not np.array_equal(self.codes, self.codes.T):
            raise ValueError("witness code table is not symmetric")

    @classmethod
    def of(cls, graph: GraphInstance) -> "CliqueStructure":
        ix = SubsetIndexer(graph.n)
        index = np.flatnonzero(_padded_adjacency(graph)[ix.first, ix.second])
        return cls(graph, ix, index, _full_matrix(graph, ix, index))


@dataclass(frozen=True)
class MomentMatrix:
    """Dense symmetric matrix over the subset index space.

    Kinds "M" and "N" live on the full space (dim x dim, index 0 = empty
    set); kind "H" omits the empty-set row/column (size dim - 1).  A kind-M
    block form carries its graph's CliqueStructure: its rows and columns are
    the structure's `index`, and the matrix vanishes off them.
    """

    indexer: SubsetIndexer
    kind: str
    values: np.ndarray
    params: WitnessParams
    structure: Optional[CliqueStructure] = None

    def __post_init__(self) -> None:
        if self.kind not in ("M", "N", "H"):
            raise ValueError(f"kind must be 'M', 'N' or 'H', got {self.kind}")
        expected = self.indexer.dim - (1 if self.kind == "H" else 0)
        if self.structure is not None:
            if self.kind != "M":
                raise ValueError(f"the block form is kind 'M', got {self.kind}")
            if self.structure.indexer.n != self.n:
                raise ValueError(f"structure n={self.structure.indexer.n}, matrix n={self.n}")
            expected = len(self.structure.index)
        if self.values.shape != (expected, expected):
            raise ValueError(
                f"kind {self.kind} needs shape {(expected, expected)}, got {self.values.shape}"
            )

    @property
    def n(self) -> int:
        return self.indexer.n

    @property
    def index(self) -> Optional[np.ndarray]:
        """The subset positions of a block form's rows and columns, else None."""
        return None if self.structure is None else self.structure.index

    def objective(self) -> float:
        """Sum of the singleton diagonal entries."""
        offset = 0 if self.kind == "H" else 1
        idx = np.arange(offset, offset + self.n)
        return float(self.values[idx, idx].sum())


def _padded_adjacency(graph: GraphInstance) -> np.ndarray:
    """The adjacency over 0-padded labels: label 0 and the diagonal count as
    adjacent, so a subset is a clique exactly when adj[first, second] holds."""
    adj = np.ones((graph.n + 1, graph.n + 1), dtype=bool)
    adj[1:, 1:] = graph.adjacency | np.eye(graph.n, dtype=bool)
    return adj


def _full_matrix(
    graph: GraphInstance, ix: SubsetIndexer, index: np.ndarray,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Code table (int8) of N: |A u B| on the support, OFF_SUPPORT off it.

    Rows span the subsets at positions `index` of the indexer, and columns
    those at `cols` (`index` again when None).  The support of N is the
    product of the cross edges between A \\ B and B \\ A.  The union sizes
    depend on n alone.  On one index for both sides the table is exactly
    symmetric.
    """
    adj = _padded_adjacency(graph)
    if cols is None:
        cols = index
    r1, r2, b1, b2 = ix.first[index], ix.second[index], ix.first[cols], ix.second[cols]
    count = (r1 > 0).astype(np.int8) + (r2 > 0)

    codes = np.empty((len(r1), len(b1)), dtype=np.int8)
    for start in range(0, len(r1), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        a1, a2 = r1[rows, None], r2[rows, None]
        # eq_ij: label i of A equals label j of B
        eq11, eq12, eq21, eq22 = a1 == b1, a1 == b2, a2 == b1, a2 == b2
        sizes = count[rows, None] + ((b1 > 0) & ~(eq11 | eq21)) + ((b2 > 0) & ~(eq12 | eq22))
        # an edge term is void when either end lies in both sets
        adj1, adj2 = adj[r1[rows]], adj[r2[rows]]
        support = np.logical_and(adj1[:, b1] | eq12 | eq21, adj1[:, b2] | eq11 | eq22)
        support &= adj2[:, b1] | eq22 | eq11
        support &= adj2[:, b2] | eq21 | eq12
        codes[rows] = np.where(support, sizes, OFF_SUPPORT)
    return codes


def padded_table(params: WitnessParams) -> np.ndarray:
    """alpha_0..alpha_4 by union size, then 0.0 at OFF_SUPPORT: the fill table."""
    return np.append(params.by_union_size(), 0.0)


def fill(codes: np.ndarray, table: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """table[codes] (into `out`, a C-contiguous float array, when given)."""
    if out is None:
        out = np.empty(codes.shape)
    for start in range(0, codes.shape[0], _FILL_ROWS):
        rows = slice(start, start + _FILL_ROWS)
        # mode "clip" writes straight into out; "raise" would buffer it
        np.take(table, codes[rows], out=out[rows], mode="clip")
    return out


def _check_probability(graph: GraphInstance, params: WitnessParams) -> None:
    if params.p != graph.p:
        raise ValueError(
            f"edge probability mismatch: params.p={params.p}, graph.p={graph.p}"
        )


def build_matrix(graph: GraphInstance, params: WitnessParams, kind: str) -> MomentMatrix:
    """Construct the witness matrix of the requested kind for a graph."""
    if kind not in ("M", "N", "H"):
        raise ValueError(f"kind must be 'M', 'N' or 'H', got {kind}")
    _check_probability(graph, params)
    if kind == "M":
        s = CliqueStructure.of(graph)
        values = np.zeros((s.indexer.dim, s.indexer.dim))
        values[np.ix_(s.index, s.index)] = fill(s.codes, padded_table(params))
        return MomentMatrix(indexer=s.indexer, kind="M", values=values, params=params)
    ix = SubsetIndexer(graph.n)
    values = fill(_full_matrix(graph, ix, np.arange(ix.dim)), padded_table(params))
    if kind == "N":
        return MomentMatrix(indexer=ix, kind="N", values=values, params=params)
    by_size = np.concatenate([np.full(ix.n, params.alpha1), np.full(ix.num_pairs, params.alpha2)])
    values = values[1:, 1:] - np.outer(by_size, by_size)
    return MomentMatrix(indexer=ix, kind="H", values=values, params=params)


def build_block(graph: GraphInstance, params: WitnessParams) -> MomentMatrix:
    """The kind-M witness in block form: a fill of the graph's clique structure."""
    _check_probability(graph, params)
    structure = CliqueStructure.of(graph)
    values = fill(structure.codes, padded_table(params))
    return MomentMatrix(structure.indexer, "M", values, params, structure)


def h_rows(graph: GraphInstance, params: WitnessParams, block: str) -> Callable[[slice], np.ndarray]:
    """Rows of the block "H12" or "H22" of kind H: a function of a row slice,
    made once the block and p are checked.  Its rows equal, entry for entry,
    the same rows of extract_blocks(build_matrix(graph, params, "H")): the
    code table of N on the row subsets against the pair columns, filled,
    minus alpha_|A| alpha_2."""
    if block not in ("H12", "H22"):
        raise ValueError(f"block must be 'H12' or 'H22', got {block}")
    _check_probability(graph, params)
    ix = SubsetIndexer(graph.n)
    pairs = np.arange(ix.n + 1, ix.dim)
    subsets, row_alpha = (pairs, params.alpha2)
    if block == "H12":
        subsets, row_alpha = np.arange(1, ix.n + 1), params.alpha1
    table = padded_table(params)

    def rows_of(rows: slice) -> np.ndarray:
        values = fill(_full_matrix(graph, ix, subsets[rows], pairs), table)
        values -= row_alpha * params.alpha2
        return values

    return rows_of


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


def _clique_unions(adjacency: np.ndarray) -> Iterator[np.ndarray]:
    """Every clique of 1-4 vertices as sorted 1-based labels, by size, in
    arrays of at most _UNION_ROWS rows; only sizes 2 and 3 are held whole."""
    cliques = np.arange(1, adjacency.shape[0] + 1)[:, None]
    yield cliques
    step = max(1, _UNION_ROWS // adjacency.shape[0])  # a clique has at most n extensions
    for size in (2, 3, 4):
        kept = []
        # one empty chunk when no clique is left to extend
        for start in range(0, len(cliques) or 1, step):
            chunk = _extend_cliques(cliques[start : start + step], adjacency)
            yield chunk
            if size < 4:
                kept.append(chunk)
        if kept:
            cliques = np.concatenate(kept)


def _slots(ix: SubsetIndexer, index: np.ndarray) -> np.ndarray:
    """slots[a, b]: the row of the subset {a, b} (0-padded labels) among the
    subsets at `index`, or -1 when it is not one of them."""
    row = np.full(ix.dim, -1, dtype=np.int64)
    row[index] = np.arange(len(index))
    return row[ix.position]


def _unions_agree(region: np.ndarray, slots: np.ndarray, unions: Iterable[np.ndarray]) -> bool:
    """True when each listed union U takes one value at every (A, B) with A u B = U.

    `unions` yields arrays of unions, one per row as vertex labels, and the
    audit returns at the first array that disagrees, before the next is
    listed.  Each union is checked by gathering the fixed
    positions that produce it, one orientation per position (the caller
    tests symmetry).  `slots` maps a subset to its row of `region`; a subset
    outside it reads as 0.
    """
    for listed in unions:
        size = listed.shape[1]
        # column 0 holds label 0, so pattern labels index the columns
        labels = np.zeros((len(listed), size + 1), dtype=np.int64)
        labels[:, 1:] = listed
        got = []
        for (a1, a2), (b1, b2) in _union_patterns(size):
            rows, cols = slots[labels[:, a1], labels[:, a2]], slots[labels[:, b1], labels[:, b2]]
            values = region[rows, cols]
            values[(rows < 0) | (cols < 0)] = 0.0
            got.append(values)
        got = np.stack(got, axis=1)
        if not np.array_equal(got, np.broadcast_to(got[:, :1], got.shape)):
            return False
    return True


def block_psd_check(values: np.ndarray, tol: float, exact: bool,
                    in_place: bool = False) -> PsdReport:
    """psd_check(values, tol), report for report, for a witness's clique block.

    The caller sets `exact` when values is exactly symmetric with finite
    entries, as a fill of a CliqueStructure from a finite table is.  With a
    positive diagonal too, psd_check would drop no row, find no asymmetry
    and make one potrf on values.  That potrf is made here on values.T,
    F-contiguous and the same matrix: in place when `in_place` (values is
    overwritten), else on a copy.  Any other block takes psd_check itself.
    """
    if not (exact and np.all(np.diagonal(values) > 0.0)):
        return psd_check(values, tol=tol)
    return certified_factorization(values.T if in_place else np.array(values, order="F"), tol)


def check_sos_feasibility(
    mat: MomentMatrix, graph: GraphInstance, tol: float = 1e-8, in_place: bool = False
) -> FeasibilityReport:
    """Verify the degree-4 pseudo-moment constraints on a kind-M matrix.

    Checks, in order: the empty-set diagonal entry equals 1; all entries lie
    in [0, 1]; entries vanish whenever the union of the index subsets is not
    a clique; entries agree exactly whenever the unions agree; the matrix is
    PSD up to tol (relative to the largest diagonal entry).  The first four
    are exact comparisons, not tolerance-based.

    All five run on one block of the graph's CliqueStructure: the block
    form's own, which must be the graph's (ValueError otherwise), or a copy
    of a dense matrix's clique rows and columns.  A dense matrix is audited
    whole only when mass lies off that block.  On the block, entries off it
    are 0, so a union that is not a clique never agrees once an entry of it
    is nonzero: it holds a non-edge {u, w}, and its position ({u, w}, the
    rest) reads 0.  The union audit then lists the clique unions of the
    graph, and fails on any nonzero entry off the support.  A whole matrix's
    audit lists every union of at most 4 vertices.  The PSD verdict is
    block_psd_check's on the block, and psd_check's on a whole matrix.  With
    `in_place` the verdict may factor mat.values of a block form in place, so
    pass it only when the witness is not read again; a dense matrix is never
    overwritten.
    """
    if mat.kind != "M":
        raise ValueError(f"feasibility checks apply to kind 'M', got {mat.kind}")
    if mat.n != graph.n:
        raise ValueError(f"dimension mismatch: matrix n={mat.n}, graph n={graph.n}")
    structure = mat.structure or CliqueStructure.of(graph)
    if not np.array_equal(structure.graph.adjacency, graph.adjacency):
        raise ValueError("the block's clique structure belongs to another graph")
    ix, index, codes = structure.indexer, structure.index, structure.codes
    block, whole = mat.values, False
    if mat.structure is None:
        block = mat.values[np.ix_(index, index)]
        whole = np.count_nonzero(block) != np.count_nonzero(mat.values)
    # nonzeros off the support in the block, a block of rows at a time
    stray = 0
    for start in range(0, len(index), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        stray += np.count_nonzero((block[rows] != 0.0) & (codes[rows] == OFF_SUPPORT))
    vanishes = stray == 0 and not whole
    adjacency = graph.adjacency
    if whole:
        block, index = mat.values, np.arange(ix.dim)
        adjacency = np.ones((ix.n, ix.n), dtype=bool)
    in_range = bool(np.all(block >= 0.0) and np.all(block <= 1.0))
    symmetric = np.array_equal(block, block.T)
    # on the block, a union with a nonzero entry off the support never agrees
    union_ok = symmetric and (vanishes or whole) and _unions_agree(
        block, _slots(ix, index), _clique_unions(adjacency))

    # read before the factorization, which may overwrite block
    empty_is_one = bool(block[0, 0] == 1.0)
    objective = mat.objective()
    # rows left out of block vanish; entries in range are finite.  A dense
    # matrix's block is this audit's own copy.
    exact = symmetric and in_range and not whole
    psd_report = block_psd_check(block, tol, exact, in_place=in_place or mat.structure is None)
    return FeasibilityReport(
        empty_entry_is_one=empty_is_one,
        entries_in_range=in_range,
        vanishes_off_cliques=vanishes,
        union_symmetric=union_ok,
        psd=psd_report.psd,
        objective=objective,
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
    if mat.index is not None:
        raise ValueError("dumps hold dense matrices; the block form has none")
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
