"""Witness-based hypothesis tests for hidden cliques and submatrices.

The clique test certifies a lower bound on the degree-4 relaxation value by
exhibiting a feasible witness, then compares it against a multiple of the
clique size under test.  The submatrix test thresholds a Gaussian matrix into
a graph, builds the scaled witness on it, and reads off trace and weighted
statistics.  Both build the witness in block form, on its clique rows only,
never the dense matrix.  The combinatorial baseline searches small vertex
subsets exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb, exp, pi, sqrt
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .models import GaussianInstance, GraphInstance
from .params import derive_alphas
# build_matrix is no longer called here; it stays bound because the traced
# benchmark (perfbench/spans.py) wraps detect.build_matrix by name
from .witness import MomentMatrix, build_block, build_matrix, check_sos_feasibility  # noqa: F401

__all__ = [
    "TestConfig",
    "DetectionOutcome",
    "scale_witness",
    "clique_lower_bound",
    "test_clique",
    "test_submatrix",
    "test_comb",
]


@dataclass(frozen=True)
class TestConfig:
    """Threshold constants shared by the detection tests."""

    c_star: float = 0.5
    lambda_thresh: Optional[float] = 1.0
    scaling: float = 1.0
    kappa: Optional[float] = None

    def __post_init__(self) -> None:
        if self.c_star <= 0:
            raise ValueError(f"c_star must be positive, got {self.c_star}")
        if not 0.0 <= self.scaling <= 1.0:
            raise ValueError(f"scaling must lie in [0, 1], got {self.scaling}")
        if self.kappa is not None and self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    def edge_probability(self) -> float:
        """P(N(0,1) >= lambda), the density of the thresholded graph."""
        if self.lambda_thresh is None:
            raise ValueError("lambda_thresh is not set")
        from scipy.special import ndtr  # loaded on first use, not at package import

        return float(ndtr(-self.lambda_thresh))

    def threshold_density(self) -> float:
        """Standard normal density at lambda."""
        if self.lambda_thresh is None:
            raise ValueError("lambda_thresh is not set")
        return exp(-0.5 * self.lambda_thresh**2) / sqrt(2.0 * pi)


@dataclass(frozen=True)
class DetectionOutcome:
    """Statistics and verdict of one detection test."""

    statistic_trace: float
    statistic_weighted: float
    threshold_used: float
    verdict: int
    feasibility: bool


def scale_witness(mat: MomentMatrix, scaling: float) -> MomentMatrix:
    """Scale a kind-M witness by s in [0, 1], keeping the empty-set entry 1.

    The result is the convex combination s*X + (1-s)*e0 e0^T, so positive
    semidefiniteness, the [0, 1] entry range and the vanishing pattern are
    all preserved.  A block form stays one (its first row is the empty set).
    """
    if mat.kind != "M":
        raise ValueError(f"scaling is defined for kind 'M', got {mat.kind}")
    if not 0.0 <= scaling <= 1.0:
        raise ValueError(f"scaling must lie in [0, 1], got {scaling}")
    if scaling == 1.0 and mat.values[0, 0] == 1.0:
        # already s*X + (1-s)*e0 e0^T; a copy would double the dense witness
        return mat
    return replace(mat, values=_rescale(mat.values.copy(), scaling))


def _rescale(values: np.ndarray, scaling: float) -> np.ndarray:
    """values overwritten with scaling * values, then a 1 at the empty-set entry."""
    values *= scaling
    values[0, 0] = 1.0
    return values


def clique_lower_bound(graph: GraphInstance, kappa: float) -> Tuple[float, bool]:
    """Certified lower bound on the degree-4 relaxation value of the graph.

    Builds the witness at the given scale and verifies feasibility; a
    feasible witness certifies the objective n*kappa from below.  Returns
    (0.0, False) when the witness is infeasible (no certificate).
    """
    params = derive_alphas(kappa, graph.p)
    feasible = check_sos_feasibility(build_block(graph, params), graph, in_place=True).feasible
    return (graph.n * kappa if feasible else 0.0, feasible)


def test_clique(graph: GraphInstance, config: TestConfig, k: float) -> DetectionOutcome:
    """Clique test: reject membership of a size-k clique when the certified
    relaxation value exceeds c_star * k.

    The certified bound is a one-sided proxy for the true relaxation value,
    so verdict 0 never proves a clique is present.
    """
    if config.kappa is None:
        raise ValueError("config.kappa is not set")
    bound, feasible = clique_lower_bound(graph, config.kappa)
    threshold = config.c_star * k
    verdict = int(feasible and bound > threshold)
    return DetectionOutcome(
        statistic_trace=graph.n * config.kappa,
        statistic_weighted=0.0,
        threshold_used=threshold,
        verdict=verdict,
        feasibility=feasible,
    )


def test_submatrix(
    instance: GaussianInstance, config: TestConfig, k: float, mu: float
) -> DetectionOutcome:
    """Submatrix test on a thresholded Gaussian matrix.

    Thresholding at lambda yields a graph with edge probability
    P(N(0,1) >= lambda); the witness is built at that density, scaled, and
    summarized by its trace and the entrywise weighted statistic
    sum_{i<j} A_ij X_{ij}.  Verdict 1 requires a feasible witness with
    trace <= k and weighted statistic >= c_star * mu * k^2.
    """
    if config.lambda_thresh is None:
        raise ValueError("config.lambda_thresh is not set")
    if config.kappa is None:
        raise ValueError("config.kappa is not set")
    p = config.edge_probability()
    adjacency = instance.A >= config.lambda_thresh
    np.fill_diagonal(adjacency, False)
    graph = GraphInstance(instance.n, p, adjacency)
    params = derive_alphas(config.kappa, p)
    witness = build_block(graph, params)
    # the fill is this test's own, so it is scaled in place, and its values
    # are not read again, so the audit may factor them
    _rescale(witness.values, config.scaling)
    feasible = check_sos_feasibility(witness, graph, in_place=True).feasible
    trace = float(config.scaling * instance.n * config.kappa)
    ix = witness.indexer
    weighted = float(
        config.scaling
        * params.alpha2
        * np.sum(instance.A[ix.pair_ends] * graph.pair_indicators(ix))
    )
    threshold = config.c_star * mu * k * k
    verdict = int(feasible and trace <= k and weighted >= threshold)
    return DetectionOutcome(
        statistic_trace=trace,
        statistic_weighted=weighted,
        threshold_used=threshold,
        verdict=verdict,
        feasibility=feasible,
    )


def test_comb(instance: GaussianInstance, k: int, mu: float) -> int:
    """Exhaustive baseline: 1 iff some vertex set of size at most k has
    internal entry sum at least (1/2) * C(k, 2) * mu."""
    n = instance.n
    if n > 24 and k > 3:
        raise ValueError(
            f"exhaustive search budget is n <= 24 or k <= 3, got n={n}, k={k}"
        )
    threshold = 0.5 * comb(k, 2) * mu
    if threshold <= 0.0:
        return 1  # the empty set already meets a nonpositive threshold
    for size in range(2, min(k, n) + 1):
        if float(_subset_sums(instance.A, size).max()) >= threshold:
            return 1
    return 0


def _subset_sums(a: np.ndarray, size: int) -> np.ndarray:
    """Internal entry sum of every size-subset of the n x n matrix a, one
    per subset in itertools.combinations order.  Gathered one table block
    at a time; each subset's sum is the same as in one whole gather."""
    flat = a.ravel()
    return np.concatenate([flat[block].sum(axis=1) for block in _pair_tables(a.shape[0], size)])


# subsets per block of a pair table: a gather of one block is at most
# _SUBSET_ROWS x C(12, 2) x 8 bytes, 8.7 MB
_SUBSET_ROWS = 1 << 14
# bytes of pair tables kept between calls.  Criterion 9's tables at n = 20,
# k = 6 take 3.1 MB in all; the one at n = 24, size 12 would take 714 MB
_TABLE_CACHE_BYTES = 64 << 20
_table_cache: Dict[Tuple[int, int], np.ndarray] = {}


def _pair_tables(n: int, size: int) -> Iterator[np.ndarray]:
    """The flat indices i * n + j of the pairs i < j of every size-subset of
    range(n), one row per subset in itertools.combinations order, in blocks
    of _SUBSET_ROWS rows.

    A table that fits in _TABLE_CACHE_BYTES is built whole, made read-only
    and cached, evicting the oldest tables until the cache fits; a larger
    one is built block by block and never held whole.
    """
    table = _table_cache.get((n, size))
    if table is None:
        blocks = _pair_table_blocks(n, size)
        if comb(n, size) * comb(size, 2) * 4 > _TABLE_CACHE_BYTES:  # int32 entries
            yield from blocks
            return
        table = np.concatenate(list(blocks))
        table.flags.writeable = False
        while sum(t.nbytes for t in _table_cache.values()) + table.nbytes > _TABLE_CACHE_BYTES:
            del _table_cache[next(iter(_table_cache))]
        _table_cache[(n, size)] = table
    for start in range(0, len(table), _SUBSET_ROWS):
        yield table[start : start + _SUBSET_ROWS]


def _pair_table_blocks(n: int, size: int) -> Iterator[np.ndarray]:
    combos = itertools.combinations(range(n), size)
    pi, pj = np.triu_indices(size, 1)
    while True:
        rows = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _SUBSET_ROWS)),
            dtype=np.int32,
        ).reshape(-1, size)
        if not len(rows):
            return
        yield rows[:, pi] * np.int32(n) + rows[:, pj]
