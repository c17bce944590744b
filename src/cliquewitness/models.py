"""Random instances: Erdos-Renyi graphs, planted cliques, Gaussian matrices.

All samplers are keyed by a 64-bit seed through a counter-based Philox
generator, with a fixed stream tag per purpose (edges, planted-set choice,
Gaussian entries).  Identical arguments reproduce identical instances
bit-for-bit, and the planted-set stream is independent of the edge stream, so
a planted instance shares its background graph with the plain instance of the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional

import numpy as np

from .subsets import SubsetIndexer

_TAG_EDGES = 0
_TAG_PLANTED = 1
_TAG_GAUSS = 2

# Gaussians are inverse-CDF transforms of strictly interior uniforms
# (u = (w + 0.5) / 2^53 for a 53-bit Philox integer w), recorded in
# experiment metadata so reproducibility claims name the sampler.
GAUSSIAN_METHOD = "inverse-cdf: ndtri((philox-uint53 + 0.5) * 2^-53)"


def _generator(seed: int, tag: int) -> np.random.Generator:
    """Philox stream keyed by (seed, tag); substreams never overlap."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _interior_uniform(gen: np.random.Generator, size: int) -> np.ndarray:
    w = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (w.astype(np.float64) + 0.5) * 2.0**-53


# ----------------------------------------------------------------------
# graph instances
# ----------------------------------------------------------------------


class GraphInstance:
    """An n-vertex graph with edge probability p and optional planted set.

    `adjacency` is the symmetric boolean edge matrix with a zero diagonal;
    the centered variables g_ij = edge_ij - p (g_ii = 0) are materialized
    lazily and cached.
    """

    def __init__(
        self,
        n: int,
        p: float,
        adjacency: np.ndarray,
        planted: Optional[FrozenSet[int]] = None,
        seed: int = 0,
    ):
        if n < 4:
            raise ValueError(f"vertex count must be at least 4, got {n}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"edge probability must lie in (0, 1], got {p}")
        adj = np.asarray(adjacency, dtype=bool)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj = adj.copy()
        np.fill_diagonal(adj, False)
        if planted is not None:
            planted = frozenset(int(v) for v in planted)
            for v in planted:
                if not 1 <= v <= n:
                    raise ValueError(f"planted vertex {v} outside [1, {n}]")
            rows = np.array(sorted(planted)) - 1
            block = adj[np.ix_(rows, rows)]
            if not np.all(block | np.eye(len(rows), dtype=bool)):
                raise ValueError("planted set must induce a clique")
        self.n = n
        self.p = float(p)
        self.planted = planted
        self.seed = int(seed)
        self.adjacency = adj
        self._centered: Optional[np.ndarray] = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        p: float,
        planted: Optional[FrozenSet[int]] = None,
        seed: int = 0,
    ) -> "GraphInstance":
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            adj[i - 1, j - 1] = True
            adj[j - 1, i - 1] = True
        return cls(n, p, adj, planted=planted, seed=seed)

    @property
    def centered(self) -> np.ndarray:
        """g_ij = edge indicator minus p off the diagonal; g_ii = 0."""
        if self._centered is None:
            g = self.adjacency.astype(np.float64) - self.p
            np.fill_diagonal(g, 0.0)
            self._centered = g
        return self._centered

    def pair_indicators(self, indexer: Optional[SubsetIndexer] = None) -> np.ndarray:
        """Edge indicators over canonical pair positions."""
        ix = indexer if indexer is not None else SubsetIndexer(self.n)
        return self.adjacency[ix.pair_ends]

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(a) + 1, int(b) + 1) for a, b in zip(i, j)]


def sample_er(n: int, p: float, seed: int) -> GraphInstance:
    """Erdos-Renyi graph: each pair present independently with probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")
    indexer = SubsetIndexer(n)
    u = _generator(seed, _TAG_EDGES).random(indexer.num_pairs)
    adj = indexer.lift(u < p)
    return GraphInstance(n, p, adj, planted=None, seed=seed)


def sample_planted(n: int, p: float, k: int, seed: int) -> GraphInstance:
    """Background Erdos-Renyi graph with a uniformly chosen k-clique forced in."""
    if not 4 <= k <= n:
        raise ValueError(f"planted size must satisfy 4 <= k <= n, got k={k}, n={n}")
    base = sample_er(n, p, seed)
    members = _generator(seed, _TAG_PLANTED).choice(n, size=k, replace=False)
    q = frozenset(int(v) + 1 for v in members)
    adj = base.adjacency.copy()
    rows = np.array(sorted(q)) - 1
    adj[np.ix_(rows, rows)] = True
    np.fill_diagonal(adj, False)
    return GraphInstance(n, p, adj, planted=q, seed=seed)


# ----------------------------------------------------------------------
# Gaussian instances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianInstance:
    """Symmetric Gaussian matrix, optionally with an elevated-mean block.

    Off-diagonal entries have unit variance; under H1 the entries with both
    indices in the planted set have mean mu, all others mean 0.  The diagonal
    is zero by convention.
    """

    n: int
    mu: float
    k: Optional[int]
    A: np.ndarray = field(repr=False)
    hypothesis: str
    planted: Optional[FrozenSet[int]]
    seed: int

    def __post_init__(self) -> None:
        if self.hypothesis not in ("H0", "H1"):
            raise ValueError(f"hypothesis must be 'H0' or 'H1', got {self.hypothesis}")
        if not np.allclose(self.A, self.A.T, rtol=0.0, atol=0.0):
            raise ValueError("matrix must be exactly symmetric")
        if np.any(np.diagonal(self.A) != 0.0):
            raise ValueError("diagonal must be identically zero")


def sample_gaussian(
    n: int,
    mu: float,
    k: Optional[int],
    hypothesis: str,
    seed: int,
) -> GaussianInstance:
    """i.i.d. standard normal pairs; under H1 add mu on the planted block."""
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis}")
    if mu < 0:
        raise ValueError(f"planted mean must be nonnegative, got {mu}")
    indexer = SubsetIndexer(n)
    u = _interior_uniform(_generator(seed, _TAG_GAUSS), indexer.num_pairs)
    from scipy.special import ndtri  # loaded on first use, not at package import

    base = ndtri(u)
    planted: Optional[FrozenSet[int]] = None
    if hypothesis == "H1":
        if k is None or not 1 <= k <= n:
            raise ValueError(f"H1 requires a planted size k in [1, {n}], got {k}")
        members = _generator(seed, _TAG_PLANTED).choice(n, size=k, replace=False)
        planted = frozenset(int(v) + 1 for v in members)
        in_q = np.zeros(n + 1, dtype=bool)
        in_q[list(planted)] = True
        both = in_q[indexer.pair_heads] & in_q[indexer.pair_tails]
        base = base + mu * both
    a = indexer.lift(base)
    return GaussianInstance(
        n=n, mu=float(mu), k=k, A=a, hypothesis=hypothesis, planted=planted, seed=seed
    )


# ----------------------------------------------------------------------
# indicators and dumps
# ----------------------------------------------------------------------


def clique_indicator(graph: GraphInstance, subset: Iterable[int]) -> int:
    """1 iff every pair inside the subset is an edge; 1 for size <= 1."""
    s = sorted(frozenset(int(v) for v in subset))
    if len(s) > 4:
        raise ValueError(f"clique indicator defined for subsets of size <= 4, got {s}")
    for v in s:
        if not 1 <= v <= graph.n:
            raise ValueError(f"vertex {v} outside [1, {graph.n}]")
    adj = graph.adjacency
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            if not adj[s[a] - 1, s[b] - 1]:
                return 0
    return 1


def dump_edges(graph: GraphInstance, path: Optional[str] = None) -> str:
    """Plain-text edge list: header 'n p seed', then one 'i j' line per edge."""
    lines = [f"{graph.n} {graph.p!r} {graph.seed}"]
    lines.extend(f"{i} {j}" for i, j in graph.edges())
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
