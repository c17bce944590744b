"""Canonical indexing of the subset space B(n) = {empty set, singletons, pairs}.

Matrix rows and columns throughout the package are addressed by subsets of
[n] = {1, ..., n} of size at most two.  The canonical order is: index 0 is the
empty set, indices 1..n are the singletons {i} in increasing i, and indices
n+1..dim-1 are the pairs {i, j} with i < j in lexicographic order of (i, j).
Vertex labels are 1-based; indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

import numpy as np

Subset = FrozenSet[int]

EMPTY: Subset = frozenset()


def dim(n: int) -> int:
    """Total number of subsets of [n] of size <= 2."""
    if n < 4:
        raise ValueError(f"vertex count must be at least 4, got {n}")
    return 1 + n + n * (n - 1) // 2


@dataclass(frozen=True)
class VertexPair:
    """An unordered pair {head, tail} stored with head < tail."""

    head: int
    tail: int

    def __post_init__(self) -> None:
        if self.head < 1:
            raise ValueError(f"vertex labels are 1-based, got head={self.head}")
        if not self.head < self.tail:
            raise ValueError(f"pair requires head < tail, got ({self.head}, {self.tail})")

    def as_set(self) -> Subset:
        return frozenset((self.head, self.tail))


class SubsetIndexer:
    """Bijection between B(n) and the index range 0..dim-1, and the one
    place that knows the layout.

    Every subset is named by 0-padded labels (first, second): the empty set
    is (0, 0), a singleton {v} is (0, v) and a pair {i, j} is (i, j) with
    i < j.  The label arrays, the table back from labels to indices and the
    lift of pair values to a symmetric matrix let callers build matrices
    over the subset space with vectorized gathers.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(f"vertex count must be at least 4, got {n}")
        self.n = n
        self.num_pairs = n * (n - 1) // 2
        self.dim = 1 + n + self.num_pairs
        # pair_ends: the 0-based ends (heads, tails) of every pair, and
        # pair_heads[t], pair_tails[t] their 1-based labels, at 0-based pair
        # position t (matrix index n + 1 + t)
        self.pair_ends = np.triu_indices(n, 1)
        self.pair_heads = self.pair_ends[0] + 1
        self.pair_tails = self.pair_ends[1] + 1
        # first[s], second[s]: the 0-padded labels of the subset at index s
        self.first = np.concatenate([np.zeros(n + 1, dtype=np.int64), self.pair_heads])
        self.second = np.concatenate([np.arange(n + 1), self.pair_tails])
        # position[a, b] = position[b, a]: the index of the subset labelled
        # (a, b); the diagonal past (0, 0) labels no subset and reads 0
        position = np.zeros((n + 1, n + 1), dtype=np.int64)
        position[self.first, self.second] = position[self.second, self.first] = np.arange(self.dim)
        self.position = position

    def lift(self, values: np.ndarray) -> np.ndarray:
        """The symmetric n x n array (zero diagonal) holding values[t] at the
        ends of pair t, in values' dtype; trailing axes of values are kept."""
        values = np.asarray(values)
        heads, tails = self.pair_ends
        out = np.zeros((self.n, self.n) + values.shape[1:], dtype=values.dtype)
        out[heads, tails] = out[tails, heads] = values
        return out

    # ------------------------------------------------------------------
    # scalar bijection
    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex label {v} outside [1, {self.n}]")

    def index_of(self, subset: Iterable[int]) -> int:
        """Canonical index of a subset of size <= 2."""
        s = sorted(frozenset(subset))
        if len(s) > 2:
            raise ValueError(f"subsets of size at most 2 only, got {s}")
        for v in s:
            self._check_vertex(int(v))
        a, b = ([0, 0] + s)[-2:]
        return int(self.position[a, b])

    def pair_index(self, i: int, j: int) -> int:
        """Fast path: canonical index of the pair {i, j}, i != j."""
        self._check_vertex(i)
        self._check_vertex(j)
        if i == j:
            raise ValueError(f"pair requires two distinct vertices, got ({i}, {j})")
        return int(self.position[i, j])

    def set_of(self, index: int) -> Subset:
        """Inverse of index_of."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        if index == 0:
            return EMPTY
        if index <= self.n:
            return frozenset((index,))
        t = index - self.n - 1
        return frozenset((int(self.pair_heads[t]), int(self.pair_tails[t])))

    def pair_at(self, index: int) -> VertexPair:
        """VertexPair stored at a pair index."""
        if not 1 + self.n <= index < self.dim:
            raise ValueError(f"index {index} is not a pair index")
        t = index - self.n - 1
        return VertexPair(int(self.pair_heads[t]), int(self.pair_tails[t]))

    def all_subsets(self) -> list[Subset]:
        return [self.set_of(i) for i in range(self.dim)]


def index_of(subset: Iterable[int], n: int) -> int:
    return SubsetIndexer(n).index_of(subset)


def set_of(index: int, n: int) -> Subset:
    return SubsetIndexer(n).set_of(index)
