import numpy as np
import pytest
from hypothesis import given, strategies as st

from cliquewitness.subsets import EMPTY, SubsetIndexer, VertexPair, dim, index_of, set_of


def test_dim_values():
    assert dim(4) == 11
    assert dim(10) == 56
    assert dim(100) == 5051


def test_dim_rejects_small_n():
    with pytest.raises(ValueError):
        dim(3)
    with pytest.raises(ValueError):
        SubsetIndexer(2)


def test_canonical_positions():
    assert index_of(set(), 4) == 0
    assert index_of({3}, 4) == 3
    assert index_of({1, 2}, 4) == 5
    assert set_of(0, 4) == EMPTY
    assert set_of(10, 4) == frozenset({3, 4})
    assert set_of(5, 10) == frozenset({5})


def test_ordering_layout():
    ix = SubsetIndexer(5)
    # empty, singletons, then pairs in lexicographic order
    assert [sorted(ix.set_of(t)) for t in range(ix.dim)] == [
        [], [1], [2], [3], [4], [5],
        [1, 2], [1, 3], [1, 4], [1, 5],
        [2, 3], [2, 4], [2, 5],
        [3, 4], [3, 5], [4, 5],
    ]


def lift_by_loop(ix, values):
    # the pair-to-symmetric lift written out pair by pair
    out = np.zeros((ix.n, ix.n) + values.shape[1:], dtype=values.dtype)
    for t in range(ix.num_pairs):
        i, j = sorted(ix.set_of(ix.n + 1 + t))
        out[i - 1, j - 1] = out[j - 1, i - 1] = values[t]
    return out


@pytest.mark.parametrize("n", [4, 5, 8, 9, 13, 30])
def test_round_trip_both_ways(n):
    ix = SubsetIndexer(n)
    seen = set()
    for t in range(ix.dim):
        s = ix.set_of(t)
        assert ix.index_of(s) == t
        # the 0-padded labels name the subset, and the table reads them back
        assert (ix.first[t], ix.second[t]) == tuple(([0, 0] + sorted(s))[-2:])
        assert ix.position[ix.first[t], ix.second[t]] == t
        seen.add(s)
    assert len(seen) == ix.dim
    assert np.array_equal(ix.position, ix.position.T)
    rng = np.random.default_rng(n)
    for values in (rng.random(ix.num_pairs) < 0.5, rng.standard_normal(ix.num_pairs),
                   rng.standard_normal((ix.num_pairs, 3))):
        lifted = ix.lift(values)
        assert lifted.dtype == values.dtype
        assert np.array_equal(lifted, lift_by_loop(ix, values))


def test_pair_indices_increase_lexicographically():
    ix = SubsetIndexer(9)
    pairs = [tuple(sorted(ix.set_of(t))) for t in range(ix.n + 1, ix.dim)]
    assert pairs == sorted(pairs)


def test_errors():
    ix = SubsetIndexer(4)
    with pytest.raises(ValueError):
        ix.index_of({1, 2, 3})
    with pytest.raises(ValueError):
        ix.index_of({0})
    with pytest.raises(ValueError):
        ix.index_of({5})
    with pytest.raises(ValueError):
        ix.set_of(11)
    with pytest.raises(ValueError):
        ix.set_of(-1)
    with pytest.raises(ValueError):
        ix.pair_index(2, 2)


def test_vertex_pair_convention():
    vp = VertexPair(2, 7)
    assert vp.head < vp.tail
    assert vp.as_set() == frozenset({2, 7})
    with pytest.raises(ValueError):
        VertexPair(7, 2)
    with pytest.raises(ValueError):
        VertexPair(3, 3)
    with pytest.raises(ValueError):
        VertexPair(0, 1)


def test_pair_at_matches_set_of():
    ix = SubsetIndexer(6)
    for t in range(ix.n + 1, ix.dim):
        vp = ix.pair_at(t)
        assert vp.as_set() == ix.set_of(t)
    with pytest.raises(ValueError):
        ix.pair_at(0)


@given(st.integers(min_value=4, max_value=30), st.data())
def test_index_of_formula_matches_enumeration(n, data):
    ix = SubsetIndexer(n)
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=n))
    t = ix.index_of({i, j})
    before = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) < (i, j)]
    assert t == 1 + n + len(before)
