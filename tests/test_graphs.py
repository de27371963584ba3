import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bipembed.graphs import (
    EdgeIndexError,
    Side,
    SideMismatchError,
    UndefinedDensityError,
    VertexId,
    VertexSet,
    build_bipartite_graph,
    degree_into,
    density,
    edges_between,
    iter_bits,
)

C6_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]


def test_build_empty():
    g = build_bipartite_graph(2, 2, [])
    assert g.edge_count == 0
    assert list(g.edges()) == []


def test_build_complete_k22():
    g = build_bipartite_graph(2, 2, [(a, b) for a in range(2) for b in range(2)])
    assert g.edge_count == 4
    assert all(g.degree(VertexId(Side.A, a)) == 2 for a in range(2))
    assert all(g.degree(VertexId(Side.B, b)) == 2 for b in range(2))


def test_build_c6_degrees():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_build_rejects_out_of_range():
    with pytest.raises(EdgeIndexError) as exc:
        build_bipartite_graph(2, 2, [(0, 0), (2, 1)])
    assert exc.value.edge == (2, 1)


@pytest.mark.parametrize("a, b", [(0, -1), (0, 2), (-1, 0), (2, 0), (0, 1 << 70)])
def test_has_edge_outside_either_side_is_false(a, b):
    g = build_bipartite_graph(2, 2, [(0, 0), (0, 1)])
    assert g.has_edge(0, 0) and g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert g.has_edge(a, b) is False


def test_build_collapses_duplicates():
    g = build_bipartite_graph(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 2


def test_density_complete_pair():
    g = build_bipartite_graph(2, 2, [(a, b) for a in range(2) for b in range(2)])
    assert density(g, VertexSet.full(Side.A, 2), VertexSet.full(Side.B, 2)) == 1


def test_density_empty_graph():
    g = build_bipartite_graph(3, 3, [])
    assert density(g, VertexSet.full(Side.A, 3), VertexSet.full(Side.B, 3)) == 0


def test_density_c6_exact():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    assert density(g, VertexSet.full(Side.A, 3), VertexSet.full(Side.B, 3)) == Fraction(2, 3)


def test_density_empty_set_rejected():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    with pytest.raises(UndefinedDensityError):
        density(g, VertexSet(Side.A, 3, 0), VertexSet.full(Side.B, 3))


def test_degree_into_full_side():
    g = build_bipartite_graph(3, 3, [(a, b) for a in range(3) for b in range(3)])
    assert degree_into(g, VertexId(Side.A, 1), VertexSet.full(Side.B, 3)) == 3


def test_degree_into_empty_set():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    assert degree_into(g, VertexId(Side.A, 0), VertexSet(Side.B, 3, 0)) == 0


def test_degree_into_c6_subset():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    w = VertexSet.from_indices(Side.B, 3, [1, 2])
    assert degree_into(g, VertexId(Side.A, 0), w) == 1


def test_degree_into_side_mismatch():
    g = build_bipartite_graph(3, 3, C6_EDGES)
    with pytest.raises(SideMismatchError):
        degree_into(g, VertexId(Side.A, 0), VertexSet.full(Side.A, 3))


@st.composite
def graphs(draw):
    na = draw(st.integers(1, 8))
    nb = draw(st.integers(1, 8))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, na - 1), st.integers(0, nb - 1)), max_size=40
        )
    )
    return na, nb, edges


@given(graphs())
@settings(max_examples=150)
def test_degree_sums_match_edge_count(data):
    na, nb, edges = data
    g = build_bipartite_graph(na, nb, edges)
    total_a = sum(g.degree(VertexId(Side.A, a)) for a in range(na))
    total_b = sum(g.degree(VertexId(Side.B, b)) for b in range(nb))
    assert total_a == g.edge_count == total_b
    assert set(g.edges()) == set(edges)


@given(graphs())
@settings(max_examples=150)
def test_density_times_sizes_is_edge_count(data):
    na, nb, edges = data
    g = build_bipartite_graph(na, nb, edges)
    U = VertexSet.full(Side.A, na)
    W = VertexSet.full(Side.B, nb)
    val = density(g, U, W) * U.size * W.size
    assert val.denominator == 1
    assert val == edges_between(g, U, W)


@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
@settings(max_examples=300)
def test_iter_bits_ascending_set_bits(m):
    assert list(iter_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


@st.composite
def sparse_or_dense_ints(draw):
    """0, ints up to 2^5000 with 1-5 bits set, or ints whose set bits are
    at least an eighth of their length: both regimes of ``iter_bits``."""
    regime = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if regime == "zero":
        return 0
    if regime == "sparse":
        return sum(1 << i for i in draw(st.sets(st.integers(0, 5000), min_size=1, max_size=5)))
    length = draw(st.integers(1, 2000))
    m = draw(st.integers(0, (1 << length) - 1)) | 1 << (length - 1)
    return m | draw(st.integers(0, (1 << length) - 1)) if m.bit_count() * 8 < length else m


@given(sparse_or_dense_ints())
@settings(max_examples=300)
def test_iter_bits_sparse_wide_and_dense_ints(m):
    assert list(iter_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_vertex_set_ops():
    s = VertexSet.from_indices(Side.A, 8, [1, 3, 5])
    assert 3 in s and 2 not in s
