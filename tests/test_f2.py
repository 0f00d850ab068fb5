import itertools
import random

import numpy as np
import pytest

from halfmult.errors import BudgetError
from halfmult.f2 import (
    SymplecticSpace,
    build_cf_graph,
    cf_counts,
    cf_dimension,
    count_isotropic_subspaces,
    f2_rank,
)
from halfmult.graphs import find_clique, has_clique, independence_profile, max_clique_size

from conftest import enumerate_isotropic_subspaces, f2_span, pack_bits, unpack_bits


def test_pack_unpack_roundtrip():
    assert pack_bits((1, 0)) == 1
    assert pack_bits((0, 1)) == 2
    assert unpack_bits(pack_bits((1, 0, 1, 1)), 4) == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        pack_bits((2,))


def test_symplectic_form_examples():
    sp = SymplecticSpace(2)
    assert sp.form(pack_bits((1, 0)), pack_bits((0, 1))) == 1
    assert sp.form(pack_bits((0, 1)), pack_bits((1, 1))) == 1
    for v in range(4):
        assert sp.form(v, v) == 0


def test_symplectic_space_validation():
    with pytest.raises(ValueError):
        SymplecticSpace(3)
    with pytest.raises(ValueError):
        SymplecticSpace(0)
    sp = SymplecticSpace(4)
    with pytest.raises(ValueError):
        sp.form(16, 0)


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_form_alternating_bilinear_nondegenerate(dim):
    sp = SymplecticSpace(dim)
    size = 1 << dim
    for v in range(size):
        assert sp.form(v, v) == 0
    # bilinearity on a sample; symmetry comes with it over F2
    for u, v, w in [(1 % size, 2 % size, 3 % size), (5 % size, 9 % size, 12 % size), (size - 1, 3 % size, 7 % size)]:
        assert sp.form(u ^ v, w) == (sp.form(u, w) ^ sp.form(v, w))
        assert sp.form(u, v) == sp.form(v, u)
    for v in range(1, size):
        assert any(sp.form(v, w) == 1 for w in range(size)), f"degenerate at {v}"


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_symplectic_adjacent_is_the_form_on_all_pairs(dim):
    sp = SymplecticSpace(dim)
    u, v = np.meshgrid(np.arange(sp.size, dtype=np.int32), np.arange(sp.size, dtype=np.int32), indexing="ij")
    expected = [[sp.form(a, b) == 1 for b in range(sp.size)] for a in range(sp.size)]
    assert sp.adjacent(u, v).tolist() == expected
    assert sp.adjacent(sp.size - 1, 1) == (sp.form(sp.size - 1, 1) == 1)  # scalars broadcast too
    assert sp.adjacent(sp.size - 1, v[0]).tolist() == expected[sp.size - 1]  # a vector index against an array


@pytest.mark.parametrize("t", [4, 6, 8, 10, 12, 14, 16])
def test_symplectic_adjacent_matches_the_cf_rows(t):
    g = build_cf_graph(t)
    rng = np.random.default_rng(t)
    u = rng.integers(0, g.n, 4096, dtype=np.int32)
    v = rng.integers(0, g.n, 4096, dtype=np.int32)
    got = SymplecticSpace(cf_dimension(t)).adjacent(u, v)
    assert got.tolist() == [g.has_edge(a, b) for a, b in zip(u.tolist(), v.tolist())]


@pytest.mark.parametrize(
    "t, message",
    [
        (5, "t must be even and >= 4, got 5"),
        (2, "t must be even and >= 4, got 2"),
        (-4, "t must be even and >= 4, got -4"),
        (18, "2^(t-2) = 65536 exceeds the vertex budget 16384"),
        (66, "2^(t-2) = 18446744073709551616 exceeds the vertex budget 16384"),
        # past 2^64 the power is named, not printed: 2^99998 has 30,103 digits
        (68, "2^(t-2) = 2^66 exceeds the vertex budget 16384"),
        (100000, "2^(t-2) = 2^99998 exceeds the vertex budget 16384"),
    ],
)
def test_cf_t_is_checked_alike_everywhere(t, message):
    for check in (cf_dimension, cf_counts, build_cf_graph):
        with pytest.raises(ValueError) as exc:
            check(t)
        assert str(exc.value) == message


def test_f2_rank_examples():
    assert f2_rank([]) == 0
    assert f2_rank([pack_bits((1, 0)), pack_bits((0, 1))]) == 2
    assert f2_rank([pack_bits((1, 1)), pack_bits((1, 1))]) == 1
    vecs = [pack_bits((1, 1, 0, 0)), pack_bits((0, 1, 1, 0)), pack_bits((1, 0, 1, 0))]
    assert f2_rank(vecs) == 2


@pytest.mark.parametrize("t", [4, 6, 8, 10, 12, 14, 16])
def test_ones_minus_identity_rank(t):
    # adjacency pattern forced on a t-clique; full rank for even t
    rows = [((1 << t) - 1) ^ (1 << i) for i in range(t)]
    assert f2_rank(rows) == t


@pytest.mark.parametrize("t", [4, 6, 8, 10, 12, 14, 16])
def test_cf_graph_rank(t):
    # the adjacency is V Omega V^T, V the matrix of all vectors of F2^(t-2),
    # so its rank is that of the nondegenerate form Omega
    assert f2_rank(build_cf_graph(t).adj) == t - 2


def test_f2_span():
    basis = [0b01, 0b10]
    assert f2_span(basis) == [0, 1, 2, 3]
    assert f2_span([]) == [0]


def test_build_cf_graph_t4():
    g = build_cf_graph(4)
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degree(0) == 0  # zero vector is isolated
    assert max_clique_size(g) == 3
    assert not has_clique(g, 4)
    assert independence_profile(g, 3).counts == (1, 4, 3, 0)


def test_build_cf_graph_t6():
    g = build_cf_graph(6)
    assert g.n == 16
    assert g.edge_count == 60
    assert all(g.degree(v) == 8 for v in range(1, 16))
    g.validate()


def test_build_cf_graph_validation():
    with pytest.raises(ValueError):
        build_cf_graph(5)
    with pytest.raises(ValueError):
        build_cf_graph(2)
    with pytest.raises(ValueError):
        build_cf_graph(18, budget=1 << 14)


@pytest.mark.parametrize("t", [4, 6, 8])
def test_cf_graph_clique_free(t):
    assert not has_clique(build_cf_graph(t), t)


@pytest.mark.parametrize("t", [4, 6, 8, 10, 12])
def test_cf_graph_edges_are_the_form(t):
    g = build_cf_graph(t)
    form = SymplecticSpace(t - 2).form
    # every row up to t = 8, then 64 seeded rows, each against every vertex
    rows = range(g.n) if g.n <= 64 else random.Random(t).sample(range(g.n), 64)
    for u in rows:
        for v in range(g.n):
            assert g.has_edge(u, v) == form(u, v)


def test_cf8_clique_witnesses_pinned():
    g = build_cf_graph(8)
    witnesses = {k: find_clique(g, k) for k in range(2, 8)}
    assert witnesses == {
        2: (16, 32),
        3: (16, 32, 52),
        4: (16, 32, 52, 56),
        5: (16, 32, 52, 56, 61),
        6: (16, 32, 52, 56, 61, 62),
        7: (16, 32, 52, 56, 61, 62, 63),
    }


def test_count_isotropic_examples():
    assert count_isotropic_subspaces(4, 0) == 1
    assert count_isotropic_subspaces(4, 1) == 3
    assert count_isotropic_subspaces(6, 1) == 15
    assert count_isotropic_subspaces(6, 2) == 15
    assert count_isotropic_subspaces(8, 3) == 135
    with pytest.raises(ValueError):
        count_isotropic_subspaces(4, 2)
    with pytest.raises(ValueError):
        count_isotropic_subspaces(6, -1)


@pytest.mark.parametrize("t", [4, 6, 8, 10])
def test_enumeration_matches_count(t):
    for k in range(t // 2):
        subs = enumerate_isotropic_subspaces(t, k)
        assert len(subs) == count_isotropic_subspaces(t, k)
        assert len(set(subs)) == len(subs)
        sp = SymplecticSpace(t - 2)
        for basis in subs[:20]:
            span = f2_span(basis)
            assert len(span) == 1 << k
            for u, v in itertools.combinations(span, 2):
                assert sp.form(u, v) == 0


def test_enumeration_budget_and_bad_k():
    with pytest.raises(BudgetError):
        enumerate_isotropic_subspaces(12, 1)
    with pytest.raises(ValueError):
        enumerate_isotropic_subspaces(4, 2)


@pytest.mark.parametrize("t", [4, 6, 8])
def test_maximal_independent_sets_span_isotropic(t):
    g = build_cf_graph(t)
    sp = SymplecticSpace(t - 2)
    for start in range(g.n):
        # greedy maximal independent set from each start vertex
        chosen = [start]
        for v in range(g.n):
            if v != start and all(not g.has_edge(v, u) for u in chosen):
                chosen.append(v)
        span = f2_span(chosen)
        for u, v in itertools.combinations(span, 2):
            assert sp.form(u, v) == 0
        assert len(span) <= 1 << (t // 2 - 1)
