import hashlib
import math
import random

import numpy as np
import pytest

from halfmult import graphs
from halfmult.errors import BudgetError
from halfmult.f2 import build_cf_graph
from halfmult.graphs import (
    Graph,
    _graph6_lines,
    adjacent,
    complement,
    complete,
    cycle,
    edgeless,
    f2_rank,
    find_clique,
    from_edges,
    from_graph6,
    from_pairs,
    has_clique,
    independence_profile,
    max_clique_size,
    packed_adjacency,
    pair_matrix,
    sample_er_graph,
    to_graph6,
)
from halfmult.rng import make_rng

from conftest import (
    oracle_by_degree,
    oracle_count_cliques_by_size,
    oracle_first_clique,
    oracle_from_graph6,
    oracle_has_clique,
    oracle_independent_subset_counts,
    oracle_max_clique,
    oracle_to_graph6,
)


def test_complete_and_cycle_shapes():
    k5 = complete(5)
    assert k5.edge_count == 10
    c5 = cycle(5)
    assert c5.edge_count == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    k5.validate()
    c5.validate()


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 5)])


def test_complement_involution_and_known_cases():
    assert complement(complete(6)) == edgeless(6)
    assert complement(edgeless(6)) == complete(6)
    c5 = cycle(5)
    assert complement(c5).edge_count == 5  # C(5,2) - 5
    assert complement(complement(c5)) == c5


def test_sample_er_graph_extremes():
    assert sample_er_graph(10, 0.0, 123) == edgeless(10)
    assert sample_er_graph(10, 1.0, 123) == complete(10)
    with pytest.raises(ValueError):
        sample_er_graph(10, 1.5, 0)
    with pytest.raises(ValueError):
        sample_er_graph(0, 0.5, 0)


def test_sample_er_graph_deterministic_and_symmetric():
    a = sample_er_graph(25, 0.37, 999)
    b = sample_er_graph(25, 0.37, 999)
    assert a == b
    a.validate()
    assert a != sample_er_graph(25, 0.37, 1000)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 64, 65, 130])
def test_from_pairs_matches_from_edges(n):
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for density in (0.0, 0.3, 1.0):
        mask = rng.random(len(pairs)) < density
        g = from_pairs(n, mask)
        assert g == from_edges(n, [uv for uv, bit in zip(pairs, mask) if bit])
        g.validate()


# (n, p, seed) -> graph6 of the sample, or its sha256 where the string is
# long; these pin the draw order of one uniform per pair.
_ER_GRAPH6 = {
    (1, 0.5, 0): "@",
    (2, 0.5, 1): "A_",
    (2, 0.5, 3): "A?",
    (9, 0.3, 7): "HWIGcSY",
    (9, 0.5, 11): "HiXujJi",
    (65, 0.1, 3): "dfd621936cc9f95c6cd3380affe9699c8df87c59e148b162ef6a819a5fe2d580",
    (65, 0.5, 2024): "10922d4c7e06d9be8c5bcfb9e15bc1e6900b172b7b9ad142c8ad82f927afdacc",
}


@pytest.mark.parametrize("n, p, seed", sorted(_ER_GRAPH6))
def test_sample_er_graph_pinned(n, p, seed):
    g6 = to_graph6(sample_er_graph(n, p, seed))
    if n > 9:
        g6 = hashlib.sha256(g6.encode()).hexdigest()
    assert g6 == _ER_GRAPH6[(n, p, seed)]


def test_sample_er_graph_draws_in_chunks_of_one_stream(monkeypatch):
    monkeypatch.setattr(graphs, "_DRAW_CHUNK", 7)
    for n, p, seed in ((1, 0.5, 0), (5, 0.5, 1), (6, 0.3, 2), (50, 0.3, 1), (200, 0.5, 7), (201, 0.1, 3)):
        one_draw = make_rng(seed).random(n * (n - 1) // 2) < p
        assert sample_er_graph(n, p, seed) == from_pairs(n, one_draw), (n, p, seed)


def test_sample_er_graph_edge_count_statistics():
    # binomial(435, 1/2): mean 217.5, sd ~10.43; 100-seed mean within 4 sd
    n, pairs = 30, 435
    counts = [sample_er_graph(n, 0.5, seed).edge_count for seed in range(100)]
    mean = sum(counts) / len(counts)
    sd_mean = (pairs * 0.25) ** 0.5 / 10.0
    assert abs(mean - 217.5) < 4 * sd_mean
    assert all(abs(c - 217.5) < 4 * (pairs * 0.25) ** 0.5 for c in counts)


def test_has_clique_known_cases():
    assert has_clique(complete(5), 5)
    assert not has_clique(cycle(5), 3)
    assert has_clique(cycle(5), 2)
    assert max_clique_size(edgeless(7)) == 1
    assert max_clique_size(cycle(5)) == 2
    assert max_clique_size(complete(9)) == 9


def test_find_clique_witness_is_valid():
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 2), (3, 2)])
    w = find_clique(g, 3)
    assert w is not None and len(w) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert g.has_edge(w[i], w[j])
    assert find_clique(g, 4) is None


def test_clique_search_matches_oracle_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randint(1, 9)
        p = rng.random()
        g = sample_er_graph(n, p, rng.getrandbits(32))
        w = oracle_max_clique(g)
        assert max_clique_size(g) == w
        for t in range(1, n + 2):
            assert has_clique(g, t) == (w >= t)


def test_clique_search_matches_oracle_n12():
    for seed in range(5):
        g = sample_er_graph(12, 0.5, seed)
        assert max_clique_size(g) == oracle_max_clique(g)


def _all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield from_edges(n, [pair for i, pair in enumerate(pairs) if (bits >> i) & 1])


def test_clique_number_at_most_rank_plus_one():
    # a k-clique restricts the adjacency to J - I, of F2 rank >= k - 1
    graphs_seen = [g for n in range(6) for g in _all_graphs(n)]
    rng = random.Random(8)
    for n in (6, 7, 8):
        for _ in range(150):
            p = rng.random()
            graphs_seen.append(
                from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            )
    assert len(graphs_seen) == 1 + 1 + 2 + 8 + 64 + 1024 + 450
    for g in graphs_seen:
        omega = oracle_max_clique(g)
        assert omega <= f2_rank(g.adj) + 1
        for t in range(2, g.n + 2):
            assert (find_clique(g, t) is not None) == (omega >= t)


def test_max_clique_size_matches_networkx():
    nx = pytest.importorskip("networkx")
    cases = [sample_er_graph(n, p, seed) for n, p in ((12, 0.5), (30, 0.3), (40, 0.6), (60, 0.2)) for seed in range(5)]
    cases += [build_cf_graph(6), build_cf_graph(8)]
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v))
        omega = max(len(c) for c in nx.find_cliques(h))
        assert nx.max_weight_clique(h, weight=None)[1] == omega
        assert max_clique_size(g) == omega


def test_clique_number_search_stops_at_rank_plus_one(monkeypatch):
    # cf:t has F2 rank t - 2 and a (t-1)-clique, so the search ends on the
    # first branch that reaches t - 1, one _expand call per level
    calls = []
    expand = graphs._expand
    monkeypatch.setattr(graphs, "_expand", lambda *args: calls.append(1) or expand(*args))
    for t in (6, 8, 10):
        calls.clear()
        assert max_clique_size(build_cf_graph(t)) == t - 1
        assert len(calls) == t - 1


def test_f2_rank_stops_at_the_given_rank():
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.getrandbits(40) for _ in range(rng.randint(0, 30))]
        rank = f2_rank(rows)
        for stop in range(1, 42):
            assert f2_rank(rows, stop=stop) == min(rank, stop)


@pytest.mark.parametrize("seed", range(4))
def test_find_clique_on_cf6_pullbacks(seed):
    # a pullback of cf:6 has adjacency F^T Omega F, of F2 rank <= 4, so the
    # rank proves it K_6-free; a planted K_6 must still be found by the search
    base = build_cf_graph(6)
    dense = np.unpackbits(packed_adjacency(base), axis=1, count=base.n, bitorder="little").astype(bool)
    rng = np.random.default_rng(seed)
    n = 40
    f = rng.integers(0, base.n, size=n)
    x, y = np.triu_indices(n, 1)
    mask = dense[f[x], f[y]]
    pullback = from_pairs(n, mask)
    assert f2_rank(pullback.adj) <= 4
    clique = np.zeros(n, dtype=bool)
    clique[rng.choice(n, size=6, replace=False)] = True
    planted = from_pairs(n, mask | (clique[x] & clique[y]))
    for g in (pullback, planted):
        omega = max_clique_size(g)
        for t in range(2, 8):
            witness = find_clique(g, t)
            assert (witness is not None) == oracle_has_clique(g, t) == (omega >= t)
            if witness is not None:
                assert all(g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1 :])
    assert find_clique(pullback, 6) is None
    assert find_clique(planted, 6) is not None


def _pullback(base: Graph, n: int, rng: np.random.Generator, removed: int = 0) -> Graph:
    """A random pullback of base to n vertices; with removed > 0, the pairs of
    a random removed-set are taken out, as a tampered certificate's class is."""
    f = rng.integers(0, base.n, size=n)
    x, y = np.triu_indices(n, 1)
    mask = adjacent(packed_adjacency(base), f[x], f[y])
    if removed:
        members = np.zeros(n, dtype=bool)
        members[rng.choice(n, size=removed, replace=False)] = True
        mask &= ~(members[x] & members[y])
    return from_pairs(n, mask)


def test_search_matches_the_plain_colour_bound_search():
    # twin skipping prunes only subtrees without a clique above best, so the
    # first witness and the clique number are the plain search's
    rng = np.random.default_rng(14)
    cases = [sample_er_graph(int(rng.integers(5, 60)), float(rng.choice([0.3, 0.5, 0.7, 0.85])), seed) for seed in range(60)]
    for t in (6, 8):
        base = build_cf_graph(t)
        for n in (30, 70):
            for removed in (0, 0, t, t):
                cases.append(_pullback(base, n, rng, removed))
    for g in cases:
        assert max_clique_size(g) == len(oracle_first_clique(g))
        for k in range(2, 10):
            assert find_clique(g, k) == oracle_first_clique(g, k)


def test_twins_are_branched_once(monkeypatch):
    # in a blow-up whose copies of a vertex are non-adjacent twins, only the
    # first twin of each class is branched on, so the search visits as many
    # nodes as on the graph it blows up, and answers the same
    calls = [0]
    expand = graphs._expand

    def counting(*args):
        calls[0] += 1
        return expand(*args)

    monkeypatch.setattr(graphs, "_expand", counting)
    for seed in range(6):
        h = sample_er_graph(24, 0.5, seed)
        edges = [(u, v) for u in range(24) for v in range(u + 1, 24) if h.has_edge(u, v)]
        g = from_edges(72, [(3 * u + a, 3 * v + b) for u, v in edges for a in range(3) for b in range(3)])
        omega = max_clique_size(h)
        counts = []
        for graph in (h, g):
            calls[0] = 0
            assert max_clique_size(graph) == omega and find_clique(graph, omega + 1) is None
            counts.append(calls[0])
        assert counts[0] == counts[1]


@pytest.mark.parametrize("block", [graphs._RELABEL_ROWS, 7])
@pytest.mark.parametrize("n", [1, 2, 8, 9, 64, 65, 300])
def test_relabel_by_degree_matches_edge_loop(n, block, monkeypatch):
    monkeypatch.setattr(graphs, "_RELABEL_ROWS", block)
    rng = np.random.default_rng(n)
    for p in (0.0, 0.3, 1.0):
        g = from_pairs(n, rng.random(n * (n - 1) // 2) < p)
        order, rows = graphs._by_degree(g)
        assert rows.dtype == np.uint8 and rows.shape == (n, 8 * ((n + 63) // 64))
        assert not rows[:, (n + 7) // 8 :].any()  # the pad bytes, out to whole uint64 words
        assert (order, graphs._ints(rows)) == oracle_by_degree(g)


def _matrix_cases(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Pair masks on n vertices: four densities, a planted 6-clique, and two
    blow-ups whose copies of a vertex are twin rows, non-adjacent or adjacent."""
    x, y = np.triu_indices(n, 1)
    masks = [rng.random(len(x)) < p for p in (0.0, 0.1, 0.5, 0.9)]
    planted = np.zeros(n, dtype=bool)
    planted[rng.choice(n, size=min(n, 6), replace=False)] = True
    masks.append(masks[1] | (planted[x] & planted[y]))
    group = np.arange(n) // 3
    small = pair_matrix(group[-1] + 1, rng.random(group[-1] * (group[-1] + 1) // 2) < 0.5)
    masks.append(small[group[x], group[y]])
    masks.append(small[group[x], group[y]] | (group[x] == group[y]))
    return masks


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 128, 129, 300])
def test_find_clique_on_a_matrix_matches_the_graph(n):
    # a colour class is searched as its dense matrix, relabelled by one stable
    # argsort and ranked on the relabelled rows: the witness or None must be
    # the Graph's at every t
    for mask in _matrix_cases(n, np.random.default_rng(n)):
        dense, g = pair_matrix(n, mask), from_pairs(n, mask)
        assert dense.dtype == bool and (dense == dense.T).all() and not dense.diagonal().any()
        assert graphs._relabel(dense) == graphs._relabel(g)
        for t in range(1, 8):
            assert find_clique(dense, t) == find_clique(g, t), (n, t)


@pytest.mark.parametrize("block", [1, 7, graphs._INT_ROWS])
def test_ints_matches_per_row_slicing(block, monkeypatch):
    monkeypatch.setattr(graphs, "_INT_ROWS", block)
    rng = np.random.default_rng(block)
    for width in range(1, 41):
        for rows in (0, 1, 6, 7, 8, 30):
            packed = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
            expected = tuple(int.from_bytes(packed[i].tobytes(), "little") for i in range(rows))
            assert graphs._ints(packed) == expected, (width, rows)
            if rows:  # a column slice is not contiguous
                wide = rng.integers(0, 256, size=(rows, width + 3), dtype=np.uint8)
                assert graphs._ints(wide[:, 1 : width + 1]) == graphs._ints(wide[:, 1 : width + 1].copy())


def test_packed_adjacency_matches_edges():
    for n, p, seed in [(1, 0.5, 0), (7, 0.5, 1), (8, 0.3, 2), (13, 0.6, 3)]:
        g = sample_er_graph(n, p, seed)
        packed = packed_adjacency(g)
        assert packed.dtype == np.uint8 and packed.shape == (n, (n + 7) // 8)
        for v in range(n):
            for u in range(n):
                assert (int(packed[v, u >> 3]) >> (u & 7)) & 1 == g.has_edge(v, u)


@pytest.mark.parametrize("n", [1, 9, 65])
def test_adjacent_matches_has_edge(n):
    for g in (edgeless(n), complete(n), sample_er_graph(n, 0.3, n), sample_er_graph(n, 0.7, n + 1)):
        packed = packed_adjacency(g)
        expected = np.array([[g.has_edge(u, v) for v in range(n)] for u in range(n)])
        u, v = np.divmod(np.arange(n * n), n)
        assert (adjacent(packed, u, v) == expected.ravel()).all()
        assert (adjacent(packed, u.reshape(n, n), v[:n][None, :]) == expected).all()
        for a, b in [(0, n - 1), (n - 1, 0), (n // 2, n // 3)]:
            assert adjacent(packed, a, b) == g.has_edge(a, b)


def test_independence_profile_known_values():
    assert independence_profile(complete(3), 3).counts == (1, 3, 0, 0)
    assert independence_profile(cycle(5), 3).counts == (1, 5, 5, 0)
    k = edgeless(5)
    prof = independence_profile(k, 5)
    assert prof.counts == (1, 5, 10, 10, 5, 1)


def test_independence_profile_matches_subset_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 9)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        kmax = min(n, 5)
        assert list(independence_profile(g, kmax).counts) == oracle_independent_subset_counts(g, kmax)


def _random_graph(n: int, p: float, seed: int) -> Graph:
    return sample_er_graph(n, p, seed) if n else edgeless(0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65])
def test_counting_kernel_matches_oracle_across_word_sizes(n):
    # n = 63, 64, 65 straddle the one-word/two-word boundary of the rows
    kmax = n + 1 if n <= 7 else 3
    for seed, p in enumerate((0.15, 0.5, 0.85)):
        g = _random_graph(n, p, 1000 * n + seed)
        prof = independence_profile(g, kmax, budget=65)
        assert list(prof.counts) == oracle_independent_subset_counts(g, kmax)
        assert all(type(c) is int for c in prof.counts)


@pytest.mark.parametrize("n", [0, 1, 10, 64, 65, 130])
def test_counting_kernel_edgeless_and_complete(n):
    kmax = min(n + 2, 4)
    assert independence_profile(edgeless(n), kmax, budget=130).counts == tuple(
        math.comb(n, k) for k in range(kmax + 1)
    )
    assert independence_profile(complete(n), kmax, budget=130).counts == tuple(
        (1, n)[k] if k < 2 else 0 for k in range(kmax + 1)
    )


def test_counting_kernel_small_kmax():
    g = sample_er_graph(12, 0.4, 3)
    assert independence_profile(g, 0).counts == (1,)
    assert independence_profile(g, 1).counts == (1, 12)
    full = independence_profile(g, 20).counts
    assert full[:13] == tuple(oracle_independent_subset_counts(g, 12))
    assert full[13:] == (0,) * 8


def test_counting_kernel_in_blocks_of_one_row(monkeypatch):
    # one row per block: every split and pending remainder path runs
    monkeypatch.setattr(graphs, "_BLOCK_CHILDREN", 1)
    for n, kmax, seed in ((9, 9, 1), (20, 6, 2), (65, 3, 3)):
        g = sample_er_graph(n, 0.3, seed)
        assert list(independence_profile(g, kmax, budget=65).counts) == oracle_independent_subset_counts(g, kmax)


def _per_set_counts(g: Graph, kmax: int) -> list[int]:
    return oracle_count_cliques_by_size(complement(g).adj, g.n, kmax)


def test_merged_kernel_matches_the_per_set_kernel_on_benchmark_shapes():
    from perfbench.workloads import ER_EXACT, er_edges  # the benchmark's own exact-counting graphs

    shapes = [(n, pct, s) for n, pct, s, _ in ER_EXACT if n in (32, 48, 64) and s in (6, 8)]
    assert len(shapes) == 9
    for n, pct, s in shapes:
        for seed in (0, 1):
            g = from_edges(n, er_edges(n, pct, seed))
            assert list(independence_profile(g, s).counts) == _per_set_counts(g, s)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_merged_kernel_matches_the_per_set_kernel_across_word_sizes(n):
    for seed, p in enumerate((0.3, 0.6, 0.9)):
        g = sample_er_graph(n, p, 7000 + 10 * n + seed)
        assert list(independence_profile(g, 6, budget=65).counts) == _per_set_counts(g, 6)


def test_merged_kernel_in_blocks_of_one_row(monkeypatch):
    # every block is one distinct row, so nothing merges across parents
    monkeypatch.setattr(graphs, "_BLOCK_CHILDREN", 1)
    for n, p, kmax, seed in ((16, 0.2, 9, 1), (40, 0.3, 5, 2), (64, 0.5, 5, 3), (65, 0.4, 4, 4), (70, 0.8, 40, 5)):
        g = sample_er_graph(n, p, seed)
        assert list(independence_profile(g, kmax, budget=70).counts) == _per_set_counts(g, kmax)


@pytest.mark.parametrize("n", [1, 10, 33, 64, 65])
def test_merged_kernel_on_edgeless_and_complete(n):
    kmax = min(n + 1, 5)
    for g in (edgeless(n), complete(n)):
        assert list(independence_profile(g, kmax, budget=65).counts) == _per_set_counts(g, kmax)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_merge_equal_sums_the_multiplicities_of_equal_rows(w):
    rng = np.random.default_rng(w)
    distinct = rng.integers(0, 2**64, size=(40, w), dtype=np.uint64)
    distinct[20:, 0] = distinct[:20, 0]  # pairs that differ only past the first word
    rows = distinct[rng.integers(0, 40, size=300)]
    mults = rng.integers(1, 1000, size=300)
    expected: dict = {}
    for row, mult in zip(map(tuple, rows.tolist()), mults.tolist()):
        expected[row] = expected.get(row, 0) + mult
    merged, sums = graphs._merge_equal(np.ascontiguousarray(rows.T), mults)  # the kernel's word-major layout
    assert dict(zip(map(tuple, merged.T.tolist()), sums.tolist())) == expected
    assert merged.shape[1] == len(expected)


def test_counts_past_int64_are_exact():
    # C(70, 35) > 2^63: multiplicities and counts are Python ints here
    prof = independence_profile(edgeless(70), 40, budget=70)
    assert prof.counts == tuple(math.comb(70, k) for k in range(41))
    assert all(type(c) is int for c in prof.counts) and prof[35] > 2**63
    for seed in (1, 2):
        g = sample_er_graph(70, 0.75, seed)  # two words, with multiplicities in an object array
        prof = independence_profile(g, 40, budget=70)
        assert list(prof.counts) == _per_set_counts(g, 40)
        assert all(type(c) is int for c in prof.counts)


def _relabeled(g: Graph, perm) -> Graph:
    return from_edges(g.n, [(perm[u], perm[v]) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)])


@pytest.mark.parametrize(
    "n, p, kmax", [(9, 0.3, 9), (24, 0.2, 5), (48, 0.2, 4), (64, 0.3, 3), (65, 0.4, 3), (70, 0.3, 6), (130, 0.5, 4)]
)
def test_independence_profile_is_label_invariant(n, p, kmax):
    # I_k does not depend on labels; the kernel relabels by degree, so each relabelling is a new vertex order
    rng = np.random.default_rng(n)
    g = sample_er_graph(n, p, 20 + n)
    # the subset oracle scans all kmax-subsets; past n = 65 the per-set kernel, which keeps file order
    expected = oracle_independent_subset_counts(g, kmax) if n <= 65 else _per_set_counts(g, kmax)
    for perm in [range(n)] + [rng.permutation(n).tolist() for _ in range(3)]:
        assert list(independence_profile(_relabeled(g, perm), kmax, budget=130).counts) == expected


def _cycle_counts(n: int, kmax: int) -> list[int]:
    return [1] + [n * math.comb(n - k, k) // (n - k) for k in range(1, kmax + 1)]


@pytest.mark.parametrize(
    "g, expected",
    [
        (edgeless(20), [math.comb(20, k) for k in range(7)]),
        (complete(20), [1, 20, 0, 0, 0, 0, 0]),
        (cycle(20), _cycle_counts(20, 6)),
        (cycle(65), _cycle_counts(65, 6)),
        (build_cf_graph(6), None),
    ],
    ids=["edgeless-20", "complete-20", "cycle-20", "cycle-65", "cf6"],
)
def test_independence_profile_is_label_invariant_on_tied_degrees(g, expected):
    # every degree ties, so the stable sort keeps each relabelling's own vertex order
    if expected is None:
        expected = oracle_independent_subset_counts(g, 6)
    rng = np.random.default_rng(g.n)
    for perm in [range(g.n)] + [rng.permutation(g.n).tolist() for _ in range(3)]:
        assert list(independence_profile(_relabeled(g, perm), 6, budget=65).counts) == expected


def _word_major_rows(above: np.ndarray) -> list[int]:
    return [sum(int(word) << (64 * j) for j, word in enumerate(above[:, v])) for v in range(above.shape[1])]


@pytest.mark.parametrize("n", [5, 64, 65, 130])
def test_counting_takes_vertices_by_ascending_degree(n, monkeypatch):
    seen = []
    kernel = graphs._count_cliques_by_size
    monkeypatch.setattr(graphs, "_count_cliques_by_size", lambda above, kmax: seen.append(above) or kernel(above, kmax))

    def counted(g):
        """The above rows of g, as the counting kernel takes them from independence_profile on g's complement."""
        independence_profile(complement(g), 2, budget=n)
        return seen.pop()

    # a star centred on vertex 0: by ascending degree the centre comes last, so each leaf has
    # one vertex above it, the centre none; in file order the centre would have all n - 1
    above = counted(from_edges(n, [(0, v) for v in range(1, n)]))
    assert above.shape == ((n + 63) // 64, n)
    assert graphs._popcounts(above).tolist() == [1] * (n - 1) + [0]
    assert all(above[(n - 1) // 64, v] == np.uint64(1) << np.uint64((n - 1) % 64) for v in range(n - 1))
    # a sparse graph, whose degrees tie often: Python's sort is stable, so ties keep vertex order
    g = sample_er_graph(n, 3 / n, n)
    order = sorted(range(n), key=g.degree)
    rows = [sum(1 << j for j in range(i + 1, n) if g.has_edge(order[i], order[j])) for i in range(n)]
    assert _word_major_rows(counted(g)) == rows


def test_independence_profile_hereditary_and_budget():
    g = sample_er_graph(10, 0.6, 5)
    prof = independence_profile(g, 10)
    assert prof[0] == 1 and prof[1] == g.n
    assert sum(prof.counts) <= 2**g.n
    seen_zero = False
    for k in range(1, 11):
        if prof[k] == 0:
            seen_zero = True
        if seen_zero:
            assert prof[k] == 0
    for k in range(6):
        assert independence_profile(edgeless(5), 5)[k] == math.comb(5, k)
    with pytest.raises(BudgetError):
        independence_profile(edgeless(65), 2)
    independence_profile(edgeless(65), 2, budget=65)


def test_graph6_roundtrip_small_and_large():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 20)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        assert from_graph6(to_graph6(g)) == g
    big = sample_er_graph(70, 0.1, 3)  # exercises the 3-byte size field
    assert from_graph6(to_graph6(big)) == big


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 64, 65, 100, 258, 300])  # the size field widens past 62
def test_graph6_matches_pair_loop_oracle(n):
    rng = np.random.default_rng(n)
    graphs = [from_pairs(n, rng.random(n * (n - 1) // 2) < density) for density in (0.0, 0.3, 1.0)]
    texts = [oracle_to_graph6(g) for g in graphs]
    assert [to_graph6(g) for g in graphs] == texts
    bits = np.array([[g.has_edge(u, v) for v in range(n) for u in range(v)] for g in graphs], np.uint8)
    assert _graph6_lines(n, bits.reshape(len(graphs), -1)) == texts  # the three graphs as one block
    assert {text[0] == "~" for text in texts} == {n > 62}
    for text, g in zip(texts, graphs):
        assert from_graph6(text) == oracle_from_graph6(text) == g


@pytest.mark.parametrize("n", [2, 3, 5, 7, 65])  # n(n-1)/2 is not a multiple of 6
def test_graph6_ignores_padding_bits(n):
    pairs = n * (n - 1) // 2
    text = to_graph6(from_pairs(n, np.random.default_rng(n).random(pairs) < 0.5))
    padding = (1 << -pairs % 6) - 1  # the low bits of the last six-bit group
    padded = text[:-1] + chr((ord(text[-1]) - 63 | padding) + 63)
    assert padded != text
    assert from_graph6(padded) == oracle_from_graph6(padded) == from_graph6(text)


@pytest.mark.parametrize("text", ["", ">>graph6<<", "D", "C~~", "~", "~??", ">", "A!", "A\x7f", "\x7f", "~?@?"])
def test_graph6_errors_match_oracle(text):
    with pytest.raises(ValueError) as expected:
        oracle_from_graph6(text)
    with pytest.raises(ValueError) as got:
        from_graph6(text)
    assert str(got.value) == str(expected.value)


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 15)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        ours = to_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    h.add_edge(u, v)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = from_graph6(theirs)
        assert back == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("D")  # body too short for n=5
