import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from halfmult import search
from halfmult.bounds import (
    KnownRamseyTable,
    n_binomial_lower,
    n_recursion,
    ramsey_lower_half,
    ramsey_upper_half,
)
from halfmult.errors import BudgetError
from halfmult.graphs import complement, complete, from_edges, from_graph6, has_clique, sample_er_graph, to_graph6
from halfmult.prob import exact_independence_prob
from halfmult.search import (
    _canonical_form,
    _graphs,
    _grow,
    _lines,
    _paths,
    enumerate_ktfree,
    known_exact_value,
    min_independence_prob,
)

from conftest import (
    oracle_canonical_form,
    oracle_independence_prob,
    oracle_isomorphism_key,
    oracle_ktfree_graphs,
    oracle_max_clique,
)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_ktfree(3, 3)) == 7  # all but K_3
    assert sum(1 for _ in enumerate_ktfree(2, 3)) == 2
    assert sum(1 for _ in enumerate_ktfree(4, 2)) == 1  # edgeless only
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_ktfree(n, None)) == 2 ** (n * (n - 1) // 2)
    assert sum(1 for _ in enumerate_ktfree(6, 3)) == 5789  # OEIS A006785
    assert sum(1 for _ in enumerate_ktfree(7, 3)) == 133501


def test_enumerate_matches_clique_oracle():
    for n in range(1, 6):
        everything = list(enumerate_ktfree(n, None))
        for t in (2, 3, 4):
            expected = sorted(g.adj for g in everything if oracle_max_clique(g) < t)
            assert sorted(g.adj for g in enumerate_ktfree(n, t)) == expected


def test_enumerate_matches_pair_slot_oracle():
    for n in range(1, 7):
        for t in (2, 3, 4, 5, None):
            grown = [g.adj for g in enumerate_ktfree(n, t)]
            assert len(grown) == len(set(grown))
            assert set(grown) == {g.adj for g in oracle_ktfree_graphs(n, t)}


def test_enumerate_yields_ktfree_graphs():
    seen = set()
    for g in enumerate_ktfree(5, 3):
        assert not has_clique(g, 3)
        g.validate()
        seen.add(g.adj)
    assert len(seen) == 388  # labeled triangle-free graphs on 5 vertices


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        next(enumerate_ktfree(9, 3))
    with pytest.raises(ValueError):
        next(enumerate_ktfree(0, 3))


def test_min_independence_known_values():
    r = min_independence_prob(2, 3, 6)
    assert r.min_prob == Fraction(1, 2)
    assert to_graph6(complete(2)) in r.witnesses
    r = min_independence_prob(3, 3, 6)
    assert r.min_prob == Fraction(1, 4)
    assert to_graph6(complete(2)) in r.witnesses
    r = min_independence_prob(2, 4, 5)
    assert r.min_prob == Fraction(1, 3)
    assert to_graph6(complete(3)) in r.witnesses


def test_min_independence_monotone_in_nmax():
    a = min_independence_prob(2, 3, 4).min_prob
    b = min_independence_prob(2, 3, 5).min_prob
    assert b <= a


def test_min_independence_witnesses_revalidate():
    r = min_independence_prob(3, 3, 5)
    for g6 in r.witnesses:
        g = from_graph6(g6)
        assert not has_clique(g, 3)
        assert exact_independence_prob(g, 3) == r.min_prob


def test_min_independence_dedup_iso():
    full = min_independence_prob(2, 3, 4)
    deduped = min_independence_prob(2, 3, 4, dedup_iso=True)
    # K_2 and the three labelings of C_4 collapse to two classes
    assert len(full.witnesses) == 4
    assert len(deduped.witnesses) == 2
    assert deduped.min_prob == full.min_prob


def _same_classes(*labelings):
    """Whether lists of labels, one label per graph, split the graphs into the same classes."""
    pairs = set(zip(*labelings))
    return all(len(set(labels)) == len(pairs) for labels in labelings)


def _pair_string(g):
    return tuple(int(g.has_edge(u, v)) for u, v in itertools.combinations(range(g.n), 2))


def _kept_matches_classes(graphs, kept):
    """Whether kept, positions into graphs, holds one graph per isomorphism
    class of graphs, each its class's least pair string."""
    least = {}
    for g in graphs:
        key = oracle_isomorphism_key(g)
        least[key] = min(least.get(key, _pair_string(g)), _pair_string(g))
    return sorted(_pair_string(graphs[i]) for i in kept) == sorted(least.values())


def test_canonical_form_classes_match_oracle():
    classes = {}
    for t in (2, 3, 4, 5, None):
        for n in range(1, 6):
            paths = np.concatenate([_paths(parents, picks) for depth, parents, picks, _ in _grow(n, t) if depth == n])
            kept = _canonical_form(paths)
            assert _kept_matches_classes(_graphs(paths), kept), (n, t)
            classes[t] = classes.get(t, 0) + len(kept)
    # the graphs on 1..5 vertices: 1, 2, 4, 11 and 34 classes (OEIS A000088), one of them K_5
    assert (classes[None], classes[5]) == (52, 51)


def test_canonical_form_refuses_a_set_not_closed_under_relabelling():
    # the edge 01 on three vertices, without its relabellings 02 and 12
    with pytest.raises(AssertionError):
        _canonical_form(np.array([[0, 1, 0]]))


def _orbit(g):
    """The paths of every relabelling of g, each once."""
    n = g.n
    dense = np.array([[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)])
    perms = np.array(list(itertools.permutations(range(n))))
    relabeled = dense[perms[:, :, None], perms[:, None, :]]
    paths = (relabeled * (1 << np.arange(n))).sum(axis=2) & ((1 << np.arange(n)) - 1)
    return np.unique(paths, axis=0)


# each oracle takes about half a second a graph at n = 8, so n = 8 runs only one
@pytest.mark.parametrize(
    "n, seed, oracles",
    [
        (7, 1, (oracle_isomorphism_key, oracle_canonical_form)),
        (7, 2, (oracle_isomorphism_key, oracle_canonical_form)),
        (8, 3, (oracle_isomorphism_key,)),
    ],
)
def test_canonical_form_under_relabeling_and_edge_changes(n, seed, oracles):
    rng = np.random.default_rng(seed)
    g = sample_er_graph(n, 0.5, seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
    holes = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    flipped = from_edges(n, edges[1:])  # one edge fewer: always another class
    # moving one edge keeps the edge count, so only the structure tells the classes apart
    moved = [
        from_edges(n, [e for e in edges if e != edges[i]] + [holes[j]])
        for i, j in zip(rng.choice(len(edges), 2, replace=False), rng.choice(len(holes), 2, replace=False))
    ]
    graphs = [g, flipped, *moved]
    orbits = [_orbit(h) for h in graphs]
    assert len(orbits[0]) > 1  # g has relabellings other than itself
    paths = np.unique(np.concatenate(orbits), axis=0)
    kept = _graphs(paths[_canonical_form(paths)])
    # each graph's class is named by its least relabelling, which must be kept
    u, v = np.triu_indices(n, 1)
    least = [min(map(tuple, (orbit[:, v] >> u & 1).tolist())) for orbit in orbits]
    assert sorted(map(_pair_string, kept)) == sorted(set(least))
    labelings = [[oracle(h) for h in graphs] for oracle in oracles]
    assert len(set(labelings[0][:1] + labelings[0][2:])) > 1  # some move leaves the class of g
    assert least[1] != least[0]
    assert _same_classes(least, *labelings)


def test_dedup_iso_witnesses_pinned():
    # recorded with the relabeling loop that oracle_canonical_form keeps
    r = min_independence_prob(3, 3, 7, dedup_iso=True)
    assert (r.min_prob, r.witnesses, r.graphs_scanned) == (Fraction(1, 4), ("A_", "C]", "EFz_"), 139729)
    r = min_independence_prob(4, 4, 6, dedup_iso=True)
    assert (r.min_prob, r.witnesses, r.graphs_scanned) == (Fraction(1, 27), ("Bw", "E]~o"), 28658)


def _brute_force_min(scored, n_max, dedup_iso, keys):
    """min_independence_prob's result from (probability, graph) pairs in
    pair-slot order: witnesses on at most n_max vertices, and with dedup_iso
    the first of each isomorphism class; keys caches the class keys."""
    scored = [(p, g) for p, g in scored if g.n <= n_max]
    best = min(p for p, _ in scored)
    witnesses = [g for p, g in scored if p == best]
    if dedup_iso:
        firsts = {}
        for g in witnesses:
            if g.adj not in keys:
                keys[g.adj] = oracle_isomorphism_key(g)
            firsts.setdefault(keys[g.adj], g)
        witnesses = list(firsts.values())
    return best, tuple(sorted(to_graph6(g) for g in witnesses)), len(scored)


def test_min_independence_matches_brute_force():
    keys = {}
    for t in range(2, 6):
        graphs = [g for n in range(1, 6) for g in oracle_ktfree_graphs(n, t)]
        for s in range(1, 5):
            scored = [(oracle_independence_prob(g, s), g) for g in graphs]
            for n_max in range(1, 6):
                for dedup_iso in (False, True):
                    r = min_independence_prob(s, t, n_max, dedup_iso=dedup_iso)
                    expected = _brute_force_min(scored, n_max, dedup_iso, keys)
                    assert (r.min_prob, r.witnesses, r.graphs_scanned) == expected, (s, t, n_max, dedup_iso)


def test_min_independence_exact_for_large_s():
    # 6^25 exceeds int64, so n_max = 6 takes the big-integer path and 5 does not
    scored = [(exact_independence_prob(g, 25), g) for n in range(1, 7) for g in oracle_ktfree_graphs(n, 3)]
    for n_max in (5, 6):
        r = min_independence_prob(25, 3, n_max)
        assert (r.min_prob, r.witnesses, r.graphs_scanned) == _brute_force_min(scored, n_max, False, {})


def _results(shapes):
    return {shape: min_independence_prob(*shape[:3], dedup_iso=shape[3]) for shape in shapes}


# s = 1 at n_max = 6 makes every graph a witness, which only grows the output
_CAPPED_SHAPES = [
    (s, t, n_max, dedup_iso)
    for s in range(1, 5)
    for t in range(2, 6)
    for n_max in range(1, 7 if s > 1 else 6)
    for dedup_iso in (False, True)
]


@pytest.mark.parametrize("cap", [1, 1 << 62], ids=["one-entry", "unbounded"])
def test_block_cap_leaves_every_result_unchanged(monkeypatch, cap):
    # one entry a step takes one child a step, so every split and pending
    # remainder runs; for t >= 4 at n_max = 6 that is a step per graph for
    # tens of thousands of graphs, so there it stops at n_max = 5
    shapes = [shape for shape in _CAPPED_SHAPES if cap > 1 or shape[1] <= 3 or shape[2] <= 5]
    expected = _results(shapes)
    monkeypatch.setattr(search, "_BLOCK_ENTRIES", cap)
    assert _results(shapes) == expected


@functools.cache
def _oracle_tuple_count(g, s):
    """The independent ordered s-tuples of g by the tuple oracle; zero for s = 0, as _grow has it."""
    return oracle_independence_prob(g, s) * g.n**s if s else 0


# the tuple oracle groups the tuples by vertex set once per (n, s), so scoring a graph is a
# few numpy steps over at most 2^n sets, and s = 6 fits for the 5789 graphs on six vertices
_EVERY_W_CASES = [*((t, n_max, 6) for t in (2, 3, 4, None) for n_max in range(1, 6)), (3, 6, 6)]


@pytest.mark.parametrize("cap", [search._BLOCK_ENTRIES, 1], ids=["default-cap", "one-entry"])
@pytest.mark.parametrize("t, n_max, s_max", _EVERY_W_CASES)
def test_grow_counts_the_tuples_of_every_graph(monkeypatch, cap, t, n_max, s_max):
    # every graph's W, not only the minima, so a wrong table shift on any graph shows
    monkeypatch.setattr(search, "_BLOCK_ENTRIES", cap)
    for s in range(s_max + 1):
        blocks = {}  # n -> [(paths, W)]: one _graphs call an n, as a block can hold one graph
        for n, parents, picks, W in _grow(n_max, t, s):
            blocks.setdefault(n, []).append((_paths(parents, picks), W))
        for pairs in blocks.values():
            paths, W = (np.concatenate(part) for part in zip(*pairs))
            assert W.tolist() == [_oracle_tuple_count(g, s) for g in _graphs(paths)], (s, t, n_max)


# every graph _grow yields on up to 7 vertices for t = 2 and 3, and on up to 6 for t = 4 and None:
# 202,261 graphs; t = 4 and None at n = 7 add 3.6 million more
_LINE_CASES = [(2, 7), (3, 7), (4, 6), (None, 6)]


@functools.cache
def _grown(t, n_max):
    """The paths of the graphs _grow yields, one array an n, and their graphs."""
    blocks = {}
    for n, parents, picks, _ in _grow(n_max, t):
        blocks.setdefault(n, []).append(_paths(parents, picks))
    paths = [np.concatenate(part) for part in blocks.values()]
    return paths, [_graphs(p) for p in paths]


@functools.cache
def _graph6_of_grown(t, n_max):
    return [[to_graph6(g) for g in graphs] for graphs in _grown(t, n_max)[1]]


@pytest.mark.parametrize("rows", [search._LINE_ROWS, 1, 7], ids=["default-rows", "one-row", "seven-rows"])
@pytest.mark.parametrize("t, n_max", _LINE_CASES)
def test_lines_are_the_graph6_of_the_grown_graphs(monkeypatch, rows, t, n_max):
    monkeypatch.setattr(search, "_LINE_ROWS", rows)
    assert [_lines(p) for p in _grown(t, n_max)[0]] == _graph6_of_grown(t, n_max)


@pytest.mark.parametrize("t, n_max", _LINE_CASES)
def test_lines_round_trip_to_the_grown_graphs(t, n_max):
    paths, graphs = _grown(t, n_max)
    for p, part in zip(paths, graphs):
        assert [from_graph6(line).adj for line in _lines(p)] == [g.adj for g in part]


@pytest.mark.parametrize(
    "s, n_max, dtype",
    [(2, 5, np.int8), (4, 5, np.int16), (8, 4, np.int32), (25, 5, np.int64), (25, 6, object)],
)
def test_tuple_counts_take_the_smallest_type_that_holds_them(s, n_max, dtype):
    # W <= n_max^s: 25, 625, 65536, 5^25 < 2^63 <= 6^25
    assert {W.dtype for *_, W in _grow(n_max, 3, s)} == {np.dtype(dtype)}
    if n_max**s > 2_000_000:
        return  # past the tuple oracle: test_min_independence_exact_for_large_s checks these
    scored = [(oracle_independence_prob(g, s), g) for n in range(1, n_max + 1) for g in oracle_ktfree_graphs(n, 3)]
    r = min_independence_prob(s, 3, n_max)
    assert (r.min_prob, r.witnesses, r.graphs_scanned) == _brute_force_min(scored, n_max, False, {})


def test_graphs_scanned_at_eight_vertices():
    # labeled triangle-free graphs on 1..8 vertices, recorded before the walk ran in blocks
    assert min_independence_prob(2, 3, 8).graphs_scanned == 4821999


@pytest.mark.parametrize("s, n_max", [(6, 7), (3, 8)])
def test_search_memory_is_bounded_by_the_block_cap(s, n_max):
    # about 1.1 and 1.3 MB at the default cap; twice the cap peaks at 1.9 and 2.3 MB
    min_independence_prob(s, 3, n_max)  # warm caches that outlive the call
    tracemalloc.start()
    try:
        min_independence_prob(s, 3, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_600_000


def test_search_at_large_s_keeps_no_stirling_table():
    # a table of S(s', k) for every s' <= 2000 would hold 1.7 GB; the three weights take a few kB
    tracemalloc.start()
    try:
        r = min_independence_prob(2000, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.min_prob, r.witnesses) == (Fraction(1, 2**1999), ("A_",))
    assert peak < 1_000_000


def test_dedup_iso_counts_the_triangle_free_classes():
    # at s = 1 every graph is a witness, so dedup keeps one graph per class on each n (OEIS A006785)
    r = min_independence_prob(1, 3, 7, dedup_iso=True)
    counts = [sum(from_graph6(g).n == n for g in r.witnesses) for n in range(1, 8)]
    assert counts == [1, 2, 3, 7, 14, 38, 107]


def test_dedup_iso_runs_past_ten_vertices():
    # t = 2 leaves one edgeless graph per n, each its own class
    r = min_independence_prob(1, 2, 11, dedup_iso=True, budget=11)
    assert len(r.witnesses) == 11


@pytest.mark.parametrize("n_max", [0, -1])
def test_min_independence_needs_a_vertex(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        min_independence_prob(2, 3, n_max)


def test_min_independence_counts_past_one_byte():
    # t = 2 leaves only the edgeless graphs, whose subset counts reach C(11,5) = 462
    r = min_independence_prob(8, 2, 12, budget=12)
    assert (r.min_prob, r.graphs_scanned) == (1, 12)


def test_min_respects_neighborhood_lower_bound():
    for s, t in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        r = min_independence_prob(s, t, 5)
        assert float(r.min_prob) >= n_recursion(s, t) - 1e-9


def test_full_sandwich_chain():
    # binomial <= recursion <= searched minimum <= Ramsey upper for valid a;
    # n_max = 5 covers the extremal graphs (K_{t-1} for a=2, C_5 for a=3)
    table = KnownRamseyTable.bundled()
    table.add(3, 4, 9, "Greenwood-Gleason")
    table.add(4, 4, 18, "Greenwood-Gleason")
    cases = [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]
    for s, t in cases:
        searched = min_independence_prob(s, t, 5).min_prob
        assert n_binomial_lower(s, t) <= n_recursion(s, t) * (1 + 1e-9)
        assert n_recursion(s, t) <= float(searched) + 1e-9
        assert ramsey_lower_half(s, t, table) <= searched
        for a in range(2, s):
            assert float(searched) <= ramsey_upper_half(s, t, a, table) * (1 + 1e-12)


def test_known_exact_value():
    assert known_exact_value(2, 5) == Fraction(1, 4)
    assert known_exact_value(3, 3) == Fraction(1, 4)
    assert known_exact_value(1, 9) == 1
    assert known_exact_value(7, 2) == 1
    assert known_exact_value(3, 4) is None
    # the restricted minima that hit a proven value are exact
    assert min_independence_prob(2, 4, 5).min_prob == known_exact_value(2, 4)


def test_turan_bound_is_the_two_draw_minimum():
    # P(2, G) = 1 - 2m/n^2, so Turan's bound 2m(t-1) <= (t-2)n^2 on every graph scanned is
    # min_prob >= 1/(t-1), with equality once K_{t-1} fits, and the witnesses are its attainers
    for t in range(2, 6):
        for n_max in range(1, 7):
            r = min_independence_prob(2, t, n_max)
            assert r.min_prob >= known_exact_value(2, t), (t, n_max)
            assert (r.min_prob == known_exact_value(2, t)) == (n_max >= t - 1), (t, n_max)
    # balanced complete bipartite attainers: K_{1,1}, K_{2,2}, K_{3,3}
    r3 = min_independence_prob(2, 3, 6)
    assert to_graph6(complete(2)) in r3.witnesses
    k33 = from_graph6([g for g in r3.witnesses if from_graph6(g).n == 6][0])
    assert k33.edge_count == 9
    sixes = [from_graph6(g) for g in min_independence_prob(2, 4, 6).witnesses if from_graph6(g).n == 6]
    assert sixes and all(g.edge_count == 12 for g in sixes)  # K_{2,2,2}
    assert min_independence_prob(2, 2, 5).graphs_scanned == 5  # only edgeless graphs exist


def test_every_two_colouring_of_k6_has_a_monochromatic_triangle():
    # R(3,3) <= 6: each triangle-free graph on 6 vertices has a triangle in its complement;
    # the pentagon certificate of test_coloring gives R(3,3) > 5
    assert all(has_clique(complement(g), 3) for g in enumerate_ktfree(6, 3))
    # the n = 6 scan is not vacuous: the same test fails below 6 vertices
    assert any(not has_clique(complement(g), 3) for g in enumerate_ktfree(5, 3))
