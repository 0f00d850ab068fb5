import math
import random
from fractions import Fraction

import numpy as np
import pytest

from halfmult.errors import BudgetError
from halfmult.f2 import SymplecticSpace, build_cf_graph
from halfmult.graphs import Graph, complete, cycle, edgeless, from_edges, sample_er_graph
from halfmult.prob import exact_independence_prob, mc_independence_prob, stirling2
from halfmult.rng import make_rng

from conftest import oracle_independence_prob, oracle_mc_hits, oracle_stirling2_rows


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    for s in range(1, 12):
        assert stirling2(s, s) == 1
        assert stirling2(s, 1) == 1
    assert stirling2(3, 5) == 0
    assert stirling2(0, 0) == 1
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling_row_sums_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for s, b in enumerate(bell):
        assert sum(stirling2(s, k) for k in range(s + 1)) == b


def test_stirling_matches_the_recurrence():
    for s, row in enumerate(oracle_stirling2_rows(60)):
        assert [stirling2(s, k) for k in range(s + 3)] == row + [0, 0], s


def test_exact_prob_paper_values():
    assert exact_independence_prob(complete(2), 3) == Fraction(1, 4)
    assert exact_independence_prob(complete(3), 2) == Fraction(1, 3)
    assert exact_independence_prob(cycle(5), 3) == Fraction(7, 25)
    for s in range(1, 5):
        assert exact_independence_prob(edgeless(6), s) == 1


def test_exact_prob_rejects_bad_input():
    with pytest.raises(ValueError):
        exact_independence_prob(complete(3), 0)
    with pytest.raises(BudgetError):
        exact_independence_prob(edgeless(65), 2)


def test_exact_prob_matches_tuple_oracle():
    rng = random.Random(314159)
    for _ in range(60):
        n = rng.randint(1, 8)
        s = rng.randint(1, 5)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        assert exact_independence_prob(g, s) == oracle_independence_prob(g, s)


def test_exact_prob_matches_subset_identity_up_to_n20():
    # independent route: count independent k-subsets by direct combination
    # scan, then reassemble the with-replacement probability
    import itertools
    import math

    from halfmult.prob import stirling2

    for n, seed in [(12, 0), (16, 1), (20, 2)]:
        g = sample_er_graph(n, 0.5, seed)
        s = 4
        total = 0
        for k in range(1, s + 1):
            count = sum(
                1
                for combo in itertools.combinations(range(n), k)
                if all(not g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
            )
            total += count * math.factorial(k) * stirling2(s, k)
        assert exact_independence_prob(g, s) == Fraction(total, n**s)


def test_exact_prob_monotone_in_edges():
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(2, 10)
        s = rng.randint(1, 5)
        g = sample_er_graph(n, 0.4, rng.getrandbits(32))
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if g.has_edge(a, b)]
        g2 = from_edges(n, edges + [(u, v)])
        assert exact_independence_prob(g2, s) <= exact_independence_prob(g, s)


def test_exact_prob_monotone_in_s():
    rng = random.Random(1618)
    for _ in range(20):
        n = rng.randint(1, 10)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        values = [exact_independence_prob(g, s) for s in range(1, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_mc_edgeless_is_exactly_one():
    est = mc_independence_prob(edgeless(9), 4, 1000, 77)
    assert est.estimate == 1.0
    assert est.std_error == 0.0


def test_mc_deterministic_for_fixed_seed():
    a = mc_independence_prob(cycle(5), 3, 20_000, 42)
    b = mc_independence_prob(cycle(5), 3, 20_000, 42)
    assert a == b
    c = mc_independence_prob(cycle(5), 3, 20_000, 43)
    assert a.estimate != c.estimate or a.seed != c.seed


def test_mc_close_to_exact():
    exact = float(exact_independence_prob(complete(2), 3))
    est = mc_independence_prob(complete(2), 3, 1_000_000, 1)
    assert abs(est.estimate - exact) <= 4 * est.std_error
    exact5 = float(exact_independence_prob(cycle(5), 3))
    est5 = mc_independence_prob(cycle(5), 3, 1_000_000, 2)
    assert abs(est5.estimate - exact5) <= 4 * est5.std_error


def test_mc_calibration_sample():
    # fuller 200-run version runs in the acceptance suite
    exact = float(exact_independence_prob(cycle(5), 3))
    misses = 0
    for seed in range(40):
        est = mc_independence_prob(cycle(5), 3, 20_000, seed)
        if abs(est.estimate - exact) > 4 * est.std_error:
            misses += 1
    assert misses <= 1


def test_mc_chunking_keeps_the_draw_order():
    # three chunks of 65536 trials, the last one partial: the hits must be
    # those of one unchunked draw from the same seed
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)])
    trials, s, seed = 65536 * 2 + 37, 3, 2024
    samples = make_rng(seed).integers(0, g.n, size=(trials, s))
    bad = np.zeros(trials, dtype=bool)
    for i in range(s):
        for j in range(i + 1, s):
            bad |= [g.has_edge(u, v) for u, v in zip(samples[:, i].tolist(), samples[:, j].tolist())]
    est = mc_independence_prob(g, s, trials, seed)
    assert est.estimate == (trials - int(bad.sum())) / trials


def test_mc_validates_input():
    with pytest.raises(ValueError):
        mc_independence_prob(cycle(5), 0, 10, 0)
    with pytest.raises(ValueError):
        mc_independence_prob(cycle(5), 3, 0, 0)


def test_zero_vertex_graph_is_refused():
    empty = Graph(0, ())
    with pytest.raises(ValueError, match="graph has no vertices"):
        exact_independence_prob(empty, 2)
    with pytest.raises(ValueError, match="graph has no vertices"):
        mc_independence_prob(empty, 2, 10, 0)


_MC_GRAPHS = {
    **{f"edgeless{n}": edgeless(n) for n in (1, 2, 9, 65)},
    **{f"complete{n}": complete(n) for n in (1, 2, 9, 65)},
    "cycle5": cycle(5),
    "cf8": build_cf_graph(8),
    **{f"er{n}-{p}": sample_er_graph(n, p, 100 + n) for n in (2, 9, 65) for p in (0.1, 0.5, 0.9)},
}


@pytest.mark.parametrize("name", sorted(_MC_GRAPHS))
@pytest.mark.parametrize("s", [1, 2, 3, 6, 8])
def test_mc_hits_match_all_pairs_oracle(name, s):
    g = _MC_GRAPHS[name]
    trials, seed = 3001, 7 * s + 11
    est = mc_independence_prob(g, s, trials, seed)
    assert est.estimate == (trials - oracle_mc_hits(g, s, trials, seed)) / trials


@pytest.mark.parametrize("name", ["cf8", "er65-0.1", "edgeless65"])
def test_mc_hits_match_oracle_across_chunks(name):
    # two full chunks of 65536 trials and a partial one
    g = _MC_GRAPHS[name]
    trials, s, seed = 2 * 65536 + 37, 6, 4242
    est = mc_independence_prob(g, s, trials, seed)
    hits = oracle_mc_hits(g, s, trials, seed)
    assert est.estimate == (trials - hits) / trials
    p_hat = (trials - hits) / trials
    assert est.std_error == math.sqrt(p_hat * (1.0 - p_hat) / trials)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_mc_on_complete9_keeps_only_repeated_draws(s):
    # in K_9 a trial is independent iff all its draws are one vertex
    trials, seed = 2 * 65536 + 37, 99 + s
    samples = make_rng(seed).integers(0, 9, size=(trials, s))
    survivors = int((samples == samples[:, :1]).all(axis=1).sum())
    est = mc_independence_prob(complete(9), s, trials, seed)
    assert est.estimate == survivors / trials
    assert trials - survivors == oracle_mc_hits(complete(9), s, trials, seed)


@pytest.mark.parametrize("t", [4, 6, 8, 10])
@pytest.mark.parametrize("s", [2, 3, 6, 8])
def test_mc_on_the_symplectic_space_equals_the_cf_graph(t, s):
    # the form and the packed rows answer the same pairs, across chunks
    trials, seed = 2 * 65536 + 37, 1000 * t + s
    est = mc_independence_prob(SymplecticSpace(t - 2), s, trials, seed)
    assert est == mc_independence_prob(build_cf_graph(t), s, trials, seed)


@pytest.mark.parametrize("n", [3, 48, 64, 256, 4096, 2**31 - 1])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_int32_draws_are_the_int64_stream(n, seed):
    # the Monte Carlo draws int32 indices; numpy fills int32 and int64 from
    # one 32-bit bounded sampler when n < 2^32, so the seeded stream is that
    # of int64 draws. Odd sizes and consecutive calls cover a half-used
    # 64-bit output carried from one call to the next.
    narrow, wide = make_rng(seed), make_rng(seed)
    for size in [(5, 3), 1001, (65536, 2), 7]:
        a = narrow.integers(0, n, size=size, dtype=np.int32)
        b = wide.integers(0, n, size=size)
        assert a.dtype == np.int32 and b.dtype == np.int64
        assert np.array_equal(a, b.astype(np.int32))
