"""Exhaustive small-instance search: clique-free enumeration, restricted
minima of the independence probability, Turan's edge bound, and the
exhaustive R(3,3) check.

Everything here walks one tree of labeled graphs, grown one vertex at a
time: a K_t-free graph G on the vertices 0..n-1 has one child for each
neighbourhood S of a new vertex n such that G[S] has no K_{t-1}.
K_t-freeness is hereditary, so depth n of the tree holds each labeled
K_t-free graph on n vertices exactly once, and one pass covers every
n <= n_max. Each graph carries two tables over its vertex masks m, updated
incrementally from its parent's: the clique number of G[m], which gives
the admissible S, and the independence profile of G[m], from which each
child's count of independent draws follows by one lookup, as
I_k(G+v) = I_k(G) + I_{k-1}(G - N[v]).

Reported minima are restricted to the scanned vertex range; they equal the
true infimum only where a matching lower bound is known (s=2 via Turan,
and (3,3)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import BudgetError
from .graphs import Graph, complement, dense_adjacency, from_edges, has_clique, to_graph6
from .prob import stirling2

ENUMERATION_BUDGET = 8
# isomorphism keys gather over a table of all n! relabelings: 1.3 GB of indices at n = 10
ISOMORPHISM_KEY_LIMIT = 10


def _check_scope(n_max: int, t: int | None, budget: int) -> None:
    if n_max > budget:
        raise BudgetError(f"labeled enumeration is limited to n <= {budget} (got n={n_max})")
    if t is not None and t < 2:
        raise ValueError(f"t must be at least 2, got {t}")


def _grow(n_max: int, t: int | None, s: int = 0):
    """Walk the growth tree of labeled K_t-free graphs on up to n_max vertices.

    A graph is stored as its path: path[v] is the bitset of the neighbours
    of v below v. Yields blocks (n, prefix, tails, W): the graphs
    prefix + tuple(tails[j]) on n vertices, each yielded once, with W[j]
    the number of ordered s-tuples of their vertices that form an
    independent set (zero for s = 0). t=None admits every neighbourhood.

    A family is a set of graphs on n vertices sharing a prefix, one row per
    graph: its tail, its W, and its tables over the 2^n vertex masks m,
    prof (I_0..I_{cols-1} of G[m]) and omega (the clique number of G[m]).
    The children of a whole family are computed at once, so Python runs
    once per family, that is once per graph on at most n_max - 2 vertices.
    """
    if n_max < 1:
        return
    # A child's W needs I_{k-1} for k <= min(s, n_max). W <= n_max^s, which
    # decides whether int64 holds it. Tables exist for graphs on at most
    # n_max - 1 vertices, whose counts are binomial coefficients at most.
    cols = min(s, n_max)
    weights = np.array(
        [math.factorial(k) * stirling2(s, k) for k in range(1, cols + 1)],
        dtype=np.int64 if n_max**s < 2**63 else object,
    )
    limit = n_max if t is None else t - 2
    count_type = np.min_scalar_type(math.comb(n_max - 1, (n_max - 1) // 2))
    prof = np.zeros((1, 1, cols), dtype=count_type)  # the empty graph: I_0 = 1
    prof[..., :1] = 1
    stack = [((), np.zeros((1, 0), np.int64), np.zeros(1, weights.dtype), prof, np.zeros((1, 1), np.int8))]
    while stack:
        prefix, tails, W, prof, omega = stack.pop()
        n = len(prefix) + tails.shape[1]
        full = (1 << n) - 1
        rows, S = np.nonzero(omega <= limit)
        W_child = W[rows] + (prof @ weights)[rows, full ^ S]
        yield n + 1, prefix, np.column_stack([tails[rows], S]), W_child
        if n + 1 == n_max:
            continue
        # The child G+v with neighbourhood S, on the masks m | 1 << n:
        #   prof'[m | 1 << n] = prof[m] + x * prof[m & ~S]
        #   omega'[m | 1 << n] = max(omega[m], 1 + omega[m & S])
        masks = np.arange(full + 1)
        old_prof, old_omega = prof[rows], omega[rows]
        new_prof = old_prof.copy()
        new_prof[..., 1:] += prof[rows[:, None], masks & (full ^ S)[:, None], :-1]
        new_omega = np.maximum(old_omega, omega[rows[:, None], masks & S[:, None]] + 1)
        child_prof = np.concatenate([old_prof, new_prof], axis=1)
        child_omega = np.concatenate([old_omega, new_omega], axis=1)
        ends = np.cumsum(np.bincount(rows, minlength=len(tails))).tolist()
        for tail, lo, hi in zip(tails.tolist(), [0, *ends], ends):
            stack.append(
                (prefix + tuple(tail), S[lo:hi, None], W_child[lo:hi], child_prof[lo:hi], child_omega[lo:hi])
            )


def _graphs(prefix: tuple[int, ...], tails: np.ndarray) -> list[Graph]:
    """The graphs with the paths prefix + tuple(tails[j]), as _grow yields them."""
    paths = np.hstack([np.tile(np.array(prefix, dtype=np.int64), (len(tails), 1)), tails])
    adj = paths.copy()
    n = paths.shape[1]
    for v in range(1, n):
        for u in range(v):
            adj[:, u] |= (paths[:, v] >> u & 1) << v
    return [Graph(n, tuple(row)) for row in adj.tolist()]


def enumerate_ktfree(n: int, t: int | None, *, budget: int = ENUMERATION_BUDGET) -> Iterator[Graph]:
    """Yield every labeled K_t-free graph on n vertices.

    t=None lifts the clique constraint (all 2^C(n,2) graphs). The graphs
    are the depth-n nodes of the vertex-by-vertex growth tree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_scope(n, t, budget)
    return (g for depth, prefix, tails, _ in _grow(n, t) if depth == n for g in _graphs(prefix, tails))


@dataclass(frozen=True)
class SearchResult:
    s: int
    t: int
    n_max: int
    min_prob: Fraction
    witnesses: tuple[str, ...]  # graph6, sorted
    graphs_scanned: int


@functools.cache
def _relabeled_pairs(n: int) -> np.ndarray:
    """Row k holds p[u] * n + p[v] over the pairs u < v in pair-slot order,
    for the k-th relabeling p of n vertices: the flat indices of a dense
    adjacency matrix that read the relabeled graph's pair bits."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    u, v = np.triu_indices(n, 1)
    return perms[:, u] * n + perms[:, v]


def _canonical_form(g: Graph) -> bytes:
    """The least pair-bit string over all vertex relabelings, packed eight
    pairs a byte with the first pair highest, so that bytes compare as the
    bit strings do. Graphs on the same number of vertices are isomorphic iff
    their forms are equal."""
    rows = np.packbits(dense_adjacency(g).ravel()[_relabeled_pairs(g.n)], axis=1)
    # lexsort's last key is its primary one; the row number, its first, only breaks ties and
    # keeps the key list nonempty when g has no pairs
    return rows[np.lexsort([np.arange(len(rows)), *rows.T[::-1]])[0]].tobytes()


def _slot_key(g: Graph) -> tuple:
    """Order of the pair-slot enumeration: n, then the edge bits of
    (0,1), (0,2), ..., (n-2,n-1), absent before present."""
    return g.n, np.packbits(dense_adjacency(g)[~np.tri(g.n, dtype=bool)]).tobytes()


def min_independence_prob(
    s: int, t: int, n_max: int, *, dedup_iso: bool = False, budget: int = ENUMERATION_BUDGET
) -> SearchResult:
    """Minimum exact independence probability over K_t-free graphs with
    1 <= n <= n_max; all attaining graphs are reported.

    Within each n the probabilities share the denominator n^s, so graphs
    are compared by their exact integer tuple counts, and one Fraction per
    n compares the vertex counts. With dedup_iso the witness list keeps one
    representative per isomorphism class: the least in pair-slot order.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    _check_scope(n_max, t, budget)
    if dedup_iso and n_max > ISOMORPHISM_KEY_LIMIT:
        raise BudgetError(
            f"isomorphism keys are limited to n <= {ISOMORPHISM_KEY_LIMIT}; "
            f"n={n_max} would need all {math.factorial(n_max)} relabelings"
        )
    least: dict[int, list] = {}  # n -> [least tuple count, blocks attaining it]
    scanned = 0
    for n, prefix, tails, W in _grow(n_max, t, s):
        scanned += len(W)
        low = W.min()
        entry = least.setdefault(n, [low, []])
        if low < entry[0]:
            entry[:] = [low, []]
        if low == entry[0]:
            entry[1].append((prefix, tails[W == low]))
    probs = {n: Fraction(int(low), n**s) for n, (low, _) in least.items()}
    best = min(probs.values(), default=None)
    witnesses = [
        g
        for n, (_, blocks) in least.items()
        if probs[n] == best
        for prefix, tails in blocks
        for g in _graphs(prefix, tails)
    ]
    if dedup_iso:
        firsts = {}
        for g in sorted(witnesses, key=_slot_key):
            firsts.setdefault((g.n, _canonical_form(g)), g)
        witnesses = list(firsts.values())
    return SearchResult(
        s=s,
        t=t,
        n_max=n_max,
        min_prob=best,
        witnesses=tuple(sorted(to_graph6(g) for g in witnesses)),
        graphs_scanned=scanned,
    )


@dataclass(frozen=True)
class TuranReport:
    t: int
    n_max: int
    all_pass: bool
    graphs_checked: int
    extremal: tuple[str, ...]  # graph6 of equality attainers, sorted
    failures: tuple[str, ...]  # graph6 of violators (empty when the theorem holds)


def turan_check(n_max: int, t: int, *, budget: int = ENUMERATION_BUDGET) -> TuranReport:
    """Verify 2m(t-1) <= (t-2)n^2 for every K_t-free graph up to n_max
    vertices, and report the graphs attaining equality."""
    _check_scope(n_max, t, budget)
    extremal = []
    failures = []
    checked = 0
    for n, prefix, tails, _ in _grow(n_max, t):
        for g in _graphs(prefix, tails):
            checked += 1
            lhs = 2 * g.edge_count * (t - 1)
            rhs = (t - 2) * n * n
            if lhs > rhs:
                failures.append(to_graph6(g))
            elif lhs == rhs and g.edge_count > 0:
                extremal.append(to_graph6(g))
    return TuranReport(
        t=t,
        n_max=n_max,
        all_pass=not failures,
        graphs_checked=checked,
        extremal=tuple(sorted(extremal)),
        failures=tuple(sorted(failures)),
    )


def pentagon_coloring(n: int = 5) -> list[list[tuple[int, int]]]:
    """The classic R(3,3) witness restricted to n <= 5 vertices: color 1 is
    the 5-cycle, color 2 its chords."""
    if not 1 <= n <= 5:
        raise ValueError("the pentagon coloring has at most 5 vertices")
    cyc = {frozenset(((i, (i + 1) % 5))) for i in range(5)}
    color1, color2 = [], []
    for u in range(n):
        for v in range(u + 1, n):
            (color1 if frozenset((u, v)) in cyc else color2).append((u, v))
    return [color1, color2]


def known_exact_value(s: int, t: int) -> Fraction | None:
    """The proven value of the infimum, where one is known.

    Covers the degenerate bases (s=1, t=2), the two-draw case 1/(t-1)
    backed by Turan's theorem, and (3,3) = 1/4. A restricted search that
    hits one of these values is exact, not just an upper bound.
    """
    if s == 1 or t == 2:
        return Fraction(1)
    if s == 2:
        return Fraction(1, t - 1)
    if (s, t) == (3, 3):
        return Fraction(1, 4)
    return None


def verify_r33(n: int) -> bool:
    """Computational evidence for R(3,3) = 6 at a given n.

    n <= 5: exhibits the pentagon 2-coloring (restricted to n vertices) and
    checks both classes are triangle-free. n = 6: scans every triangle-free
    graph on 6 vertices and confirms its complement has a triangle, which
    is the statement that each edge 2-coloring of K_6 has a monochromatic
    triangle. Returns True when the expected behavior is confirmed.
    """
    if n > 6:
        raise ValueError("verify_r33 covers n <= 6 only")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 5:
        return not any(has_clique(from_edges(n, edges), 3) for edges in pentagon_coloring(n))
    return all(has_clique(complement(g), 3) for g in enumerate_ktfree(6, 3))
