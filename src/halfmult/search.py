"""Exhaustive small-instance search: clique-free enumeration, restricted
minima of the independence probability, Turan's edge bound, and the
exhaustive R(3,3) check.

Everything here is labeled enumeration, so reported minima are restricted
to the scanned vertex range; they equal the true infimum only where a
matching lower bound is known (s=2 via Turan, and (3,3)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetError
from .graphs import Graph, _clique_in, complement, from_edges, has_clique, to_graph6
from .prob import exact_independence_prob

ENUMERATION_BUDGET = 8


def enumerate_ktfree(n: int, t: int | None, *, budget: int = ENUMERATION_BUDGET) -> Iterator[Graph]:
    """Yield every labeled K_t-free graph on n vertices.

    t=None lifts the clique constraint (all 2^C(n,2) graphs). Enumeration
    walks the pair slots in lexicographic order, pruning any insertion that
    would complete a K_t, so the subtree of supersets is skipped wholesale.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > budget:
        raise BudgetError(f"labeled enumeration is limited to n <= {budget} (got n={n})")
    if t is not None and t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = [0] * n

    def rec(i: int) -> Iterator[Graph]:
        if i == len(pairs):
            yield Graph(n, tuple(adj))
            return
        u, v = pairs[i]
        yield from rec(i + 1)
        if t is None or _clique_in(adj, adj[u] & adj[v], t - 2) is None:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            yield from rec(i + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)

    return rec(0)


@dataclass(frozen=True)
class SearchResult:
    s: int
    t: int
    n_max: int
    min_prob: Fraction
    witnesses: tuple[str, ...]  # graph6, sorted
    graphs_scanned: int


def _canonical_form(g: Graph) -> tuple:
    """Lexicographically least adjacency encoding over all vertex relabelings."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        rows = []
        for v in range(g.n):
            row = 0
            src = g.adj[perm[v]]
            for u in range(g.n):
                if (src >> perm[u]) & 1:
                    row |= 1 << u
            rows.append(row)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def min_independence_prob(
    s: int, t: int, n_max: int, *, dedup_iso: bool = False, budget: int = ENUMERATION_BUDGET
) -> SearchResult:
    """Minimum exact independence probability over K_t-free graphs with
    1 <= n <= n_max; all attaining graphs are reported.

    Exact rational comparison throughout. With dedup_iso the witness list
    keeps one representative per isomorphism class.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    best: Fraction | None = None
    witnesses: list[Graph] = []
    scanned = 0
    for n in range(1, n_max + 1):
        for g in enumerate_ktfree(n, t, budget=budget):
            scanned += 1
            p = exact_independence_prob(g, s)
            if best is None or p < best:
                best = p
                witnesses = [g]
            elif p == best:
                witnesses.append(g)
    if dedup_iso:
        seen = set()
        kept = []
        for g in witnesses:
            key = (g.n, _canonical_form(g))
            if key not in seen:
                seen.add(key)
                kept.append(g)
        witnesses = kept
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
    extremal = []
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        for g in enumerate_ktfree(n, t, budget=budget):
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
