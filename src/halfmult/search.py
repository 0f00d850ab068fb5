"""Exhaustive small-instance search: clique-free enumeration and restricted
minima of the independence probability.

Everything here walks one tree of labeled graphs, grown one vertex at a
time: a K_t-free graph G on the vertices 0..n-1 has one child for each
neighbourhood S of a new vertex n such that G[S] has no K_{t-1}.
K_t-freeness is hereditary, so depth n of the tree holds each labeled
K_t-free graph on n vertices exactly once, and one pass covers every
n <= n_max. Each graph carries tables over its vertex masks m, updated
incrementally from its parent's: the clique number of G[m], which gives
the admissible S, and a list of shifted weighted sums of the independence
profile of G[m], all following one rule as I_k(G+v) = I_k(G) +
I_{k-1}(G - N[v]), from which each child's count of independent s-tuples
follows by one lookup. The walk runs in blocks of same-size graphs from
any parents, capped by the table entries a step creates, so its memory
stays at a few MB and its Python steps are few.

Reported minima are restricted to the scanned vertex range; they equal the
true infimum only where a matching lower bound is known: s=2, where
P(2, G) = 1 - 2m/n^2 makes Turan's theorem P(2, G) >= 1/(t-1), and (3,3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import BudgetError
from .graphs import Graph, _graph6_lines
from .prob import stirling2

ENUMERATION_BUDGET = 8


def _check_scope(n_max: int, t: int | None, budget: int) -> None:
    if n_max > budget:
        raise BudgetError(f"labeled enumeration is limited to n <= {budget} (got n={n_max})")
    if t is not None and t < 2:
        raise ValueError(f"t must be at least 2, got {t}")


# New table entries per step of the growth: 2^n for each child on n vertices
# that gets tables, one for each leaf. An entry takes a few bytes in each
# table, so a step holds about 1 MB, and the walk one pending block a level.
_BLOCK_ENTRIES = 1 << 15


def _grow(n_max: int, t: int | None, s: int = 0):
    """Walk the growth tree of labeled K_t-free graphs on up to n_max vertices.

    A graph is stored as its path: path[v] is the bitset of the neighbours
    of v below v. Yields (n, parents, picks, W): the graphs on n vertices
    whose paths are parents[picks[j] >> (n - 1)] followed by
    S = picks[j] & (2^(n-1) - 1), each graph yielded once, with W[j] the
    number of ordered s-tuples of its vertices that form an independent set
    (zero for s = 0); _paths gives the paths of the picks a caller keeps,
    _graphs their graphs and _lines their graph6 lines.
    t=None admits every neighbourhood.

    A block is a set of graphs on n vertices, from any parents: their paths,
    their W, and tables over their 2^n vertex masks m. omega[m] is the
    clique number of G[m], and the list sums holds, for j = 0, 1, ...,
        sums[j][m] = sum over k of k! S(s,k) I_{k-1-j}(G[m]),
    the independent s-tuples of G[m] plus j + 1 isolated new vertices that
    use all of them. So the child with neighbourhood S has
    W + sums[0][full ^ S], one lookup. On the masks m | 1 << n of that child,
    as I_k(G + v) = I_k(G) + I_{k-1}(G - N[v]),
        omega'[m | 1 << n]   = max(omega[m], 1 + omega[m & S])
        sums'[j][m | 1 << n] = sums[j][m] + sums[j+1][m & ~S]
    where a sums[j+1] past the list is zero. The root has min(s, n_max)
    tables (one for s = 0), and a child on n + 1 vertices keeps at most
    n_max - n - 1, the ones a later level reads.
    Each step takes the next children of the top block, as many as make at
    most _BLOCK_ENTRIES new table entries, and pushes them as one block. So
    Python runs once per step, not per graph or family, and the walk holds
    about one step's tables per level whatever n_max is.
    """
    if n_max < 1:
        return
    # Every entry of W and of sums counts some of the s-tuples of a graph on at most
    # n_max vertices, so it is at most n_max^s: they take the smallest signed integer
    # type that holds n_max^s, or Python ints past int64.
    exact = next((d for d in (np.int8, np.int16, np.int32, np.int64) if n_max**s <= np.iinfo(d).max), object)
    limit = n_max if t is None else t - 2
    # The root is the empty graph, on one mask with I_0 = 1 and clique number 0, so its
    # tables are the weights. A block is (paths, W, sums, omega, picks), with picks the
    # flat table positions row << n | S of the children still to take.
    sums = [np.array([[math.factorial(k) * stirling2(s, k)]], exact) for k in range(1, max(min(s, n_max), 1) + 1)]
    root = (np.zeros((1, 0), np.int64), np.zeros(1, exact), sums, np.zeros((1, 1), np.int8))
    stack = [(*root, np.zeros(1, np.intp))]
    while stack:
        paths, W, sums, omega, picks = stack.pop()
        n = paths.shape[1]
        grows = n + 1 < n_max  # the children get tables
        take = max(1, _BLOCK_ENTRIES >> (n + 1)) if grows else _BLOCK_ENTRIES
        if take < len(picks):
            stack.append((paths, W, sums, omega, picks[take:]))
            picks = picks[:take]
        full = (1 << n) - 1
        rows = picks >> n
        child_W = W[rows] + sums[0].ravel()[picks ^ full]
        yield n + 1, paths, picks, child_W
        if not grows:
            continue
        S = picks & full
        half = full + 1
        masks = np.arange(half)
        base = (picks - S)[:, None]  # row << n
        child_omega = np.empty((len(rows), 2 * half), np.int8)
        child_omega[:, :half] = omega[rows]
        np.maximum(child_omega[:, :half], omega.ravel()[base | (masks & S[:, None])] + 1, out=child_omega[:, half:])
        outside = base | (masks & (full ^ S)[:, None])
        child_sums = []
        for j in range(min(len(sums), n_max - n - 1)):
            table = np.empty((len(rows), 2 * half), exact)
            table[:, :half] = sums[j][rows]
            # a sum past the list is zero
            np.add(table[:, :half], sums[j + 1].ravel()[outside] if j + 1 < len(sums) else 0, out=table[:, half:])
            child_sums.append(table)
        child_paths = np.empty((len(rows), n + 1), np.int64)
        child_paths[:, :n] = paths[rows]
        child_paths[:, n] = S
        picks = np.flatnonzero(child_omega <= limit)
        stack.append((child_paths, child_W, child_sums, child_omega, picks))


def _paths(parents: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The paths of the graphs at the flat positions picks, row << k | S,
    into the paths parents of graphs on k vertices, as _grow yields them."""
    k = parents.shape[1]
    return np.column_stack([parents[picks >> k], picks & ((1 << k) - 1)])


def _graphs(paths: np.ndarray) -> list[Graph]:
    """The graphs of paths, one row of neighbour bitsets below each vertex a graph."""
    adj = paths.copy()
    n = paths.shape[1]
    for v in range(1, n):
        for u in range(v):
            adj[:, u] |= (paths[:, v] >> u & 1) << v
    return [Graph(n, tuple(row)) for row in adj.tolist()]


# Paths _lines encodes at once: at n = 8 the int64 gather of their 28 pair bits takes 7 MB.
_LINE_ROWS = 1 << 15


def _lines(paths: np.ndarray) -> list[str]:
    """The graph6 lines of the graphs of paths. A path is already in graph6
    order: bit u of path[v] is the pair (u, v), u < v."""
    n = paths.shape[1]
    v, u = np.tril_indices(n, -1)
    blocks = (paths[at : at + _LINE_ROWS] for at in range(0, len(paths), _LINE_ROWS))
    return [line for block in blocks for line in _graph6_lines(n, (block[:, v] >> u & 1).astype(np.uint8))]


def enumerate_ktfree(n: int, t: int | None, *, budget: int = ENUMERATION_BUDGET) -> Iterator[Graph]:
    """Yield every labeled K_t-free graph on n vertices.

    t=None lifts the clique constraint (all 2^C(n,2) graphs). The graphs
    are the depth-n nodes of the vertex-by-vertex growth tree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_scope(n, t, budget)
    return (g for depth, parents, picks, _ in _grow(n, t) if depth == n for g in _graphs(_paths(parents, picks)))


@dataclass(frozen=True)
class SearchResult:
    s: int
    t: int
    n_max: int
    min_prob: Fraction
    witnesses: tuple[str, ...]  # graph6, sorted
    graphs_scanned: int


def _canonical_form(paths: np.ndarray) -> np.ndarray:
    """The positions in paths, the paths of a set of graphs on one n that is
    closed under relabelling, of each isomorphism class's least member in
    pair-slot order; raises AssertionError if the set is not closed.

    The swaps of vertices i and i + 1 generate every relabelling, so the
    classes are the components of the graph that joins each member to its
    swap images. The members are sorted by pair string, each image is found
    by binary search, and each component's least sorted position spreads
    through it by pointer jumping.
    """
    m, n = paths.shape
    u, v = np.triu_indices(n, 1)  # the pairs in pair-slot order

    def keys(p):
        # the pair strings of the graphs relabelled by the involution p, packed eight pairs a
        # byte with the first pair highest, so that keys compare as the strings do, and with
        # zero bits past the pairs, so that no key is empty
        a, b = p[u], p[v]
        packed = np.zeros((m, len(u) // 8 + 1), np.uint8)
        packed[:, : (len(u) + 7) // 8] = np.packbits(paths[:, np.maximum(a, b)] >> np.minimum(a, b) & 1, axis=1)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()

    ranked = keys(np.arange(n))
    order = np.argsort(ranked)
    ranked = ranked[order]
    images = []
    for i in range(n - 1):
        image = keys(np.r_[:i, i + 1, i, i + 2 : n])[order]
        images.append(np.searchsorted(ranked, image))
        assert (ranked[np.minimum(images[-1], m - 1)] == image).all(), "the set is not closed under relabelling"
    least, step = None, np.arange(m)
    while not np.array_equal(least, step):
        least = step
        step = np.minimum.reduce([least[least], *(least[at] for at in images)])
    return order[least == np.arange(m)]


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
    least: dict[int, list] = {}  # n -> [least tuple count, blocks attaining it]
    scanned = 0
    for n, parents, picks, W in _grow(n_max, t, s):
        scanned += len(W)
        low = W.min()
        entry = least.setdefault(n, [low, []])
        if low < entry[0]:
            entry[:] = [low, []]
        if low == entry[0]:
            entry[1].append((parents, picks[W == low]))
    probs = {n: Fraction(int(low), n**s) for n, (low, _) in least.items()}
    best = min(probs.values(), default=None)
    witnesses = [np.concatenate([_paths(*b) for b in blocks]) for n, (_, blocks) in least.items() if probs[n] == best]
    if dedup_iso:
        # each n's witnesses are closed under relabelling: a labelled graph's relabellings
        # are K_t-free and have its tuple count too
        witnesses = [paths[_canonical_form(paths)] for paths in witnesses]
    return SearchResult(
        s=s,
        t=t,
        n_max=n_max,
        min_prob=best,
        witnesses=tuple(sorted(line for paths in witnesses for line in _lines(paths))),
        graphs_scanned=scanned,
    )


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
