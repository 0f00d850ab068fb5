"""Shared independent oracles, helpers and inputs for the test suite.

These deliberately avoid the library's computation paths: the tuple oracle
iterates all n^s ordered draws, and the subset oracle scans combinations.
The bit, span and colour helpers and the isotropic subspace enumeration
have no caller in the library, only in the tests.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from halfmult.coloring import ColoringCertificate, pair_index
from halfmult.errors import BudgetError
from halfmult.f2 import _swap_pairs
from halfmult.graphs import Graph
from halfmult.rng import make_rng


@functools.cache
def _tuple_vertex_sets(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex sets, as bitmasks, of the n^s ordered s-tuples of n vertices,
    each with the number of tuples on it, by listing every tuple."""
    covered = np.zeros(1, np.int64)
    for _ in range(s):
        covered = (covered[:, None] | 1 << np.arange(n, dtype=np.int64)).ravel()
    return np.unique(covered, return_counts=True)


def oracle_independence_prob(g: Graph, s: int) -> Fraction:
    """Exact probability by scanning every ordered s-tuple of vertices.

    A tuple is independent when no pair of its vertices is an edge, so the
    tuples are grouped once per (n, s) by their vertex sets, at most 2^n of
    them, and a graph sums the counts of the sets that hold none of its edges.
    """
    n = g.n
    if n**s > 2_000_000:
        raise ValueError("oracle too slow for this size")
    sets, counts = _tuple_vertex_sets(n, s)
    rows = np.array(g.adj, np.int64)
    met = (sets[:, None] >> np.arange(n) & 1).astype(bool) & (sets[:, None] & rows != 0)
    return Fraction(int(counts[~met.any(axis=1)].sum()), n**s)


def oracle_stirling2_rows(s_max: int) -> list[list[int]]:
    """Rows 0..s_max of the Stirling numbers of the second kind, row s
    holding S(s,0..s), by the recurrence S(s,k) = k S(s-1,k) + S(s-1,k-1)."""
    rows = [[1]]
    for s in range(1, s_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, s + 1)])
    return rows


def oracle_mc_hits(g: Graph, s: int, trials: int, seed: int) -> int:
    """Monte Carlo trials holding an adjacent pair, by testing all s(s-1)/2
    pairs of every trial against a dense matrix, in one unchunked draw."""
    samples = make_rng(seed).integers(0, g.n, size=(trials, s))
    dense = np.array([[g.has_edge(v, u) for u in range(g.n)] for v in range(g.n)], dtype=bool)
    bad = np.zeros(trials, dtype=bool)
    for i in range(s):
        for j in range(i + 1, s):
            bad |= dense[samples[:, i], samples[:, j]]
    return int(bad.sum())


def oracle_max_clique(g: Graph) -> int:
    """Max clique by scanning all vertex subsets, largest first."""
    for k in range(g.n, 1, -1):
        for combo in itertools.combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return k
    return 1 if g.n else 0


def oracle_independent_subset_counts(g: Graph, kmax: int) -> list[int]:
    """Independent k-subset counts by scanning all combinations."""
    counts = [0] * (kmax + 1)
    counts[0] = 1
    for k in range(1, kmax + 1):
        for combo in itertools.combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                counts[k] += 1
    return counts


def oracle_count_cliques_by_size(adj: tuple[int, ...], n: int, kmax: int) -> list[int]:
    """counts[k] = number of k-cliques for k = 0..kmax, by the per-set kernel:
    every clique of size below kmax is its own row of ceil(n/64) words holding
    its candidates, the vertices above its last vertex adjacent to all of it,
    with no two rows merged. Rows run depth-first in blocks of about 2^15
    children."""
    counts = [1] + [0] * kmax
    if kmax == 0 or n == 0:
        return counts
    w = (n + 63) // 64

    def words(rows):
        data = b"".join(row.to_bytes(8 * w, "little") for row in rows)
        return np.frombuffer(data, dtype="<u8").reshape(len(rows), w)

    def popcounts(rows):
        return np.unpackbits(rows.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)

    above = words([row >> (v + 1) << (v + 1) for v, row in enumerate(adj)])
    pending = [(0, words([(1 << n) - 1]), np.array([n]))]  # (level, rows, their popcounts), all rows non-empty
    while pending:
        level, rows, sizes = pending.pop()
        take = max(1, int(np.searchsorted(np.cumsum(sizes), 1 << 15, side="right")))
        if take < len(rows):
            pending.append((level, rows[take:], sizes[take:]))
        bits = np.unpackbits(rows[:take].view(np.uint8), axis=1, count=n, bitorder="little")
        parent, v = np.divmod(np.flatnonzero(bits.view(bool)), n)
        counts[level + 1] += len(v)
        if level + 1 == kmax:
            continue
        children = rows[parent] & above[v]
        sizes = popcounts(children)
        if level + 2 == kmax:
            counts[kmax] += int(sizes.sum())
            continue
        keep = sizes > 0
        if keep.any():
            pending.append((level + 1, children[keep], sizes[keep]))
    return counts


def oracle_ktfree_graphs(n: int, t: int | None) -> list[Graph]:
    """Labeled K_t-free graphs on n vertices, in pair-slot order.

    The slots (0,1), (0,2), ..., (n-2,n-1) are decided in turn, edge absent
    before edge present; an edge is refused when some (t-2)-subset of its
    endpoints' common neighbours is a clique. t=None refuses nothing.
    """
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n
    out = []

    def closes_clique(u: int, v: int) -> bool:
        if t is None:
            return False
        common = [w for w in range(n) if (adj[u] >> w) & (adj[v] >> w) & 1]
        return any(
            all((adj[a] >> b) & 1 for a, b in itertools.combinations(group, 2))
            for group in itertools.combinations(common, t - 2)
        )

    def rec(i: int) -> None:
        if i == len(pairs):
            out.append(Graph(n, tuple(adj)))
            return
        u, v = pairs[i]
        rec(i + 1)
        if not closes_clique(u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rec(i + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)

    rec(0)
    return out


def oracle_isomorphism_key(g: Graph) -> tuple:
    """The least sorted edge list over all relabelings of g."""
    edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if g.has_edge(u, v)]
    return g.n, min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in itertools.permutations(range(g.n))
    )


def oracle_canonical_form(g: Graph) -> tuple:
    """The least tuple of bitset rows over all relabelings, by moving every
    adjacency bit of every relabeling in turn."""
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


def _oracle_g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def oracle_to_graph6(g: Graph) -> str:
    """graph6 of g, one pair bit and one six-bit group at a time."""
    bits = []
    for v in range(1, g.n):
        row = g.adj[v]
        for u in range(v):
            bits.append((row >> u) & 1)
    data = bytearray(_oracle_g6_size_bytes(g.n))
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        data.append(val + 63)
    return data.decode("ascii")


def oracle_from_graph6(text: str) -> Graph:
    """Decode a graph6 line one pair bit at a time, raising ValueError with
    the messages the library uses."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    raw = s.encode("ascii")
    if raw[0] == 126:
        if len(raw) < 4:
            raise ValueError("truncated graph6 size field")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if n < 0:
        raise ValueError("invalid graph6 size field")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for byte in body:
        val = byte - 63
        if not 0 <= val < 64:
            raise ValueError("graph6 byte out of range")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(n, tuple(adj))


def oracle_color_class(cert, c: int) -> Graph:
    """The graph of color c, by walking the pairs of the certificate in order."""
    adj = [0] * cert.n
    i = 0
    for u in range(cert.n):
        for v in range(u + 1, cert.n):
            if cert.colors[i] == c:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(cert.n, tuple(adj))


def oracle_has_clique(g: Graph, k: int) -> bool:
    """Whether g has a k-clique, by growing every clique in increasing vertex
    order without any bound."""

    def grow(size: int, last: int, common: int) -> bool:
        if size == k:
            return True
        return any((common >> v) & 1 and grow(size + 1, v, common & g.adj[v]) for v in range(last + 1, g.n))

    return grow(0, -1, (1 << g.n) - 1)


def oracle_by_degree(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """The descending-degree relabelling, by moving every edge bit in turn."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    perm = {v: i for i, v in enumerate(order)}
    adj = tuple(sum(1 << perm[u] for u in range(g.n) if (g.adj[v] >> u) & 1) for v in order)
    return order, adj


def oracle_first_clique(g: Graph, t: int | None = None) -> tuple[int, ...] | None:
    """find_clique's witness by the plain colour-bound branch and bound, with
    no twin skipping: over the descending-degree relabelling, the first
    t-clique the search meets, or with t None the largest clique it ends on."""
    order, adj = oracle_by_degree(g)
    best: list = [0 if t is None else t - 1, None]

    def expand(cand: int, current: list[int]) -> None:
        if len(current) + cand.bit_count() <= best[0]:
            return
        vertices, colors = [], []
        rest, color = cand, 0
        while rest:  # greedy colour classes, each in ascending vertex order
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
                vertices.append(v)
                colors.append(color)
        for v, color in reversed(list(zip(vertices, colors))):
            if (t is not None and best[0] >= t) or len(current) + color <= best[0]:
                return
            current.append(v)
            if cand & adj[v]:
                expand(cand & adj[v], current)
            elif len(current) > best[0]:
                best[:] = [len(current), tuple(sorted(current))]
            current.pop()
            cand &= ~(1 << v)

    if t is not None and t <= 1:
        return (0,) if t == 1 and g.n else None
    expand((1 << g.n) - 1, [])
    if best[1] is None:
        return () if t is None else None
    return tuple(sorted(order[i] for i in best[1]))[: t or None]


def pack_bits(bits) -> int:
    """(b0, b1, ...) -> int with bit i = b_i (LSB = coordinate 0)."""
    value = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        value |= b << i
    return value


def unpack_bits(value: int, dim: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(dim))


def f2_span(basis) -> list[int]:
    """All 2^k combinations of the basis vectors, sorted."""
    span = [0]
    for b in basis:
        span += [x ^ b for x in span]
    return sorted(set(span))


ENUMERATION_T_BUDGET = 10


def enumerate_isotropic_subspaces(t: int, k: int, *, budget: int = ENUMERATION_T_BUDGET) -> list[tuple[int, ...]]:
    """Every k-dimensional isotropic subspace of F2^(t-2), as canonical basis
    tuples: the exhaustive oracle for count_isotropic_subspaces.

    The canonical basis of a subspace V is g_1 < g_2 < ... with
    g_i = min(V minus span of earlier g's); equivalently each g_i has zeros
    in all earlier pivot positions. Output is sorted by basis encoding, so
    the order is reproducible.
    """
    if t % 2 or t < 2:
        raise ValueError(f"t must be even and >= 2, got {t}")
    if not 0 <= k <= t // 2 - 1:
        raise ValueError(
            f"no isotropic subspace of dimension {k} in F2^{t - 2}; need 0 <= k <= {t // 2 - 1}"
        )
    if t > budget:
        raise BudgetError(f"exhaustive subspace enumeration is limited to t <= {budget} (got t={t})")
    dim = t - 2
    size = 1 << dim
    results: list[tuple[int, ...]] = []

    def rec(basis: list[int], swapped: list[int], pivots: int, start: int) -> None:
        if len(basis) == k:
            results.append(tuple(basis))
            return
        for w in range(start, size):
            if w & pivots:
                continue  # not the minimum of its coset
            if any((sw & w).bit_count() & 1 for sw in swapped):
                continue  # not orthogonal to the current span
            basis.append(w)
            swapped.append(_swap_pairs(w, dim))
            rec(basis, swapped, pivots | (1 << (w.bit_length() - 1)), w + 1)
            swapped.pop()
            basis.pop()

    rec([], [], 0, 1)
    return results


def pentagon_certificate(n: int) -> ColoringCertificate:
    """The 2-colouring of K_n, n <= 5, that the pentagon gives: colour 1 where
    (v - u) mod 5 is 1 or 4, the pentagon's sides, and colour 2 on its chords."""
    colors = tuple(1 if (v - u) % 5 in (1, 4) else 2 for u in range(n) for v in range(u + 1, n))
    return ColoringCertificate(n, 2, 3, colors, "none", 0, 0)


def color_of(cert, u: int, v: int) -> int:
    """The colour of the pair {u, v} in a certificate."""
    if u > v:
        u, v = v, u
    return cert.colors[pair_index(u, v, cert.n)]


def oracle_n_recursion(s_max: int, t_max: int, tol: float = 1e-12) -> dict:
    """{(s, t): (x*, N(s,t))} for 1 <= s <= s_max and 2 <= t <= t_max, by the
    top-down recursion with a memo local to the call; x* is None at the base
    cases s = 1 or t = 2, where N is 1."""
    memo: dict = {}

    def crossing(s: int, t: int) -> tuple[float | None, float]:
        if s == 1 or t == 2:
            return None, 1.0
        if (s, t) not in memo:
            a = crossing(s, t - 1)[1]
            b = crossing(s - 1, t)[1]
            lo, hi = 0.0, 1.0
            x = f = g = 0.0
            for _ in range(200):
                x = 0.5 * (lo + hi)
                if x == lo or x == hi:
                    break
                f = x**s * a
                g = (1.0 - x) ** (s - 1) * b
                if abs(f - g) <= tol * max(f, g):
                    break
                if f < g:
                    lo = x
                else:
                    hi = x
            memo[s, t] = (x, 0.5 * (f + g))
        return memo[s, t]

    return {(s, t): crossing(s, t) for s in range(1, s_max + 1) for t in range(2, t_max + 1)}


_TRIANGLE_HEADER = "halfmult-certificate v1\nn: 3\nell: 2\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
# a valid certificate with one header line given twice; a later line used
# to override the earlier one, so each text below parsed as another
# certificate (the first verified as invalid, the second as valid)
REPEATED_FIELDS = {
    "colors": _TRIANGLE_HEADER + "colors: 1,2,1\ncolors: 2,2,2\n",
    "n": _TRIANGLE_HEADER.replace("n: 3", "n: 5") + "colors: 1,2,1\nn: 3\n",
}
