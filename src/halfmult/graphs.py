"""Compact undirected graphs with int-bitset adjacency.

Vertices are 0..n-1; row v is a Python int whose bit u is set iff {u,v} is
an edge. This is the substrate for clique search, independence counting,
and graph6 interchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .rng import make_rng

EXACT_COUNT_BUDGET = 64
GRAPH_VERTEX_BUDGET = 1 << 14
_DRAW_CHUNK = 1 << 20  # uniform draws sample_er_graph holds: 8 MB, not 1 GB at the budget


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; adjacency as one bitmask per vertex."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def validate(self) -> None:
        """Check symmetry and absence of self-loops; raises ValueError."""
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if ((self.adj[u] >> v) & 1) != ((self.adj[v] >> u) & 1):
                    raise ValueError(f"asymmetric adjacency at ({u},{v})")


def from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def edgeless(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    """Edge iff non-edge in g; involution."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def pair_matrix(n: int, mask) -> np.ndarray:
    """The dense symmetric (n, n) bool adjacency matrix whose edges are the
    set entries of mask, a bool vector over the pairs (0,1), (0,2), ...,
    (n-2,n-1) in that order."""
    dense = np.zeros((n, n), dtype=bool)
    dense[~np.tri(n, dtype=bool)] = mask  # a bool index fills row-major: the pair order
    dense |= dense.T
    return dense


def from_pairs(n: int, mask) -> Graph:
    """The graph whose edges are the set entries of mask, as pair_matrix reads it."""
    return Graph(n, _rows_of(pair_matrix(n, mask)))


def sample_er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p), reproducible for fixed (n, p, seed).

    Stream discipline: exactly one uniform draw per unordered pair, in
    lexicographic order (0,1), (0,2), ..., (n-2,n-1); the pair is an edge
    iff its draw is < p. This makes samples independent of chunking,
    threading, and platform. Graphs past GRAPH_VERTEX_BUDGET vertices
    raise BudgetError before any draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > GRAPH_VERTEX_BUDGET:
        raise BudgetError(f"n = {n} exceeds the vertex budget {GRAPH_VERTEX_BUDGET}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    mask, rng = np.empty(n * (n - 1) // 2, bool), make_rng(seed)
    for chunk in np.split(mask, range(_DRAW_CHUNK, len(mask), _DRAW_CHUNK)):  # views of mask, in pair order
        np.less(rng.random(len(chunk)), p, out=chunk)
    return from_pairs(n, mask)


def packed_adjacency(g: Graph) -> np.ndarray:
    """Adjacency as an (n, ceil(n/8)) uint8 array: row v, byte u >> 3, bit u & 7."""
    width = (g.n + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in g.adj)
    return np.frombuffer(data, dtype=np.uint8).reshape(g.n, width)


def adjacent(packed: np.ndarray, u, v) -> np.ndarray:
    """Whether u and v are adjacent, read from packed_adjacency rows: bit
    v & 7 of byte packed[u, v >> 3]. u and v are vertex indices or index
    arrays that broadcast against each other."""
    return ((packed[u, v >> 3] >> np.asarray(v & 7, dtype=np.uint8)) & 1).astype(bool)


# Rows per tolist in _ints: a block of bytes objects, 2 MB at the vertex budget.
_INT_ROWS = 1 << 10


def _ints(packed: np.ndarray) -> tuple[int, ...]:
    """The bitset rows of a uint8 array in packed_adjacency's bit layout, of any width."""
    out: list[int] = []
    for start in range(0, len(packed), _INT_ROWS):
        block = np.ascontiguousarray(packed[start : start + _INT_ROWS])
        # one np.void item per row, which tolist gives as its bytes
        rows = block.view(np.dtype((np.void, block.shape[1]))).reshape(len(block))
        out += [int.from_bytes(row, "little") for row in rows.tolist()]
    return tuple(out)


def _rows_of(dense: np.ndarray) -> tuple[int, ...]:
    """The bitset rows of a 0/1 matrix: bit u of row v is dense[v, u]."""
    return _ints(np.packbits(dense, axis=1, bitorder="little"))


def f2_rank(rows, *, stop: int | None = None) -> int:
    """Rank over F2 of int bitset rows, by XOR elimination; with stop, the
    elimination ends as soon as the rank reaches stop."""
    pivots: dict[int, int] = {}  # leading bit -> the basis row that leads with it
    for v in rows:
        while v:
            top = v.bit_length() - 1
            b = pivots.get(top)
            if b is None:
                pivots[top] = v
                if len(pivots) == stop:
                    return stop
                break
            v ^= b
    return len(pivots)


# ---------------------------------------------------------------------------
# Clique search: branch and bound with greedy-coloring upper bounds.
# ---------------------------------------------------------------------------


def _color_sort(nonadj: tuple[int, ...], cand: int, kmin: int) -> tuple[list[int], list[int]]:
    """Greedy-colour the candidates; returns the vertices of colour at least
    kmin with their colours, in nondecreasing colour order. nonadj[v] is the
    complement of v's closed neighbourhood."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= nonadj[v]
            rest ^= low
            if color >= kmin:
                order.append(v)
                bounds.append(color)
    return order, bounds


def _complements(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The complement of each closed neighbourhood, as _color_sort reads them."""
    return tuple(~(row | 1 << v) for v, row in enumerate(adj))


def _expand(
    adj: tuple[int, ...], nonadj: tuple[int, ...], cand: int, current: list[int], best: list, stop_at: int
) -> None:
    if len(current) + cand.bit_count() <= best[0]:
        return  # cheaper than colouring, and never looser: colours <= candidates
    # a vertex of colour below best + 1 - len(current) cannot extend current past best
    order, bounds = _color_sort(nonadj, cand, best[0] + 1 - len(current))
    # A branch with the same candidates as an explored sibling is skipped:
    # each clique in it, with its branch vertex swapped for the sibling's, is
    # one of the same size in the sibling's subtree, which left none larger
    # than best. Twins, vertices with equal rows, meet this at every level.
    explored = set()
    for i in range(len(order) - 1, -1, -1):
        if best[0] >= stop_at:
            return
        if len(current) + bounds[i] <= best[0]:
            return
        v = order[i]
        sub = cand & adj[v]
        if sub in explored:
            cand &= ~(1 << v)
            continue
        explored.add(sub)
        current.append(v)
        if sub:
            _expand(adj, nonadj, sub, current, best, stop_at)
        elif len(current) > best[0]:
            best[0] = len(current)
            best[1] = tuple(sorted(current))
        current.pop()
        cand &= ~(1 << v)


# Rows relabelled per numpy step; a step holds two blocks of _RELABEL_ROWS * n
# bytes, so 32 MB at n = 2^14.
_RELABEL_ROWS = 1 << 10


def _by_degree(g: Graph) -> tuple[list[int], np.ndarray]:
    """Relabel in descending-degree order, so the clique search meets strong
    branches first; in the complement it is the ascending order that counting
    wants. Returns the old label of each new vertex and the relabelled rows:
    an (n, 8 ceil(n/64)) uint8 array in packed_adjacency's bit layout, each
    row zero-padded to whole uint64 words."""
    negated = [-row.bit_count() for row in g.adj]
    order = sorted(range(g.n), key=negated.__getitem__)  # stable: ties stay in vertex order
    perm = np.array(order, dtype=np.intp)
    packed = packed_adjacency(g)
    rows = np.zeros((g.n, 8 * ((g.n + 63) // 64)), dtype=np.uint8)
    for start in range(0, g.n, _RELABEL_ROWS):
        dense = np.unpackbits(packed[perm[start : start + _RELABEL_ROWS]], axis=1, count=g.n, bitorder="little")
        dense = np.take(dense, perm, axis=1)  # take: 5-10x faster than dense[:, perm]
        rows[start : start + len(dense), : packed.shape[1]] = np.packbits(dense, axis=1, bitorder="little")
    return order, rows


def _relabel(g: Graph | np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    """_by_degree's order and relabelled bitset rows, of a Graph or of a dense
    symmetric bool matrix. The matrix is permuted in one numpy pass: a stable
    argsort of minus the degrees gives _by_degree's tie order, so both inputs
    give the same rows."""
    if isinstance(g, Graph):
        order, rows = _by_degree(g)
        return order, _ints(rows)
    perm = np.argsort(-g.view(np.uint8).sum(axis=1, dtype=np.int32), kind="stable")
    rows = np.packbits(g.take(perm, axis=0).take(perm, axis=1), axis=1, bitorder="little")
    return perm.tolist(), _ints(rows)


def _search(order: list[int], adj: tuple[int, ...], floor: int, stop_at: int) -> tuple[int, ...] | None:
    """Branch and bound over _relabel's rows for a clique larger than floor,
    ending once a clique of stop_at vertices is found: the last best clique in
    the old labels, sorted and cut to stop_at, or None if none beats floor."""
    best: list = [floor, None]
    _expand(adj, _complements(adj), (1 << len(adj)) - 1, [], best, stop_at)
    return None if best[1] is None else tuple(sorted(order[i] for i in best[1]))[:stop_at]


def max_clique_size(g: Graph) -> int:
    """Clique number, by branch and bound with coloring bounds.

    A k-clique forces F2 rank and maximum degree at least k - 1, so the
    search ends at a clique of size min(rank, max degree) + 1, and the
    elimination stops at the max degree.
    """
    bound = f2_rank(g.adj, stop=max(map(int.bit_count, g.adj), default=0)) + 1
    return len(_search(*_relabel(g), 0, bound) or ())


def find_clique(g: Graph | np.ndarray, t: int) -> tuple[int, ...] | None:
    """A clique of size exactly t if one exists, else None. g is a Graph or a
    dense symmetric (n, n) bool adjacency matrix, as pair_matrix builds for
    a colour class; both give the same answer.

    A graph whose adjacency has F2 rank below t - 1 is answered None by one
    elimination; any other is searched. The returned witness comes from the
    search and is re-verified pairwise before being returned.
    """
    if t < 1:
        raise ValueError("clique size must be at least 1")
    if t == 1:
        return (0,) if (g.n if isinstance(g, Graph) else len(g)) >= 1 else None
    # A t-clique restricts the adjacency to J - I, whose F2 rank is at least
    # t - 1; no principal submatrix outranks the whole, so rank < t - 1 is a proof.
    # Relabelling does not change the rank: a Graph is ranked on its own rows,
    # so a proof costs no relabel, and a matrix on its relabelled ones.
    if isinstance(g, Graph):
        if f2_rank(g.adj, stop=t - 1) < t - 1:
            return None
        order, adj = _relabel(g)
        edge = g.has_edge
    else:
        order, adj = _relabel(g)
        if f2_rank(adj, stop=t - 1) < t - 1:
            return None
        edge = g.item
    witness = _search(order, adj, t - 1, t)
    if witness is None:
        return None
    for i in range(t):
        for j in range(i + 1, t):
            if not edge(witness[i], witness[j]):
                raise AssertionError("clique search produced an invalid witness")
    return witness


def has_clique(g: Graph, t: int) -> bool:
    """True iff g contains t pairwise-adjacent vertices."""
    return find_clique(g, t) is not None


# ---------------------------------------------------------------------------
# Independence counting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceProfile:
    """counts[k] = number of independent k-subsets, k = 0..s_max, exact."""

    counts: tuple[int, ...]

    @property
    def s_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, k: int) -> int:
        return self.counts[k]


# Children per step of the counting kernel. A step holds about 100 bytes per
# child for n <= 64, and a pending block per level, so a few MB in all.
_BLOCK_CHILDREN = 1 << 15

_M1, _M2, _M4, _H01 = (
    np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: folds a row's words into one sort key


def _popcounts(rows: np.ndarray) -> np.ndarray:
    """Set bits per row of a word-major (w, m) uint64 array: the SWAR word
    popcount, which needs no np.bitwise_count (numpy >= 2 only)."""
    x = rows - ((rows >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    x = ((x * _H01) >> np.uint64(56)).view(np.int64)
    counts = x[0]
    for word in x[1:]:  # a word loop, not sum(axis=0), which is slow over one word
        counts = counts + word
    return counts


def _merge_equal(rows: np.ndarray, mults: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a word-major (w, m) uint64 array, each with the
    summed multiplicity of its copies.

    Rows are sorted by their words folded into one uint64 key, which is the
    row itself when w = 1. Runs end wherever whole rows differ, so rows
    whose keys collide stay apart at worst: a lost merge, never a wrong count.
    """
    key = rows[0]
    for word in rows[1:]:
        key = key * _MIX + word  # wraps modulo 2^64
    order = np.argsort(key)
    rows = rows.take(order, axis=1)
    new = np.ones(len(order), dtype=bool)  # a row that differs from the one before it
    new[1:] = rows[0, 1:] != rows[0, :-1]
    for word in rows[1:]:
        new[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(new)
    return rows.take(starts, axis=1), np.add.reduceat(mults[order], starts)


def _count_cliques_by_size(above: np.ndarray, kmax: int) -> list[int]:
    """counts[k] = number of k-cliques for k = 0..kmax, as Python ints, of the
    graph with the rows above[v] = the neighbours of v above v, word-major:
    word j of row v is above[j, v], a (ceil(n/64), n) uint64 array.

    A partial clique is summed up by its candidates, the vertices above its
    last vertex adjacent to all of it; cliques with equal candidates have
    equal extensions. So each level holds distinct candidate rows, each with
    its multiplicity: the number of partial cliques that lead to it. A row's
    children are the pairs (row, v) for v a candidate, with candidates
    row & above[v]; equal children are merged and their multiplicities
    summed. A row stands for popcount * multiplicity cliques one level up,
    so the last level is counted without being built. Rows run depth-first
    in blocks of about _BLOCK_CHILDREN children, which bounds memory
    whatever n and kmax are.

    The caller numbers the vertices by ascending degree, so the vertices of
    most neighbours have the fewest above them, which is when listing
    cliques is cheapest (Chiba & Nishizeki, SIAM J. Comput. 1985).
    The walk starts from the level-1 rows, the above rows themselves, which
    are nearly always distinct and are not merged. Rows are word-major,
    (w, m) arrays of ceil(n/64) contiguous words, so at n <= 64 every
    gather, AND, popcount and sort runs on 1-D arrays, and past 64 on
    the same code.
    """
    n = above.shape[1]
    counts = [1] + [0] * kmax
    if kmax == 0 or n == 0:
        return counts
    counts[1] = n
    # Every multiplicity and count is at most C(n, k) for some k <= kmax;
    # past int64 they are Python ints in an object array.
    exact = np.int64 if math.comb(n, min(kmax, n // 2)) < 2**63 else object
    sizes = _popcounts(above)
    keep = sizes > 0
    # (level, rows, mults, popcounts): the rows of level-1 cliques with a candidate
    pending = [(1, above.compress(keep, axis=1), np.ones(keep.sum(), dtype=exact), sizes[keep])] if kmax > 1 else []
    while pending:
        level, rows, mults, sizes = pending.pop()
        take = max(1, int(np.searchsorted(np.cumsum(sizes), _BLOCK_CHILDREN, side="right")))
        if take < len(sizes):
            pending.append((level, rows[:, take:], mults[take:], sizes[take:]))
        rows, mults, sizes = rows[:, :take], mults[:take], sizes[:take]
        counts[level + 1] += int((sizes * mults).sum())
        if level + 1 == kmax:
            continue
        # each row's words side by side, as unpackbits reads them: a view when w = 1
        bits = np.unpackbits(np.ascontiguousarray(rows.T).view(np.uint8), axis=1, count=n, bitorder="little")
        parent = np.repeat(np.arange(len(sizes)), sizes)  # flatnonzero lists each row's set bits in turn
        v = np.flatnonzero(bits.view(bool)) - parent * n
        children, mults = rows.take(parent, axis=1) & above.take(v, axis=1), mults[parent]
        if level + 2 == kmax:
            counts[kmax] += int((_popcounts(children) * mults).sum())
            continue
        keep = children.any(axis=0)
        if keep.any():
            rows, mults = _merge_equal(children.compress(keep, axis=1), mults.compress(keep))
            pending.append((level + 1, rows, mults, _popcounts(rows)))
    return counts


def independence_profile(g: Graph, s_max: int, *, budget: int = EXACT_COUNT_BUDGET) -> IndependenceProfile:
    """Exact counts of independent k-subsets for k <= s_max.

    Computed as clique counts of the complement. Graphs beyond the budget
    raise BudgetError; use mc_independence_prob for estimates there.
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    if g.n > budget:
        raise BudgetError(
            f"exact independence counting is limited to n <= {budget} (got n={g.n}); "
            "use mc_independence_prob instead"
        )
    # the complement's rows above the diagonal: upper clears the rest and the pad bits
    _, rows = _by_degree(g)
    bit = np.arange(8 * rows.shape[1])
    upper = np.packbits((bit > np.arange(g.n)[:, None]) & (bit < g.n), axis=1, bitorder="little")
    above = (~rows & upper).view("<u8").T.copy()
    return IndependenceProfile(tuple(_count_cliques_by_size(above, s_max)))


# ---------------------------------------------------------------------------
# graph6 interchange (format of McKay's nauty tools).
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph6 encoding supported for n <= 258047")


def _graph6_lines(n: int, bits: np.ndarray) -> list[str]:
    """The graph6 lines (no header, no newline) of graphs on n vertices, one
    per row of bits, an (m, n(n-1)/2) uint8 matrix of 0/1 pair bits in graph6
    order: (0,1), (0,2), (1,2), (0,3), ..., so bit u of row v for u < v."""
    m, pairs = bits.shape
    groups = np.zeros((m, (pairs + 5) // 6, 6), np.uint8)  # zero-padded to whole groups
    groups.reshape(m, -1)[:, :pairs] = bits
    body = (np.packbits(groups, axis=2)[:, :, 0] >> 2) + 63  # six bits a byte, first bit highest
    size, width, text = _g6_size_bytes(n).decode("ascii"), body.shape[1], body.tobytes().decode("ascii")
    return [size + text[i * width : (i + 1) * width] for i in range(m)]


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (no header, no newline)."""
    bits = np.unpackbits(packed_adjacency(g), axis=1, count=g.n, bitorder="little")[np.tri(g.n, k=-1, dtype=bool)]
    return _graph6_lines(g.n, bits[None])[0]


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (optional >>graph6<< header tolerated)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
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
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    values = np.frombuffer(body, dtype=np.uint8) - 63  # bytes below 63 wrap past 63
    if (values >= 64).any():
        raise ValueError("graph6 byte out of range")
    bits = np.unpackbits(values[:, None], axis=1)[:, 2:].ravel()[:pairs]  # the padding is ignored
    dense = np.zeros((n, n), dtype=bool)
    dense[np.tri(n, k=-1, dtype=bool)] = bits
    return Graph(n, _rows_of(dense | dense.T))


def write_graph6_file(path, graphs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")


def read_graph6_file(path) -> list[Graph]:
    out = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(from_graph6(line))
    return out
