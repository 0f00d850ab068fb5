"""Linear algebra over F2 and the symplectic (Conlon-Ferber) graph.

Vectors are Python ints: bit i is coordinate i. The canonical symplectic
form pairs coordinates (0,1), (2,3), ...: form(u,v) = sum over blocks of
u_{2i} v_{2i+1} + u_{2i+1} v_{2i} mod 2. All nondegenerate alternating
forms over F2 are equivalent to this one, so fixing it keeps every output
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GRAPH_VERTEX_BUDGET, Graph, f2_rank  # f2_rank: the one elimination, shared with the clique proofs


def _swap_pairs(v, dim: int):
    """Exchange coordinates 2i and 2i+1 of an int or an integer array;
    helper for the standard form."""
    even = sum(1 << i for i in range(0, dim, 2))
    return ((v & even) << 1) | ((v >> 1) & even)


@dataclass(frozen=True)
class SymplecticSpace:
    """F2^dim with the standard alternating form, dim even."""

    dim: int

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise ValueError(f"dimension must be even and >= 2, got {self.dim}")

    @property
    def size(self) -> int:
        return 1 << self.dim

    def check_vector(self, v: int) -> None:
        if not 0 <= v < self.size:
            raise ValueError(f"vector {v} not in F2^{self.dim}")

    def form(self, u: int, v: int) -> int:
        self.check_vector(u)
        self.check_vector(v)
        return (_swap_pairs(u, self.dim) & v).bit_count() & 1

    def adjacent(self, u, v) -> np.ndarray:
        """Whether form(u, v) = 1, for a vector index u and an index array v,
        or two index arrays of one shape (unchecked, as graphs.adjacent is).
        It is the parity of popcount(swap_pairs(u) & v), folded in place,
        with no table: folding by the powers of two below dim brings the
        parity of all dim bits down to bit 0."""
        x = _swap_pairs(np.asarray(u), self.dim)
        x &= v
        for k in reversed(range((self.dim - 1).bit_length())):
            x ^= x >> (1 << k)
        x &= 1
        return x.astype(bool)


def cf_dimension(t: int, *, budget: int = GRAPH_VERTEX_BUDGET) -> int:
    """The dimension t - 2 of the space behind cf:t, once t is checked: even,
    at least 4, and 2^(t-2) vertices within the budget. The budget is
    checked on the exponent, so a huge t builds no huge integer; past 2^64
    the refusal names the power rather than printing its digits."""
    if t % 2 or t < 4:
        raise ValueError(f"t must be even and >= 4, got {t}")
    dim = t - 2
    if dim >= budget.bit_length():  # 2^dim > budget, found without building 2^dim
        n = 1 << dim if dim <= 64 else f"2^{dim}"
        raise ValueError(f"2^(t-2) = {n} exceeds the vertex budget {budget}")
    return dim


def cf_counts(t: int) -> tuple[int, int]:
    """Vertices and edges of cf:t, without building it: n = 2^(t-2), and each
    nonzero u is adjacent to exactly half of the space, since form(u, .) is
    a nonzero linear functional, so |E| = (n - 1) n / 4."""
    n = 1 << cf_dimension(t)
    return n, (n - 1) * n // 4


def build_cf_graph(t: int, *, budget: int = GRAPH_VERTEX_BUDGET) -> Graph:
    """Graph on all vectors of F2^(t-2): edge iff the symplectic form is 1.

    For even t this graph has no clique of size t, which is what makes it
    useful as an explicit half-multiplicity construction. Each row is built
    from an earlier one by one XOR: adj[u] = adj[u ^ e_i] ^ row(e_i), with
    e_i the lowest set bit of u.
    """
    dim = cf_dimension(t, budget=budget)
    n = 1 << dim
    # The row of u, {x : form(u,x) = 1}, is linear in u. The form pairs
    # coordinate i with i ^ 1, so row(e_i) is coord[i ^ 1], the bitset of
    # vectors with coordinate i ^ 1 set.
    full = (1 << n) - 1
    coord = [full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(dim)]
    adj = [0] * n
    for u in range(1, n):
        low = u & -u
        adj[u] = adj[u ^ low] ^ coord[(low.bit_length() - 1) ^ 1]
    return Graph(n, tuple(adj))


def count_isotropic_subspaces(t: int, k: int) -> int:
    """Number of k-dimensional isotropic subspaces of F2^(t-2), exact.

    Closed form prod_{i<k} (2^(t-2-2i) - 1) / prod_{i<k} (2^(k-i) - 1);
    the division is exact in the integers.
    """
    if t % 2 or t < 2:
        raise ValueError(f"t must be even and >= 2, got {t}")
    if not 0 <= k <= t // 2 - 1:
        raise ValueError(
            f"no isotropic subspace of dimension {k} in F2^{t - 2}; need 0 <= k <= {t // 2 - 1}"
        )
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (t - 2 - 2 * i)) - 1
        den *= (1 << (k - i)) - 1
    if num % den:
        raise AssertionError("isotropic subspace count is not an integer")
    return num // den
