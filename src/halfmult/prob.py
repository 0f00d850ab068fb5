"""Independence probability for s uniform vertex draws, exact and Monte Carlo.

Vertices are sampled independently with replacement, and the question is
whether the resulting *set* is independent; duplicates are allowed and only
distinct pairs are tested. The exact path is big-integer rational from end
to end, so results like 1/4 are exact, not approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .f2 import SymplecticSpace
from .graphs import EXACT_COUNT_BUDGET, Graph, adjacent, independence_profile, packed_adjacency
from .rng import make_rng

def stirling2(s: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an s-set into k blocks.

    By the explicit sum k! S(s,k) = sum_j (-1)^(k-j) C(k,j) j^s, the
    surjections of an s-set onto a k-set: k powers, and no table of the
    smaller s.
    """
    if s < 0 or k < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    return sum((-1) ** (k - j) * math.comb(k, j) * j**s for j in range(k + 1)) // math.factorial(k)


def exact_independence_prob(g: Graph, s: int, *, budget: int = EXACT_COUNT_BUDGET) -> Fraction:
    """P(s iid uniform vertices of g form an independent set), exact.

    Decomposes by the number k of distinct sampled vertices:
    sum_k I_k * k! * S(s,k) / n^s, with I_k the independent k-subset counts.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    profile = independence_profile(g, min(s, g.n), budget=budget)
    total = 0
    for k in range(1, profile.s_max + 1):
        total += profile[k] * math.factorial(k) * stirling2(s, k)
    return Fraction(total, g.n**s)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with binomial standard error."""

    estimate: float
    trials: int
    std_error: float
    seed: int


def mc_independence_prob(g: Graph | SymplecticSpace, s: int, trials: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the s-draw independence probability.

    g is a Graph, whose pairs are read from its packed adjacency rows, or
    the SymplecticSpace behind cf:t, whose pairs are its form: vertex u of
    cf:t is the vector u, so both give the same estimate, and the space
    needs no rows at all.

    Stream discipline: trial i consumes draws i*s .. i*s+s-1 of the seeded
    stream (s uniform vertex indices per trial, with replacement); a trial
    succeeds iff no two distinct sampled vertices are adjacent. Chunking is
    an implementation detail and does not change the draw order.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if isinstance(g, SymplecticSpace):
        n, pair = g.size, g.adjacent
    elif g.n:
        n, pair = g.n, partial(adjacent, packed_adjacency(g))
    else:
        raise ValueError("graph has no vertices")
    rng = make_rng(seed)
    hits = 0
    chunk = 1 << 16
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        # for n < 2^32 numpy fills int32 and int64 from one 32-bit bounded
        # sampler, so int32 draws are the int64 stream at half the memory
        alive = rng.integers(0, n, size=(m, s), dtype=np.int32)
        # vertex j meets vertices 0..j-1 of the trials still independent; a
        # trial drops out at its first adjacent pair
        for j in range(1, s):
            v = alive[:, j]
            hit = pair(alive[:, 0], v)
            for i in range(1, j):
                hit |= pair(alive[:, i], v)
            alive = np.compress(~hit, alive, axis=0)
            if not len(alive):
                break
        hits += m - len(alive)
        done += m
    p_hat = (trials - hits) / trials
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McEstimate(estimate=p_hat, trials=trials, std_error=std_error, seed=seed)
