"""Correctness checks for one finished job.

Every job is compared with its reference (exit code and JSON payload minus
the 'command' echo, recorded by record_refs.py). Where it is cheap, an
oracle written here, independently of halfmult, checks the same payload:

- search: Turan's theorem for s=2, the proven infima as lower bounds, and
  each witness recounted by brute force;
- exact/estimate on cf:t: a closed form for the symplectic graph's
  independence counts; estimates must lie within Z standard errors of the
  exact value on the same graph (cf closed form or the ER reference);
- graph clique on cf:t: no t-clique exists, smaller cliques do, and every
  witness is rechecked with the symplectic form;
- cf: vertex, edge and isotropic-subspace counts;
- color/verify: certificates are reparsed, small ones are rechecked for a
  monochromatic K_t, and a tampered copy's witness must be one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, sqrt
from pathlib import Path

from workloads import decode_graph6, pair_index, read_certificate

Z = 5.0  # Monte Carlo tolerance, in standard errors of the exact value
RECHECK_MAX_N = 40  # certificates up to this size are rechecked here


def check(job, rc, payload, refs) -> str | None:
    """None if the job is correct, else the reason it failed."""
    ref = refs.get(job.key)
    if ref is None:
        return "no reference payload"
    if rc != ref["exit"]:
        return f"exit code {rc}, expected {ref['exit']}"
    if payload != ref["payload"]:
        return "payload differs from the reference"
    oracle = ORACLES.get(job.argv[0])
    return oracle(job.argv, payload, refs) if oracle else None


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _fraction(value) -> Fraction:
    return Fraction(int(value["num"]), int(value["den"]))


def _stirling2(s: int, k: int) -> int:
    return sum((-1) ** (k - j) * comb(k, j) * j**s for j in range(k + 1)) // factorial(k)


def _prob_from_counts(counts, n: int, s: int) -> Fraction:
    """P(s uniform draws form an independent set) from independent k-set counts."""
    return Fraction(sum(counts[k] * factorial(k) * _stirling2(s, k) for k in range(1, min(s, len(counts) - 1) + 1)), n**s)


# -- search -----------------------------------------------------------------


def _turan_edges(n: int, parts: int) -> int:
    sizes = [n // parts + (i < n % parts) for i in range(parts)]
    return (n * n - sum(x * x for x in sizes)) // 2


def _proven_infimum(s: int, t: int) -> Fraction | None:
    if s == 1 or t == 2:
        return Fraction(1)
    if s == 2:
        return Fraction(1, t - 1)
    if (s, t) == (3, 3):
        return Fraction(1, 4)
    return None


def _clique_in(adj, cand: int, k: int) -> tuple[int, ...] | None:
    """A k-clique inside the vertex mask cand, by plain bitset recursion."""
    if k == 0:
        return ()
    while cand.bit_count() >= k:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        rest = _clique_in(adj, cand & adj[v], k - 1)
        if rest is not None:
            return (v, *rest)
    return None


def _independent_counts(n: int, adj) -> list[int]:
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        if all(not adj[v] & mask for v in range(n) if mask >> v & 1):
            counts[mask.bit_count()] += 1
    return counts


def _check_search(argv, payload, refs):
    s, t, n_max = int(_arg(argv, "--s")), int(_arg(argv, "--t")), int(_arg(argv, "--max-n"))
    best = _fraction(payload["min_prob"])
    if s == 2:
        turan = min(Fraction(n * n - 2 * _turan_edges(n, t - 1), n * n) for n in range(1, n_max + 1))
        if best != turan:
            return f"s=2 minimum {best} differs from Turan's {turan}"
    proven = _proven_infimum(s, t)
    if proven is not None:
        if best < proven:
            return f"minimum {best} is below the proven infimum {proven}"
        if ("note" in payload) != (best == proven):
            return "exactness note does not match the proven infimum"
    for g6 in payload["witnesses"]:
        n, adj = decode_graph6(g6)
        if n > n_max or _clique_in(adj, (1 << n) - 1, t) is not None:
            return f"witness {g6} is not K_{t}-free on at most {n_max} vertices"
        if _prob_from_counts(_independent_counts(n, adj), n, s) != best:
            return f"witness {g6} does not attain the minimum"
    return None


# -- symplectic graph --------------------------------------------------------


def _form(u: int, v: int) -> int:
    """Standard symplectic form on F2^d: coordinates (0,1), (2,3), ... paired."""
    total = 0
    while u or v:
        total += (u & 1) * (v >> 1 & 1) + (u >> 1 & 1) * (v & 1)
        u >>= 2
        v >>= 2
    return total & 1


def _gaussian_binomial(d: int, j: int) -> int:
    num = den = 1
    for i in range(j):
        num *= (1 << (d - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _isotropic(t: int, k: int) -> int:
    """k-dimensional totally isotropic subspaces of F2^(t-2)."""
    m = t // 2 - 1
    num = den = 1
    for i in range(k):
        num *= (1 << 2 * (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def cf_independent_counts(t: int, kmax: int) -> list[int]:
    """Independent k-set counts of cf:t in closed form.

    A vertex set of the symplectic graph is independent iff it spans a
    totally isotropic subspace, so I_k sums, over isotropic d-spaces, the
    number of k-subsets of F2^d that span it (Moebius inversion over the
    subspace lattice)."""

    def spanning(d: int, k: int) -> int:
        return sum(
            (-1) ** (d - j) * 2 ** ((d - j) * (d - j - 1) // 2) * _gaussian_binomial(d, j) * comb(1 << j, k)
            for j in range(d + 1)
        )

    return [sum(_isotropic(t, d) * spanning(d, k) for d in range(t // 2)) for k in range(kmax + 1)]


def cf_prob(t: int, s: int) -> Fraction:
    return _prob_from_counts(cf_independent_counts(t, s), 1 << (t - 2), s)


def _check_cf(argv, payload, refs):
    t = int(_arg(argv, "--t"))
    n = 1 << (t - 2)
    if payload["vertices"] != n or payload["edges"] != (n - 1) * n // 4:
        return "vertex or edge count of cf:t is wrong"
    if "--count-isotropic" in argv and payload["isotropic_count"] != _isotropic(t, int(_arg(argv, "--count-isotropic"))):
        return "isotropic subspace count is wrong"
    return None


def _check_clique(argv, payload, refs):
    t, k = int(_arg(argv, "--in")[3:]), int(_arg(argv, "--t"))
    if payload["has_clique"] != (k < t):
        return f"cf:{t} must {'' if k < t else 'not '}contain a {k}-clique"
    if k < t:
        w = payload["witness"]
        if len(set(w)) != k or not all(0 <= v < 1 << (t - 2) for v in w):
            return "clique witness has the wrong size or range"
        if not all(_form(u, v) for i, u in enumerate(w) for v in w[i + 1 :]):
            return "clique witness is not a clique"
    return None


# -- probabilities ------------------------------------------------------------


def _exact_value(graph: str, s: int, refs) -> Fraction:
    if graph.startswith("cf:"):
        return cf_prob(int(graph[3:]), s)
    return _fraction(refs[f"exact --in {graph} --s {s}"]["payload"]["probability"])


def _check_exact(argv, payload, refs):
    graph = _arg(argv, "--in")
    if graph.startswith("cf:") and _fraction(payload["probability"]) != cf_prob(int(graph[3:]), int(_arg(argv, "--s"))):
        return "exact probability differs from the closed form for cf:t"
    return None


def _check_estimate(argv, payload, refs):
    trials = int(_arg(argv, "--trials"))
    p = float(_exact_value(_arg(argv, "--in"), int(_arg(argv, "--s")), refs))
    err = max(sqrt(p * (1 - p) / trials), 1 / trials)
    if payload["trials"] != trials or abs(payload["estimate"] - p) > Z * err:
        return f"estimate {payload['estimate']} is more than {Z} standard errors from the exact {p}"
    return None


# -- certificates ---------------------------------------------------------------


def _class_adjacency(colors, n: int, color: int) -> list[int]:
    adj = [0] * n
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if colors[i] == color:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return adj


def _check_color(argv, payload, refs):
    if payload["status"] == "failure":
        return None if payload["attempts"] == int(_arg(argv, "--attempts")) else "failure after too few attempts"
    path = _arg(argv, "--out")
    if not Path(path).is_file():
        return "certificate file was not written"
    fields, colors = read_certificate(path)
    n, ell, t = int(_arg(argv, "--n")), int(_arg(argv, "--ell")), int(_arg(argv, "--t"))
    if (int(fields["n"]), int(fields["ell"]), int(fields["t"])) != (n, ell, t):
        return "certificate header does not match the request"
    if len(colors) != n * (n - 1) // 2 or not all(1 <= c <= ell for c in colors):
        return "certificate colour array has the wrong length or range"
    if n <= RECHECK_MAX_N:
        for c in range(1, ell + 1):
            if _clique_in(_class_adjacency(colors, n, c), (1 << n) - 1, t) is not None:
                return f"colour {c} holds a K_{t}"
    return None


def _check_verify(argv, payload, refs):
    if not argv[1].startswith("tampered-"):
        return None if payload["valid"] else "an untouched certificate was rejected"
    if payload["valid"]:
        return "a tampered certificate was accepted"
    fields, colors = read_certificate(argv[1])
    n, c, w = int(fields["n"]), payload["violating_color"], payload["witness"]
    if len(set(w)) != int(fields["t"]) or not all(
        colors[pair_index(min(u, v), max(u, v), n)] == c for i, u in enumerate(w) for v in w[i + 1 :]
    ):
        return "the reported witness is not a monochromatic K_t"
    return None


ORACLES = {
    "search": _check_search,
    "cf": _check_cf,
    "graph": _check_clique,
    "exact": _check_exact,
    "estimate": _check_estimate,
    "color": _check_color,
    "verify": _check_verify,
}
