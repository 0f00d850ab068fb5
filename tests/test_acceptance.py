"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is fixed here, not tuned at runtime.
"""

import math
import random
from fractions import Fraction

from halfmult.bounds import (
    KnownRamseyTable,
    cf_upper,
    n_binomial_diag_rate,
    n_binomial_lower,
    n_recursion,
    optimize_p,
    ramsey_lower_half,
    ramsey_upper_half,
    random_exponent,
    stationarity_residual,
)
from halfmult.coloring import (
    ColoringCertificate,
    certificate_from_text,
    construct_coloring,
    pair_index,
    verify_certificate,
)
from halfmult.f2 import build_cf_graph, count_isotropic_subspaces
from halfmult.graphs import complement, complete, cycle, has_clique, sample_er_graph, to_graph6
from halfmult.prob import exact_independence_prob, mc_independence_prob
from halfmult.search import enumerate_ktfree, min_independence_prob

from conftest import color_of, enumerate_isotropic_subspaces, oracle_independence_prob, pentagon_certificate


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_optimizer_constants():
    p_star, value = optimize_p(1, 1, tol=1e-7)
    ok_p = abs(p_star - 0.454997) <= 1e-5
    ok_v = abs(value - (-0.266027)) <= 1e-5
    at_half = random_exponent(0.5, 1, 1)
    ok_half = abs(at_half - (-0.2599302)) <= 1e-6
    # same numbers at a nontrivial diagonal point
    p8, v8 = optimize_p(8, 8, tol=1e-7)
    ok_scale = abs(p8 - 0.454997) <= 1e-5 and abs(v8 / 64 - (-0.266027)) <= 1e-5
    _report(
        1,
        "optimizer reproduces p*=0.454997, theta=-0.266027, theta(1/2)=-0.2599302",
        ok_p and ok_v and ok_half and ok_scale,
        f"p*={p_star:.7f}, theta={value:.7f}, at_half={at_half:.8f}",
    )


def test_criterion_02_stationarity_at_three_quarters():
    worst = max(abs(stationarity_residual(0.5, 3 * t / 4, t)) / t for t in (4, 8, 16, 100))
    _report(
        2,
        "stationarity residual at (p=1/2, s=3t/4) within 1e-10*t for t in {4,8,16,100}",
        worst <= 1e-10,
        f"worst |residual|/t = {worst:.3e}",
    )


def test_criterion_03_exact_small_minima():
    k2 = to_graph6(complete(2))
    k3 = to_graph6(complete(3))
    r23 = min_independence_prob(2, 3, 6)
    r33 = min_independence_prob(3, 3, 6)
    r24 = min_independence_prob(2, 4, 6)
    ok = (
        r23.min_prob == Fraction(1, 2)
        and k2 in r23.witnesses
        and r33.min_prob == Fraction(1, 4)
        and k2 in r33.witnesses
        and r24.min_prob == Fraction(1, 3)
        and k3 in r24.witnesses
    )
    _report(
        3,
        "exhaustive n<=6 minima: P(2,3)=1/2 at K_2, P(3,3)=1/4 at K_2, P(2,4)=1/3",
        ok,
        f"got {r23.min_prob}, {r33.min_prob}, {r24.min_prob}; "
        f"scanned {r23.graphs_scanned}+{r33.graphs_scanned}+{r24.graphs_scanned} graphs",
    )


def test_criterion_04_cf_graph_structure():
    details = []
    ok = True
    for t in (4, 6, 8):
        g = build_cf_graph(t)
        ok &= g.n == 1 << (t - 2)
        ok &= not has_clique(g, t)
        s_values = {t // 2 - 1}
        if (3 * t) % 4 == 0:
            s_values.add(3 * t // 4)
        else:
            s_values.update({3 * t // 4, 3 * t // 4 + 1})  # straddle non-integer 3t/4
        for s in sorted(s_values):
            exact = float(exact_independence_prob(g, s))
            bound = 2.0 ** cf_upper(s, t)
            ratio = max(exact / bound, bound / exact)
            ok &= ratio <= 16.0
            details.append(f"t={t},s={s}: ratio={ratio:.2f}")
    _report(
        4,
        "CF graphs: 2^(t-2) vertices, K_t-free, exact P within 16x of 2^cf_upper",
        ok,
        "; ".join(details),
    )


def test_criterion_05_isotropic_counting():
    ok = True
    for t in (4, 6, 8):
        for k in range(t // 2):
            ok &= len(enumerate_isotropic_subspaces(t, k)) == count_isotropic_subspaces(t, k)
    ok &= count_isotropic_subspaces(4, 1) == 3
    ok &= count_isotropic_subspaces(6, 1) == 15
    ok &= count_isotropic_subspaces(6, 2) == 15
    _report(
        5,
        "isotropic subspace counts match enumeration for t<=8; values 3, 15, 15",
        ok,
    )


def test_criterion_06_neighborhood_suite():
    ok_base = all(n_recursion(1, t) == 1.0 for t in range(2, 11)) and all(
        n_recursion(s, 2) == 1.0 for s in range(1, 11)
    )
    ok_23 = abs(n_recursion(2, 3) - (3 - math.sqrt(5)) / 2) <= 1e-9
    ok_order = all(
        n_binomial_lower(s, t) <= n_recursion(s, t) * (1 + 1e-9)
        for s in range(2, 11)
        for t in range(2, 11)
    )
    # diagonal: the rate form equals (3*sqrt(3)/2)^(-t^2) and lower-bounds
    # the finite-t closed form (see decisions ledger on this clause)
    ok_diag = all(
        abs(n_binomial_diag_rate(t) - (3 * math.sqrt(3) / 2) ** (-t * t))
        <= 1e-9 * (3 * math.sqrt(3) / 2) ** (-t * t)
        and n_binomial_lower(t, t) >= n_binomial_diag_rate(t)
        for t in range(2, 11)
    )
    _report(
        6,
        "N(s,t): bases exact, N(2,3) closed form, binomial <= recursion, diagonal rate",
        ok_base and ok_23 and ok_order and ok_diag,
        f"N(2,3)={n_recursion(2, 3):.12f}",
    )


def test_criterion_07_sandwich_consistency():
    table = KnownRamseyTable.bundled()
    # R(3,3) > 5 by the pentagon certificate, R(3,3) <= 6 by every triangle-free graph on 6 vertices
    ok_r33 = verify_certificate(pentagon_certificate(5)).valid
    ok_r33 &= all(has_clique(complement(g), 3) for g in enumerate_ktfree(6, 3))
    searched = {
        (2, 3): min_independence_prob(2, 3, 6).min_prob,
        (3, 3): min_independence_prob(3, 3, 6).min_prob,
        (2, 4): min_independence_prob(2, 4, 6).min_prob,
    }
    ok_lower = all(ramsey_lower_half(s, t, table) <= searched[(s, t)] for s, t in searched)
    # the upper half needs a < s, so only (3,3) admits a=2 here
    upper33 = ramsey_upper_half(3, 3, 2, table)
    chain = (
        ramsey_lower_half(3, 3, table) == Fraction(1, 20)
        and searched[(3, 3)] == Fraction(1, 4)
        and upper33 == 0.25
        and float(searched[(3, 3)]) <= upper33
    )
    _report(
        7,
        "sandwich: lower half <= searched minima; (3,3) chain 1/20 <= 1/4 <= 1/4; R(3,3)=6 rescanned",
        ok_r33 and ok_lower and chain,
        f"searched={{(2,3): {searched[(2,3)]}, (3,3): {searched[(3,3)]}, (2,4): {searched[(2,4)]}}}",
    )


def test_criterion_08_exactness_oracle():
    rng = random.Random(88)
    checked = 0
    ok = True
    while checked < 200:
        n = rng.randint(1, 8)
        s = rng.randint(1, 5)
        g = sample_er_graph(n, rng.random(), rng.getrandbits(32))
        if exact_independence_prob(g, s) != oracle_independence_prob(g, s):
            ok = False
            break
        checked += 1
    _report(
        8,
        "exact probability equals the all-tuples oracle on 200 random graphs (n<=8, s<=5)",
        ok,
        f"{checked} graphs checked",
    )


def test_criterion_09_monte_carlo_calibration():
    targets = [(complete(2), 0.25), (cycle(5), 7 / 25)]
    ok = True
    details = []
    for g, exact in targets:
        inside = 0
        for seed in range(200):
            est = mc_independence_prob(g, 3, 100_000, seed)
            if abs(est.estimate - exact) <= 4 * est.std_error:
                inside += 1
        details.append(f"{inside}/200")
        ok &= inside >= 198
    _report(
        9,
        "Monte Carlo within 4 standard errors of 1/4 (K_2) and 7/25 (C_5) in >=99% of 200 runs",
        ok,
        ", ".join(details),
    )


def test_criterion_10_construction_round_trip():
    cert = construct_coloring(complete(2), ell=2, t=4, n=6, seed=2024, max_attempts=200)
    ok_build = isinstance(cert, ColoringCertificate) and verify_certificate(cert).valid
    ok_build &= certificate_from_text(cert.to_text()) == cert

    ok_pentagon = verify_certificate(pentagon_certificate(5)).valid

    rng = random.Random(424242)
    rejected = 0
    for trial in range(1000):
        base = construct_coloring(complete(2), ell=2, t=4, n=6, seed=trial, max_attempts=200)
        assert isinstance(base, ColoringCertificate)
        color = rng.randint(1, 2)
        clique = sorted(rng.sample(range(6), 4))
        planted = list(base.colors)
        for i in range(4):
            for j in range(i + 1, 4):
                planted[pair_index(clique[i], clique[j], 6)] = color
        bad = ColoringCertificate(6, 2, 4, tuple(planted), base.base_graph, base.seed, 0)
        result = verify_certificate(bad)
        if result.valid:
            continue
        w = result.witness
        if all(
            color_of(bad, w[i], w[j]) == result.violating_color
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            rejected += 1
    _report(
        10,
        "round trip, pentagon certificate, and 1000/1000 planted violations rejected with genuine witnesses",
        ok_build and ok_pentagon and rejected == 1000,
        f"rejections={rejected}/1000",
    )
