import math
import tracemalloc
from fractions import Fraction

import pytest

from halfmult.bounds import (
    DIAG_BINOMIAL_RATE,
    KnownRamseyTable,
    cf_upper,
    multicolor_lower,
    n_binomial_diag_rate,
    n_binomial_lower,
    n_recursion,
    n_recursion_crossing,
    optimize_p,
    ramsey_lower_half,
    ramsey_upper_half,
    random_exponent,
    standard_report,
    stationarity_residual,
)
from halfmult.errors import RamseyTableError

from conftest import oracle_n_recursion

LN2 = math.log(2.0)


def test_random_exponent_half_specialization():
    # at p=1/2 the formula collapses to -t(4s-t)ln2/8
    for s, t in [(3, 4), (6, 8), (4, 4), (10, 7), (75, 100)]:
        expected = -t * (4 * s - t) * LN2 / 8.0
        assert random_exponent(0.5, s, t) == pytest.approx(expected, abs=1e-12)
    assert random_exponent(0.5, 8, 8) / 64 == pytest.approx(-(3 / 8) * LN2, abs=1e-12)


def test_random_exponent_domain():
    with pytest.raises(ValueError):
        random_exponent(0.0, 3, 3)
    with pytest.raises(ValueError):
        random_exponent(1.0, 3, 3)


def test_random_exponent_matches_scipy_minimum():
    scipy_opt = pytest.importorskip("scipy.optimize")
    res = scipy_opt.minimize_scalar(
        lambda p: random_exponent(p, 5, 5), bounds=(1e-9, 1 - 1e-9), method="bounded"
    )
    p_star, value = optimize_p(5, 5, 1e-9)
    assert p_star == pytest.approx(res.x, abs=1e-6)
    assert value == pytest.approx(res.fun, abs=1e-9)


def test_optimize_p_diagonal_constants():
    p_star, value = optimize_p(1, 1, 1e-7)
    assert p_star == pytest.approx(0.454997, abs=1e-5)
    assert value == pytest.approx(-0.266027, abs=1e-5)
    # scale invariance of the normalized rate along s=t
    p8, v8 = optimize_p(8, 8, 1e-7)
    assert p8 == pytest.approx(p_star, abs=1e-6)
    assert v8 / 64 == pytest.approx(value, abs=1e-9)


def test_optimize_p_s_three_quarters_t():
    p_star, _ = optimize_p(6, 8, 1e-7)
    assert p_star == pytest.approx(0.5, abs=1e-6)


def test_optimize_p_residual_small():
    for s, t in [(1, 1), (6, 8), (5, 5), (10, 4)]:
        p_star, _ = optimize_p(s, t, 1e-7)
        assert abs(stationarity_residual(p_star, s, t)) / t <= 1e-6


def test_stationarity_residual_examples():
    for t in (4, 8, 16, 100):
        assert abs(stationarity_residual(0.5, 3 * t / 4, t)) <= 1e-10 * t
    assert abs(stationarity_residual(0.454997, 1, 1)) <= 1e-4
    # at s=t the residual at 1/2 pushes toward smaller p
    assert stationarity_residual(0.5, 1, 1) > 0


def test_n_recursion_base_cases_and_closed_form():
    for s in range(1, 8):
        assert n_recursion(s, 2) == 1.0
    for t in range(2, 8):
        assert n_recursion(1, t) == 1.0
    assert n_recursion(2, 3) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)


def test_n_recursion_validation():
    with pytest.raises(ValueError):
        n_recursion(0, 3)
    with pytest.raises(ValueError):
        n_recursion(2, 1)
    with pytest.raises(ValueError):
        n_recursion(2, 3, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_tol_must_be_positive_and_finite(tol):
    # an infinite tol used to stop the bisections at once and return a wrong N(5,5)
    for call in (n_recursion, n_recursion_crossing, optimize_p):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call(5, 5, tol)


def test_n_recursion_monotone_grid():
    grid = {(s, t): n_recursion(s, t) for s in range(1, 11) for t in range(2, 11)}
    for s in range(1, 11):
        for t in range(2, 10):
            assert grid[(s, t + 1)] <= grid[(s, t)] + 1e-12
    for s in range(1, 10):
        for t in range(2, 11):
            assert grid[(s + 1, t)] <= grid[(s, t)] + 1e-12


def test_n_recursion_crossing_residual():
    tol = 1e-12
    for s, t in [(2, 3), (3, 3), (5, 7), (10, 10)]:
        x, value = n_recursion_crossing(s, t, tol)
        assert value == pytest.approx(n_recursion(s, t, tol), rel=1e-12)
        a = n_recursion(s, t - 1, tol)
        b = n_recursion(s - 1, t, tol)
        f = x**s * a
        g = (1 - x) ** (s - 1) * b
        assert abs(f - g) <= tol * value


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_n_recursion_matches_the_recursive_oracle(tol):
    # the table and the top-down recursion bisect every cell on the same inputs
    for (s, t), (x, value) in oracle_n_recursion(29, 29, tol).items():
        assert n_recursion(s, t, tol) == value
        if x is not None:
            assert n_recursion_crossing(s, t, tol) == (x, value)


def test_n_recursion_keeps_no_memory():
    tracemalloc.start()
    try:
        n_recursion(20000, 3)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 100_000  # bytes; a memo of every cell would keep several MB


def test_n_binomial_examples():
    assert n_binomial_lower(3, 3) == pytest.approx(1 / 64, rel=1e-12)
    assert n_binomial_lower(1, 9) == 1.0
    assert n_binomial_lower(4, 2) == 1.0
    with pytest.raises(ValueError):
        n_binomial_lower(0, 3)


def test_n_binomial_below_recursion():
    for s in range(2, 11):
        for t in range(3, 11):
            assert n_binomial_lower(s, t) <= n_recursion(s, t) * (1 + 1e-9)


def test_diag_rate_value_and_inequality():
    assert DIAG_BINOMIAL_RATE == pytest.approx(0.9547712524422193, abs=1e-12)
    for t in range(2, 11):
        direct = (3 * math.sqrt(3) / 2) ** (-t * t)
        assert n_binomial_diag_rate(t) == pytest.approx(direct, rel=1e-9)
        assert n_binomial_lower(t, t) >= direct


def test_cf_upper_branches_and_boundary():
    for t in (4, 6, 8, 10):
        s = t // 2 - 1
        assert cf_upper(s, t) == -s * (s - 1) / 2
        assert cf_upper(s, t) == -(4 * s - t) * (t - 2) / 8
    assert cf_upper(8, 8) == -3 * 8 * 6 / 8
    assert cf_upper(6, 8) == -(24 - 8) * 6 / 8
    with pytest.raises(ValueError):
        cf_upper(3, 5)


def test_cf_upper_matches_random_exponent_at_half():
    # s = 3t/4: the explicit exponent equals the p=1/2 random exponent rate
    for t in (4, 8, 12):
        s = 3 * t // 4
        explicit_ln = cf_upper(s, t) * LN2
        random_ln = random_exponent(0.5, s, t)
        assert explicit_ln == pytest.approx(-t * (t - 2) / 4 * LN2, abs=1e-9)
        # equality up to the lower-order (t/4)(t-2)/2 gap between t^2 and t(t-2)
        assert abs(explicit_ln - random_ln) <= t * LN2


def test_multicolor_lower_small_cases():
    assert multicolor_lower(5, 2, 1.0) == multicolor_lower(5, 2, 0.37) == 2.0  # ell=2 ignores p_value
    assert multicolor_lower(4, 3, Fraction(23, 128)) == pytest.approx(multicolor_lower(4, 3, 23 / 128))
    assert 4 < 2 ** multicolor_lower(4, 3, Fraction(23, 128)) < 5
    assert multicolor_lower(200, 2, 1.0) == pytest.approx(99.5)


def test_multicolor_lower_exact_at_boundary():
    # t=4, ell=3: N = (1/p)^(1/4) * 2^1.5; p = 2^-10 gives N = 2^2.5 * 2^1.5 = 16
    assert multicolor_lower(4, 3, Fraction(1, 1024)) == 4.0
    # one notch below the boundary lands below it
    assert 15 < 2 ** multicolor_lower(4, 3, Fraction(1, 1023)) < 16


def test_multicolor_lower():
    for t in (3, 5, 9):
        assert multicolor_lower(t, 2, 0.123) == (t - 1) / 2
    # e^(-0.266027 * 10^4) is far below float range; pass its log2
    val = multicolor_lower(100, 3, log2_p_value=-0.266027e4 / LN2)
    assert val == pytest.approx(0.266027 * 100 / LN2 + 49.5, abs=1e-6)
    wig = multicolor_lower(100, 3, log2_p_value=-0.2599302e4 / LN2)
    assert wig == pytest.approx(87.0, abs=1e-4)
    assert wig < val
    # exact Fraction input with a value far below float underflow
    tiny = Fraction(1, 2 ** (10**4))
    assert multicolor_lower(100, 3, tiny) == pytest.approx(100.0 + 49.5, abs=1e-6)
    with pytest.raises(ValueError):
        multicolor_lower(5, 3, 0.0)
    with pytest.raises(ValueError):
        multicolor_lower(5, 1, 0.5)
    with pytest.raises(ValueError):
        multicolor_lower(2, 3, 0.5)


def test_ramsey_table_axioms_and_bundled():
    table = KnownRamseyTable.bundled()
    assert table.get(1, 17) == 1
    assert table.get(2, 9) == 9
    assert table.get(9, 2) == 9
    assert table.get(3, 3) == 6
    with pytest.raises(RamseyTableError):
        table.get(4, 4)


def test_ramsey_table_tsv(tmp_path):
    path = tmp_path / "ramsey.tsv"
    path.write_text("# known values\n3\t4\t9\tRadziszowski survey\n4\t4\t18\tRadziszowski survey\n")
    table = KnownRamseyTable.bundled()
    table.load_tsv(path)
    assert table.get(3, 4) == 9
    assert table.get(4, 3) == 9
    assert table.get(4, 4) == 18
    assert "survey" in table.source(4, 4)
    bad = tmp_path / "bad.tsv"
    bad.write_text("3\t4\t9\n")
    with pytest.raises(ValueError):
        table.load_tsv(bad)


def test_ramsey_halves():
    table = KnownRamseyTable.bundled()
    assert ramsey_lower_half(3, 3, table) == Fraction(1, 20)
    assert ramsey_lower_half(1, 5, table) == 1
    assert ramsey_lower_half(2, 3, table) == Fraction(1, 3)
    assert ramsey_upper_half(3, 3, 2, table) == pytest.approx(0.25)
    assert ramsey_upper_half(4, 3, 2, table) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        ramsey_upper_half(2, 3, 2, table)
    with pytest.raises(ValueError):
        ramsey_upper_half(3, 3, 1, table)
    with pytest.raises(RamseyTableError):
        ramsey_upper_half(5, 5, 4, table)


def test_standard_report_smoke():
    table = KnownRamseyTable.bundled()
    reports = standard_report(3, 3, ell=3, table=table)
    names = [r.name for r in reports]
    assert "n_recursion" in names
    assert "n_binomial_lower" in names
    assert "ramsey_lower_half" in names
    assert "ramsey_upper_half" in names
    assert "multicolor_lower" in names
    for r in reports:
        assert r.units
        assert r.render_value()
        if r.units == "probability":
            assert 0 <= float(r.value) <= 1
