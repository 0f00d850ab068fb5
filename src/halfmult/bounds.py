"""Analytic bounds: random-construction exponent, neighborhood recursion,
binomial lower bound, Ramsey sandwich, explicit-graph exponents, and the
multicolor lower bound.

Units are easy to confuse here, so every reporting helper states them:
random_exponent is a *natural-log* exponent (divide by t^2 to compare with
the -0.266027 constant), cf_upper and multicolor_lower are *log2* values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, log

from .errors import FormatError, RamseyTableError

LN2 = math.log(2.0)
# ln(3*sqrt(3)/2): exponential rate of the diagonal binomial bound.
DIAG_BINOMIAL_RATE = 1.5 * math.log(3.0) - LN2


def random_exponent(p: float, s: float, t: float) -> float:
    """Leading natural-log exponent of the random-graph upper bound.

    t*(4s*ln(1-p) - t*ln(p))*ln(p) / (8*ln(1-p)); the s*log(s) and O(t)
    terms are excluded. Divide by t^2 for the normalized rate.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0,1), got {p}")
    lq = log(1.0 - p)
    lp = log(p)
    return t * (4.0 * s * lq - t * lp) * lp / (8.0 * lq)


def stationarity_residual(p: float, s: float, t: float) -> float:
    """Left side of the optimality condition for p; zero at the optimum."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0,1), got {p}")
    lq = log(1.0 - p)
    lp = log(p)
    return -4.0 * s / (1.0 - p) - t / p + (4.0 * s * lq - t * lp) * (
        1.0 / (p * lp) + 1.0 / ((1.0 - p) * lq)
    )


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")


def optimize_p(s: float, t: float, tol: float = 1e-7) -> tuple[float, float]:
    """Minimize random_exponent over p in (0,1).

    Brackets the minimum on a 1000-point grid (guards the p -> 0, 1
    plateaus), narrows by golden-section to width tol, then polishes by
    bisecting the stationarity residual. Returns (p_star, value at p_star).
    """
    _check_tol(tol)
    grid = [i / 1000.0 for i in range(1, 1000)]
    values = [random_exponent(p, s, t) for p in grid]
    i = min(range(len(grid)), key=lambda j: values[j])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = random_exponent(c, s, t)
    fd = random_exponent(d, s, t)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = random_exponent(c, s, t)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = random_exponent(d, s, t)
    p_star = 0.5 * (a + b)

    # Polish: the residual changes sign across the interior minimum.
    ra = stationarity_residual(max(a - 8 * tol, 1e-12), s, t)
    rb = stationarity_residual(min(b + 8 * tol, 1.0 - 1e-12), s, t)
    if ra * rb < 0:
        x0, x1 = max(a - 8 * tol, 1e-12), min(b + 8 * tol, 1.0 - 1e-12)
        for _ in range(200):
            mid = 0.5 * (x0 + x1)
            if mid == x0 or mid == x1:
                break
            rm = stationarity_residual(mid, s, t)
            if rm == 0.0:
                x0 = x1 = mid
                break
            if (rm < 0) == (ra < 0):
                x0 = mid
            else:
                x1 = mid
        p_star = 0.5 * (x0 + x1)
    return p_star, random_exponent(p_star, s, t)


def _bisect_crossing(s: int, a: float, b: float, tol: float) -> tuple[float, float, float]:
    """Crossing of the increasing x^s * a with the decreasing (1-x)^(s-1) * b."""
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
    return x, f, g


def _n_table(s: int, t: int, tol: float) -> tuple[float, float]:
    """(x*, N(s,t)) at the crossing of the top cell, for s >= 2 and t >= 3.

    Fills the table row by row in t, in place: before cell (s', t) is
    written, row[s'-1] holds N(s',t-1) and b holds N(s'-1,t). Only one row
    is ever held, and nothing outlives the call.
    """
    row = [1.0] * s  # N(1..s, 2)
    for _ in range(3, t + 1):
        b = 1.0  # N(1, t')
        for i in range(1, s):
            x, f, g = _bisect_crossing(i + 1, row[i], b, tol)
            b = row[i] = 0.5 * (f + g)
    return x, b


def n_recursion(s: int, t: int, tol: float = 1e-12) -> float:
    """Neighborhood-method lower bound N(s,t) for the independence probability.

    N(s,t)=1 at s=1 or t=2; otherwise the common value where the increasing
    map x^s * N(s,t-1) crosses the decreasing map (1-x)^(s-1) * N(s-1,t),
    found by bisection. Each call fills its own table bottom-up, in
    (s-1)(t-2) bisections and one row of memory. Double precision with
    per-level bisection error ~tol compounds across the recursion but stays
    far below 1e-9 relative for s,t <= 20.
    """
    if s < 1 or t < 2:
        raise ValueError(f"need s >= 1 and t >= 2, got s={s}, t={t}")
    _check_tol(tol)
    if s == 1 or t == 2:
        return 1.0
    return _n_table(int(s), int(t), float(tol))[1]


def n_recursion_crossing(s: int, t: int, tol: float = 1e-12) -> tuple[float, float]:
    """The crossing point x* behind N(s,t) and the value there.

    At the returned x*, |x*^s N(s,t-1) - (1-x*)^(s-1) N(s-1,t)| <= tol * N(s,t).
    Base cases have no crossing and raise ValueError.
    """
    if s < 2 or t < 3:
        raise ValueError("crossings exist only for s >= 2 and t >= 3")
    _check_tol(tol)
    return _n_table(int(s), int(t), float(tol))


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * log(x)


def n_binomial_lower(s: int, t: int) -> float:
    """Closed-form lower bound for N(s,t), evaluated in log space.

    ((a+b)^(a+b) / (a^a * b^b))^(-s) with a = (s-1)/2, b = t-2 and the
    convention 0^0 = 1 at the degenerate corners s=1, t=2.
    """
    if s < 1 or t < 2:
        raise ValueError(f"need s >= 1 and t >= 2, got s={s}, t={t}")
    a = (s - 1) / 2.0
    b = float(t - 2)
    return math.exp(-s * (_xlogx(a + b) - _xlogx(a) - _xlogx(b)))


def n_binomial_diag_rate(t: int) -> float:
    """(3*sqrt(3)/2)^(-t^2): the exponential rate of the s=t binomial bound.

    The finite-t closed form n_binomial_lower(t,t) is always at least this;
    the two agree in exponential rate as t grows.
    """
    return math.exp(-DIAG_BINOMIAL_RATE * t * t)


def cf_upper(s: int, t: int) -> float:
    """log2 exponent of the symplectic-graph upper bound (constants excluded).

    -s(s-1)/2 for s <= t/2 - 1, else -(4s-t)(t-2)/8; the two branches agree
    at the boundary s = t/2 - 1.
    """
    if t % 2:
        raise ValueError(f"t must be even, got {t}")
    if s <= t // 2 - 1:
        return -s * (s - 1) / 2.0
    return -(4 * s - t) * (t - 2) / 8.0


def multicolor_lower(t: int, ell: int, p_value=None, *, log2_p_value: float | None = None) -> float:
    """log2 of the guaranteed clique-free complete-graph size.

    -(ell-2)/t * log2(p_value) + (t-1)/2, valid whenever p_value upper
    bounds the t-draw independence probability over K_t-free graphs.
    Accepts an exact Fraction (handled without underflow) or a float;
    values far below float range can be passed as log2_p_value instead.
    """
    if ell < 2:
        raise ValueError(f"ell must be at least 2, got {ell}")
    if t <= 2:
        raise ValueError(f"t must exceed 2, got {t}")
    if (p_value is None) == (log2_p_value is None):
        raise ValueError("supply exactly one of p_value and log2_p_value")
    if log2_p_value is not None:
        if log2_p_value > 0:
            raise ValueError("log2_p_value must be <= 0 for a probability")
        log2p = log2_p_value
    elif isinstance(p_value, Fraction):
        if p_value <= 0:
            raise ValueError("p_value must be positive")
        if p_value > 1:
            raise ValueError("p_value must be at most 1")
        log2p = (math.log(p_value.numerator) - math.log(p_value.denominator)) / LN2
    else:
        p = float(p_value)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p_value must lie in (0,1], got {p_value}")
        log2p = math.log2(p)
    return -(ell - 2) / t * log2p + (t - 1) / 2.0


# ---------------------------------------------------------------------------
# Ramsey sandwich.
# ---------------------------------------------------------------------------


@dataclass
class KnownRamseyTable:
    """Exact Ramsey numbers with per-entry provenance.

    The axioms R(1,t) = 1 and R(2,t) = t hold for every t and need no
    entries; R(3,3) = 6 ships bundled because tier-1 re-proves it, by a pentagon
    certificate and a 6-vertex scan. Anything else comes from a user TSV.
    """

    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    sources: dict[tuple[int, int], str] = field(default_factory=dict)

    @classmethod
    def bundled(cls) -> "KnownRamseyTable":
        table = cls()
        table.add(3, 3, 6, "verified: exhaustive scan of all 2^15 edge 2-colorings of K_6")
        return table

    @staticmethod
    def _key(s: int, t: int) -> tuple[int, int]:
        return (min(s, t), max(s, t))

    def add(self, s: int, t: int, value: int, source: str) -> None:
        if s < 1 or t < 1 or value < 1:
            raise ValueError("Ramsey table entries must be positive")
        self.entries[self._key(s, t)] = value
        self.sources[self._key(s, t)] = source

    def get(self, s: int, t: int) -> int:
        if s > t:
            s, t = t, s
        if s == 1:
            return 1
        if s == 2:
            return t
        try:
            return self.entries[(s, t)]
        except KeyError:
            raise RamseyTableError(
                f"no R({s},{t}) entry in the Ramsey table; supply one via a TSV file"
            ) from None

    def source(self, s: int, t: int) -> str:
        if s > t:
            s, t = t, s
        if s == 1:
            return "axiom R(1,t) = 1"
        if s == 2:
            return "axiom R(2,t) = t"
        return self.sources.get((s, t), "unknown")

    def load_tsv(self, path) -> None:
        """Merge entries from TSV lines "s <TAB> t <TAB> R <TAB> source"."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                s, t, value = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: s, t and R must be integers") from None
            self.add(s, t, value, parts[3])


def ramsey_lower_half(s: int, t: int, table: KnownRamseyTable) -> Fraction:
    """Exact lower bound 1 / C(R(s,t), s) for the independence probability."""
    r = table.get(s, t)
    return Fraction(1, comb(r, s))


def ramsey_upper_half(s: int, t: int, a: int, table: KnownRamseyTable) -> float:
    """Upper bound C(R(a,t)-1, a-1) * ((a-1)/(R(a,t)-1))^s, for 2 <= a < s."""
    if a >= s:
        raise ValueError(f"need a < s, got a={a}, s={s}")
    if a < 2:
        raise ValueError("need a >= 2: the bound degenerates at a=1 (zero-vertex graph)")
    r = table.get(a, t)
    exact = comb(r - 1, a - 1) * Fraction(a - 1, r - 1) ** s
    return float(exact)


# ---------------------------------------------------------------------------
# Report assembly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One named bound value with parameters, units, and provenance."""

    name: str
    parameters: dict
    value: object  # float or Fraction
    units: str
    provenance: str

    def render_value(self) -> str:
        if isinstance(self.value, Fraction):
            return f"{self.value.numerator}/{self.value.denominator} = {float(self.value):.10g}"
        return f"{float(self.value):.10g}"


def standard_report(
    s: int,
    t: int,
    ell: int | None = None,
    table: KnownRamseyTable | None = None,
    p_value=None,
    tol: float = 1e-12,
) -> list[BoundReport]:
    """The bound battery for one (s,t): recursion, binomial, sandwich, and
    (for even t) the explicit-graph exponent; with ell, the multicolor bound.

    The multicolor bound needs an upper bound on the t-draw independence
    probability; p_value supplies one (e.g. from an exact search), else the
    Ramsey upper half at a=2 bounds P(t,t) by R(2,t) = t, for t > 2 and any s.
    """
    reports = [
        BoundReport(
            "n_recursion",
            {"s": s, "t": t, "tol": tol},
            n_recursion(s, t, tol),
            "probability",
            "neighborhood recursion, bisected crossing",
        ),
        BoundReport(
            "n_binomial_lower",
            {"s": s, "t": t},
            n_binomial_lower(s, t),
            "probability",
            "binomial closed form",
        ),
    ]
    if table is not None:
        try:
            reports.append(
                BoundReport(
                    "ramsey_lower_half",
                    {"s": s, "t": t, "R": table.get(s, t)},
                    ramsey_lower_half(s, t, table),
                    "probability",
                    f"1/C(R,s) with {table.source(s, t)}",
                )
            )
        except RamseyTableError:
            pass
        for a in range(2, s):
            try:
                reports.append(
                    BoundReport(
                        "ramsey_upper_half",
                        {"s": s, "t": t, "a": a, "R": table.get(a, t)},
                        ramsey_upper_half(s, t, a, table),
                        "probability",
                        f"C(R-1,a-1)((a-1)/(R-1))^s with {table.source(a, t)}",
                    )
                )
            except RamseyTableError:
                continue
    if t % 2 == 0:
        reports.append(
            BoundReport(
                "cf_upper",
                {"s": s, "t": t},
                cf_upper(s, t),
                "log2 of probability (constants excluded)",
                "symplectic-graph exponent",
            )
        )
    if ell is not None:
        mp = p_value
        provenance = "user-supplied p_value"
        if mp is None and table is not None and t > 2:
            try:
                mp = ramsey_upper_half(t, t, 2, table)
                provenance = "p_value from ramsey_upper_half(a=2)"
            except (RamseyTableError, ValueError):
                mp = None
        if mp is not None:
            reports.append(
                BoundReport(
                    "multicolor_lower",
                    {"t": t, "ell": ell, "p_value": float(mp)},
                    multicolor_lower(t, ell, mp),
                    "log2 of vertex count",
                    provenance,
                )
            )
    return reports
