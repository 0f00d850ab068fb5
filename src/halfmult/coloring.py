"""Random-homomorphism multicolor colorings and their certificates.

The construction colors the edges of K_n with ell colors: ell-2 random maps
into a clique-free base graph assign the first colors (minimal index whose
map sends the pair to an edge), and pairs missed by every map get one of the
last two colors by a fair coin. A certificate records the full coloring as
one read-only colour array, validated against its header once, when the
certificate is made; it is verified from that array alone, and the verifier
never trusts the seed or the base graph.

Certificate file layout (ASCII, one field per line, then the array):

    halfmult-certificate v1
    n: <int>
    ell: <int>
    t: <int>
    base_graph: <graph6 string | cf:<t> | none>
    seed: <int>
    attempts_used: <int>
    colors: c1,c2,...   (n(n-1)/2 ints in 1..ell, upper-triangular row-major)
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CertificateFormatError
from .graphs import (
    GRAPH_VERTEX_BUDGET,
    Graph,
    find_clique,
    has_clique,
    packed_adjacency,
    pair_matrix,
    to_graph6,
)
from .rng import make_rng

_MAGIC = "halfmult-certificate v1"
# Colours per block of certificate text, written or read: a block holds a few
# bytes of digits per colour and a few int64 temporaries per colour, so the
# text of any n costs a bounded amount beyond the colour array itself.
_TEXT_PAIRS = 1 << 16
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 1 .. 10^18: an int64 has at most 19 digits


def pair_index(u: int, v: int, n: int) -> int:
    """Index of pair {u,v}, u < v, in upper-triangular row-major order."""
    if not 0 <= u < v < n:
        raise ValueError(f"need 0 <= u < v < n, got ({u},{v}) with n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@dataclass(frozen=True, eq=False)
class ColoringCertificate:
    """An explicit ell-coloring of K_n with provenance. colors is copied at
    construction into a read-only exact array, checked against the header:
    an integer array where numpy reads the colours as integers that fit
    int64 (signed, or unsigned up to 32 bits), else an object array of
    Python ints, which compares them as Python does (numpy reads colours at
    or beyond 2^63 as floats or uint64)."""

    n: int
    ell: int
    t: int
    colors: np.ndarray
    base_graph: str
    seed: int
    attempts_used: int

    def __post_init__(self) -> None:
        colors = np.array(self.colors)
        if colors.dtype.kind not in "iu" or not np.can_cast(colors.dtype, np.int64):
            colors = np.array(self.colors, dtype=object)
        colors.flags.writeable = False
        object.__setattr__(self, "colors", colors)
        if self.n < 1 or self.ell < 2 or self.t < 2:
            raise CertificateFormatError(
                f"need n >= 1, ell >= 2, t >= 2; got n={self.n}, ell={self.ell}, t={self.t}"
            )
        expected = self.n * (self.n - 1) // 2
        if len(colors) != expected:
            raise CertificateFormatError(f"color array has {len(colors)} entries, expected {expected}")
        bad = (colors < 1) | (colors > self.ell)
        if bad.any():
            raise CertificateFormatError(f"color {colors[bad.argmax()]} outside 1..{self.ell}")

    def __eq__(self, other) -> bool:
        """Certificates are equal when they write the same file: equal header
        fields and equal colours, whatever the dtypes holding them."""
        if not isinstance(other, ColoringCertificate):
            return NotImplemented
        return self._header() == other._header() and np.array_equal(self.colors, other.colors)

    def _header(self) -> tuple:
        return (self.n, self.ell, self.t, self.base_graph, self.seed, self.attempts_used)

    def text_blocks(self) -> Iterator[str]:
        """The certificate file in pieces: the header through 'colors: ',
        the colour line a block of _TEXT_PAIRS colours at a time, then the
        final newline. Writing the pieces in turn writes to_text()."""
        yield (
            f"{_MAGIC}\n"
            f"n: {self.n}\n"
            f"ell: {self.ell}\n"
            f"t: {self.t}\n"
            f"base_graph: {self.base_graph}\n"
            f"seed: {self.seed}\n"
            f"attempts_used: {self.attempts_used}\n"
            "colors: "
        )
        colors = self.colors
        if colors.dtype == object:
            yield ",".join(map(str, colors.tolist()))
        else:
            for start in range(0, len(colors), _TEXT_PAIRS):
                block = _digit_text(colors[start : start + _TEXT_PAIRS])
                yield block if start + _TEXT_PAIRS < len(colors) else block[:-1]
        yield "\n"

    def to_text(self) -> str:
        return "".join(self.text_blocks())


def _digit_text(block: np.ndarray) -> str:
    """Non-negative integers that fit int64, written as str() writes them,
    each followed by a comma. Each entry is a row of its digit bytes and a
    comma; when the widths differ, the leading zeros of the narrower rows are
    dropped."""
    block = block.astype(np.int64, copy=False)
    width = len(str(int(block.max())))
    rows = np.full((len(block), width + 1), ord(","), dtype=np.uint8)
    rows[:, width - 1] = (block % 10 if width > 1 else block) + ord("0")
    for col in range(1, width):
        rows[:, width - 1 - col] = block // _POW10[col] % 10 + ord("0")
    if len(str(int(block.min()))) < width:
        digits = np.maximum(np.searchsorted(_POW10, block, side="right"), 1)
        rows = rows[np.arange(width + 1) >= width - digits[:, None]]
    return rows.tobytes().decode("ascii")


def _read_digits(text: str) -> np.ndarray | None:
    """The colour line as int64 when every entry is ASCII digits of one width
    of at most 18 (so no entry overflows), else None. A block of
    _TEXT_PAIRS entries at a time is viewed as rows of digit bytes and a
    comma, checked, and summed by Horner's rule into the preallocated array."""
    width = text.find(",")
    if width < 0:
        width = len(text)
    if not 1 <= width <= 18 or (len(text) + 1) % (width + 1):
        return None
    pairs = (len(text) + 1) // (width + 1)
    colors = np.empty(pairs, dtype=np.int64)
    for first in range(0, pairs, _TEXT_PAIRS):
        chunk = text[first * (width + 1) : (first + _TEXT_PAIRS) * (width + 1)]
        if first + _TEXT_PAIRS >= pairs:
            chunk += ","
        try:
            raw = chunk.encode("ascii")
        except UnicodeEncodeError:
            return None
        # less "0", a digit byte is 0..9, a comma wraps to 252 and any other byte is neither
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width + 1) - np.uint8(ord("0"))
        if not ((rows[:, width] == 252).all() and np.count_nonzero(rows < 10) == len(rows) * width):
            return None
        out = colors[first : first + len(rows)]
        out[:] = rows[:, 0]
        for col in range(1, width):
            out *= 10
            out += rows[:, col]
    return colors


def certificate_from_text(text: str) -> ColoringCertificate:
    """Strict parse of the certificate layout; malformation raises
    CertificateFormatError."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise CertificateFormatError(f"missing '{_MAGIC}' header")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        if ":" not in line:
            raise CertificateFormatError(f"malformed line: {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in fields:
            raise CertificateFormatError(f"repeated field '{key}'")
        fields[key] = value.strip()
    required = ("n", "ell", "t", "base_graph", "seed", "attempts_used", "colors")
    for key in required:
        if key not in fields:
            raise CertificateFormatError(f"missing field '{key}'")
    try:
        n = int(fields["n"])
        ell = int(fields["ell"])
        t = int(fields["t"])
        seed = int(fields["seed"])
        attempts_used = int(fields["attempts_used"])
        text_colors = fields["colors"]
        colors = _read_digits(text_colors)
        if colors is None:
            # the split list lives only in this call, so it is gone before the certificate
            # copies the array; the array converts each entry as int() does
            try:
                colors = np.array(text_colors.split(",") if text_colors else [], dtype=np.int64)
            except (ValueError, OverflowError):
                colors = [int(c) for c in text_colors.split(",")]  # int() names the first entry it cannot read
    except ValueError as exc:
        raise CertificateFormatError(f"non-integer field: {exc}") from None
    return ColoringCertificate(n, ell, t, colors, fields["base_graph"], seed, attempts_used)


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    violating_color: int | None = None
    witness: tuple[int, ...] | None = None


def _verify_classes(colors: np.ndarray, n: int, t: int, palette) -> VerifyResult:
    """Check the class of each colour in palette, in order, for a K_t;
    colors is the pair array. Each class is searched as its dense matrix,
    with no Graph built."""
    for c in palette:
        witness = find_clique(pair_matrix(n, colors == c), t)
        if witness is not None:
            return VerifyResult(valid=False, violating_color=c, witness=witness)
    return VerifyResult(valid=True)


def verify_certificate(cert: ColoringCertificate) -> VerifyResult:
    """Check the class of every color in the array for a K_t, independently
    of how the certificate was produced. Returns the first violating color
    and a clique witness on failure."""
    # an absent colour has an edgeless class, which holds no K_t for t >= 2;
    # the palette holds Python ints, so a violating colour reports as one
    return _verify_classes(cert.colors, cert.n, cert.t, sorted(set(cert.colors.tolist())))


@dataclass(frozen=True)
class ConstructionFailure:
    """Every attempt produced a monochromatic K_t; keeps per-attempt stats."""

    n: int
    ell: int
    t: int
    seed: int
    attempts: int
    violations: tuple[tuple[int, int, tuple[int, ...]], ...]  # (attempt, color, witness)

    @property
    def by_color(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, color, _ in self.violations:
            out[color] = out.get(color, 0) + 1
        return out


def construct_coloring(
    g: Graph,
    ell: int,
    t: int,
    n: int,
    seed: int,
    max_attempts: int = 1000,
    base_label: str | None = None,
) -> ColoringCertificate | ConstructionFailure:
    """Sample colorings until one verifies, or give up after max_attempts.

    Attempt a uses the stream (seed, a): first (ell-2)*n uniform vertex
    draws defining the maps f_1..f_{ell-2} (map-major order), then one fair
    bit per pair left uncolored, in lexicographic pair order. The first ell-2
    classes are edge pullbacks of g, hence K_t-free once g is checked to be,
    so each attempt checks only the two coin classes; verify_certificate
    still checks every class from the array alone.
    """
    if ell < 2:
        raise ValueError(f"ell must be at least 2, got {ell}")
    if t <= 2:
        raise ValueError(f"t must exceed 2, got {t}")
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if n > GRAPH_VERTEX_BUDGET:
        raise BudgetError(f"n = {n} exceeds the vertex budget {GRAPH_VERTEX_BUDGET}")
    if ell > 2 and g.n == 0:
        raise ValueError("base graph has no vertices")
    if has_clique(g, t):
        raise ValueError(
            f"base graph contains a clique of size {t}; the pullback classes would be unsafe"
        )
    if base_label is None:
        base_label = to_graph6(g)

    m = n * (n - 1) // 2
    # Map f sends pair (x, y) to an edge iff bit f[y] of base row f[x] is set:
    # with the map's (n, g.n) rows unpacked, that is flat index x g.n + f[y].
    # A pair's colour is the first map that hits it, so each map colours only
    # the pairs that no earlier map hit.
    x, y = np.triu_indices(n, 1)  # row-major order matches pair_index
    x *= g.n  # in place: a third pair-long array would stay resident
    packed = packed_adjacency(g)

    violations: list[tuple[int, int, tuple[int, ...]]] = []
    for attempt in range(max_attempts):
        rng = make_rng(seed, attempt)
        colors = np.zeros(m, dtype=np.int64)
        free = np.ones(m, dtype=bool)  # the pairs no map has sent to an edge yet
        maps = rng.integers(0, g.n, size=(ell - 2, n)) if ell > 2 else ()
        for color, f in enumerate(maps, 1):
            rows = np.unpackbits(packed.take(f, axis=0), axis=1, count=g.n, bitorder="little")
            hit = rows.take(f.take(y) + x).view(bool)
            hit &= free
            np.putmask(colors, hit, color)
            free ^= hit
            # every map is drawn before this loop, so stopping early leaves
            # the coin bits where they are in the stream
            if not free.any():
                break
        colors[free] = (ell - 1) + rng.integers(0, 2, size=np.count_nonzero(free))
        # classes 1..ell-2 are pullbacks of g, K_t-free by the base check
        result = _verify_classes(colors, n, t, range(max(1, ell - 1), ell + 1))
        if result.valid:
            return ColoringCertificate(
                n=n,
                ell=ell,
                t=t,
                colors=colors,
                base_graph=base_label,
                seed=seed,
                attempts_used=attempt + 1,
            )
        violations.append((attempt, result.violating_color, result.witness))
    return ConstructionFailure(
        n=n, ell=ell, t=t, seed=seed, attempts=max_attempts, violations=tuple(violations)
    )
