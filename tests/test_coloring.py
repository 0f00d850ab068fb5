import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfmult import coloring, graphs
from halfmult.coloring import (
    ColoringCertificate,
    ConstructionFailure,
    certificate_from_text,
    construct_coloring,
    pair_index,
    verify_certificate,
)
from halfmult.errors import CertificateFormatError
from halfmult.f2 import build_cf_graph
from halfmult.graphs import Graph, complement, complete, cycle, edgeless, from_pairs, has_clique
from halfmult.rng import make_rng

from conftest import REPEATED_FIELDS, color_of, oracle_color_class, pentagon_certificate


def test_pair_index_covers_triangle():
    n = 7
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            seen.add(pair_index(u, v, n))
    assert seen == set(range(n * (n - 1) // 2))
    with pytest.raises(ValueError):
        pair_index(3, 3, 7)


def test_construct_round_trip_ell2():
    cert = construct_coloring(complete(2), ell=2, t=4, n=6, seed=2024, max_attempts=200)
    assert isinstance(cert, ColoringCertificate)
    assert verify_certificate(cert).valid
    parsed = certificate_from_text(cert.to_text())
    assert parsed == cert


def test_construct_deterministic():
    a = construct_coloring(complete(2), ell=2, t=4, n=6, seed=7, max_attempts=200)
    b = construct_coloring(complete(2), ell=2, t=4, n=6, seed=7, max_attempts=200)
    assert a.to_text() == b.to_text()


def test_construct_ell3_with_cf_base():
    g = build_cf_graph(4)
    cert = construct_coloring(g, ell=3, t=4, n=4, seed=1, max_attempts=50, base_label="cf:4")
    assert isinstance(cert, ColoringCertificate)
    assert cert.base_graph == "cf:4"
    assert verify_certificate(cert).valid


def test_construct_pullback_classes_are_safe():
    # colors 1..ell-2 are edge pullbacks of a K_t-free base, so K_t-free
    g = build_cf_graph(4)
    cert = construct_coloring(g, ell=4, t=4, n=8, seed=3, max_attempts=500, base_label="cf:4")
    assert isinstance(cert, ColoringCertificate)
    for c in (1, 2):
        assert not has_clique(from_pairs(cert.n, cert.colors == c), 4)


def test_construct_rejects_cliquey_base():
    with pytest.raises(ValueError):
        construct_coloring(complete(4), ell=3, t=4, n=6, seed=0)
    with pytest.raises(ValueError):
        construct_coloring(complete(2), ell=1, t=4, n=6, seed=0)
    with pytest.raises(ValueError):
        construct_coloring(complete(2), ell=2, t=4, n=3, seed=0)


def test_construct_failure_report():
    # n = 18 > r(3;2) = 6 guarantees a monochromatic triangle in 2 colors
    failure = construct_coloring(complete(2), ell=2, t=3, n=18, seed=5, max_attempts=4)
    assert isinstance(failure, ConstructionFailure)
    assert failure.attempts == 4
    assert len(failure.violations) == 4
    for attempt, color, witness in failure.violations:
        assert color in (1, 2)
        assert len(witness) == 3
    assert sum(failure.by_color.values()) == 4


def test_failure_path_never_blames_pullback_classes():
    # n = 17 = r(3;3) forces failure with ell=3, but color 1 is a pullback
    # of a triangle-free base, so every violation must be a tail color
    from halfmult.graphs import cycle

    failure = construct_coloring(cycle(5), ell=3, t=3, n=17, seed=8, max_attempts=5)
    assert isinstance(failure, ConstructionFailure)
    for _, color, _ in failure.violations:
        assert color >= 2  # never the map-defined class
    # (attempt, color, witness) of every rejected attempt, pinned
    assert failure.violations == (
        (0, 2, (1, 8, 11)),
        (1, 2, (2, 6, 12)),
        (2, 2, (3, 4, 6)),
        (3, 2, (7, 11, 12)),
        (4, 2, (3, 4, 15)),
    )


@pytest.mark.parametrize(
    "base, ell, t, n, seed, attempts",
    [(build_cf_graph(6), 6, 6, 40, 1, 5), (build_cf_graph(6), 6, 6, 100, 2, 5), (cycle(5), 3, 3, 17, 8, 5)],
    ids=["cf6-ell6-n40", "cf6-ell6-n100", "cycle5-ell3-failure"],
)
def test_construct_checks_only_the_coin_classes(base, ell, t, n, seed, attempts, monkeypatch):
    # the base check is one find_clique call, and each attempt searches at
    # most its two coin classes: the pullback classes are never searched.
    # The base graph comes as a Graph, each coin class as its dense matrix.
    calls = []
    search = graphs.find_clique

    def counted(g, k):
        calls.append(g.n if isinstance(g, Graph) else len(g))
        return search(g, k)

    monkeypatch.setattr(graphs, "find_clique", counted)
    monkeypatch.setattr(coloring, "find_clique", counted)
    result = construct_coloring(base, ell=ell, t=t, n=n, seed=seed, max_attempts=attempts)
    used = result.attempts_used if isinstance(result, ColoringCertificate) else result.attempts
    assert calls[0] == base.n
    assert 1 < len(calls) <= 1 + 2 * used


def _oracle_colors(g, ell: int, n: int, seed: int, attempt: int) -> list[int]:
    """An attempt's pair colours by walking the pairs: the least map that
    sends the pair to an edge of g, else the pair's coin, in pair order."""
    rng = make_rng(seed, attempt)
    maps = rng.integers(0, g.n, size=(ell - 2, n)).tolist() if ell > 2 else []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colors = [next((i + 1 for i, f in enumerate(maps) if g.has_edge(f[u], f[v])), 0) for u, v in pairs]
    coins = iter(rng.integers(0, 2, size=colors.count(0)).tolist())
    return [c or ell - 1 + next(coins) for c in colors]


@pytest.mark.parametrize(
    "base, ell, t, n, seed",
    [(build_cf_graph(4), 3, 4, 5, 1), (build_cf_graph(4), 1000, 4, 5, 2), (build_cf_graph(6), 4, 6, 30, 3),
     (build_cf_graph(6), 10, 6, 17, 4), (cycle(5), 6, 3, 9, 5), (complete(4), 2, 5, 8, 6),
     (build_cf_graph(6), 9, 6, 40, 7), (edgeless(2), 4, 4, 5, 8)],
)
def test_pullback_colours_match_a_pair_walk(base, ell, t, n, seed):
    # the first hit of each pair must be the least map that hits it: at
    # ell = 1000 every pair is hit long before the last map, and on an
    # edgeless base no map hits any pair, so every colour is a coin
    result = construct_coloring(base, ell=ell, t=t, n=n, seed=seed, max_attempts=3)
    assert isinstance(result, ColoringCertificate)
    assert result.colors.tolist() == _oracle_colors(base, ell, n, seed, result.attempts_used - 1)


def test_cf6_certificate_text_is_pinned():
    # attempt 0 is rejected and attempt 1 accepted; the digest pins the
    # accepted certificate's text byte for byte
    cert = construct_coloring(build_cf_graph(6), 3, 6, 28, 5, 50, base_label="cf:6")
    assert isinstance(cert, ColoringCertificate)
    assert cert.attempts_used == 2
    digest = hashlib.sha256(cert.to_text().encode()).hexdigest()
    assert digest == "f438da09e024125be0a9069f36927a6468acab498d2a5d5ca25c354123759f06"


@pytest.mark.parametrize("n", [1, 2, 9, 65])
def test_color_class_matches_pair_walk(n):
    rng = random.Random(n)
    ell = 4
    colors = tuple(rng.randint(1, ell) for _ in range(n * (n - 1) // 2))
    cert = ColoringCertificate(n, ell, 3, colors, "none", 0, 0)
    for c in range(ell + 2):
        assert from_pairs(cert.n, cert.colors == c) == oracle_color_class(cert, c)


def test_pentagon_certificate_valid_for_t3():
    # R(3,3) > 5: colour 1 is the pentagon, colour 2 its chords, neither holds a triangle
    cert = pentagon_certificate(5)
    assert (from_pairs(5, cert.colors == 1), from_pairs(5, cert.colors == 2)) == (cycle(5), complement(cycle(5)))
    for n in range(3, 6):
        assert verify_certificate(pentagon_certificate(n)).valid, n


def test_verifier_rejects_monochromatic_k6():
    colors = tuple([1] * 15)
    cert = ColoringCertificate(6, 2, 4, colors, "none", 0, 0)
    result = verify_certificate(cert)
    assert not result.valid
    assert result.violating_color == 1
    assert len(result.witness) == 4


def test_verifier_reports_the_first_violating_colour_present():
    # colours 2 and 5 each hold a K_4 on K_8; 1, 3 and 4 never occur
    n = 8
    colors = [2 if u < 4 and v < 4 else 5 if u >= 4 else 6 for u in range(n) for v in range(u + 1, n)]
    cert = ColoringCertificate(n, 6, 4, tuple(colors), "none", 0, 0)
    result = verify_certificate(cert)
    assert (result.valid, result.violating_color, result.witness) == (False, 2, (0, 1, 2, 3))
    swapped = ColoringCertificate(n, 6, 4, tuple({2: 5, 5: 2}.get(c, c) for c in colors), "none", 0, 0)
    assert verify_certificate(swapped).witness == (4, 5, 6, 7)


def test_verifier_witness_is_genuine():
    rng = random.Random(123)
    rejected = 0
    for trial in range(50):
        base = construct_coloring(complete(2), ell=2, t=4, n=6, seed=trial, max_attempts=100)
        assert isinstance(base, ColoringCertificate)
        planted_color = rng.randint(1, 2)
        clique = rng.sample(range(6), 4)
        colors = list(base.colors)
        for i in range(4):
            for j in range(i + 1, 4):
                colors[pair_index(min(clique[i], clique[j]), max(clique[i], clique[j]), 6)] = planted_color
        bad = ColoringCertificate(6, 2, 4, tuple(colors), base.base_graph, base.seed, base.attempts_used)
        result = verify_certificate(bad)
        assert not result.valid
        rejected += 1
        w = result.witness
        for i in range(4):
            for j in range(i + 1, 4):
                assert color_of(bad, w[i], w[j]) == result.violating_color
    assert rejected == 50


def test_certificate_format_errors():
    cert = pentagon_certificate(5)
    text = cert.to_text()
    with pytest.raises(CertificateFormatError):
        certificate_from_text(text.replace("halfmult-certificate v1", "garbage"))
    with pytest.raises(CertificateFormatError):
        certificate_from_text(text.replace("ell: 2", "ell: x"))
    with pytest.raises(CertificateFormatError):
        certificate_from_text("\n".join(text.splitlines()[:-1]) + "\n")  # drop colors
    # wrong length and color out of range
    with pytest.raises(CertificateFormatError):
        verify_certificate(ColoringCertificate(5, 2, 3, (1, 2), "none", 0, 0))
    with pytest.raises(CertificateFormatError):
        verify_certificate(ColoringCertificate(3, 2, 3, (1, 2, 3), "none", 0, 0))


@pytest.mark.parametrize("field", sorted(REPEATED_FIELDS))
def test_repeated_field_is_a_format_error(field):
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_text(REPEATED_FIELDS[field])
    assert str(exc.value) == f"repeated field '{field}'"


@pytest.mark.parametrize(
    "colors, message",
    [
        ("1,x,2", "non-integer field: invalid literal for int() with base 10: 'x'"),
        ("1,1.5,2", "non-integer field: invalid literal for int() with base 10: '1.5'"),
        ("1,,2", "non-integer field: invalid literal for int() with base 10: ''"),
        ("1,0,2", "color 0 outside 1..2"),
        ("1,3,0", "color 3 outside 1..2"),
        ("1," + "9" * 30 + ",0", "color " + "9" * 30 + " outside 1..2"),
        ("1,2", "color array has 2 entries, expected 3"),
        ("", "color array has 0 entries, expected 3"),
    ],
    ids=["letter", "decimal", "empty-entry", "zero", "ell-plus-one", "30-digits", "short", "empty"],
)
def test_malformed_colours_are_reported_as_int_reads_them(colors, message):
    # the first bad entry in pair order is the one named
    text = "halfmult-certificate v1\nn: 3\nell: 2\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_text(text + f"colors: {colors}\n")
    assert str(exc.value) == message


def test_colours_parse_as_int_reads_them():
    # int() accepts signs, spaces and non-ASCII digits; so does the parser
    text = "halfmult-certificate v1\nn: 3\nell: 2\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
    cert = certificate_from_text(text + "colors: +1, 2,\u0661\n")
    assert cert.colors.tolist() == [1, 2, 1] and cert.colors.dtype == np.int64
    with pytest.raises(CertificateFormatError, match="color 9223372036854775808 outside 1..2"):
        verify_certificate(ColoringCertificate(3, 2, 3, (1, 2**63, 1), "none", 0, 0))


def test_colours_beyond_int64_are_told_apart():
    # numpy reads 2^63 and 2^63 + 1 as one float; the triangle 0,1,2 has both
    colors = [0] * 6
    for (u, v), c in {(0, 1): 2**63, (1, 2): 2**63, (0, 2): 2**63 + 1, (0, 3): 1, (1, 3): 1, (2, 3): 1}.items():
        colors[pair_index(u, v, 4)] = c
    cert = ColoringCertificate(4, 2**64, 3, tuple(colors), "none", 0, 0)
    parsed = certificate_from_text(cert.to_text())
    assert parsed == cert
    assert verify_certificate(cert).valid and verify_certificate(parsed).valid
    for c in (1, 2**63, 2**63 + 1):
        assert from_pairs(cert.n, cert.colors == c) == oracle_color_class(cert, c)
    assert from_pairs(cert.n, cert.colors == 2**63).edge_count == 2
    with pytest.raises(CertificateFormatError, match=f"color {2**64 + 1} outside 1..{2**64}"):
        verify_certificate(ColoringCertificate(4, 2**64, 3, (1, 2**63, 2**64 + 1, 1, 1, 1), "none", 0, 0))


@pytest.mark.parametrize(
    "n, ell, colors, message",
    [
        (5, 2, (1, 2), "color array has 2 entries, expected 10"),
        (3, 2, (1, 2, 3), "color 3 outside 1..2"),
        (3, 2, [1, 0, 2], "color 0 outside 1..2"),
        (3, 1, (1, 1, 1), "need n >= 1, ell >= 2, t >= 2; got n=3, ell=1, t=3"),
    ],
    ids=["short", "above-ell", "zero", "ell-one"],
)
def test_construction_checks_the_shape(n, ell, colors, message):
    with pytest.raises(CertificateFormatError) as exc:
        ColoringCertificate(n, ell, 3, colors, "none", 0, 0)
    assert str(exc.value) == message


def test_certificate_owns_a_read_only_copy():
    mine = [1, 2, 1]
    mine_array = np.array(mine)
    from_list = ColoringCertificate(3, 2, 3, mine, "none", 0, 0)
    from_array = ColoringCertificate(3, 2, 3, mine_array, "none", 0, 0)
    mine[0] = 2
    mine_array[0] = 2
    assert mine_array.flags.writeable
    for cert in (from_list, from_array):
        assert cert.colors.tolist() == [1, 2, 1]
        assert not cert.colors.flags.writeable
        with pytest.raises(ValueError):
            cert.colors[0] = 2


@pytest.mark.parametrize("c, ell, dtype", [(1, 2, np.int64), (2**63, 2**64, object)], ids=["int64", "past-int64"])
def test_violating_colour_is_a_python_int(c, ell, dtype):
    cert = ColoringCertificate(3, ell, 3, (c, c, c), "none", 0, 0)
    assert cert.colors.dtype == dtype
    result = verify_certificate(cert)
    assert (result.valid, result.violating_color, result.witness) == (False, c, (0, 1, 2))
    assert type(result.violating_color) is int


def test_one_vertex_certificate_round_trips():
    cert = ColoringCertificate(1, 2, 3, (), "none", 0, 0)
    assert cert.colors.size == 0
    text = cert.to_text()
    assert text.endswith("colors: \n")
    parsed = certificate_from_text(text)
    assert parsed == cert
    assert verify_certificate(cert).valid and verify_certificate(parsed).valid


def _joined(colors) -> str:
    return ",".join(map(str, np.asarray(colors).tolist()))


def _text_cases(rng) -> list[tuple[int, np.ndarray]]:
    """(n, colours) at every width 1..19 digits, alone and mixed with all
    narrower widths, at 2^63 - 1, in unsigned dtypes, and at n = 1 and 2."""
    n = 12
    m = n * (n - 1) // 2
    cases = []
    for width in range(1, 20):
        top = min(10**width - 1, 2**63 - 1)
        cases.append((n, rng.integers(10 ** (width - 1), top, size=m, endpoint=True)))
        widths = rng.integers(1, width, size=m, endpoint=True)
        mixed = [int(rng.integers(10 ** (w - 1), min(10**w - 1, top), endpoint=True)) for w in widths.tolist()]
        cases.append((n, np.array(mixed)))
    cases.append((n, np.full(m, 2**63 - 1)))
    cases.append((n, np.array([2**63 - 1, 1, 10, 9] * (m // 4) + [99] * (m % 4))))
    for dtype in (np.uint8, np.uint16, np.uint32):
        cases.append((n, rng.integers(1, np.iinfo(dtype).max, size=m, endpoint=True, dtype=dtype)))
    cases += [(1, np.zeros(0, dtype=np.int64)), (1, np.zeros(0, dtype=np.uint8))]
    cases += [(2, np.array([7])), (2, np.array([10**18]))]
    return cases


@pytest.mark.parametrize("pairs", [1, 7, coloring._TEXT_PAIRS])
def test_colour_text_is_the_str_join(monkeypatch, pairs):
    monkeypatch.setattr(coloring, "_TEXT_PAIRS", pairs)
    for n, colors in _text_cases(np.random.default_rng(pairs)):
        cert = ColoringCertificate(n, 2**63 - 1, 3, colors, "none", 0, 0)
        assert cert.colors.dtype == colors.dtype
        blocks = list(cert.text_blocks())
        assert len(blocks) == 2 + -(-len(colors) // pairs)  # header, one per block, newline
        text = "".join(blocks)
        assert text == cert.to_text()
        assert text.endswith(f"\ncolors: {_joined(colors)}\n"), (n, colors.dtype, colors[:4])
        assert certificate_from_text(text) == cert


_HEADER = "halfmult-certificate v1\nn: {n}\nell: {ell}\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"


def _old_parse(line: str):
    """The colour line as split and int() read it, the reference for every
    line, whichever reader takes it."""
    try:
        return np.array(line.split(",") if line else [], dtype=np.int64)
    except (ValueError, OverflowError):
        try:
            return [int(c) for c in line.split(",")]
        except ValueError as exc:
            raise CertificateFormatError(f"non-integer field: {exc}") from None


def _outcome(make):
    try:
        return make()
    except CertificateFormatError as exc:
        return str(exc)


_ENTRY = st.one_of(
    st.from_regex(r"[0-9]{1,22}", fullmatch=True),
    st.from_regex(r"[ +-]?[0-9_]{0,3}[0-9٠-٩ _]?", fullmatch=True),
    st.sampled_from(["", " ", "_", "1_0", "١", "+1", "-1", " 2", "2 ", "0", "00", "007", "9" * 19, "1" + "0" * 18]),
)
_ONE_WIDTH = st.integers(1, 20).flatmap(
    lambda w: st.lists(st.from_regex(f"[0-9]{{{w}}}", fullmatch=True), min_size=1, max_size=28)
)


@pytest.mark.parametrize("pairs", [1, 7, coloring._TEXT_PAIRS])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    entries=st.one_of(_ONE_WIDTH, st.lists(_ENTRY, min_size=1, max_size=28)),
    extra=st.one_of(st.none(), _ENTRY),
    where=st.integers(0, 28),
    trailing=st.booleans(),
)
def test_colour_line_reads_as_int_reads_it(pairs, entries, extra, where, trailing):
    # signs, spaces, underscores, Unicode digits, leading zeros, empty entries, trailing commas,
    # 19+ digit entries and mixed widths: the one-width reader takes a line only when every entry
    # is ASCII digits of one width <= 18, and reads it as int() does; every other line, and so every
    # message, is the split-and-int() parse's
    if extra is not None:
        entries = entries[:where] + [extra] + entries[where:]
    line = ",".join(entries) + ("," if trailing else "")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_TEXT_PAIRS", pairs)
        fast = coloring._read_digits(line)
        ascii_digits = all(e.isascii() and e.isdigit() for e in entries)
        one_width = not trailing and ascii_digits and len({len(e) for e in entries}) == 1
        if one_width and len(entries[0]) <= 18:
            assert fast is not None and fast.dtype == np.int64 and fast.tolist() == [int(e) for e in entries]
        else:
            assert fast is None
        n = next(n for n in range(2, 10) if n * (n - 1) // 2 >= len(entries))  # often the count, else a count error
        for ell in (2, 10**25):
            text = _HEADER.format(n=n, ell=ell) + f"colors: {line}\n"
            expected = _outcome(lambda: ColoringCertificate(n, ell, 3, _old_parse(line.strip()), "none", 0, 0))
            assert _outcome(lambda: certificate_from_text(text)) == expected


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_narrow_colour_dtypes_are_kept_exact(dtype):
    # the int64 certificate's twins in narrower integer dtypes stay integer arrays, not Python
    # ints, and write, compare and verify as it does
    cert = construct_coloring(build_cf_graph(6), 3, 6, 28, 5, 50, base_label="cf:6")
    twin = ColoringCertificate(
        cert.n, cert.ell, cert.t, cert.colors.astype(dtype), cert.base_graph, cert.seed, cert.attempts_used
    )
    assert (cert.colors.dtype, twin.colors.dtype) == (np.int64, dtype)
    assert twin.to_text() == cert.to_text() and twin == cert
    assert verify_certificate(twin) == verify_certificate(cert)
    bad = np.array(cert.colors)
    bad[[pair_index(0, 1, 28), pair_index(0, 2, 28), pair_index(1, 2, 28)]] = 3
    bad_twin = ColoringCertificate(28, 3, 3, bad.astype(dtype), "none", 0, 0)
    assert verify_certificate(bad_twin) == verify_certificate(ColoringCertificate(28, 3, 3, bad, "none", 0, 0))
    assert not verify_certificate(bad_twin).valid


def test_certificates_compare_by_header_and_colours():
    cert = ColoringCertificate(3, 2, 3, np.array([1, 2, 1]), "none", 0, 0)
    boxed = ColoringCertificate(3, 2, 3, np.array([1, 2, 1], dtype=object), "none", 0, 0)
    assert (cert.colors.dtype, boxed.colors.dtype) == (np.int64, object)
    assert cert == boxed and boxed == cert
    assert cert == ColoringCertificate(3, 2, 3, np.array([1, 2, 1], dtype=np.uint8), "none", 0, 0)
    for other in (
        ColoringCertificate(3, 2, 3, (1, 2, 1), "cf:4", 0, 0),
        ColoringCertificate(3, 2, 3, (1, 2, 1), "none", 1, 0),
        ColoringCertificate(3, 2, 3, (1, 2, 1), "none", 0, 1),
        ColoringCertificate(3, 3, 3, (1, 2, 1), "none", 0, 0),
        ColoringCertificate(3, 2, 4, (1, 2, 1), "none", 0, 0),
        ColoringCertificate(3, 2, 3, (1, 2, 2), "none", 0, 0),
        ColoringCertificate(3, 2, 3, np.array([1, 2, 2], dtype=object), "none", 0, 0),
    ):
        assert cert != other and boxed != other and (cert.to_text() == other.to_text()) is False
    assert cert != cert.to_text()
