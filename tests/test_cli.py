import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import halfmult
from halfmult import cli
from halfmult.cli import build_parser, main
from halfmult.f2 import build_cf_graph, count_isotropic_subspaces
from halfmult.graphs import from_graph6, sample_er_graph
from halfmult.search import min_independence_prob
from perfbench import workloads

from conftest import REPEATED_FIELDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_optimize_p_s_equals_t(capsys):
    code, data = payload(capsys, "optimize-p", "--s-equals-t", "--tol", "1e-7")
    assert code == 0
    assert abs(data["p_star"] - 0.454997) < 1e-5
    assert abs(data["value_per_t2"] - (-0.266027)) < 1e-5
    assert abs(data["value_at_half_per_t2"] - (-0.2599302)) < 1e-6
    assert data["command"].startswith("halfmult optimize-p")


def test_bounds_command(capsys):
    code, data = payload(capsys, "bounds", "--s", "3", "--t", "3")
    assert code == 0
    by_name = {row["name"]: row for row in data["bounds"]}
    assert by_name["n_binomial_lower"]["value"] == pytest.approx(1 / 64)
    assert by_name["ramsey_lower_half"]["value"]["num"] == "1"
    assert by_name["ramsey_lower_half"]["value"]["den"] == "20"
    assert by_name["ramsey_upper_half"]["value"] == pytest.approx(0.25)
    assert all("units" in row for row in data["bounds"])


def test_bounds_with_table_and_ell(capsys, tmp_path):
    tsv = tmp_path / "r.tsv"
    tsv.write_text("3\t4\t9\tsurvey\n")
    code, data = payload(
        capsys, "bounds", "--s", "4", "--t", "4", "--ell", "3", "--ramsey-table", str(tsv)
    )
    assert code == 0
    names = [row["name"] for row in data["bounds"]]
    assert "multicolor_lower" in names
    assert "cf_upper" in names
    # explicit exact p-value overrides the fallback
    code, data = payload(
        capsys, "bounds", "--s", "4", "--t", "4", "--ell", "3", "--p-value", "1/27"
    )
    assert code == 0
    row = next(r for r in data["bounds"] if r["name"] == "multicolor_lower")
    assert "user-supplied" in row["provenance"]


def test_cf_and_exact_pipeline(capsys, tmp_path):
    out = tmp_path / "cf6.g6"
    code, data = payload(capsys, "cf", "--t", "6", "--count-isotropic", "2", "--out", str(out))
    assert code == 0
    assert data["vertices"] == 16
    assert data["edges"] == 60
    assert data["isotropic_count"] == 15
    g = from_graph6(out.read_text().strip())
    assert g.n == 16

    code, data = payload(capsys, "exact", "--in", str(out), "--s", "4")
    assert code == 0
    assert data["probability"]["num"] == "211"
    assert data["probability"]["den"] == "4096"


def test_graph_sample_deterministic(capsys):
    code1, d1 = payload(capsys, "graph", "sample", "--n", "12", "--p", "0.5", "--seed", "9")
    code2, d2 = payload(capsys, "graph", "sample", "--n", "12", "--p", "0.5", "--seed", "9")
    assert code1 == code2 == 0
    assert d1["graph6"] == d2["graph6"]
    assert d1["seed"] == 9


def test_graph_sample_out_holds_the_payload_line(capsys, tmp_path):
    out = tmp_path / "g.g6"
    code, data = payload(capsys, "graph", "sample", "--n", "70", "--p", "0.3", "--seed", "5", "--out", str(out))
    assert code == 0
    assert data["out"] == str(out)
    assert out.read_bytes() == data["graph6"].encode("ascii") + b"\n"
    assert from_graph6(data["graph6"]) == sample_er_graph(70, 0.3, 5)


def test_graph_clique_on_cf(capsys):
    code, data = payload(capsys, "graph", "clique", "--in", "cf:6", "--t", "6")
    assert code == 0
    assert data["has_clique"] is False
    code, data = payload(capsys, "graph", "clique", "--in", "cf:6", "--t", "3")
    assert code == 0
    assert data["has_clique"] is True
    assert len(data["witness"]) == 3


def test_estimate_reports_seed_and_error(capsys, tmp_path):
    out = tmp_path / "k2.g6"
    out.write_text("A_\n")
    code, data = payload(
        capsys, "estimate", "--in", str(out), "--s", "3", "--trials", "50000", "--seed", "21"
    )
    assert code == 0
    assert data["seed"] == 21
    assert abs(data["estimate"] - 0.25) <= 4 * data["std_error"]


def test_color_verify_roundtrip(capsys, tmp_path):
    cert = tmp_path / "cert.txt"
    code, data = payload(
        capsys,
        "color",
        "--ell",
        "2",
        "--t",
        "4",
        "--n",
        "6",
        "--graph",
        "cf:4",
        "--seed",
        "11",
        "--attempts",
        "200",
        "--out",
        str(cert),
    )
    assert code == 0
    assert data["status"] == "success"
    code, data = payload(capsys, "verify", str(cert))
    assert code == 0
    assert data["valid"] is True


@pytest.mark.parametrize("t", [12, 14])
def test_graph_clique_absence_on_large_cf(capsys, t):
    # proved by the F2 rank of the adjacency, t - 2, without a search
    code, data = payload(capsys, "graph", "clique", "--in", f"cf:{t}", "--t", str(t))
    assert code == 0
    assert data["has_clique"] is False


def test_cf12_certificate_verifies(capsys, tmp_path):
    cert = tmp_path / "cert.txt"
    code, data = payload(
        capsys, "color", "--graph", "cf:12", "--t", "12", "--n", "600", "--ell", "3",
        "--seed", "1", "--out", str(cert),
    )
    assert code == 0
    assert data["status"] == "success"
    code, data = payload(capsys, "verify", str(cert))
    assert code == 0
    assert data["valid"] is True


def test_verify_skips_absent_colours(capsys, tmp_path):
    # the classes of colours absent from the array are edgeless and are
    # never built, so a huge ell costs nothing
    cert = tmp_path / "cert.txt"
    cert.write_text(
        "halfmult-certificate v1\n"
        "n: 3\nell: 100000000\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
        "colors: 1,100000000,7\n"
    )
    start = time.perf_counter()
    code, data = payload(capsys, "verify", str(cert))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["valid"] is True


def test_color_failure_exits_1(capsys, tmp_path):
    # every 2-coloring of K_6 has a monochromatic triangle
    base = tmp_path / "k2.g6"
    base.write_text("A_\n")
    code, data = payload(
        capsys,
        "color", "--ell", "2", "--t", "3", "--n", "6",
        "--graph", str(base), "--seed", "0", "--attempts", "5",
    )
    assert code == 1
    assert data["status"] == "failure"
    assert sum(data["violations_by_color"].values()) == 5


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "format error" in err


def test_verify_invalid_certificate_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    colors = ",".join(["1"] * 15)
    bad.write_text(
        "halfmult-certificate v1\n"
        "n: 6\nell: 2\nt: 4\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
        f"colors: {colors}\n"
    )
    code, data = payload(capsys, "verify", str(bad))
    assert code == 1
    assert data["valid"] is False
    assert data["violating_color"] == 1


def test_verify_malformed_certificate_exits_2(capsys, tmp_path):
    bad = tmp_path / "mal.txt"
    bad.write_text("halfmult-certificate v1\nn: 6\nell: 2\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize("field", sorted(REPEATED_FIELDS))
def test_verify_repeated_field_exits_2(capsys, tmp_path, field):
    cert = tmp_path / "cert.txt"
    cert.write_text(REPEATED_FIELDS[field])
    code, out, err = run(capsys, "verify", str(cert))
    assert (code, out, err) == (2, "", f"format error: repeated field '{field}'\n")


@pytest.mark.parametrize(
    "content",
    [b"garbage!!\n", b"", b"\n  \n", b"A\xe9\n"],
    ids=["malformed-graph6", "empty", "blank", "not-ascii"],
)
def test_bad_graph_file_exits_2(capsys, tmp_path, content):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(content)
    for argv in (["exact", "--in", str(bad), "--s", "2"], ["graph", "clique", "--in", str(bad), "--t", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "format error" in err


@pytest.mark.parametrize(
    "argv",
    [["exact", "--s", "2"], ["estimate", "--s", "2", "--trials", "100", "--seed", "1"]],
    ids=["exact", "estimate"],
)
def test_zero_vertex_graph_exits_1(capsys, tmp_path, argv):
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"?\n")
    code, out, err = run(capsys, *argv, "--in", str(empty))
    assert code == 1
    assert out == ""
    assert err == "error: graph has no vertices\n"


def test_color_on_zero_vertex_base_graph(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"?\n")
    argv = ["color", "--graph", str(empty), "--t", "3", "--n", "4", "--seed", "1"]
    code, out, err = run(capsys, *argv, "--ell", "3")
    assert (code, out, err) == (1, "", "error: base graph has no vertices\n")
    code, _, _ = run(capsys, *argv, "--ell", "2")  # two colours never read the base graph
    assert code == 0


@pytest.mark.parametrize("spec", ["cf:abc", "cf:"])
def test_cf_spec_without_integer_exits_2(capsys, spec):
    code, out, err = run(capsys, "exact", "--in", spec, "--s", "2")
    assert code == 2
    assert out == ""
    assert "format error" in err and "cf:" in err


def test_cf_spec_with_odd_t_is_domain_error(capsys):
    code, _, err = run(capsys, "exact", "--in", "cf:5", "--s", "2")
    assert code == 1
    assert "even" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bounds", "--s", "3", "--t", "3", "--ell", "3", "--p-value", "1/0"], 2),
        (["bounds", "--s", "3", "--t", "3", "--ramsey-table", "{missing}"], 2),
        (["cf", "--t", "4", "--out", "{missing}/cf4.g6"], 2),
        (["optimize-p", "--s", "2", "--t", "0"], 1),
        (["bounds", "--s", "4", "--t", "4", "--ramsey-table", "{short}"], 2),
        (["bounds", "--s", "4", "--t", "4", "--ramsey-table", "{not_int}"], 2),
        (["bounds", "--s", "4", "--t", "4", "--ramsey-table", "{not_utf8}"], 2),
        (["bounds", "--s", "3", "--t", "3", "--p-value", "1/2"], 2),
        (["bounds", "--s", "3", "--t", "3", "--ell", "3", "--p-value", "abc"], 2),
        (["bounds", "--s", "3", "--t", "3", "--ell", "3", "--p-value", "x/2"], 2),
        (["bounds", "--s", "3", "--t", "3", "--ell", "3", "--p-value", "1/x"], 2),
        (["nrec", "--s", "5", "--t", "5", "--tol", "inf"], 1),
        (["nrec", "--s", "5", "--t", "5", "--tol", "nan"], 1),
        (["optimize-p", "--s", "2", "--t", "3", "--tol", "inf"], 1),
        (["optimize-p", "--s-equals-t", "--tol", "nan"], 1),
        (["search", "--s", "2", "--t", "3", "--max-n", "0"], 1),
        (["search", "--s", "2", "--t", "3", "--max-n", "-1"], 1),
        (["cf", "--t", "100000"], 1),
        (["exact", "--in", "cf:5000", "--s", "3"], 1),
        (["color", "--graph", "cf:4", "--t", "4", "--n", "100000", "--ell", "3", "--seed", "1", "--attempts", "1"], 1),
        (["optimize-p", "--s-equals-t", "--s", "3", "--t", "5"], 2),
        (["optimize-p", "--s", "3"], 2),
    ],
    ids=[
        "p-value-zero-denominator",
        "missing-ramsey-table",
        "unwritable-out",
        "t-zero",
        "ramsey-table-three-fields",
        "ramsey-table-non-integer",
        "ramsey-table-not-utf8",
        "p-value-without-ell",
        "p-value-not-a-number",
        "p-value-bad-numerator",
        "p-value-bad-denominator",
        "nrec-tol-inf",
        "nrec-tol-nan",
        "optimize-p-tol-inf",
        "optimize-p-tol-nan",
        "search-max-n-zero",
        "search-max-n-negative",
        "cf-t-past-int-printing",
        "exact-cf-thousands-of-digits",
        "color-past-the-vertex-budget",
        "optimize-p-s-equals-t-with-s-and-t",
        "optimize-p-s-without-t",
    ],
)
def test_bad_inputs_exit_cleanly(capsys, tmp_path, argv, expected):
    tables = {"short": b"4\t4\t18\n", "not_int": b"4\t4\tx\tsurvey\n", "not_utf8": b"4\t4\t18\t\xff\n"}
    for name, content in tables.items():
        (tmp_path / f"{name}.tsv").write_bytes(content)
    files = {name: tmp_path / f"{name}.tsv" for name in tables}
    argv = [a.format(missing=tmp_path / "missing", **files) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert "Traceback" not in err and err.startswith(("format error", "io error", "error"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nrec", "--s", "5", "--t", "5", "--tol", "inf", "--json"], "error: tol must be positive and finite\n"),
        (["optimize-p", "--s-equals-t", "--tol", "nan"], "error: tol must be positive and finite\n"),
        (["bounds", "--s", "3", "--t", "3", "--ell", "3", "--p-value", "x/2"], "format error: --p-value x/2 is neither NUM/DEN nor a float\n"),
        (["search", "--s", "2", "--t", "3", "--max-n", "0"], "error: n_max must be at least 1, got 0\n"),
        (["cf", "--t", "100000"], "error: 2^(t-2) = 2^99998 exceeds the vertex budget 16384\n"),
        (["exact", "--in", "cf:5000", "--s", "3"], "error: 2^(t-2) = 2^4998 exceeds the vertex budget 16384\n"),
        (
            ["optimize-p", "--s-equals-t", "--s", "3", "--t", "5"],
            "format error: --s-equals-t takes no --s or --t: it reports the rate at s = t = 1\n",
        ),
        (["optimize-p", "--s", "3"], "format error: provide both --s and --t, or --s-equals-t\n"),
        (["graph", "sample", "--n", "100000", "--p", "0", "--seed", "1"], "error: n = 100000 exceeds the vertex budget 16384\n"),
    ],
)
def test_bad_values_name_the_argument(capsys, argv, message):
    assert run(capsys, *argv)[1:] == ("", message)


@pytest.mark.parametrize("value", ["0", "2", "nan"])
def test_p_value_needs_ell(capsys, value):
    code, out, err = run(capsys, "bounds", "--s", "3", "--t", "3", "--p-value", value)
    assert (code, out) == (2, "")
    assert "--ell" in err


@pytest.mark.parametrize("command", ["nrec", "bounds"])
def test_recursion_at_large_s_exits_0(capsys, command):
    # N(s,t) memoises s x t values; none may recurse s + t deep
    code, out, err = run(capsys, command, "--s", "500", "--t", "3")
    assert code == 0
    assert "Traceback" not in out + err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string digit limit")
def test_exact_values_past_the_digit_limit_print_whole(capsys, tmp_path):
    # the interpreter refuses to turn an int of over 4300 digits into a string; a report
    # lifts that limit for itself alone, so a certificate's colours still meet it
    limit = sys.get_int_max_str_digits()
    code, data = payload(capsys, "search", "--s", "100000", "--t", "3", "--max-n", "3")
    assert (code, sys.get_int_max_str_digits()) == (0, limit)
    value = data["min_prob"]
    assert len(value["den"]) == 30103
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(value["num"]), int(value["den"])) == min_independence_prob(100000, 3, 3).min_prob
    finally:
        sys.set_int_max_str_digits(limit)
    wide = "1" + "0" * 4999  # valid as a colour and as ell, were its digits read
    cert = tmp_path / "cert.txt"
    header = "halfmult-certificate v1\nn: 3\nell: {}\nt: 3\nbase_graph: none\nseed: 0\nattempts_used: 0\n"
    cert.write_text(header.format(wide) + f"colors: {wide},1,2\n")
    code, out, err = run(capsys, "verify", str(cert))
    assert (code, out) == (2, "")
    assert "format error" in err and sys.get_int_max_str_digits() == limit


def test_non_ascii_certificate_exits_2(capsys, tmp_path):
    bad = tmp_path / "cert.txt"
    bad.write_bytes(b"halfmult-certificate v1\n\xff\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "format error" in err


def test_closed_stdout_exits_2_without_traceback():
    src = str(Path(halfmult.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "halfmult.cli", "nrec", "--s", "2", "--t", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_search_command(capsys, tmp_path):
    witness_file = tmp_path / "wit.g6"
    code, data = payload(
        capsys,
        "search",
        "--s",
        "2",
        "--t",
        "3",
        "--max-n",
        "4",
        "--witness-out",
        str(witness_file),
    )
    assert code == 0
    assert data["min_prob"]["num"] == "1"
    assert data["min_prob"]["den"] == "2"
    assert "A_" in data["witnesses"]
    assert witness_file.read_text().splitlines() == list(data["witnesses"])


@pytest.mark.parametrize("t", range(4, 17, 2))
def test_cf_counts_match_the_built_graph(capsys, t):
    g = build_cf_graph(t)
    for k in [None, 0, t // 2 - 1]:
        extra = [] if k is None else ["--count-isotropic", str(k)]
        code, data = payload(capsys, "cf", "--t", str(t), *extra)
        assert code == 0
        assert (data["vertices"], data["edges"]) == (g.n, g.edge_count)
        if k is not None:
            assert data["isotropic_count"] == count_isotropic_subspaces(t, k)


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("cf:5", (1, "error: t must be even and >= 4, got 5\n")),
        ("cf:2", (1, "error: t must be even and >= 4, got 2\n")),
        ("cf:-4", (1, "error: t must be even and >= 4, got -4\n")),
        ("cf:18", (1, "error: 2^(t-2) = 65536 exceeds the vertex budget 16384\n")),
        ("cf:abc", (2, "format error: graph spec 'cf:abc' needs an integer after cf:\n")),
        ("cf:", (2, "format error: graph spec 'cf:' needs an integer after cf:\n")),
    ],
)
def test_every_cf_route_checks_t_alike(capsys, spec, expected):
    # estimate reads cf:t from its form and cf counts it in closed form; the
    # others build the graph. All take t through one check.
    argvs = [
        ["estimate", "--in", spec, "--s", "2", "--trials", "3", "--seed", "1"],
        ["exact", "--in", spec, "--s", "2"],
        ["graph", "clique", "--in", spec, "--t", "3"],
        ["color", "--graph", spec, "--ell", "3", "--t", "4", "--n", "5", "--seed", "1"],
    ]
    if spec[3:].lstrip("-").isdigit():
        argvs.append(["cf", "--t", spec[3:]])
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (expected[0], "", expected[1]), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "--t", "16", "--json"],
        ["estimate", "--in", "cf:14", "--s", "6", "--trials", "1000", "--seed", "1", "--json"],
    ],
    ids=["cf16", "estimate-cf14"],
)
def test_cf_answers_hold_no_rows(capsys, argv):
    # cf:16 as rows is 16384 ints of 2 KB; cf:14 packed is a 2 MB table. The
    # first run loads what the job imports lazily (numpy.random), the second
    # is measured.
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "cf", "--t", "5")
    assert code == 1
    assert "even" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_human_output_has_repro_line(capsys):
    code, out, _ = run(capsys, "nrec", "--s", "2", "--t", "3")
    assert code == 0
    assert "# reproduce: halfmult nrec --s 2 --t 3" in out
    assert "0.3819660113" in out


def _strip_timestamp(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# generated:")]


def test_rerun_is_byte_identical_modulo_timestamp(capsys):
    _, out1, _ = run(capsys, "graph", "sample", "--n", "15", "--p", "0.4", "--seed", "3")
    _, out2, _ = run(capsys, "graph", "sample", "--n", "15", "--p", "0.4", "--seed", "3")
    assert _strip_timestamp(out1) == _strip_timestamp(out2)
    _, out3, _ = run(capsys, "bounds", "--s", "3", "--t", "4")
    _, out4, _ = run(capsys, "bounds", "--s", "3", "--t", "4")
    assert _strip_timestamp(out3) == _strip_timestamp(out4)


def test_search_flags_proven_exact_minimum(capsys):
    code, data = payload(capsys, "search", "--s", "2", "--t", "3", "--max-n", "4")
    assert code == 0
    assert "exact" in data.get("note", "")


def test_threads_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nrec", "--s", "2", "--t", "3", "--threads", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--threads" in err
    assert "Traceback" not in err


_LEAVES = [
    ["cf"], ["graph", "sample"], ["graph", "clique"], ["exact"], ["estimate"], ["bounds"],
    ["optimize-p"], ["nrec"], ["color"], ["verify"], ["search"],
]


_USAGE = """usage: halfmult [-h] [--version]
                {cf,graph,exact,estimate,bounds,optimize-p,nrec,color,verify,search}
                ...
"""
_GRAPH_USAGE = "usage: halfmult graph [-h] {sample,clique} ...\n"
_TOP_HELP = _USAGE + """
Half-multiplicity Ramsey toolkit: probabilities, bounds, and colorings.

positional arguments:
  {cf,graph,exact,estimate,bounds,optimize-p,nrec,color,verify,search}
    cf                  build the symplectic graph
    graph               sample or query graphs
    exact               exact independence probability
    estimate            Monte Carlo estimate
    bounds              bound battery for one (s,t)
    optimize-p          minimize the random exponent
    nrec                neighborhood recursion N(s,t)
    color               construct a coloring certificate
    verify              verify a coloring certificate
    search              restricted minimum over K_t-free graphs

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["-h"], (0, _TOP_HELP, "")),
        (["--version"], (0, f"halfmult {halfmult.__version__}\n", "")),
        ([], (2, "", _USAGE + "halfmult: error: the following arguments are required: command\n")),
        (
            ["bogus"],
            (
                2,
                "",
                _USAGE + "halfmult: error: argument command: invalid choice: 'bogus' (choose from 'cf', "
                "'graph', 'exact', 'estimate', 'bounds', 'optimize-p', 'nrec', 'color', 'verify', 'search')\n",
            ),
        ),
        (["graph"], (2, "", _GRAPH_USAGE + "halfmult graph: error: the following arguments are required: graph_command\n")),
        (
            ["graph", "bogus"],
            (
                2,
                "",
                _GRAPH_USAGE + "halfmult graph: error: argument graph_command: invalid choice: 'bogus' "
                "(choose from 'sample', 'clique')\n",
            ),
        ),
        (["nrec", "--s", "3", "--t", "3", "extra"], (2, "", _USAGE + "halfmult: error: unrecognized arguments: extra\n")),
    ],
    ids=["help", "version", "no-command", "bogus", "graph", "graph-bogus", "extra"],
)
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == expected


@pytest.fixture
def argument_parsers(monkeypatch):
    """prog of every ArgumentParser made, subparsers included."""
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return made


def _parses_with_its_leaf_parser_alone(argument_parsers, argv) -> None:
    argument_parsers.clear()
    args = cli._parse(argv)
    path = [args.command] + ([args.graph_command] if args.command == "graph" else [])
    assert callable(args.func) and argv[: len(path)] == path, argv
    assert argument_parsers == ["halfmult " + " ".join(path)], argv


def test_each_readme_example_builds_one_leaf_parser(argument_parsers):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [shlex.split(line)[1:] for line in readme.read_text().splitlines() if line.startswith("halfmult ")]
    assert len(examples) >= 8
    for argv in examples:
        _parses_with_its_leaf_parser_alone(argument_parsers, argv)


def test_benchmark_jobs_and_leaf_help_build_one_parser(capsys, argument_parsers):
    # Every benchmark job's argv, as the benchmark runs it, is parsed by its leaf's
    # parser alone: the whole tree costs more than a short job.
    for workload in workloads.WORKLOADS:
        jobs = workloads.job_list(workload, 1, 20, workloads.load_refs(workload))
        assert jobs, workload
        for job in jobs:
            _parses_with_its_leaf_parser_alone(argument_parsers, [*job.argv, "--json"])
    argument_parsers.clear()
    with pytest.raises(SystemExit) as exc:
        main(["nrec", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: halfmult nrec ")
    assert argument_parsers == ["halfmult nrec"]


def test_main_builds_only_the_chosen_parsers(capsys, argument_parsers):
    # a valid leaf argv builds its leaf parser and no other
    assert main(["nrec", "--s", "3", "--t", "3", "--json"]) == 0
    assert argument_parsers == ["halfmult nrec"]
    argument_parsers.clear()
    assert main(["graph", "sample", "--n", "5", "--p", "0.5", "--seed", "1", "--json"]) == 0
    assert argument_parsers == ["halfmult graph sample"]
    argument_parsers.clear()
    build_parser()
    assert len(argument_parsers) == 13  # the top level, the ten commands and graph's two leaves


# Per leaf: argv with only its required arguments, then with every option
# (abbreviated, with = and with -- where argparse takes them), then argv
# whose value argparse cannot convert. A leaf with no typed argument has none.
_LEAF_ARGV = {
    "cf": (["--t", "6"], ["--json", "--t=6", "--count", "2", "--out", "x.g6"], ["--t", "six"]),
    "graph sample": (
        ["--n", "5", "--p", "0.5", "--seed", "1"],
        ["--seed", "1", "--p=.5", "--n", "5", "--out", "x", "--js"],
        ["--n", "5", "--p", "half", "--seed", "1"],
    ),
    "graph clique": (["--in", "cf:6", "--t", "4"], ["--t", "4", "--in=x.g6", "--json"], ["--in", "cf:6", "--t", "4.0"]),
    "exact": (["--in", "cf:6", "--s", "3"], ["--json", "--in", "x.g6", "--s=3"], ["--in", "cf:6", "--s", "x"]),
    "estimate": (
        ["--in", "cf:6", "--s", "3", "--trials", "10", "--seed", "1"],
        ["--trials", "10", "--seed", "-1", "--in", "x", "--s", "3", "--json"],
        ["--in", "cf:6", "--s", "3", "--trials", "1e3", "--seed", "1"],
    ),
    "bounds": (
        ["--s", "3", "--t", "3"],
        ["--s", "3", "--t", "3", "--ell", "3", "--p-value", "1/2", "--ramsey", "r.tsv", "--json"],
        ["--s", "3", "--t", "3", "--ell", "three"],
    ),
    "optimize-p": ([], ["--s", "2", "--t", "3", "--s-equals-t", "--tol", "1e-9", "--json"], ["--tol", "tight"]),
    "nrec": (["--s", "3", "--t", "3"], ["--tol=1e-9", "--t", "3", "--s", "3", "--json"], ["--s", "3", "--t", ""]),
    "color": (
        ["--ell", "3", "--t", "4", "--n", "8", "--graph", "cf:4", "--seed", "1"],
        ["--ell", "3", "--t", "4", "--n", "8", "--graph", "cf:4", "--seed", "1", "--attempts", "5", "--out", "c.txt", "--json"],
        ["--ell", "3", "--t", "4", "--n", "8", "--graph", "cf:4", "--seed", "1", "--attempts", "many"],
    ),
    "verify": (["c.txt"], ["--json", "--", "c.txt"], None),
    "search": (
        ["--s", "3", "--t", "3", "--max-n", "5"],
        ["--s", "3", "--t", "3", "--max-n", "5", "--dedup-iso", "--witness-out", "w.g6", "--json"],
        ["--s", "3", "--t", "3", "--max-n", "5.5"],
    ),
}


def _parsed(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("path", _LEAVES, ids=" ".join)
def test_leaf_path_parses_as_the_full_tree(monkeypatch, capsys, argument_parsers, path):
    monkeypatch.setenv("COLUMNS", "80")
    assert sorted(_LEAF_ARGV) == sorted(" ".join(p) for p in _LEAVES)
    required, full, bad_type = _LEAF_ARGV[" ".join(path)]
    # (argv, whether the leaf parser alone answers it): a trailing --version goes to the tree
    cases = [(path + required, True), (path + full, True), (path + required[:-1], True)]  # the last misses a value
    if bad_type is not None:
        cases.append((path + bad_type, True))
    cases += [(path + required + ["-h"], True), (path + ["--help"], True), (path + required + ["--version"], False)]
    for argv, leaf_only in cases:
        argument_parsers.clear()
        leaf = _parsed(cli._parse, argv, capsys)
        built = list(argument_parsers)
        assert leaf == _parsed(lambda a: build_parser().parse_args(a), argv, capsys), argv
        assert (built == ["halfmult " + " ".join(path)]) is leaf_only, (argv, built)
        if argv in (path + required, path + full):
            assert isinstance(leaf[0], argparse.Namespace) and leaf[0].func, argv
        else:
            assert leaf[0] in (0, 2) and leaf[1] + leaf[2], argv


# Small or malformed values only: every valid combination must finish in
# milliseconds, so no size here may reach a budget-sized computation.
_FUZZ_INTS = st.sampled_from(["-3", "0", "1", "2", "3", "4", "abc", "", "2.5", "1e3"])
_FUZZ_PROBS = st.sampled_from(["1/0", "1/27", "0/1", "-1/2", "0.5", "2", "x", "/", "1/", "nan"])
_FUZZ_CF = st.sampled_from(["cf:", "cf:abc", "cf:4", "cf:5", "cf:6", "cf:-2", "cf:4.0", "cf:0x4"])
_FUZZ_COMMANDS = [
    ["cf", "--t", "I"],
    ["cf", "--t", "I", "--count-isotropic", "I"],
    ["graph", "sample", "--n", "I", "--p", "0.5", "--seed", "I"],
    ["graph", "clique", "--in", "G", "--t", "I"],
    ["exact", "--in", "G", "--s", "I"],
    ["estimate", "--in", "G", "--s", "I", "--trials", "I", "--seed", "I"],
    ["bounds", "--s", "I", "--t", "I"],
    ["bounds", "--s", "I", "--t", "I", "--ell", "I"],
    ["bounds", "--s", "I", "--t", "I", "--ell", "I", "--p-value", "P"],
    ["bounds", "--s", "I", "--t", "I", "--ramsey-table", "F"],
    ["optimize-p", "--s", "I", "--t", "I"],
    ["nrec", "--s", "I", "--t", "I"],
    ["color", "--ell", "I", "--t", "I", "--n", "I", "--graph", "G", "--seed", "I", "--attempts", "I"],
    ["verify", "F"],
    ["search", "--s", "I", "--t", "I", "--max-n", "I"],
]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"missing": root / "missing.g6"}
    for name, content in {"empty": b"", "blank": b"\n \n", "junk": b"garbage!!\n", "path4": b"Ch\n", "edgeless0": b"?\n"}.items():
        files[name] = root / f"{name}.g6"
        files[name].write_bytes(content)
    return {name: str(path) for name, path in files.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_no_traceback(fuzz_files, data):
    template = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    paths = st.sampled_from(sorted(fuzz_files.values()))
    argv = []
    for token in template:
        if token == "I":
            token = data.draw(_FUZZ_INTS)
        elif token == "P":
            token = data.draw(_FUZZ_PROBS)
        elif token == "G":
            token = data.draw(st.one_of(_FUZZ_CF, paths))
        elif token == "F":
            token = data.draw(paths)
        argv.append(token)
    if data.draw(st.booleans()):
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
