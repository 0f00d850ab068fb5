"""Single entry point exposing every module as a subcommand.

All reports echo the full parameter set (including seeds) plus a
reproduction command line; numeric payloads are byte-identical across
reruns. --json swaps the human table for one JSON object with stable keys.
Exit codes: 0 success/valid, 1 domain error or invalid result, 2 usage or
format/IO error.

A call builds the parser of the leaf command argv names, which prints that
leaf's help and errors too. Only an argv that names no leaf, or leaves the
leaf arguments it does not take, builds the whole command tree, so argparse
writes every usage and error text as the tree does. A new command is one
_COMMANDS entry: its help text and a function that adds its arguments and func.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from fractions import Fraction

from . import __version__
from .bounds import KnownRamseyTable, n_recursion, optimize_p, random_exponent, standard_report
from .coloring import (
    certificate_from_text,
    construct_coloring,
    ConstructionFailure,
    verify_certificate,
)
from .errors import BudgetError, CertificateFormatError, FormatError, RamseyTableError
from .f2 import SymplecticSpace, build_cf_graph, cf_counts, cf_dimension, count_isotropic_subspaces
from .graphs import (
    find_clique,
    from_graph6,
    sample_er_graph,
    to_graph6,
    write_graph6_file,
)
from .prob import exact_independence_prob, mc_independence_prob
from .search import known_exact_value, min_independence_prob

_FMT = "{:.10g}"


def _digits(n: int) -> str:
    """str(n), lifting the interpreter's int-to-string digit limit (a guard for input) just for an n past it."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{_digits(x.numerator)}/{_digits(x.denominator)} ({_FMT.format(float(x))})"
    if isinstance(x, float):
        return _FMT.format(x)
    return str(x)


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": _digits(x.numerator), "den": _digits(x.denominator), "decimal": float(x)}
    if isinstance(x, tuple):
        return list(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit(args, payload: dict) -> None:
    """Render one report: JSON object or human table with a repro line."""
    repro = "halfmult " + shlex.join(args._argv)
    if args.json:
        payload = {"command": repro, **{k: _jsonable(v) for k, v in payload.items()}}
        print(json.dumps(payload, indent=2, default=str))
        return
    print(f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    print(f"# reproduce: {repro}")
    for key, value in payload.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item if not isinstance(item, dict) else json.dumps(_jsonable(item))}")
        elif isinstance(value, dict):
            print(f"{key}: {json.dumps(_jsonable(value))}")
        else:
            print(f"{key}: {_fmt(value)}")


def _cf_t(spec: str) -> int:
    """t of a cf:<t> graph spec."""
    try:
        return int(spec[3:])
    except ValueError:
        raise FormatError(f"graph spec {spec!r} needs an integer after cf:") from None


def _load_graph(spec: str):
    if spec.startswith("cf:"):
        return build_cf_graph(_cf_t(spec)), spec
    try:
        with open(spec, encoding="ascii") as fh:
            lines = fh.read().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read graph file {spec}: {exc}") from None
    if not lines:
        raise FormatError(f"graph file {spec} is empty")
    try:
        return from_graph6(lines[0]), lines[0]
    except ValueError as exc:
        raise FormatError(f"graph file {spec} is not graph6: {exc}") from None


def _ramsey_table(path: str | None) -> KnownRamseyTable:
    table = KnownRamseyTable.bundled()
    if path:
        table.load_tsv(path)
    return table


def _parse_prob(text: str):
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return float(text)
    except ZeroDivisionError:
        raise FormatError(f"--p-value {text} has a zero denominator") from None
    except ValueError:
        raise FormatError(f"--p-value {text} is neither NUM/DEN nor a float") from None


def _cmd_cf(args) -> int:
    n, edges = cf_counts(args.t)  # the graph is built only to be written
    payload = {
        "t": args.t,
        "vertices": n,
        "edges": edges,
    }
    if args.count_isotropic is not None:
        payload["isotropic_dimension"] = args.count_isotropic
        payload["isotropic_count"] = count_isotropic_subspaces(args.t, args.count_isotropic)
    if args.out:
        write_graph6_file(args.out, [build_cf_graph(args.t)])
        payload["out"] = args.out
    _emit(args, payload)
    return 0


def _cmd_graph_sample(args) -> int:
    g = sample_er_graph(args.n, args.p, args.seed)
    payload = {
        "n": args.n,
        "p": args.p,
        "seed": args.seed,
        "edges": g.edge_count,
        "graph6": to_graph6(g),
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload["graph6"] + "\n")
        payload["out"] = args.out
    _emit(args, payload)
    return 0


def _cmd_graph_clique(args) -> int:
    g, label = _load_graph(args.infile)
    witness = find_clique(g, args.t)
    payload = {
        "graph": label,
        "n": g.n,
        "t": args.t,
        "has_clique": witness is not None,
    }
    if witness is not None:
        payload["witness"] = list(witness)
    _emit(args, payload)
    return 0


def _cmd_exact(args) -> int:
    g, label = _load_graph(args.infile)
    p = exact_independence_prob(g, args.s)
    _emit(args, {"graph": label, "n": g.n, "s": args.s, "probability": p, "units": "probability"})
    return 0


def _cmd_estimate(args) -> int:
    if args.infile.startswith("cf:"):
        # the form answers every pair, so the 2^(t-2) rows are never built
        g = SymplecticSpace(cf_dimension(_cf_t(args.infile)))
        n, label = g.size, args.infile
    else:
        g, label = _load_graph(args.infile)
        n = g.n
    est = mc_independence_prob(g, args.s, args.trials, args.seed)
    _emit(
        args,
        {
            "graph": label,
            "n": n,
            "s": args.s,
            "trials": est.trials,
            "seed": est.seed,
            "estimate": est.estimate,
            "std_error": est.std_error,
            "units": "probability",
        },
    )
    return 0


def _cmd_bounds(args) -> int:
    if args.p_value is not None and args.ell is None:
        raise FormatError("--p-value feeds the multicolor bound, which needs --ell")
    table = _ramsey_table(args.ramsey_table)
    p_value = _parse_prob(args.p_value) if args.p_value else None
    reports = standard_report(args.s, args.t, ell=args.ell, table=table, p_value=p_value)
    rows = [
        {
            "name": r.name,
            "parameters": r.parameters,
            "value": _jsonable(r.value) if isinstance(r.value, Fraction) else r.value,
            "rendered": r.render_value(),
            "units": r.units,
            "provenance": r.provenance,
        }
        for r in reports
    ]
    _emit(args, {"s": args.s, "t": args.t, "bounds": rows})
    return 0


def _cmd_optimize_p(args) -> int:
    if args.s_equals_t:
        if args.s is not None or args.t is not None:
            raise FormatError("--s-equals-t takes no --s or --t: it reports the rate at s = t = 1")
        s = t = 1  # the normalized rate at s=t is independent of t
    else:
        if args.s is None or args.t is None:
            raise FormatError("provide both --s and --t, or --s-equals-t")
        s, t = args.s, args.t
        if s < 1 or t < 1:
            raise ValueError(f"--s and --t must be positive, got s={s}, t={t}")
    p_star, value = optimize_p(s, t, args.tol)
    payload = {
        "s": s,
        "t": t,
        "tol": args.tol,
        "p_star": p_star,
        "value": value,
        "value_per_t2": value / (t * t),
        "value_at_half_per_t2": random_exponent(0.5, s, t) / (t * t),
        "units": "natural-log exponent (per_t2 fields divide by t^2)",
    }
    _emit(args, payload)
    return 0


def _cmd_nrec(args) -> int:
    value = n_recursion(args.s, args.t, args.tol)
    _emit(
        args,
        {"s": args.s, "t": args.t, "tol": args.tol, "value": value, "units": "probability"},
    )
    return 0


def _cmd_color(args) -> int:
    g, label = _load_graph(args.graph)
    result = construct_coloring(
        g, args.ell, args.t, args.n, args.seed, args.attempts, base_label=label
    )
    if isinstance(result, ConstructionFailure):
        _emit(
            args,
            {
                "status": "failure",
                "n": args.n,
                "ell": args.ell,
                "t": args.t,
                "seed": args.seed,
                "attempts": result.attempts,
                "violations_by_color": result.by_color,
            },
        )
        return 1
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.writelines(result.text_blocks())
    _emit(
        args,
        {
            "status": "success",
            "n": result.n,
            "ell": result.ell,
            "t": result.t,
            "seed": result.seed,
            "attempts_used": result.attempts_used,
            "base_graph": result.base_graph,
            "out": args.out or "(not written)",
        },
    )
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.certificate, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateFormatError(f"cannot read certificate: {exc}") from None
    cert = certificate_from_text(text)
    result = verify_certificate(cert)
    payload = {
        "certificate": args.certificate,
        "n": cert.n,
        "ell": cert.ell,
        "t": cert.t,
        "valid": result.valid,
    }
    if not result.valid:
        payload["violating_color"] = result.violating_color
        payload["witness"] = list(result.witness)
    _emit(args, payload)
    return 0 if result.valid else 1


def _cmd_search(args) -> int:
    result = min_independence_prob(args.s, args.t, args.max_n, dedup_iso=args.dedup_iso)
    payload = {
        "s": args.s,
        "t": args.t,
        "n_max": args.max_n,
        "scope": f"restricted to n <= {args.max_n} (labeled enumeration)",
        "min_prob": result.min_prob,
        "graphs_scanned": result.graphs_scanned,
        "witnesses": list(result.witnesses),
    }
    proven = known_exact_value(args.s, args.t)
    if proven is not None and proven == result.min_prob:
        payload["note"] = "restricted minimum equals the proven infimum: this value is exact"
    if args.witness_out:
        with open(args.witness_out, "w", encoding="ascii") as fh:
            for g6 in result.witnesses:
                fh.write(g6 + "\n")
        payload["witness_out"] = args.witness_out
    _emit(args, payload)
    return 0


def _args_cf(p) -> None:
    p.add_argument("--t", type=int, required=True, help="even clique bound; 2^(t-2) vertices")
    p.add_argument("--count-isotropic", type=int, default=None, metavar="K")
    p.add_argument("--out", help="write the graph as graph6")
    p.set_defaults(func=_cmd_cf)


def _args_graph_sample(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph_sample)


def _args_graph_clique(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_graph_clique)


def _args_exact(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_exact)


def _args_estimate(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_estimate)


def _args_bounds(p) -> None:
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--ramsey-table", metavar="TSV")
    p.add_argument("--p-value", metavar="NUM/DEN|FLOAT", help="upper bound on P(t,t) for the multicolor bound")
    p.set_defaults(func=_cmd_bounds)


def _args_optimize_p(p) -> None:
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--s-equals-t", action="store_true", help="normalized diagonal rate")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_optimize_p)


def _args_nrec(p) -> None:
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_nrec)


def _args_color(p) -> None:
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", required=True, metavar="FILE.g6|cf:T")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--attempts", type=int, default=1000)
    p.add_argument("--out", metavar="CERT.txt")
    p.set_defaults(func=_cmd_color)


def _args_verify(p) -> None:
    p.add_argument("certificate", metavar="CERT.txt")
    p.set_defaults(func=_cmd_verify)


def _args_search(p) -> None:
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--dedup-iso", action="store_true")
    p.add_argument("--witness-out", metavar="FILE.g6")
    p.set_defaults(func=_cmd_search)


# name -> (help, leaf argument function | nested table). A leaf also gets --json.
_COMMANDS = {
    "cf": ("build the symplectic graph", _args_cf),
    "graph": (
        "sample or query graphs",
        {
            "sample": ("seeded Erdos-Renyi sample", _args_graph_sample),
            "clique": ("clique search", _args_graph_clique),
        },
    ),
    "exact": ("exact independence probability", _args_exact),
    "estimate": ("Monte Carlo estimate", _args_estimate),
    "bounds": ("bound battery for one (s,t)", _args_bounds),
    "optimize-p": ("minimize the random exponent", _args_optimize_p),
    "nrec": ("neighborhood recursion N(s,t)", _args_nrec),
    "color": ("construct a coloring certificate", _args_color),
    "verify": ("verify a coloring certificate", _args_verify),
    "search": ("restricted minimum over K_t-free graphs", _args_search),
}


def _add_commands(parser, table: dict, dest: str) -> None:
    """Add a subparser for every command of the table."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, spec) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(spec, dict):
            _add_commands(p, spec, f"{name}_command")
        else:
            _add_leaf_args(p, spec)


def _add_leaf_args(p, spec) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    spec(p)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: the parser of every argv that names no leaf
    command or leaves arguments over."""
    parser = argparse.ArgumentParser(
        prog="halfmult",
        description="Half-multiplicity Ramsey toolkit: probabilities, bounds, and colorings.",
    )
    parser.add_argument("--version", action="version", version=f"halfmult {__version__}")
    _add_commands(parser, _COMMANDS, "command")
    return parser


def _leaf(argv: list[str]):
    """The command names argv starts with and the argument function of the
    leaf command they name, or None when they name no leaf."""
    table = _COMMANDS
    for depth, name in enumerate(argv, 1):
        if name not in table:
            return None
        spec = table[name][1]
        if not isinstance(spec, dict):
            return argv[:depth], spec
        table = spec
    return None


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by its leaf command's parser alone, the parser the command
    tree would hand it to, with the command names set as the tree sets them;
    it prints the leaf's help and errors. Any other argv, or arguments the
    leaf leaves over, go to build_parser(), which prints what they ask."""
    leaf = _leaf(argv)
    if leaf is not None:
        path, spec = leaf
        parser = argparse.ArgumentParser(prog="halfmult " + " ".join(path))
        _add_leaf_args(parser, spec)
        args, rest = parser.parse_known_args(argv[len(path) :])
        if not rest:
            for dest, name in zip(("command", f"{path[0]}_command"), path):
                setattr(args, dest, name)
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    args._argv = argv
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`). Point it at devnull so that the
        # flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("io error: standard output was closed", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BudgetError, RamseyTableError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
