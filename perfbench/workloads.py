"""Job universes, seeded job lists and input files for the three workloads.

Every job is one README CLI command, run in-process as
``halfmult.cli.main([..., "--json"])``. A workload is a list of cost
classes; each class holds interchangeable units (a unit is one job, or a
``color`` job followed by the ``verify`` jobs on its certificate). A run
takes, in each round, a fixed number of distinct units from every class,
chosen and ordered by the workload seed. Fixed per-class counts keep the
work of a run nearly the same for every seed, while the seed decides which
instance of each class runs: the ER graph, the Monte Carlo seed, the
colouring seed, the tampered t-set, and the job order. No argv repeats
within a run, so an in-process result cache cannot win where it would not
win for a CLI user.

Every unit of every class has a reference payload in ``refs/``, recorded
by ``record_refs.py``; this is why instance parameters range over small
finite sets.

Run as a script this module is the fresh-interpreter set-up probe timed by
``run.py``: ``python3 perfbench/workloads.py WORKLOAD SEED SECONDS DIR``
imports halfmult, builds the job list and writes the input files into DIR.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

WORKLOADS = ("exhaustive", "analyze", "certify")

# Seconds one round takes on the reference machine (2 cores, Python 3.11).
# A run has max(1, round(seconds / ROUND_S)) rounds, so --seconds fixes the
# job list: a faster program finishes the same list sooner.
ROUND_S = {"exhaustive": 24.0, "analyze": 14.0, "certify": 16.0}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    cls: str
    after: str | None = None  # key of the color job whose certificate this job reads
    tamper_from: str | None = None  # certificate to copy and tamper before the job

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Cls:
    name: str
    units: tuple[tuple[Job, ...], ...]
    per_round: int


def seed_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _cls(name: str, argvs, per_round: int) -> Cls:
    return Cls(name, tuple((Job(tuple(a), name),) for a in argvs), per_round)


# ---------------------------------------------------------------------------
# exhaustive: search sweeps over tiny K_t-free graphs.
# ---------------------------------------------------------------------------


def _exhaustive() -> list[Cls]:
    # n_max starts at 5: below that a search is all CLI overhead, and with
    # n_max >= 5 the median job is a t=3, n_max=6 scan rather than a
    # millisecond job on the edge between two size classes.
    classes = []
    for s in range(2, 7):
        for t, n_top in ((3, 7), (4, 6), (5, 6)):
            for n in range(5, n_top + 1):
                base = ["search", "--s", str(s), "--t", str(t), "--max-n", str(n)]
                classes.append(_cls(f"search-s{s}-t{t}-n{n}", [base, base + ["--dedup-iso"]], 1))
    return classes


# ---------------------------------------------------------------------------
# analyze: one question each about graphs of 32 to 16384 vertices.
# ---------------------------------------------------------------------------

ER_SEEDS = range(16)
# (n, percent edge density, s, per_round). The sparse, large shapes are the
# slowest analyze jobs after the cf:10 clique proof and the cf:16 build;
# six (64, 30, 8) instances put the 11th-slowest job, job_tail_s, in the
# middle of a group of similar jobs.
ER_EXACT = (
    (32, 10, 8, 2), (48, 20, 8, 4), (64, 30, 8, 6),
    (48, 20, 6, 2), (64, 30, 6, 2), (40, 15, 6, 2),
    (32, 30, 8, 1), (48, 30, 6, 1), (64, 40, 8, 1), (64, 50, 6, 1), (32, 50, 4, 1), (40, 40, 5, 1),
)
ER_ESTIMATE = ((48, 20, 6), (64, 30, 6), (64, 40, 8))  # each also an ER_EXACT shape
MC_SEEDS = range(8)
# t -> (s, trials). Monte Carlo work grows with s^2, so s is fixed per class.
CF_ESTIMATE = {8: (6, 200_000), 10: (8, 1_000_000), 12: (6, 200_000), 14: (6, 100_000)}


def er_name(n: int, pct: int, g: int) -> str:
    return f"er-n{n}-p{pct}-g{g}.g6"


def _analyze() -> list[Cls]:
    def cf_jobs(ts):
        return [
            ["cf", "--t", str(t)] + ([] if k is None else ["--count-isotropic", str(k)])
            for t in ts
            for k in [None, *range(t // 2)]
        ]

    classes = [
        _cls("cf-16", cf_jobs([16]), 1),
        _cls("cf-14", cf_jobs([14]), 1),
        _cls("cf-small", cf_jobs([4, 6, 8, 10, 12]), 6),
        _cls("exact-cf8", [["exact", "--in", "cf:8", "--s", str(s)] for s in range(1, 9)], 3),
    ]
    for n, pct, s, per_round in ER_EXACT:
        argvs = [["exact", "--in", er_name(n, pct, g), "--s", str(s)] for g in ER_SEEDS]
        classes.append(_cls(f"exact-er-n{n}-p{pct}-s{s}", argvs, per_round))
    for t, (s, trials) in CF_ESTIMATE.items():
        argvs = [["estimate", "--in", f"cf:{t}", "--s", str(s), "--trials", str(trials), "--seed", str(x)] for x in MC_SEEDS]
        classes.append(_cls(f"estimate-cf{t}", argvs, 2))
    for n, pct, s in ER_ESTIMATE:
        argvs = [
            ["estimate", "--in", er_name(n, pct, g), "--s", str(s), "--trials", "200000", "--seed", str(x)]
            for g in ER_SEEDS
            for x in MC_SEEDS[:4]
        ]
        classes.append(_cls(f"estimate-er-n{n}-p{pct}-s{s}", argvs, 2))
    classes += [
        # cf:t has no t-clique, so --t t is an absence proof; --t k < t finds a witness.
        _cls("clique-proof-cf10", [["graph", "clique", "--in", "cf:10", "--t", "10"]], 1),
        _cls("clique-proof-small", [["graph", "clique", "--in", f"cf:{t}", "--t", str(t)] for t in (4, 6, 8)], 3),
        _cls("clique-witness-cf8", [["graph", "clique", "--in", "cf:8", "--t", str(k)] for k in range(3, 8)], 2),
        _cls("clique-witness-cf10", [["graph", "clique", "--in", "cf:10", "--t", str(k)] for k in range(3, 10)], 2),
        _cls("clique-witness-cf12", [["graph", "clique", "--in", "cf:12", "--t", str(k)] for k in range(3, 12)], 2),
    ]
    pairs = [(s, t) for s in range(2, 10) for t in range(2, 10)]
    classes += [
        _cls(
            "bounds",
            [
                ["bounds", "--s", str(s), "--t", str(t)] + ([] if ell is None else ["--ell", str(ell)])
                for s, t in pairs
                for ell in (None, 3, 4)
            ],
            4,
        ),
        _cls("nrec", [["nrec", "--s", str(s), "--t", str(t)] for s, t in pairs], 4),
        _cls(
            "optimize-p",
            [["optimize-p", "--s-equals-t"]] + [["optimize-p", "--s", str(s), "--t", str(t)] for s, t in pairs],
            3,
        ),
    ]
    return classes


# ---------------------------------------------------------------------------
# certify: colour certificates, each checked by verify, plus a tampered copy.
# ---------------------------------------------------------------------------

# (base t, ell, n, attempts, colouring seeds, per_round). n runs from sizes
# that succeed at once, through sizes that need dozens of attempts (cf:6
# with ell=3, n=60 or ell=4, n=140), to sizes where every attempt fails
# (cf:6, ell=3, n=70 and 80). The attempts a seed needs vary widely in the
# middle band, so every run takes all eight seeds of its costly class
# (ell=4, n=140) and the workload seed only orders them. All eight n=70
# failures (100 attempts each, nearly equal cost) run too. Counts are set so
# that the n=70 failures sit around the 11th-slowest job and the verify jobs
# of the n=140 certificates around the median: job_tail_s and job_p50_s then
# fall inside plateaus of the ranking rather than on steep slopes.
COLOR_CLASSES = (
    (4, 3, 8, 200, 8, 2),
    (4, 3, 12, 200, 8, 2),
    (4, 4, 16, 200, 8, 2),
    (6, 3, 40, 200, 8, 3),
    (6, 3, 50, 200, 8, 2),
    (6, 3, 60, 200, 8, 4),
    (6, 3, 70, 100, 8, 8),
    (6, 3, 80, 200, 8, 1),
    (6, 4, 100, 100, 8, 2),
    (6, 4, 140, 100, 8, 8),
    (8, 3, 100, 50, 8, 3),
    (8, 3, 150, 50, 8, 3),
    (10, 3, 200, 20, 4, 1),
    (10, 3, 300, 20, 4, 1),
)


def _certify() -> list[Cls]:
    classes = []
    for t, ell, n, attempts, seeds, per_round in COLOR_CLASSES:
        name = f"color-cf{t}-l{ell}-n{n}"
        units = []
        for x in range(seeds):
            cert = f"cert-cf{t}-l{ell}-n{n}-x{x}.txt"
            color = Job(
                ("color", "--graph", f"cf:{t}", "--t", str(t), "--n", str(n), "--ell", str(ell),
                 "--seed", str(x), "--attempts", str(attempts), "--out", cert),
                name,
            )
            units.append((
                color,
                Job(("verify", cert), "verify", after=color.key),
                Job(("verify", "tampered-" + cert), "verify-tampered", after=color.key, tamper_from=cert),
            ))
        classes.append(Cls(name, tuple(units), per_round))
    return classes


def classes(workload: str) -> list[Cls]:
    return {"exhaustive": _exhaustive, "analyze": _analyze, "certify": _certify}[workload]()


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def job_list(workload: str, seed: int, seconds: float, refs: dict) -> list[Job]:
    """The run's fixed job list: per round, per_round distinct units of each
    class, shuffled. Verify jobs follow only colours that produced a
    certificate at the reference commit."""
    rng = random.Random(seed_int(f"{workload}:{seed}"))
    rounds = max(1, round(seconds / ROUND_S[workload]))
    all_classes = classes(workload)
    pools = [list(c.units) for c in all_classes]
    jobs: list[Job] = []
    for _ in range(rounds):
        units = []
        for c, pool in zip(all_classes, pools):
            take = rng.sample(pool, min(c.per_round, len(pool)))
            for unit in take:
                pool.remove(unit)
            units += take
        rng.shuffle(units)
        for unit in units:
            jobs += [j for j in unit if j.after is None or refs[j.after]["exit"] == 0]
    return jobs


# ---------------------------------------------------------------------------
# Input files, made by the benchmark's own code so that the program only
# sees generated argv and files.
# ---------------------------------------------------------------------------


def er_edges(n: int, pct: int, g: int) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, M) with M = round(pct/100 * C(n,2)) edges.

    A fixed edge count removes the edge-count fluctuation of G(n, p), which
    would otherwise dominate the spread of exact-counting work."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = (pct * len(pairs) + 50) // 100
    rng = random.Random(seed_int(er_name(n, pct, g)))
    return sorted(pairs[i] for i in rng.sample(range(len(pairs)), m))


def _g6_size(n: int) -> list[int]:
    return [n + 63] if n <= 62 else [126, *((n >> shift & 63) + 63 for shift in (12, 6, 0))]


def graph6(n: int, edges) -> str:
    """graph6 line (McKay's format) for n < 2^18 vertices."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes(_g6_size(n) + body).decode("ascii")


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) from a graph6 line with n <= 62."""
    raw = text.strip().encode("ascii")
    n = raw[0] - 63
    bits = [(byte - 63) >> shift & 1 for byte in raw[1:] for shift in range(5, -1, -1)]
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return n, adj


def pair_index(u: int, v: int, n: int) -> int:
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def read_certificate(path: str) -> tuple[dict[str, str], list[int]]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    fields = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    return fields, [int(c) for c in fields.pop("colors").split(",")]


def tamper(src: str, dst: str) -> None:
    """Copy a certificate with one seeded t-set recoloured to the last
    colour, so that it holds a monochromatic K_t. With the last colour the
    verifier scans every colour class, as on a valid certificate, so the
    job's cost does not hinge on which colour the seed picks."""
    fields, colors = read_certificate(src)
    n, ell, t = int(fields["n"]), int(fields["ell"]), int(fields["t"])
    members = sorted(random.Random(seed_int("tamper:" + src)).sample(range(n), t))
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            colors[pair_index(u, v, n)] = ell
    with open(src, encoding="ascii") as fh:
        header = [line for line in fh.read().splitlines() if not line.startswith("colors:")]
    with open(dst, "w", encoding="ascii") as fh:
        fh.write("\n".join(header + ["colors: " + ",".join(map(str, colors))]) + "\n")


def write_inputs(jobs, workdir: Path) -> None:
    for name in sorted({j.argv[2] for j in jobs if j.argv[1:2] == ("--in",) and j.argv[2].startswith("er-")}):
        n, pct, g = (int(part[1:]) for part in name[: -len(".g6")].split("-")[1:])
        (workdir / name).write_text(graph6(n, er_edges(n, pct, g)) + "\n", encoding="ascii")


def prepare(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[list[Job], dict]:
    """Everything a run does before its first job: import halfmult, build
    the job list, and write the input files into a fresh workdir."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import halfmult.cli  # noqa: F401  (the import cost is part of set-up)

    refs = load_refs(workload)
    jobs = job_list(workload, seed, seconds, refs)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    write_inputs(jobs, workdir)
    return jobs, refs


@contextlib.contextmanager
def chdir(path: Path):
    """Jobs name their files relative to the run's work directory."""
    old = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def execute(argv) -> tuple[int, str, str, float]:
    """One CLI job in-process: (exit code, stdout, stderr, wall seconds).

    The exit code is None when the job raised; its traceback is in stderr.
    main is looked up on the module at call time so that a traced run's
    wrapper is the one called."""
    import halfmult.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = halfmult.cli.main([*argv, "--json"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising job is a failed job, not a failed benchmark
            rc = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall


def payload_of(stdout: str):
    """The JSON payload without its 'command' echo, or None if none was printed."""
    if not stdout.strip():
        return None
    payload = json.loads(stdout)
    payload.pop("command", None)
    return payload


if __name__ == "__main__":
    workload, seed, seconds, workdir = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])
    prepare(workload, seed, seconds, workdir)
