"""
The puzzlecalc benchmark.

One workload per run, in one process and one thread, as a closed loop: a
single caller issues the next operation only after the last one returned.
Every operation is one in-process call to ``puzzlecalc.cli.main`` with its
stdout captured, and every output is checked for correctness outside the
timed section.  The package is imported from ``src/`` of the checkout that
holds this file; nothing is installed.

    python3 perfbench/run.py --workload equivariant --seed 1 --seconds 18 --trace 0

A run does a fixed amount of work: `--seconds` sizes the corpus so that
it takes about that long at the commit that introduced the benchmark.
With ``--trace 0`` it measures end-to-end metrics.  With ``--trace 1`` it
runs the same corpus with the puzzlecalc modules wrapped (see tracing.py),
then once more unwrapped, and reports per-module metrics and the tracing
overhead.  The last line of stdout is the result as one JSON object; the
line before it is a JSON report with the environment, the drawn pairs and
the output digest.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time

from tracing import SUITES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 11  # set-ups per untraced run, spread over it; setup_s is their median
REF_EVERY_S = 0.02  # how often reference_work runs during an operation
REF_BURST = 10  # and how many times it runs just before and just after one
# reference_work's median time on the box that introduced the benchmark;
# setup_s is the set-up's ref latency times this, seconds at that speed
REF_NOMINAL_S = 2.8e-4
VERIFY_MAX_N = 5
WARMUP_PAIR = ("0101", "1010")  # n=4: never part of a corpus
# the end-to-end metrics of the result line, as listed in BENCHMARK.json
END_TO_END = ("op_ref.gmean", "total_rel", "setup_s")

WORKLOADS = {
    "equivariant": {
        "why": "n=7 H_T/K_T coeff --json: polynomial arithmetic "
               "(_Sparse products and sorting) dominates",
        "pool": "n7", "kinds": ("ht", "kt"),
        "rate": 3.7,  # operations per second at the introducing commit
    },
    "puzzles": {
        "why": "n=7 puzzles --render ascii: materialises every run instead of "
               "summing weights, so an engine that aggregates for coeff must "
               "not slow it down",
        "pool": "n7", "kinds": ("puzzles",),
        "rate": 12.0,
    },
    "ordinary": {
        "why": "n=12 H/K coeff --json: every weight is an integer, so the time "
               "goes to the search (validate_path, legal_branches, the second "
               "enumeration behind --json), not to polynomials",
        "pool": "n12", "kinds": ("h", "k"),
        "rate": 5.1,
    },
    "verify": {
        "why": "the ten verify suites at max_n=5, one per operation: "
               "interval-rank eliminations, pink dots, the LR oracle and "
               "thousands of tiny structure_constants calls",
        "pool": "verify",
    },
}


# -- the program under test -------------------------------------------------

def import_program():
    """Import puzzlecalc afresh from this checkout's src/ and return its
    modules by short name."""
    for key in [k for k in sys.modules if k == "puzzlecalc" or k.startswith("puzzlecalc.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"puzzlecalc.{name}")
            for name in ("cli", "board", "filling", "oracle", "poly", "words")}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"puzzlecalc was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


@contextlib.contextmanager
def program_kept():
    """Put the loaded puzzlecalc modules back afterwards, so that the
    modules' own lazy imports keep finding the ones the run uses."""
    kept = {k: m for k, m in sys.modules.items()
            if k == "puzzlecalc" or k.startswith("puzzlecalc.")}
    try:
        yield
    finally:
        for key in [k for k in sys.modules if k == "puzzlecalc" or k.startswith("puzzlecalc.")]:
            del sys.modules[key]
        sys.modules.update(kept)


def call(mods, argv):
    """One in-process CLI call: (exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods["cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


# -- corpora ------------------------------------------------------------------

def load_pool(name):
    """The rows of pools/<name>.tsv as dicts keyed by its header."""
    with open(os.path.join(HERE, "pools", f"{name}.tsv")) as fh:
        header, *rows = [line.split("\t") for line in fh.read().splitlines() if line]
    return [dict(zip(header, row)) for row in rows]


def pair_argv(kind, mu, nu):
    if kind == "puzzles":
        return ["puzzles", "--mu", mu, "--nu", nu, "--render", "ascii"]
    return ["coeff", "--theory", kind, "--mu", mu, "--nu", nu, "--json"]


def pair_corpus(spec, seed, seconds):
    """
    The operations of a pair workload, as (argv, recorded cost) with one
    pair each.

    Each kind of operation gets an equal share of the run's rate * seconds
    operations.  For each kind the pool is ranked by the cost recorded for
    it and cut into as many equal strata as the kind has operations; each
    stratum gives one pair not used yet, drawn at random.  Every seed thus
    gets different pairs with nearly the same cost mix, and no pair occurs
    twice in a run.  The pools hold only pairs that is_valid accepts.
    """
    rng = random.Random(seed)
    pool = load_pool(spec["pool"])
    kinds = spec["kinds"]
    slots = max(1, min(len(pool) // len(kinds), round(spec["rate"] * seconds / len(kinds))))
    used = set()
    ops = []
    for kind in kinds:
        ranked = sorted(pool, key=lambda r: (float(r[kind]), r["mu"], r["nu"]))
        for i in range(slots):
            stratum = ranked[i * len(ranked) // slots:(i + 1) * len(ranked) // slots]
            row = rng.choice([r for r in stratum if (r["mu"], r["nu"]) not in used]
                             or [r for r in ranked if (r["mu"], r["nu"]) not in used])
            used.add((row["mu"], row["nu"]))
            ops.append((pair_argv(kind, row["mu"], row["nu"]), float(row[kind])))
    rng.shuffle(ops)
    return ops


def verify_argv(suite, max_n, seed):
    return ["verify", "--max-n", str(max_n), "--suite", suite, "--seed", str(seed), "--json"]


def make_corpus(workload, seed, seconds):
    spec = WORKLOADS[workload]
    if workload == "verify":
        # one pass over the ten suites, one suite per operation
        cost = {r["suite"]: float(r["cost"]) for r in load_pool(spec["pool"])}
        return [(verify_argv(s, VERIFY_MAX_N, seed), cost[s]) for s in SUITES]
    return pair_corpus(spec, seed, seconds)


def warm_up(mods, workload):
    if workload == "verify":
        argvs = [verify_argv(s, 2, 0) for s in SUITES]
    else:
        argvs = [pair_argv(kind, *WARMUP_PAIR) for kind in WORKLOADS[workload]["kinds"]]
    for argv in argvs:
        rc, _out, err = call(mods, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {rc} {err}")


def set_up(speed, workload, seed, seconds):
    """Import, draw the corpus and warm up, timed by `speed`; returns the
    seconds and the ref latency taken, the modules and the corpus."""
    def work():
        mods = import_program()
        corpus = make_corpus(workload, seed, seconds)
        warm_up(mods, workload)
        return mods, corpus
    (mods, corpus), secs, ref = speed.time(work)
    return (secs, ref), mods, corpus


# -- correctness --------------------------------------------------------------

def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def vanishes_to_order(value, d, rng):
    """
    Whether sum_e c_e E(e) vanishes to order d at y = 0, the condition
    under which lowest_form(value, d) succeeds.  Each degree-k part,
    sum_e c_e (e.y)^k / k! for k < d, must be the zero polynomial; it is
    evaluated at two random integer points; a nonzero polynomial of degree
    k vanishes at each with probability at most k / 2^61 (Schwartz-Zippel).
    lowest_form itself expands every term up to degree d, which takes a
    minute on the largest n=7 coefficients.
    """
    for _ in range(2):
        y = [rng.randrange(1, 1 << 61) for _ in range(value.n)]
        dots = [(sum(a * b for a, b in zip(exp, y)), c) for exp, c in value.terms]
        if any(sum(c * t ** k for t, c in dots) for k in range(d)):
            return False
    return True


def check_coeff(mods, argv, out):
    oracle, poly, words = mods["oracle"], mods["poly"], mods["words"]
    doc = json.loads(out)
    n, theory = doc["n"], doc["theory"]
    mu, nu = words.parse_word(doc["mu"]), words.parse_word(doc["nu"])
    if [theory, str(mu), str(nu)] != [argv[2], argv[4], argv[6]]:
        return "output is for another pair or theory"
    inv = words.inversions
    laurent = theory in ("k", "kt")
    for lam_s, data in doc["coefficients"].items():
        lam = words.parse_word(lam_s, n=n, k=mu.k)
        value = (poly.LPoly if laurent else poly.Poly).from_json(n, data)
        e = inv(nu) - inv(lam) - inv(mu)   # the K-theory sign exponent
        lr = oracle.lr_oracle(lam, mu, nu)
        if theory in ("h", "k"):
            if any(any(exp) for exp, _ in value.terms):
                return f"{lam_s}: non-constant {theory} coefficient"
            c = value.constant_term()
            if theory == "h" and c != lr:
                return f"{lam_s}: H coefficient {c}, LR count {lr}"
            if theory == "k" and (c * _sign(e) <= 0 or (e == 0 and c != lr)):
                return f"{lam_s}: K coefficient {c} breaks the sign or degree-0 rule"
        elif theory == "ht":
            if any(sum(exp) != -e for exp, _ in value.terms):
                return f"{lam_s}: H_T term of degree other than {-e}"
            if poly.y_to_zero(value) != lr:
                return f"{lam_s}: H_T at y=0 is {poly.y_to_zero(value)}, LR count {lr}"
        else:
            s = poly.eval_at_one(value)
            if (e == 0 and s != lr) or (e != 0 and s * _sign(e) < 0):
                return f"{lam_s}: K_T at 1 is {s}, breaking the K sign or degree-0 rule"
            if e < 0 and not vanishes_to_order(value, -e, random.Random(f"{mu}/{nu}/{lam}")):
                return f"{lam_s}: K_T does not vanish to order {-e}, so lowest_form fails"
    if theory == "h":
        for lam in words.all_words(n, mu.k):
            if str(lam) not in doc["coefficients"] and oracle.lr_oracle(lam, mu, nu):
                return f"{lam}: nonzero LR count missing from the H expansion"
    return None


def read_ascii_puzzle(board, words, text, n):
    """
    A Puzzle read back from its ascii_render text: the boundary words and
    the kind of every rhombus that replaced a kink 1 over a SW 0 (the
    only placements the degree bookkeeping counts).

    Row a of the text lists the / and \\ labels of the edges leaving row
    a-1, then the horizontal labels of row a.  The rhombus at window (i, j)
    sits below row a = i + n - j; it turned the path's (\\, /) labels
    `right` into the (/, \\) labels `left`.
    """
    lines = text.split("\n")
    zig = [lines[2 * r].split() for r in range(n)]

    def sw(r, b):
        return zig[r][2 * b][1:]

    def se(r, b):
        return zig[r][2 * b + 1][1:]

    kinds = {("0", "1"): "equivariant", ("R", "0"): "shift0",
             ("1", "R"): "shift1", ("1", "K"): "topk"}
    rhombi = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            a = i + n - j
            right, left = (se(a - 1, i - 1), sw(a, i)), (sw(a - 1, i - 1), se(a, i - 1))
            if right == ("1", "0"):
                rhombi.append(((i, j), board.RhombusPlacement(kinds[left], right, left, None)))
    word = lambda labels: words.parse_word("".join(labels))
    lam = word(sw(n - q, 0) for q in range(1, n + 1))
    mu = word(se(d - 1, d - 1) for d in range(1, n + 1))
    nu = word(h[1:] for h in lines[2 * n - 1].split())
    return board.Puzzle(n, lam, mu, nu, tuple(rhombi), ())


def check_puzzles(mods, argv, out):
    board, filling, oracle, words = mods["board"], mods["filling"], mods["oracle"], mods["words"]
    mu, nu = words.parse_word(argv[2]), words.parse_word(argv[4])
    head, *texts = out.rstrip("\n").split("\n\n")
    if head != f"{len(texts)} puzzles":
        return f"header {head!r} does not count the {len(texts)} puzzles printed"
    pzs = [read_ascii_puzzle(board, words, t, mu.n) for t in texts]
    if any((pz.mu, pz.nu) != (mu, nu) for pz in pzs):
        return "a puzzle has the wrong boundary"
    plain = {}
    for pz in pzs:
        lhs, rhs = filling.puzzle_degree_balance(pz)
        if lhs != rhs:
            return f"{pz.lam}: degree balance {lhs} != {rhs}"
        if not pz.count("equivariant") and not pz.count("topk"):
            plain[pz.lam] = plain.get(pz.lam, 0) + 1
    for lam in words.all_words(mu.n, mu.k):
        if plain.get(lam, 0) != oracle.lr_oracle(lam, mu, nu):
            return f"{lam}: {plain.get(lam, 0)} plain puzzles, LR count {oracle.lr_oracle(lam, mu, nu)}"
    return None


def check_verify(_mods, _argv, out):
    doc = json.loads(out)
    return None if doc["ok"] else f"suite failed: {doc['suites']}"


CHECKS = {"coeff": check_coeff, "puzzles": check_puzzles, "verify": check_verify}


def check(mods, argv, rc, out, err):
    """None if the call succeeded and its output is right, else the reason."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        return CHECKS[argv[0]](mods, argv, out)
    except Exception as exc:  # a check that cannot read the output fails it
        return f"{type(exc).__name__}: {exc}"


# -- the machine's speed --------------------------------------------------------

class _Point:
    __slots__ = ("key", "count")

    def __init__(self, key, count):
        self.key = key
        self.count = count


def reference_work():
    """A fixed piece of pure-Python work (tuples, dicts, small objects,
    sorting), independent of puzzlecalc, that runs in about 0.25 ms."""
    seen = {}
    for i in range(300):
        key = (i % 7, i % 11, i % 13)
        point = _Point(key, seen.get(key, 0) + 1)
        seen[key] = point.count
        if point.key[0] == 3:
            seen[(i,)] = sorted(key)
    return len(seen)


def reference_seconds():
    """The time of one reference_work, with the garbage collector off so
    that the heap puzzlecalc keeps does not slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """
    Times operations against the machine's current speed.  On a shared box
    the same Python code runs 20-40% faster or slower from one second to
    the next, so each operation's seconds are divided by the mean time of
    reference_work, run REF_BURST times just before it and just after it
    and, through SIGALRM, every REF_EVERY_S while it runs.  That quotient,
    the operation's latency in `ref` units, follows the program far more
    than the machine.  The reference work done inside an operation is not
    counted in its seconds.
    """

    def __init__(self):
        self._ticks: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        ref = reference_seconds()
        self._ticks.append((t0, time.perf_counter() - t0, ref))

    def time(self, fn):
        """Run fn(); returns its result, its seconds and its ref latency."""
        self._ticks = []
        before = [reference_seconds() for _ in range(REF_BURST)]
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        ticks = [t for t in self._ticks if t[0] < end]
        secs = end - t0 - sum(t[1] for t in ticks)
        refs = before + [t[2] for t in ticks] + [reference_seconds() for _ in range(REF_BURST)]
        return result, secs, secs / statistics.fmean(refs)


# -- the loop -----------------------------------------------------------------

def label(argv):
    """mu/nu/kind of a pair operation, or the suite of a verify one."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--suite" in opts:
        return opts["--suite"]
    return f"{opts['--mu']}/{opts['--nu']}/{opts.get('--theory', argv[0])}"


class Run:
    """What one run measured: per-operation latencies, failures, the digest."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []
        self.op_ref: list[float] = []
        self.recorded: list[float] = []
        self.labels: list[str] = []
        self.digest = hashlib.sha256()

    def record(self, mods, argv, cost, result, secs, ref=None):
        """Count one operation and check it (untimed, untraced)."""
        rc, out, err = result
        self.ops += 1
        why = check(mods, argv, rc, out, err)
        if why:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: {why}")
        self.op_s.append(secs)
        if ref is not None:
            self.op_ref.append(ref)
        self.recorded.append(cost)
        self.labels.append(label(argv))
        self.digest.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())


def timed_phase(speed, mods, corpus, workload, seed, seconds):
    """Every operation once, timed by `speed`, with the set-ups after the
    first spread evenly between the operations; returns the run and the
    set-up times."""
    run = Run()
    every = math.ceil(len(corpus) / (SETUPS - 1))
    setups = []
    for i, (argv, cost) in enumerate(corpus, 1):
        result, secs, ref = speed.time(lambda: call(mods, argv))
        run.record(mods, argv, cost, result, secs, ref)
        if i % every == 0 or i == len(corpus):
            with program_kept():
                setups.append(set_up(speed, workload, seed, seconds)[0])
    return run, setups


def traced_phase(mods, corpus):
    """Every operation with tracing on, then again without (and unchecked),
    for the overhead."""
    tracer = Tracer()
    run = Run()
    traced = bare = 0.0
    for argv, cost in corpus:
        with tracer:
            t0 = time.perf_counter()
            result = call(mods, argv)
            secs = time.perf_counter() - t0
        run.record(mods, argv, cost, result, secs)
        traced += secs
    for argv, _cost in corpus:
        t0 = time.perf_counter()
        call(mods, argv)
        bare += time.perf_counter() - t0
    return run, tracer, traced, bare


# -- reporting ----------------------------------------------------------------

def quantile(values, p):
    """
    The Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution's mass
    on ((i-1)/n, i/n].  Unlike a single order statistic it moves little
    when one operation runs slow.
    """
    v = sorted(values)
    n = len(v)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 50 * n  # midpoint rule, 50 points per order statistic
    mass = [0.0] * n
    for s in range(steps):
        x = (s + 0.5) / steps
        mass[s * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(m * x for m, x in zip(mass, v)) / sum(mass)


def commit_id():
    """The checked-out commit, when this is a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "puzzlecalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end_figures(workload, run):
    """Every end-to-end figure but setup_s, as (value, unit, samples);
    END_TO_END names the ones the result line carries."""
    n = run.ops
    ms = [s * 1e3 for s in run.op_s]
    busy = sum(run.op_s)
    gmean = lambda v: math.exp(statistics.fmean(map(math.log, v)))
    figures = {
        "op_ref.gmean": (gmean(run.op_ref), "ref", n),
        "op_ref.p50": (quantile(run.op_ref, 0.5), "ref", n),
        "op_ref.p90": (quantile(run.op_ref, 0.9), "ref", n),
        "total_rel": (sum(run.op_ref) / sum(run.recorded), "x", n),
        "total_ref": (sum(run.op_ref), "ref", n),
        "op_ms.gmean": (gmean(ms), "ms", n),
        "op_ms.p50": (quantile(ms, 0.5), "ms", n),
        "op_ms.p90": (quantile(ms, 0.9), "ms", n),
        "ops_per_s": (n / busy, "1/s", n),
    }
    if workload == "verify":
        figures["verify_s"] = (busy, "s", n)
    else:
        cmd = "puzzles" if workload == "puzzles" else "coeff"
        figures[f"{cmd}_ms.p50"] = figures["op_ms.p50"]
        figures[f"{cmd}_ms.p90"] = figures["op_ms.p90"]
        figures[f"{cmd}_per_s"] = figures["ops_per_s"]
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    figures["fail_rate"] = (run.failed / max(n, 1), "share", n)
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("error: python -O strips the engine's assert invariants; run without -O",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "puzzlecalc", "__init__.py")):
        print(f"error: no puzzlecalc source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PUZZLE_THREADS", None)  # one thread; --threads is never passed
    sys.path.insert(0, SRC)

    speed = Speedometer()
    first, mods, corpus = set_up(speed, args.workload, args.seed, args.seconds)
    if args.trace:
        run, tracer, traced, bare = traced_phase(mods, corpus)
        figures = tracer.metrics(run.ops, passes=int(args.workload == "verify"))
        figures["trace.overhead_pct"] = ((traced / bare - 1) * 100, "%")
        reported = list(figures)
        setups = [first]
    else:
        run, setups = timed_phase(speed, mods, corpus, args.workload, args.seed, args.seconds)
        setups.append(first)
        figures = end_to_end_figures(args.workload, run)
        reported = END_TO_END
    figures["setup_wall_s"] = (statistics.median(s for s, _ in setups), "s", len(setups))
    figures["setup_s"] = (statistics.median(r for _, r in setups) * REF_NOMINAL_S, "s", len(setups))

    for name, (value, unit, *samples) in figures.items():
        print(f"{args.workload:12s} {name:36s} {value:14.4f} {unit}"
              + (f"  (n={samples[0]})" if samples else ""))
    report = {
        "workload": args.workload, "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one caller, one thread",
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(), "source_sha256": source_digest(),
        "outputs_sha256": run.digest.hexdigest(),
        "attempted": run.ops, "setup_wall_s": [round(s, 4) for s, _ in setups],
        "setup_ref": [round(r, 1) for _, r in setups],
        "ops": run.labels, "failures": run.failures[:20],
        "op_ms": [round(s * 1e3, 3) for s in run.op_s],
        "op_ref": [round(r, 3) for r in run.op_ref],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.ops, "failed": run.failed,
        "metrics": {name: {"value": figures[name][0], "unit": figures[name][1]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
