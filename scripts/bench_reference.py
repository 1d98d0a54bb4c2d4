"""
Whole-process reference figures for the puzzlecalc command line, written to
one JSON file.

Each measurement is one fresh process running the command line from the
checkout's src: its wall time, its CPU seconds (user + system) and its peak
RSS, read with os.wait4, and the sha256 of its stdout.  A row is the median
of five runs, with the least and greatest of them beside it as
<key>_range = [min, max] so that the spread shows; the n = 12 equivariant
expansions take one run each, under an address-space cap (ulimit -v).  A run
that hits the cap, or whose digest differs from the row's first run, is
recorded as such, not as a number.  Two files compare only on rows whose
digests match, and a difference inside the rows' ranges means little.  The
verify rows digest their stdout without its "time" lines, and give each
suite's median time from them.

    python scripts/bench_reference.py --out BENCH_<name>.json [--repo CHECKOUT]
    python scripts/bench_reference.py --repo PARENT --out BENCH_<parent>.json \
        --repo CHANGE --out BENCH_<change>.json

--repo measures another checkout (its src and its commit), such as a clone
of a parent commit, with this script.  Given twice or more, each --repo is
written to the --out at its position, and the checkouts take turns run by
run within each row (run t starts with checkout t mod their count), so that
the host's drift over a call falls on every checkout alike.  Progress lines
on stderr name each checkout by its --repo position and commit, marked
"+src" when its src differs from that commit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 5
# the n = 12 equivariant rows' address-space cap, in KiB (ulimit -v)
CAP_KB = 2_000_000

N10 = ["--mu", "0110100110", "--nu", "1100110010"]
N12 = ["--mu", "001011001101", "--nu", "110101010100"]
# the CI pair of the plain n = 16 H and K digests, where the walk is most of the command
N16 = ["--mu", "0000101010111101", "--nu", "1101001100011100"]

# every n = 7 pair's H_T and K_T expansion from one table (the CI step's lines)
TABLE_N7 = """import sys
from puzzlecalc.filling import Theory, table
from puzzlecalc.poly import json_text
from puzzlecalc.words import all_words
theories = tuple(Theory(t) for t in sys.argv[1].split(","))
pairs = [(mu, nu) for k in range(8) for mu in all_words(7, k) for nu in all_words(7, k)]
for t, rows in zip(theories, zip(*table(theories, pairs))):
    for (mu, nu), coeffs in zip(pairs, rows):
        for lam, c in coeffs.items():
            print(t.value, mu, nu, lam, json_text(c))
"""

# (name, command line arguments, or ["-c", code, ...] for a script, runs, cap)
ROWS = [
    ("verify --max-n 5", ["verify", "--max-n", "5"], RUNS, None),
    ("verify --max-n 6", ["verify", "--max-n", "6"], RUNS, None),
    ("n=10 ht coeff --json", ["coeff", "--theory", "ht", *N10, "--json"], RUNS, None),
    ("n=10 ht coeff", ["coeff", "--theory", "ht", *N10], RUNS, None),
    ("n=10 kt coeff --json", ["coeff", "--theory", "kt", *N10, "--json"], RUNS, None),
    ("n=10 kt coeff", ["coeff", "--theory", "kt", *N10], RUNS, None),
    ("n=12 k coeff --json", ["coeff", "--theory", "k", *N12, "--json"], RUNS, None),
    ("n=12 h coeff --json", ["coeff", "--theory", "h", *N12, "--json"], RUNS, None),
    ("n=16 h coeff", ["coeff", "--theory", "h", *N16], RUNS, None),
    ("n=16 k coeff", ["coeff", "--theory", "k", *N16], RUNS, None),
    ("n=12 ht coeff", ["coeff", "--theory", "ht", *N12], 1, CAP_KB),
    ("n=12 kt coeff", ["coeff", "--theory", "kt", *N12], 1, CAP_KB),
    ("n=10 puzzles --lambda 0100100111 --render ascii",
     ["puzzles", *N10, "--lambda", "0100100111", "--render", "ascii"], RUNS, None),
    ("n=10 puzzles --render ascii", ["puzzles", *N10, "--render", "ascii"], RUNS, None),
    ("n=10 puzzles", ["puzzles", *N10], RUNS, None),
    # the count alone: one fold over the graph of 162,024,019 runs
    ("n=12 puzzles", ["puzzles", *N12], RUNS, None),
    ("n=12 puzzles --lambda 000101100111 --render ascii",
     ["puzzles", *N12, "--lambda", "000101100111", "--render", "ascii"], RUNS, None),
    ("trace --mu 01101100 --nu 11001100", ["trace", "--mu", "01101100", "--nu", "11001100"],
     RUNS, None),
    ("table of every n=7 pair, ht and kt", ["-c", TABLE_N7, "ht,kt"], RUNS, None),
    # 12,870 words tested, 2,064 printed
    ("n=16 rank fixed-points", ["rank", "fixed-points", "--n", "16", "--dots",
                                "2,12;3,16;4,10;6,7;8,9;10,15;11,13;13,14"], RUNS, None),
]


def run_once(argv: list[str], env: dict, cap_kb: int | None, keep: bool) -> dict:
    """
    One process: its exit code, wall and CPU seconds, peak RSS, the size
    and digest of its stdout, its stdout itself if keep, and its stderr.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap_kb * 1024, cap_kb * 1024))

    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                preexec_fn=limit if cap_kb else None)
        digest, size, text = hashlib.sha256(), 0, []
        with proc.stdout:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
                if keep:
                    text.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "stdout_bytes": size,
            "sha256": digest.hexdigest(), "stdout": b"".join(text), "stderr": stderr}


def _verify_lines(stdout: bytes) -> tuple[str, dict[str, float]]:
    # the digest of the lines that are not "time <suite>: <s>s", and those times
    kept, times = [], {}
    for line in stdout.decode().splitlines(keepends=True):
        if line.startswith("time "):
            suite, seconds = line[5:].split(": ")
            times[suite] = float(seconds.strip().rstrip("s"))
        else:
            kept.append(line)
    return hashlib.sha256("".join(kept).encode()).hexdigest(), times


def measure(name: str, args: list[str], runs: int, cap_kb: int | None,
            envs: list[dict]) -> list[dict]:
    """One row per checkout (one env each), the checkouts taking turns run by run."""
    argv = [sys.executable, *args] if args[0] == "-c" else \
        [sys.executable, "-m", "puzzlecalc.cli", *args]
    verify = args[0] == "verify"
    results = [[] for _ in envs]
    for t in range(runs):
        for c in range(t, t + len(envs)):
            c %= len(envs)
            results[c].append(run_once(argv, envs[c], cap_kb, verify))
    return [summarize(name, args, runs, cap_kb, rs) for rs in results]


def summarize(name: str, args: list[str], runs: int, cap_kb: int | None,
              results: list[dict]) -> dict:
    """One checkout's row from its runs."""
    shown = "python -c <table of every n=7 pair> " + args[-1] if args[0] == "-c" else \
        "puzzlecalc " + " ".join(args)
    row = {"name": name, "command": shown, "runs": runs, "cap_kb": cap_kb}
    verify = args[0] == "verify"
    for r in results:
        if verify:
            r["sha256"], r["suites"] = _verify_lines(r["stdout"])
    first = results[0]
    capped = cap_kb is not None and any(
        r["exit"] and (b"out of memory" in r["stderr"] or b"MemoryError" in r["stderr"])
        for r in results)
    if capped:
        row["status"] = "capped"
        row.update(dict.fromkeys(("wall_s", "cpu_s", "peak_rss_mb"), "capped"))
        return row
    if any(r["exit"] for r in results):
        row["status"] = f"exit {next(r['exit'] for r in results if r['exit'])}"
        row["stderr"] = next(r["stderr"] for r in results if r["exit"]).decode()[-500:]
        return row
    if any(r["sha256"] != first["sha256"] for r in results):
        row["status"] = "digest differs between runs"
        return row
    row["status"] = "ok"
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        values = [r[key] for r in results]
        row[key] = round(statistics.median(values), 3)
        row[key + "_range"] = [round(min(values), 3), round(max(values), 3)]
    row["stdout_bytes"] = first["stdout_bytes"]
    row["sha256"] = first["sha256"]
    if verify:
        row["suites_s"] = {suite: round(statistics.median(r["suites"][suite] for r in results), 3)
                           for suite in first["suites"]}
    return row


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", action="append", required=True,
                        help="the JSON file to write, once per checkout")
    parser.add_argument("--repo", action="append",
                        help="a checkout to measure, once per --out (default: this script's)")
    args = parser.parse_args(argv)
    repos = args.repo or [str(Path(__file__).resolve().parent.parent)]
    if len(repos) != len(args.out):
        parser.error(f"{len(repos)} --repo for {len(args.out)} --out")
    repos = [Path(repo).resolve() for repo in repos]
    envs = [dict(os.environ, PYTHONPATH=str(repo / "src")) for repo in repos]
    docs = [{
        "commit": _git(repo, "rev-parse", "--short=7", "HEAD"),
        "src_modified": bool(_git(repo, "status", "--porcelain", "--untracked-files=no", "--",
                                  "src")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "runs": RUNS,
        "cap_kb": CAP_KB,
        "rows": [],
    } for repo in repos]
    labels = [f"[{c}] {doc['commit']}{'+src' if doc['src_modified'] else ''}"
             for c, doc in enumerate(docs, 1)]
    for name, row_args, runs, cap_kb in ROWS:
        for label, doc, row in zip(labels, docs, measure(name, row_args, runs, cap_kb, envs)):
            print(f"{label} {name}: {row['status']} {row.get('wall_s')} s "
                  f"{row.get('peak_rss_mb')} MB", file=sys.stderr, flush=True)
            doc["rows"].append(row)
    for out, doc in zip(args.out, docs):
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(row["status"] in ("ok", "capped") for doc in docs for row in doc["rows"]) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
