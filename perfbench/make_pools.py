"""
Regenerate the pools under perfbench/pools/.

A pair pool has a header line ``mu nu <kind>...`` and one line per valid
pair (its initial path passes ``is_valid``) with, for each kind of
operation run on it, the operation's latency in reference units (see
``run.Speedometer``) measured once at the commit that introduced the
benchmark.  run.py stratifies its draws by these costs and reports the
run's summed latency relative to their sum (``total_rel``).  The verify
pool holds the same cost for each suite at max_n=5.

    python3 perfbench/make_pools.py n7       # pairs at n=7, k in {3, 4}
    python3 perfbench/make_pools.py n12      # pairs at n=12, k in {5, 6, 7}
    python3 perfbench/make_pools.py verify   # the ten verify suites

The costs are machine-dependent only through the machine's speed relative
to the reference work; regenerating them changes the scale of
``total_rel``, so a comparison must use one set of pools.
"""
from __future__ import annotations

import os
import random
import sys

import run
from tracing import SUITES

N12_POOL_SEED = 12
N12_POOL_SIZE = 1200


def n7_pairs(words, board):
    """Every valid pair at n=7, k in {3, 4}."""
    for k in (3, 4):
        for mu in words.all_words(7, k):
            for nu in words.all_words(7, k):
                if board.is_valid(board.initial_path(mu, nu)):
                    yield str(mu), str(nu)


def n12_pairs(words, board):
    """Distinct valid pairs at n=12, k in {5, 6, 7}, rejection-sampled from
    a fixed seed."""
    rng = random.Random(N12_POOL_SEED)
    seen = set()
    while len(seen) < N12_POOL_SIZE:
        k = rng.choice((5, 6, 7))
        bits = [1] * k + [0] * (12 - k)
        rng.shuffle(bits)
        mu = words.Word(tuple(bits))
        rng.shuffle(bits)
        nu = words.Word(tuple(bits))
        if (mu, nu) in seen or not board.is_valid(board.initial_path(mu, nu)):
            continue
        seen.add((mu, nu))
        yield str(mu), str(nu)


POOLS = {"n7": (("ht", "kt", "puzzles"), n7_pairs), "n12": (("h", "k"), n12_pairs)}


def cost(mods, speed, argv):
    """The ref latency of one call, which must succeed."""
    (rc, _out, err), _secs, ref = speed.time(lambda: run.call(mods, argv))
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {rc} {err}")
    return ref


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in (*POOLS, "verify"):
        print(f"usage: make_pools.py {{{','.join((*POOLS, 'verify'))}}}", file=sys.stderr)
        return 1
    sys.path.insert(0, run.SRC)
    mods = run.import_program()
    speed = run.Speedometer()
    lines = []
    if argv[0] == "verify":
        lines.append(["suite", "cost"])
        for suite in SUITES:
            ref = cost(mods, speed, run.verify_argv(suite, run.VERIFY_MAX_N, 0))
            lines.append([suite, f"{ref:.2f}"])
    else:
        kinds, pairs = POOLS[argv[0]]
        lines.append(["mu", "nu", *kinds])
        for mu, nu in pairs(mods["words"], mods["board"]):
            refs = [cost(mods, speed, run.pair_argv(kind, mu, nu)) for kind in kinds]
            lines.append([mu, nu, *(f"{r:.2f}" for r in refs)])
    with open(os.path.join(run.HERE, "pools", f"{argv[0]}.tsv"), "w") as fh:
        fh.writelines("\t".join(line) + "\n" for line in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
