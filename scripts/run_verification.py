#!/usr/bin/env python3
"""
Exhaustive small-size verification driver.

Runs every invariant sweep up to --max-n, printing one PASS/FAIL line per
suite, then one line with each suite's wall time and one with the total.
Exit code 0 on success, 2 on any failure, so the script doubles as a
regression gate.
"""
import argparse
import time

from puzzlecalc.oracle import _SUITES, Report, verify_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--suite", action="append", choices=sorted(_SUITES),
                    help="restrict to the named suites (repeatable)")
    args = ap.parse_args()
    t0 = time.time()
    rep = Report()
    times = []
    for name in args.suite or _SUITES:
        t = time.time()
        rep.results += verify_suite(args.max_n, seed=args.seed, suites=[name]).results
        times.append(f"time {name}: {time.time() - t:.2f}s")
    print(rep)
    print("\n".join(times))
    print(f"elapsed: {time.time() - t0:.1f}s")
    return 0 if rep.ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
