#!/usr/bin/env python3
"""
Walk through the motivating 4x4 product expansion in all four theories,
then print the puzzle census and the annotated degeneration tree.
"""
import argparse

from puzzlecalc.cli import main as cli_main
from puzzlecalc.filling import Theory, ascii_puzzles, structure_constants
from puzzlecalc.poly import render
from puzzlecalc.words import parse_word


def run(mu_s: str, nu_s: str, show_trace: bool) -> int:
    mu = parse_word(mu_s)
    nu = parse_word(nu_s, n=mu.n, k=mu.k)
    for theory in Theory:
        coeffs = structure_constants(theory, mu, nu)
        print(f"[{theory.value}]")
        for lam, c in coeffs.items():
            print(f"  {lam}: {render(c)}")
    print("[puzzles]")
    for lam, count in ascii_puzzles(mu, nu)[0].items():
        print(f"  {lam}: {count}")
    if show_trace:
        print("[trace]")
        cli_main(["trace", "--mu", str(mu), "--nu", str(nu)])
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", default="0101")
    ap.add_argument("--nu", default="1010")
    ap.add_argument("--trace", action="store_true",
                    help="also print the degeneration tree")
    args = ap.parse_args()
    raise SystemExit(run(args.mu, args.nu, args.trace))
