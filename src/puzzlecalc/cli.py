"""
Batch command line front end.

Subcommands: coeff (structure constants), puzzles (enumerate / render),
trace (annotated degeneration tree), rank (interval-rank utilities),
verify (invariant sweeps).  Exit codes: 0 success, 1 bad input,
2 internal invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .board import ascii_render, svg_render
from .filling import INTERESTING, Branch, InvariantError, Theory, branch_weight, \
    count_puzzles, enumerate_puzzles, structure_constants, trace
from .intervalrank import DotSet, covers, envelope, essential_conditions, \
    essential_set, fixed_point_in, format_dots, parse_dots, rank_from_dots
from .oracle import _SUITES, verify_suite
from .poly import coefficients_to_json, render
from .words import Word, WordError, all_words, parse_word


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1), not through SystemExit(2)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _pair(mu_s: str, nu_s: str) -> tuple[Word, Word]:
    mu = parse_word(mu_s)
    nu = parse_word(nu_s, n=mu.n, k=mu.k)
    return mu, nu


def cmd_coeff(args) -> int:
    mu, nu = _pair(args.mu, args.nu)
    theory = Theory(args.theory)
    coeffs = structure_constants(theory, mu, nu)
    if args.json:
        doc = {
            "n": mu.n,
            "k": mu.k,
            "mu": str(mu),
            "nu": str(nu),
            "theory": theory.value,
            "coefficients": coefficients_to_json(coeffs),
            "puzzle_count": count_puzzles(theory, mu, nu),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for lam in sorted(coeffs):
            print(f"{lam}: {render(coeffs[lam])}")
    return 0


def cmd_puzzles(args) -> int:
    mu, nu = _pair(args.mu, args.nu)
    lam = parse_word(args.lam, n=mu.n, k=mu.k) if args.lam else None
    to_files = args.render is not None and (args.render == "svg" or args.out is not None)
    outdir = args.out or "."
    if to_files:
        # before any output, so that a bad --out leaves stdout empty
        os.makedirs(outdir, exist_ok=True)
    pzs = enumerate_puzzles(mu, nu, lam=lam)
    print(f"{len(pzs)} puzzles")
    if args.render is None:
        return 0
    stem = f"puzzle-{mu}-{nu}" + (f"-{lam}" if lam else "")
    if not to_files:
        for pz in pzs:
            print()
            print(ascii_render(pz))
        return 0
    ext = "svg" if args.render == "svg" else "txt"
    draw = svg_render if args.render == "svg" else ascii_render
    for idx, pz in enumerate(pzs):
        path = os.path.join(outdir, f"{stem}-{idx:03d}.{ext}")
        with open(path, "w") as fh:
            fh.write(draw(pz))
            fh.write("\n")
    print(f"wrote {len(pzs)} {ext} files to {outdir}")
    return 0


_INTERESTING_KINDS = tuple(kind for kind, _, _ in INTERESTING)


def _trace_weights(node, parent_pos) -> dict[str, str] | None:
    """The rendered weight, per theory, of the interesting branch that led
    to node; None when node was reached otherwise."""
    if node.branch not in _INTERESTING_KINDS:
        return None
    br = Branch(node.branch, parent_pos)
    return {t.value: render(branch_weight(t, br, node.path.n)) for t in Theory}


def _trace_lines(node, parent_pos, depth, out):
    pad = "  " * depth
    head = node.branch or "root"
    conds = essential_conditions(node.dots)
    cond_s = ", ".join(f"({i},{j}) r<={b}" for i, j, b in conds) or "none"
    line = f"{pad}{head} @ {node.pos}  codim={node.codim}  essential: {cond_s}"
    weights = _trace_weights(node, parent_pos)
    if weights is not None:
        line += "  weight: " + ", ".join(f"{t}={w}" for t, w in weights.items())
    out.append(line)
    for child in node.children:
        _trace_lines(child, node.pos, depth + 1, out)


def _trace_json(node, parent_pos):
    doc = {
        "branch": node.branch,
        "position": str(node.pos),
        "dots": format_dots(node.dots),
        "codim": node.codim,
        "essential": [[i, j, b] for i, j, b in essential_conditions(node.dots)],
        "children": [_trace_json(c, node.pos) for c in node.children],
    }
    weights = _trace_weights(node, parent_pos)
    if weights is not None:
        doc["weight"] = weights
    return doc


def cmd_trace(args) -> int:
    mu, nu = _pair(args.mu, args.nu)
    try:
        root = trace(mu, nu)
    except ValueError as exc:  # the unreachable pair; other failures raise InvariantError
        raise InputError(str(exc)) from exc
    if args.json:
        doc = {"n": mu.n, "k": mu.k, "mu": str(mu), "nu": str(nu),
               "tree": _trace_json(root, None)}
        print(json.dumps(doc, sort_keys=True))
    else:
        lines: list[str] = []
        _trace_lines(root, None, 0, lines)
        print("\n".join(lines))
    return 0


def cmd_rank(args) -> int:
    if args.n < 1:
        raise InputError(f"--n must be positive, got {args.n}")
    try:
        d = parse_dots(args.dots, args.n) if args.dots else DotSet(args.n, frozenset())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    op = args.op
    if op == "dots":
        print(rank_from_dots(d))
    elif op == "essential":
        r = rank_from_dots(d)
        cells = sorted(essential_set(d), key=lambda c: (c[1], c[0]))
        print("; ".join(f"({i},{j}) r<={r.entry(i, j)}" for i, j in cells))
    elif op == "covers":
        for c in sorted(covers(d), key=format_dots):
            print(format_dots(c))
    elif op == "envelope":
        lam, mu = envelope(d)
        print(f"lambda={lam} mu={mu}")
    elif op == "fixed-points":
        k = d.n - len(d.dots)
        if args.word:
            w = parse_word(args.word, n=d.n, k=k)
            print(f"{w}: {'in' if fixed_point_in(d, w) else 'out'}")
        else:
            for w in all_words(d.n, k):
                if fixed_point_in(d, w):
                    print(w)
    return 0


# verify's cost grows steeply with --max-n: the ten suites take about 48 s
# together at 6 (the essential suite 25 s of it) and peak at about 51 MB RSS
# on a 2-core x86 box
MAX_VERIFY_N = 6


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= MAX_VERIFY_N:
        raise InputError(f"--max-n must be between 1 and {MAX_VERIFY_N}, got {args.max_n}")
    suites = args.suite or None
    if suites:
        unknown = [s for s in suites if s not in _SUITES]
        if unknown:
            raise InputError(f"unknown suite(s): {', '.join(unknown)}")
    rep = verify_suite(args.max_n, seed=args.seed, suites=suites)
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        print(rep)
    return 0 if rep.ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="puzzlecalc",
        description="Exact Schubert structure constants via puzzle paths.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("coeff", help="structure constants for one pair")
    p.add_argument("--theory", required=True, choices=[t.value for t in Theory])
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("puzzles", help="enumerate and render puzzles")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--render", choices=["ascii", "svg"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_puzzles)

    p = sub.add_parser("trace", help="annotated degeneration tree")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("rank", help="interval-rank utilities")
    p.add_argument("op", choices=["dots", "essential", "covers",
                                  "envelope", "fixed-points"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dots", default="")
    p.add_argument("--word", default=None)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("verify", help="run invariant sweeps")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return ap


# built on the first call and reused: parsing leaves no state in the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (WordError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
