"""
Batch command line front end.

Subcommands: coeff (structure constants), puzzles (enumerate / render),
trace (annotated degeneration tree), rank (interval-rank utilities),
verify (invariant sweeps).  Exit codes: 0 success, 1 bad input or out of
memory, 2 internal invariant violation or a failed verify sweep.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .board import svg_render
from .filling import FORCED, InvariantError, Theory, ascii_puzzles, branch_weight, \
    enumerate_puzzles, structure_constants, trace_rows
from .intervalrank import DotSet, covers, envelope, essential_set, fixed_point_in, \
    format_dots, parse_dots, rank_from_dots
from .oracle import UnknownSuiteError, verify_suite
from .poly import json_text, render
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
    # --json counts first: the count's run walk derives every state once,
    # and structure_constants' graph then reads each forced step off its row
    count = len(enumerate_puzzles(mu, nu, theory)) if args.json else None
    coeffs = structure_constants(theory, mu, nu)
    write = sys.stdout.write
    if not args.json:
        for lam, c in coeffs.items():
            write(f"{lam}: {render(c)}\n")
        return 0
    # json.dumps(doc, sort_keys=True), one coefficient at a time, in the word order
    # structure_constants gives ("coefficients" sorts first); the rest, count included,
    # is built before any write: a failure writes nothing
    rest = json.dumps({"n": mu.n, "k": mu.k, "mu": str(mu), "nu": str(nu), "theory": theory.value,
                       "puzzle_count": count}, sort_keys=True)
    write('{"coefficients": {')
    for i, (lam, c) in enumerate(coeffs.items()):
        write(f'{", " if i else ""}"{lam}": {json_text(c)}')
    write("}, " + rest[1:] + "\n")
    return 0


def cmd_puzzles(args) -> int:
    mu, nu = _pair(args.mu, args.nu)
    lam = parse_word(args.lam, n=mu.n, k=mu.k) if args.lam is not None else None
    if args.out is not None and args.render is None:
        raise InputError("--out needs --render")
    to_files = args.render == "svg" or args.out is not None
    outdir = "." if args.out is None else args.out
    if to_files:
        # before any output, so that a bad --out leaves stdout empty
        os.makedirs(outdir, exist_ok=True)
    # the counts derive and check every state before the first write: a
    # failure leaves stdout empty
    counts, boards = ascii_puzzles(mu, nu, lam)
    count = sum(counts.values()) if lam is None else counts.get(str(lam), 0)
    boards = map(svg_render, boards) if args.render == "svg" else boards
    print(f"{count} puzzles")
    if args.render is None:
        return 0
    stem = f"puzzle-{mu}-{nu}" + (f"-{lam}" if lam else "")
    if not to_files:
        write = sys.stdout.write
        for text in boards:
            write(f"\n{text}\n")
        return 0
    ext = "svg" if args.render == "svg" else "txt"
    # every index padded to one width, so that the names sort in board order
    width = max(3, len(str(count - 1)))
    for idx, text in enumerate(boards):
        with open(os.path.join(outdir, f"{stem}-{idx:0{width}d}.{ext}"), "w") as fh:
            fh.write(f"{text}\n")
    print(f"wrote {count} {ext} files to {outdir}")
    return 0


def _weights(node) -> dict | None:
    # per theory, the rendered weight of the interesting branch that led here
    via = node.via
    if via is None or via.kind in FORCED:
        return None
    return {t.value: render(branch_weight(t, via, node.path.n)) for t in Theory}


def _write_trace_json(head: dict, rows) -> None:
    # json.dumps({**head, "tree": tree}, sort_keys=True), written as the rows
    # arrive.  "tree" sorts after head's keys and "children" second in a
    # node, so a node opens as {"branch": ..., "children": [ and closing[d]
    # holds the text that ends the open node at depth d: "], " and its
    # remaining keys.
    write = sys.stdout.write
    write(json.dumps(head, sort_keys=True)[:-1] + ', "tree": ')
    closing: list[str] = []
    for depth, node in rows:
        if depth < len(closing):  # a sibling: end it and its open descendants
            write("".join(reversed(closing[depth:])) + ", ")
            del closing[depth:]
        rest = {"position": str(node.pos), "dots": format_dots(node.dots),
                "codim": node.codim, "essential": node.essential}
        weights = _weights(node)
        if weights is not None:
            rest["weight"] = weights
        write('{"branch": ' + json.dumps(node.branch) + ', "children": [')
        closing.append("], " + json.dumps(rest, sort_keys=True)[1:])
    write("".join(reversed(closing)) + "}\n")


def cmd_trace(args) -> int:
    mu, nu = _pair(args.mu, args.nu)
    rows = trace_rows(mu, nu)
    try:
        first = next(rows)
    except ValueError as exc:  # the unreachable pair; other failures raise InvariantError
        raise InputError(str(exc)) from exc
    rows = itertools.chain([first], rows)
    if args.json:
        _write_trace_json({"n": mu.n, "k": mu.k, "mu": str(mu), "nu": str(nu)}, rows)
        return 0
    for depth, node in rows:
        cond_s = ", ".join(f"({i},{j}) r<={b}" for i, j, b in node.essential) or "none"
        line = (f"{'  ' * depth}{node.branch or 'root'} @ {node.pos}  codim={node.codim}"
                f"  essential: {cond_s}")
        weights = _weights(node)
        if weights is not None:
            line += "  weight: " + ", ".join(f"{t}={w}" for t, w in weights.items())
        print(line)
    return 0


# verify's cost grows steeply with --max-n: on a 2-core x86 box the ten
# suites' time lines sum to about 0.35 s at 5 and 2.34 s at 6 (specialize
# 1.46 s of it), and the whole process takes about 0.47 s and 19 MB peak RSS
# at 5, 2.46 s and 20 MB at 6
MAX_VERIFY_N = 6

# rank fixed-points tests every word with n - #dots ones, C(n, n/2) at worst,
# against one rank matrix: with n/2 dots on the diagonal the test takes about
# 0.06 s at n = 14, 0.2 s at 16 and 0.6 s at 18 on the same box, and the
# whole process 0.3 s and 20 MB peak RSS at 16; the other rank ops take
# under 0.01 s at 18
MAX_RANK_N = 16


def cmd_rank(args) -> int:
    if not 1 <= args.n <= MAX_RANK_N:
        raise InputError(f"--n must be between 1 and {MAX_RANK_N}, got {args.n}")
    try:
        d = parse_dots(args.dots, args.n) if args.dots else DotSet(args.n, frozenset())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    op = args.op
    if args.word is not None and op != "fixed-points":
        raise InputError(f"--word applies to fixed-points, not {op}")
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
        r = rank_from_dots(d)
        if args.word is not None:
            w = parse_word(args.word, n=d.n, k=k)
            print(f"{w}: {'in' if fixed_point_in(d, w, r) else 'out'}")
        else:
            for w in all_words(d.n, k):
                if fixed_point_in(d, w, r):
                    print(w)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= MAX_VERIFY_N:
        raise InputError(f"--max-n must be between 1 and {MAX_VERIFY_N}, got {args.max_n}")
    try:
        rep = verify_suite(args.max_n, suites=args.suite)
    except UnknownSuiteError as exc:
        raise InputError(str(exc)) from exc
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
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: no suite draws random numbers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return ap


# built on the first call and reused: parsing leaves no state in the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): not bad input.  Point
        # stdout at the null device, so that the final flush stays silent.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except (WordError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
