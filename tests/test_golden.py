"""
Refactor gate: the CLI's output on a fixed corpus must not change.

Each (subcommand, theory, n) group runs the CLI on every (mu, nu) pair of
length n and hashes the exit codes, stdout and stderr into one sha256,
which must match the digest recorded in golden.json.  The corpus is every
pair with n <= 5 for `coeff --json` (four theories),
`puzzles --render ascii`, `trace --json` and plain `trace` (which print
every node's codimension), and every pair with n <= 4 for plain `coeff`
(four theories).

The `puzzles-svg` groups gate `board.svg_render` through the library:
for each n <= 5 they hash the SVG drawn from the `ascii_render` text of
every puzzle of every pair, the text `puzzles --render svg` draws from.

The `validate-path` groups gate `board.validate_path` alone: for each
n <= 5 they hash its messages on every initial path, every path state
reachable from a valid one, and every relabelling of one step of those
paths to another of 0, 1, R and K.

The `path-dots` groups gate `pinkdots.path_dots` alone: for each n <= 5
they hash the dots of every path state reachable from each pair.

The `rank-<op>` groups gate the `rank` subcommand: for each n <= 5 they
hash `rank <op> --n n --dots D` on every dot set D of every size, and
`rank-fixed-points` also `--word w` for every word w with n - #D ones.

`--write` records the digest of every group missing from golden.json and
leaves the others alone:

    PYTHONPATH=src python tests/test_golden.py --write

It first recomputes every recorded group; if any differs from its digest,
it lists those groups and exits 1 without writing.  To accept an intended
output change, delete that group's entry from golden.json, then write.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from puzzlecalc.board import (PuzzlePath, Step, ascii_render, initial_path, path_from_key,
                              svg_render, validate_path)
from puzzlecalc.cli import main
from puzzlecalc.filling import enumerate_puzzles, reachable_from
from puzzlecalc.intervalrank import all_dotsets, format_dots
from puzzlecalc.pinkdots import path_to_rank
from puzzlecalc.words import all_words

DIGESTS = pathlib.Path(__file__).with_name("golden.json")
THEORIES = ("h", "ht", "k", "kt")
RANK_OPS = ("dots", "essential", "covers", "envelope", "fixed-points")
LABELS = ("0", "1", "R", "K")


def _groups():
    for n in range(1, 6):
        for t in THEORIES:
            yield f"coeff-json/{t}/{n}", cli_digest, (n, ["coeff", "--theory", t, "--json"])
        yield f"puzzles-ascii/-/{n}", cli_digest, (n, ["puzzles", "--render", "ascii"])
        yield f"puzzles-svg/-/{n}", svg_digest, (n,)
        yield f"validate-path/-/{n}", validate_path_digest, (n,)
        yield f"path-dots/-/{n}", path_dots_digest, (n,)
        yield f"trace-json/-/{n}", cli_digest, (n, ["trace", "--json"])
        yield f"trace-text/-/{n}", cli_digest, (n, ["trace"])
        for op in RANK_OPS:
            yield f"rank-{op}/-/{n}", rank_digest, (n, op)
    for n in range(1, 5):
        for t in THEORIES:
            yield f"coeff-text/{t}/{n}", cli_digest, (n, ["coeff", "--theory", t])


def _pairs(n: int):
    for k in range(n + 1):
        for mu in all_words(n, k):
            for nu in all_words(n, k):
                yield mu, nu


def _run(argv: list[str]) -> str:
    """The CLI's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"{rc}\n{out.getvalue()}{err.getvalue()}"


def cli_digest(n: int, argv: list[str]) -> str:
    h = hashlib.sha256()
    for mu, nu in _pairs(n):
        h.update(f"{mu} {nu} {_run(argv + ['--mu', str(mu), '--nu', str(nu)])}".encode())
    return h.hexdigest()


def rank_digest(n: int, op: str) -> str:
    h = hashlib.sha256()
    for size in range(n + 1):
        words = [str(w) for w in all_words(n, n - size)] if op == "fixed-points" else []
        for d in all_dotsets(n, size):
            for extra in [[]] + [["--word", w] for w in words]:
                argv = ["rank", op, "--n", str(n), "--dots", format_dots(d), *extra]
                h.update(f"{' '.join(argv)} {_run(argv)}".encode())
    return h.hexdigest()


def svg_digest(n: int) -> str:
    h = hashlib.sha256()
    for mu, nu in _pairs(n):
        for pz in enumerate_puzzles(mu, nu):
            h.update(f"{mu} {nu} {pz.lam}\n{svg_render(ascii_render(pz))}\n".encode())
    return h.hexdigest()


def _paths(n: int) -> set[bytes]:
    """The key of every initial path of length n and of every state reachable from a valid one."""
    seen = set()
    for mu, nu in _pairs(n):
        seen.add(initial_path(mu, nu).key)
        seen.update(reachable_from([(mu, nu)]))
    return seen


def validate_path_digest(n: int) -> str:
    paths = set()
    for key in _paths(n):
        steps = path_from_key(n, key).steps
        paths.add(steps)
        for idx, s in enumerate(steps):
            for label in LABELS:
                if label != s.label:
                    paths.add(steps[:idx] + (Step(s.dir, label),) + steps[idx + 1:])
    h = hashlib.sha256()
    for steps in sorted(paths, key=lambda st: [(s.dir, s.label) for s in st]):
        bad = validate_path(PuzzlePath(n, steps))
        h.update((" ".join(s.dir + s.label for s in steps) + " | " + "; ".join(bad) + "\n").encode())
    return h.hexdigest()


def path_dots_digest(n: int) -> str:
    h = hashlib.sha256()
    for mu, nu in _pairs(n):
        for path, _ in sorted(reachable_from([(mu, nu)]).values(),
                              key=lambda item: [(s.dir, s.label) for s in item[0].steps]):
            d = format_dots(path_to_rank(path)[0])
            h.update(f"{mu} {nu} {' '.join(s.dir + s.label for s in path.steps)} | {d}\n".encode())
    return h.hexdigest()


GROUPS = {name: (fn, args) for name, fn, args in _groups()}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_matches_golden_digest(group):
    want = json.loads(DIGESTS.read_text())[group]
    fn, args = GROUPS[group]
    assert fn(*args) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    changed = [name for name, want in sorted(doc.items())
               if name in GROUPS and GROUPS[name][0](*GROUPS[name][1]) != want]
    if changed:
        print("digest changed, nothing written (delete a group's entry to accept its new output):")
        for name in changed:
            print(f"  {name}")
        sys.exit(1)
    new = {name: fn(*args) for name, (fn, args) in sorted(GROUPS.items()) if name not in doc}
    doc.update(new)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} new digests to {DIGESTS}")
