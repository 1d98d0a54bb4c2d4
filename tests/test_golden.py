"""
Refactor gate: the CLI's output on a fixed corpus must not change.

Each (subcommand, theory, n) group runs the CLI on every (mu, nu) pair of
length n and hashes the exit codes, stdout and stderr into one sha256,
which must match the digest recorded in golden.json.  The corpus is every
pair with n <= 5 for `coeff --json` (four theories) and
`puzzles --render ascii`, and every pair with n <= 4 for plain `coeff`
(four theories) and `trace --json`.

Rewrite the digests only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from puzzlecalc.cli import main
from puzzlecalc.words import all_words

DIGESTS = pathlib.Path(__file__).with_name("golden.json")
THEORIES = ("h", "ht", "k", "kt")


def _groups():
    for n in range(1, 6):
        for t in THEORIES:
            yield f"coeff-json/{t}/{n}", n, ["coeff", "--theory", t, "--json"]
        yield f"puzzles-ascii/-/{n}", n, ["puzzles", "--render", "ascii"]
    for n in range(1, 5):
        for t in THEORIES:
            yield f"coeff-text/{t}/{n}", n, ["coeff", "--theory", t]
        yield f"trace-json/-/{n}", n, ["trace", "--json"]


GROUPS = {name: (n, argv) for name, n, argv in _groups()}


def digest(n: int, argv: list[str]) -> str:
    h = hashlib.sha256()
    for k in range(n + 1):
        for mu in all_words(n, k):
            for nu in all_words(n, k):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv + ["--mu", str(mu), "--nu", str(nu)])
                h.update(f"{mu} {nu} {rc}\n{out.getvalue()}{err.getvalue()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_matches_golden_digest(group):
    want = json.loads(DIGESTS.read_text())[group]
    assert digest(*GROUPS[group]) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    doc = {name: digest(n, argv) for name, (n, argv) in sorted(GROUPS.items())}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} digests to {DIGESTS}")
