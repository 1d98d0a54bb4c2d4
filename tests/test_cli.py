import contextlib
import gc
import io
import json
import json.scanner
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import puzzlecalc
from puzzlecalc.board import ascii_render, final_path_word, svg_render
from puzzlecalc.cli import main
from puzzlecalc.filling import enumerate_puzzles, legal_branches
from puzzlecalc.oracle import _SUITES, verify_suite
from puzzlecalc.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_ht(capsys):
    code, out, _ = run(capsys, "coeff", "--theory", "ht",
                       "--mu", "0101", "--nu", "1010")
    assert code == 0
    assert out.splitlines() == ["0110: 1", "1001: 1", "1010: -1*y1 + 1*y4"]


def test_coeff_k(capsys):
    code, out, _ = run(capsys, "coeff", "--theory", "k",
                       "--mu", "0101", "--nu", "1010")
    assert code == 0
    assert out.splitlines() == ["0101: -1", "0110: 1", "1001: 1"]


def test_coeff_h_identity(capsys):
    code, out, _ = run(capsys, "coeff", "--theory", "h",
                       "--mu", "0011", "--nu", "0011")
    assert code == 0
    assert out.splitlines() == ["0011: 1"]


def test_coeff_json_round_trip(capsys):
    code, out, _ = run(capsys, "coeff", "--theory", "kt",
                       "--mu", "0101", "--nu", "1010", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["k"] == 2
    assert doc["theory"] == "kt"
    assert doc["puzzle_count"] == 6
    assert doc["coefficients"]["0101"] == [{"coef": -1, "exp": [1, 0, 0, -1]}]


@pytest.mark.parametrize("error, code", [("invariant", 2), ("poly", None)])
def test_coeff_json_fails_before_the_first_byte(capsys, monkeypatch, error, code):
    # the count is taken before anything is written: a failure in it leaves
    # stdout empty (an uncaught PolyError exits 1 with its traceback)
    calls = []

    def failing(*args):
        calls.append(args)
        if error == "invariant":
            raise puzzlecalc.filling.InvariantError("broken count")
        raise puzzlecalc.poly.PolyError("broken count")

    monkeypatch.setattr(puzzlecalc.cli, "enumerate_puzzles", failing)
    argv = ["coeff", "--theory", "kt", "--mu", "0101", "--nu", "1010", "--json"]
    if code is None:
        with pytest.raises(puzzlecalc.poly.PolyError):
            main(argv)
        out, err = capsys.readouterr()
    else:
        code_, out, err = run(capsys, *argv)
        assert code_ == code
        assert err == "internal invariant violation: broken count\n"
    assert out == ""
    assert len(calls) == 1


def test_coeff_invariant_violation_is_one_line(capsys, monkeypatch):
    # with no piece for the interesting configuration (kink 1 over SW 0),
    # the engine cannot fill the first interesting state: a bug, exit 2
    filling = puzzlecalc.filling
    interesting = next(key for key, pieces in filling._PIECES.items() if len(pieces) > 1)
    monkeypatch.delitem(filling._PIECES, interesting)
    code, out, err = run(capsys, "coeff", "--theory", "h", "--mu", "0101", "--nu", "1010")
    assert (code, out) == (2, "")
    assert err.startswith("internal invariant violation: unfillable rhombus ('1', '0') at ")
    assert len(err.splitlines()) == 1


def test_coeff_bad_word(capsys):
    code, _, err = run(capsys, "coeff", "--theory", "h",
                       "--mu", "01x1", "--nu", "1010")
    assert code == 1
    assert "error" in err


def test_coeff_mismatched_lengths(capsys):
    code, _, err = run(capsys, "coeff", "--theory", "h",
                       "--mu", "0101", "--nu", "10100")
    assert code == 1


def test_puzzles_count(capsys):
    code, out, _ = run(capsys, "puzzles", "--mu", "0101", "--nu", "1010")
    assert code == 0
    assert out.splitlines()[0] == "6 puzzles"


def test_puzzles_lambda_filter(capsys):
    code, out, _ = run(capsys, "puzzles", "--mu", "0101", "--nu", "1010",
                       "--lambda", "1001")
    assert code == 0
    assert out.splitlines()[0] == "2 puzzles"


def test_puzzles_ascii_render(capsys):
    code, out, _ = run(capsys, "puzzles", "--mu", "01", "--nu", "10",
                       "--render", "ascii")
    assert code == 0
    assert "/" in out and "\\" in out


def test_puzzles_svg_files(tmp_path, capsys):
    # each file holds the picture of the library's puzzle in its place; the
    # pair's 16 puzzles place equivariant, topk and forced K pieces
    mu, nu = parse_word("001101"), parse_word("100110")
    no_mid = {r.kind for pz in enumerate_puzzles(mu, nu) for _, r in pz.rhombi if r.mid is None}
    assert no_mid == {"equivariant", "topk", "boring"}
    for lam, count in ((None, 16), (parse_word("100101"), 6)):
        pzs = [pz for pz in enumerate_puzzles(mu, nu) if lam in (None, pz.lam)]
        assert len(pzs) == count
        out_dir = tmp_path / str(lam)
        code, out, _ = run(capsys, "puzzles", "--mu", str(mu), "--nu", str(nu),
                           *(["--lambda", str(lam)] if lam else []),
                           "--render", "svg", "--out", str(out_dir))
        assert code == 0
        assert out == f"{count} puzzles\nwrote {count} svg files to {out_dir}\n"
        stem = f"puzzle-{mu}-{nu}" + (f"-{lam}" if lam else "")
        files = sorted(out_dir.iterdir())
        assert [p.name for p in files] == [f"{stem}-{i:03d}.svg" for i in range(count)]
        assert [p.read_text() for p in files] == [svg_render(ascii_render(pz)) + "\n"
                                                  for pz in pzs]


def test_puzzles_ascii_files_hold_the_printed_boards(tmp_path, capsys):
    code, out, _ = run(capsys, "puzzles", "--mu", "0101", "--nu", "1010", "--render", "ascii")
    assert code == 0
    head, *boards = out.split("\n\n")
    assert head == "6 puzzles"
    code, out, _ = run(capsys, "puzzles", "--mu", "0101", "--nu", "1010",
                       "--render", "ascii", "--out", str(tmp_path))
    assert code == 0
    assert out == f"6 puzzles\nwrote 6 txt files to {tmp_path}\n"
    files = sorted(tmp_path.iterdir())
    assert [p.name for p in files] == [f"puzzle-0101-1010-{i:03d}.txt" for i in range(6)]
    assert [p.read_text() for p in files] == [b.rstrip("\n") + "\n" for b in boards]


def test_puzzles_file_names_sort_in_board_order_past_999_boards(tmp_path, capsys):
    # 3,239 boards: each index has four digits, so that -1000 sorts after -999
    argv = ["puzzles", "--mu", "01101100", "--nu", "11001100", "--render", "ascii"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    head, *boards = out.split("\n\n")
    assert head == "3239 puzzles"
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert out == f"3239 puzzles\nwrote 3239 txt files to {tmp_path}\n"
    names = [f"puzzle-01101100-11001100-{i:04d}.txt" for i in range(3239)]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert [(tmp_path / name).read_text() for name in names] == [b.rstrip("\n") + "\n"
                                                                 for b in boards]


def _final_words(p):
    # the final words of the runs through the path state p
    branches = legal_branches(p)
    if not branches:
        return {str(final_path_word(p))}
    return set().union(*(_final_words(q) for _, q in branches))


@pytest.mark.parametrize("render", [["ascii"], ["svg", "--out", "boards"],
                                    ["ascii", "--lambda", "1001"]], ids=["ascii", "svg", "lambda"])
def test_puzzles_failure_leaves_stdout_empty(capsys, monkeypatch, tmp_path, render):
    # the last state derived is broken: the count derives every chain end
    # before its line, so neither it nor any board is written.  Every run through
    # it ends at 1010, so the boards of --lambda 1001 never reach it, and it
    # must fail all the same
    argv = ["puzzles", "--mu", "0101", "--nu", "1010", "--render", *render]
    monkeypatch.chdir(tmp_path)
    derive, calls, last = puzzlecalc.filling._derive_branches, [], []

    def derive_or_fail(p, site):
        calls.append(p)
        if len(calls) in last:
            raise puzzlecalc.filling.InvariantError("broken state")
        return derive(p, site)

    monkeypatch.setattr(puzzlecalc.filling, "_derive_branches", derive_or_fail)
    # a walk keeps the memo while it holds the pair's rows, and derives
    # nothing: both runs start from an empty one, so each derives every state
    puzzlecalc.filling._rows.clear()
    assert run(capsys, *argv)[0] == 0
    last.append(len(calls))
    assert _final_words(calls[-1]) == {"1010"}
    calls.clear()
    puzzlecalc.filling._rows.clear()
    (tmp_path / "failing").mkdir()
    monkeypatch.chdir(tmp_path / "failing")
    assert run(capsys, *argv) == (2, "", "internal invariant violation: broken state\n")
    assert not [p for p in (tmp_path / "failing").rglob("*") if p.is_file()]


@pytest.mark.parametrize("shape", ["rhombus", "triangle"])
def test_a_forced_piece_mutant_fails_alike_by_chain_and_by_state(capsys, monkeypatch, shape):
    # plain coeff walks graph's chains, which place each forced piece in
    # place, and trace walks state by state through legal_branches: both
    # check a forced piece through one helper, so a piece that breaks the
    # path there fails both with one message.  The mutant state has one
    # parent, itself forced with one parent, so both walks reach it alike.
    # A rhombus's check reads its state's key, a triangle's its child's
    mu, nu = "01101100", "11001100"
    states = puzzlecalc.filling.reachable_from([(parse_word(mu), parse_word(nu))])
    parents = {}
    for key, (_, branches) in states.items():
        for _, q in branches:
            parents.setdefault(q.key, []).append(key)
    kind = "triangle" if shape == "triangle" else "boring"

    def lone_forced(key):
        return len(parents.get(key, ())) == 1 and len(states[key][1]) == 1

    bad = next(q.key if kind == "triangle" else key
               for key, (_, branches) in states.items()
               if lone_forced(key) and lone_forced(parents[key][0])
               and branches[0][0].kind == kind and branches[0][1].site is not None)
    check = puzzlecalc.filling._child_is_valid
    monkeypatch.setattr(puzzlecalc.filling, "_child_is_valid",
                        lambda code, key, start: key != bad and check(code, key, start))
    failures = []
    for argv in (["coeff", "--theory", "kt"], ["trace"]):
        # cleared, so that no forced step is read off a row derived before
        # the patch
        puzzlecalc.filling._rows.clear()
        code, _, err = run(capsys, *argv, "--mu", mu, "--nu", nu)
        failures.append((code, err))
    assert failures[0] == failures[1]
    assert re.fullmatch(f"internal invariant violation: forced {shape} at .* broke the path: "
                        r"\[\]\n", failures[0][1])
    assert failures[0][0] == 2


def test_puzzles_out_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.touch()
    code, out, err = run(capsys, "puzzles", "--mu", "01", "--nu", "10",
                         "--render", "ascii", "--out", str(blocker))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_reader_closing_the_pipe_early_is_not_an_error():
    # like `| head -1`: the 3,239 rendered puzzles far outrun a pipe's buffer
    src = str(pathlib.Path(puzzlecalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["puzzles", "--mu", "01101100", "--nu", "11001100", "--render", "ascii"]
    with subprocess.Popen([sys.executable, "-m", "puzzlecalc.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"3239 puzzles\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert err == b""


def test_reader_gone_with_no_stdout_descriptor_is_not_an_error(capsys, monkeypatch):
    # capsys' stdout has no descriptor to point at the null device, so the
    # command returns 0 at once, and writes nothing
    def gone(*args):
        raise BrokenPipeError

    with pytest.raises(OSError):
        sys.stdout.fileno()
    monkeypatch.setattr(puzzlecalc.cli, "structure_constants", gone)
    assert run(capsys, "coeff", "--theory", "h", "--mu", "01", "--nu", "10") == (0, "", "")


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["plain", "json"])
def test_reader_closing_coeff_output_early_is_not_an_error(form):
    # coeff writes the n = 10 expansion (5.5 MB, or 10 MB in JSON) in many
    # writes: those after the reader has gone must not fail the command
    src = str(pathlib.Path(puzzlecalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["coeff", "--theory", "ht", "--mu", "0110100110", "--nu", "1100110010", *form]
    with subprocess.Popen([sys.executable, "-m", "puzzlecalc.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{"coefficients": {"' if form else b"0")
    assert proc.returncode == 0, err
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["coeff", "--theory", "kt", "--mu", "011010", "--nu", "110100", "--json"],
    ["puzzles", "--mu", "011010", "--nu", "110100", "--render", "ascii"],
], ids=["coeff", "puzzles"])
def test_output_does_not_depend_on_hash_order(capsys, argv):
    # strings and bytes hash by PYTHONHASHSEED, so set and dict hash order
    # changes from one process to the next; the output must not
    src = str(pathlib.Path(puzzlecalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [subprocess.run([sys.executable, "-m", "puzzlecalc.cli", *argv],
                           env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                           check=True, timeout=60).stdout
            for seed in ("0", "12345")]
    code, here, _ = run(capsys, *argv)
    assert code == 0
    assert outs[0] == outs[1] == here.encode()


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "--mu", "010", "--nu", "100")
    assert code == 0
    assert out.startswith("root @")
    assert "equivariant" in out
    assert "codim=" in out


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "--mu", "010", "--nu", "100", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tree"]["branch"] is None
    assert doc["tree"]["children"]


@pytest.mark.parametrize("half", [22, 23])
def test_plain_trace_has_no_depth_limit(capsys, half):
    # one puzzle, so one run of n(n+1)/2 pieces: 990 at n=44, 1081 at n=46
    word = "0" * half + "1" * half
    code, out, err = run(capsys, "trace", "--mu", word, "--nu", word)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == half * (2 * half + 1) + 1
    assert lines[-1].startswith("  " * (len(lines) - 1) + "triangle @ done")


def test_trace_json_has_no_depth_limit(capsys):
    # the one-run tree of n=46 nests two JSON levels per piece, 2166 in all:
    # it is written without recursion and reads back with a raised limit,
    # through the pure-Python scanner, since the C one of Python 3.12 stops
    # at a fixed depth whatever the limit
    word = "0" * 23 + "1" * 23
    code, out, err = run(capsys, "trace", "--mu", word, "--nu", word, "--json")
    assert (code, err) == (0, "")
    decoder = json.JSONDecoder()
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        node = decoder.decode(out)["tree"]
    finally:
        sys.setrecursionlimit(limit)
    depth = 0
    while node["children"]:
        (node,) = node["children"]
        depth += 1
    assert depth == 23 * 47 == 1081
    assert node["position"] == "done"


def test_trace_json_from_a_deep_caller(capsys):
    # from 60 frames down, the n=30 word writes what a top-level call writes
    word = "0" * 15 + "1" * 15
    argv = ["trace", "--mu", word, "--nu", word, "--json"]

    def deep(frames):
        if frames:
            return deep(frames - 1)
        return main(argv)

    code, out, err = deep(60), *capsys.readouterr()
    assert (code, err) == (0, "")
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["plain", "json"])
def test_trace_streams_its_rows(monkeypatch, form):
    # each row is written before the next row's branches are derived, the
    # root's after one legal_branches call
    calls, calls_at_write = [], []
    legal_branches = puzzlecalc.filling.legal_branches

    def counted(p):
        calls.append(p)
        return legal_branches(p)

    class Stdout(io.StringIO):
        def write(self, text):
            calls_at_write.append(len(calls))
            return super().write(text)

    monkeypatch.setattr(puzzlecalc.filling, "legal_branches", counted)
    with contextlib.redirect_stdout(Stdout()):
        assert main(["trace", "--mu", "010101", "--nu", "101010", *form]) == 0
    assert calls_at_write[0] == 1
    assert sorted(set(calls_at_write)) == list(range(1, len(calls) + 1))
    assert len(calls) > 1


def test_trace_invalid_pair(capsys):
    code, _, err = run(capsys, "trace", "--mu", "100", "--nu", "010")
    assert code == 1


def test_trace_annotation_failure_is_an_invariant_violation(capsys, monkeypatch):
    # the pair is reachable, so failing to pair a state's rays is a bug,
    # not bad input
    def unbalanced(p):
        raise ValueError("unbalanced rays")

    monkeypatch.setattr(puzzlecalc.pinkdots, "path_dots", unbalanced)
    code, out, err = run(capsys, "trace", "--mu", "0101", "--nu", "1010")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal invariant violation: ")


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["plain", "json"])
def test_trace_failure_after_the_root_keeps_the_rows_written(capsys, monkeypatch, form):
    # the fourth row cannot be annotated: the first three stay on stdout
    argv = ["trace", "--mu", "0101", "--nu", "1010", *form]
    _, full, _ = run(capsys, *argv)
    path_dots, calls = puzzlecalc.pinkdots.path_dots, []

    def fourth_fails(p):
        calls.append(p)
        if len(calls) == 4:
            raise ValueError("unbalanced rays")
        return path_dots(p)

    monkeypatch.setattr(puzzlecalc.pinkdots, "path_dots", fourth_fails)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("internal invariant violation: ")
    if not form:
        assert out.splitlines() == full.splitlines()[:3]
        return
    # the first four rows are a chain, so no node was closed before the
    # fourth: the text written is the document up to where the fourth opens
    opened = [i for i in range(len(full)) if full.startswith('{"branch": ', i)]
    assert out == full[:opened[3]]


def test_rank_essential(capsys):
    code, out, _ = run(capsys, "rank", "essential",
                       "--n", "5", "--dots", "1,5;3,3")
    assert code == 0
    assert out.strip() == "(3,3) r<=0; (1,5) r<=3"


def test_rank_envelope(capsys):
    code, out, _ = run(capsys, "rank", "envelope",
                       "--n", "5", "--dots", "1,5;3,3")
    assert code == 0
    assert out.strip() == "lambda=01011 mu=11010"


def test_rank_fixed_points(capsys):
    code, out, _ = run(capsys, "rank", "fixed-points",
                       "--n", "4", "--dots", "2,2;1,3")
    assert code == 0
    members = out.split()
    assert members == sorted(members)
    assert all(len(w) == 4 and w.count("1") == 2 for w in members)


def test_rank_fixed_points_single_word(capsys):
    code, out, _ = run(capsys, "rank", "fixed-points",
                       "--n", "4", "--dots", "2,2;1,3", "--word", "0011")
    assert code == 0
    assert out.strip() == "0011: in"


def test_rank_covers(capsys):
    code, out, _ = run(capsys, "rank", "covers", "--n", "2", "--dots", "2,2")
    assert code == 0
    assert out.split() == ["1,2"]


def test_rank_dots_matrix(capsys):
    code, out, _ = run(capsys, "rank", "dots", "--n", "3", "--dots", "1,2")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_rank_malformed_dots(capsys):
    code, _, err = run(capsys, "rank", "dots", "--n", "3", "--dots", "9,9")
    assert code == 1


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    # one wall-time line per suite, in run order, between the checks and OK
    times = [line for line in lines if line.startswith("time ")]
    assert lines[-1 - len(times):-1] == times
    assert [line.split(":")[0] for line in times] == [f"time {s}" for s in _SUITES]
    assert all(re.fullmatch(r"time \w+: \d+\.\d\ds", line) for line in times)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2",
                       "--suite", "hall", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [s["suite"] for s in doc["suites"]] == ["hall"]


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # main parses every call with one parser; a flag or an appended --suite
    # of one call must not carry over to the next
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--suite", "lr", "--json")
    assert code == 0 and [s["suite"] for s in json.loads(out)["suites"]] == ["lr"]
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--json")
    assert code == 0 and [s["suite"] for s in json.loads(out)["suites"]] == list(_SUITES)
    code, out, _ = run(capsys, "coeff", "--theory", "h", "--mu", "0101", "--nu", "1010")
    assert code == 0 and out.splitlines() == ["0110: 1", "1001: 1"]


def test_verify_runs_a_repeated_suite_once(capsys):
    # each named suite runs, prints and is timed once, in the order it was first given
    argv = ("verify", "--max-n", "2", "--suite", "lr", "--suite", "hall", "--suite", "lr")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["PASS lr", "PASS hall"]
    assert [line.split(":")[0] for line in lines[2:]] == ["time lr", "time hall", "OK"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and [s["suite"] for s in json.loads(out)["suites"]] == ["lr", "hall"]


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "2", "--suite", "hall", "--suite", "nope")
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown suite(s): nope") and len(err.splitlines()) == 1


def test_verify_suite_that_raises_is_a_failed_suite(capsys, monkeypatch):
    # a check that raises fails its suite (exit 2, no traceback), is still
    # timed, and the suites after it still run
    from puzzlecalc import pinkdots

    def broken(p):
        raise ValueError("no dots today")

    monkeypatch.setattr(pinkdots, "path_dots", broken)
    argv = ("verify", "--max-n", "2", "--suite", "pinkdots", "--suite", "hall")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[:2] == ["FAIL pinkdots: raised ValueError: no dots today", "PASS hall"]
    assert [line.split(":")[0] for line in lines[2:4]] == ["time pinkdots", "time hall"]
    assert lines[-1] == "FAILED"
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [(s["suite"], s["ok"]) for s in doc["suites"]] == [("pinkdots", False), ("hall", True)]


@pytest.mark.parametrize("argv", [
    ["rank", "dots", "--n", "0"],
    ["rank", "essential", "--n", "-2"],
    ["rank", "fixed-points", "--n", "17", "--dots", "1,1"],
    ["verify", "--max-n", "-1"],
    ["verify", "--max-n", "0"],
    ["verify", "--max-n", "7"],
    ["coeff", "--theory", "h", "--mu", "0101", "--nu", "1010", "--threads", "2"],
    ["puzzles", "--mu", "0101", "--nu", "1010", "--threads", "2"],
    ["coeff", "--theory", "xt", "--mu", "0101", "--nu", "1010"],
    ["coeff", "--mu", "0101", "--nu", "1010"],
    ["coeff", "--theory", "h", "--mu=", "--nu="],
    ["rank", "dots", "--n", "three"],
    ["frobnicate"],
    [],
    ["rank", "dots", "--n", "3", "--dots", "1,x"],
    ["rank", "dots", "--n", "3", "--dots", "1,2;1,2"],
    ["rank", "dots", "--n", "3", "--dots", "1,2;2,2"],
    # options that the command would otherwise ignore
    ["puzzles", "--mu", "0101", "--nu", "1010", "--out", "never-made"],
    # empty values are refused, not taken as absent
    ["puzzles", "--mu", "0101", "--nu", "1010", "--lambda", ""],
    ["puzzles", "--mu", "0101", "--nu", "1010", "--render", "svg", "--out", ""],
    ["rank", "essential", "--n", "3", "--dots", "1,2", "--word", "01"],
    ["rank", "fixed-points", "--n", "2", "--dots", "1,1", "--word", ""],
])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, target", [
    (["coeff", "--theory", "kt", "--mu", "0101", "--nu", "1010", "--json"],
     "structure_constants"),
    # both renders take the count line and the boards from one ascii_puzzles
    # call, made before the count line
    (["puzzles", "--mu", "0101", "--nu", "1010", "--render", "svg", "--out", "out"],
     "ascii_puzzles"),
    (["puzzles", "--mu", "0101", "--nu", "1010", "--render", "ascii"], "ascii_puzzles"),
])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, tmp_path, argv, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(puzzlecalc.cli, target, exhausted)
    assert run(capsys, *argv) == (1, "", "error: out of memory\n")


def test_verify_suite_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # not a failed sweep (exit 2): the whole command is out of memory, as
    # coeff and puzzles are, and prints no report
    from puzzlecalc import oracle

    def exhausted(max_n):
        raise MemoryError

    monkeypatch.setattr(oracle, "_suite_hall", exhausted)
    for json_flag in ((), ("--json",)):
        argv = ("verify", "--max-n", "2", "--suite", "lr", "--suite", "hall", *json_flag)
        assert run(capsys, *argv) == (1, "", "error: out of memory\n")


# -- fuzzing the command line ---------------------------------------------
# Argument lists drawn from a bounded grammar: each subcommand with its
# required flags (each sometimes left out) and any of its optional flags,
# then perhaps one stray item: any flag with a value, a flag missing its
# value, or a loose token.  Values are well-formed or malformed; repeated
# entries weight the draw.  Sizes stay small (--n <= 4, --max-n <= 2,
# words of length <= 4) so that no call runs long.

def _numbers(hi):
    good = [str(i) for i in range(1, hi + 1)]
    return st.sampled_from(3 * good + ["0", "-1", "x", "1.5", ""])


_GOOD_WORDS = ["01", "10", "001", "010", "100", "0011", "0101", "0110", "1001",
               "1010", "1100"]
_WORDS = (st.sampled_from(_GOOD_WORDS) | st.sampled_from(_GOOD_WORDS)
          | st.text("01x ", max_size=4))
_VALUES = {
    "--theory": st.sampled_from(["h", "ht", "k", "kt", "xt"]),
    "--mu": _WORDS,
    "--nu": _WORDS,
    "--lambda": _WORDS,
    "--word": _WORDS,
    "--render": st.sampled_from(["ascii", "svg", "png"]),
    "--out": st.sampled_from(["out", "out/sub", "a-file", "a-file"]),
    "--n": _numbers(4),
    "--max-n": _numbers(2),
    "--seed": _numbers(9),
    "--dots": st.sampled_from(["", "1,1", "2,2", "1,3", "2,2;1,3", "1,1;2,2;3,3;4,4",
                               "1,x", "1,2;1,2", "2,1", "9,9", "1,2,3", ";", "1,1;1,2"]),
    "--suite": st.sampled_from(sorted(_SUITES) + ["nope"] * 3),
}
# subcommand: (required flags, optional flags)
_COMMANDS = {
    "coeff": (("--theory", "--mu", "--nu"), ("--json",)),
    "puzzles": (("--mu", "--nu"), ("--lambda", "--render", "--out")),
    "trace": (("--mu", "--nu"), ("--json",)),
    "rank": (("--n",), ("--dots", "--word")),
    "verify": (("--max-n",), ("--suite", "--seed", "--json")),
    "frobnicate": ((), ()),
    "--json": ((), ()),
}
_RANK_OPS = ["dots", "essential", "covers", "envelope", "fixed-points"]
_STRAY = (
    st.sampled_from(sorted(_VALUES)).flatmap(lambda f: _VALUES[f].map(lambda v: [f, v]))
    | st.sampled_from(sorted(_VALUES) + ["--json", "--help"]).map(lambda f: [f])
    | (st.sampled_from(_RANK_OPS + ["0", "1", "2"]) | _WORDS).map(lambda t: [t])
)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(list(_COMMANDS)))
    required, optional = _COMMANDS[cmd]
    argv = [cmd]
    if cmd == "rank":
        argv.append(draw(st.sampled_from(_RANK_OPS + ["nope"])))
    mu = draw(_WORDS)
    for flag in required + optional:
        if draw(st.integers(0, 9)) < (1 if flag in required else 5):
            continue
        if flag == "--json":
            argv.append(flag)
            continue
        value = _VALUES[flag]
        if flag == "--mu":
            value = st.just(mu)
        elif flag in ("--nu", "--lambda"):
            # a rearranged mu is a well-formed partner
            value = st.permutations(mu).map("".join) | value
        argv += [flag, draw(value)]
    for item in draw(st.lists(_STRAY, max_size=1)):
        argv += item
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=_argv())
def test_fuzzed_arguments_exit_cleanly(tmp_path_factory, argv):
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(tmp_path_factory.mktemp("fuzz"))
    try:
        pathlib.Path("a-file").touch()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    finally:
        os.chdir(here)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


_BROKEN_INVARIANT = textwrap.dedent("""
    import sys
    from puzzlecalc import cli, filling
    from puzzlecalc.board import initial_path
    from puzzlecalc.words import parse_word

    # the starting path is valid, but every child fails the engine's check,
    # so the first piece placed breaks the path
    start = initial_path(parse_word("0101"), parse_word("1010"))
    filling._child_is_valid = lambda *args: False
    try:
        filling.legal_branches(start)
        print("returned")
    except filling.InvariantError:
        print("raised")
    print(sys.flags.optimize)
    print(cli.main(["coeff", "--theory", "h", "--mu", "0101", "--nu", "1010"]))
""")


def test_invariant_violation_survives_optimize():
    src = str(pathlib.Path(puzzlecalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANT],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.stdout.split() == ["raised", "1", "2"], res.stderr
    assert res.stderr.startswith("internal invariant violation: ")


def test_no_sweep_or_command_leaves_cyclic_garbage():
    # every recursion is a module-level function, not a closure, so a
    # verify sweep or a command leaves nothing that only the cyclic
    # collector frees.  The first pass warms the caches and builds the
    # parser, whose argparse formatters hold cycles
    pair = ["--mu", "01101100", "--nu", "11001100"]
    argvs = [["coeff", "--theory", "kt", *pair, "--json"],
             ["puzzles", *pair, "--render", "ascii"], ["trace", *pair, "--json"],
             ["rank", "fixed-points", "--n", "6", "--dots", "1,2;3,5"],
             ["rank", "covers", "--n", "6", "--dots", "1,2;3,5"]]

    def calls():
        assert verify_suite(4).ok
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0

    calls()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        calls()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
