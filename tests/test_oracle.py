import json
import os
import pathlib
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from puzzlecalc import board, filling, intervalrank, oracle, pinkdots
from puzzlecalc.cli import main
from puzzlecalc.intervalrank import DotSet, IntervalRankMatrix, format_dots
from puzzlecalc.oracle import (Report, UnknownSuiteError, _SUITES, _suite_commute,
                               _suite_dictionary, _suite_pinkdots, lr_count, lr_oracle,
                               verify_suite)
from puzzlecalc.words import parse_word


def test_lr_count_known_values():
    # c^{(2,1)}_{(1),(1,1)} = 1 and c^{(2,1)}_{(1),(2)} = 1
    assert lr_count((2, 1), (1,), (1, 1)) == 1
    assert lr_count((2, 1), (1,), (2,)) == 1
    # c^{(2,2)}_{(1),(1)} = 0: content too small
    assert lr_count((2, 2), (1,), (1,)) == 0
    # c^{(4,2)}_{(2,1),(2,1)} = 1
    assert lr_count((4, 2), (2, 1), (2, 1)) == 1
    # c^{(3,2,1)}_{(2,1),(2,1)} = 2: the classical multiplicity-two case
    assert lr_count((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_count_trivial_cases():
    assert lr_count((), (), ()) == 1
    assert lr_count((3,), (), (3,)) == 1
    assert lr_count((3,), (), (2, 1)) == 0
    assert lr_count((1, 1), (), (1, 1)) == 1


def test_lr_count_column_strictness():
    # shape (1,1)/() with content (1,1) forces 1 over 2
    assert lr_count((1, 1), (), (1, 1)) == 1
    # but content (2,) would repeat a value in a column
    assert lr_count((1, 1), (), (2,)) == 0


def test_lr_oracle_degree_mismatch_is_zero():
    lam = parse_word("011")
    mu = parse_word("101")
    nu = parse_word("110")
    assert lr_oracle(lam, mu, nu) == 0


def test_lr_oracle_refuses_words_of_two_shapes():
    for lam, mu, nu in [("01", "01", "001"), ("01", "01", "11")]:
        with pytest.raises(ValueError, match="^words must share n and k$"):
            lr_oracle(parse_word(lam), parse_word(mu), parse_word(nu))


def test_lr_oracle_identity():
    w = parse_word("0011")
    assert lr_oracle(w, w, parse_word("0101")) == 0
    assert lr_oracle(parse_word("0011"), parse_word("0011"),
                     parse_word("0011")) == 1


def test_report_formatting():
    rep = Report()
    rep.record("alpha", True)
    rep.record("beta", False, "boom")
    assert not rep.ok
    text = str(rep)
    assert "PASS alpha" in text
    assert "FAIL beta: boom" in text
    assert text.endswith("FAILED")
    doc = rep.to_json()
    assert doc["ok"] is False
    assert len(doc["suites"]) == 2


def test_verify_suite_small():
    rep = verify_suite(3)
    assert rep.ok, str(rep)
    names = [s for s, _, _ in rep.results]
    assert len(names) == len(set(names)) == 10


def test_verify_suite_subset_and_seed_stability(capsys):
    # no suite draws random numbers: a run repeats itself, and the CLI's
    # --seed changes nothing
    a = verify_suite(3, suites=["hall", "essential"])
    b = verify_suite(3, suites=["hall", "essential"])
    assert a.to_json() == b.to_json()
    outs = []
    for seed in ("0", "7"):
        assert main(["verify", "--max-n", "3", "--suite", "essential",
                     "--seed", seed, "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_verify_suite_times_each_suite_in_text_only():
    rep = verify_suite(2, suites=["lr", "hall"])
    assert [s for s, _ in rep.times] == ["lr", "hall"]
    assert all(secs >= 0 for _, secs in rep.times)
    assert str(rep).splitlines()[-3:-1] == [f"time {s}: {secs:.2f}s" for s, secs in rep.times]
    assert "time" not in json.dumps(rep.to_json())


def test_unknown_suite_is_refused_before_any_suite_runs(monkeypatch):
    ran = []
    # every name is checked before any suite runs; _SUITES dispatches
    # through the module-level names
    def hall(max_n):
        ran.append(max_n)
        return []

    monkeypatch.setattr(oracle, "_suite_hall", hall)
    with pytest.raises(ValueError, match="nope"):
        verify_suite(2, suites=["hall", "nope"])
    assert ran == []
    verify_suite(2, suites=["hall"])
    assert ran == [2]


def test_a_sweep_that_checks_nothing_is_refused_before_any_suite_runs(monkeypatch):
    # no suite named, or no size to check, is an error, not a pass
    ran = []
    for name in _SUITES:
        monkeypatch.setattr(oracle, f"_suite_{name}", lambda max_n: ran.append(max_n) or [])
    with pytest.raises(UnknownSuiteError, match="none given"):
        verify_suite(5, [])
    for max_n in (0, -3):
        with pytest.raises(ValueError, match=f"max_n must be at least 1, got {max_n}"):
            verify_suite(max_n, ["lr"])
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            verify_suite(max_n)
    assert ran == []


@pytest.mark.parametrize("name", _SUITES)
def test_every_suite_is_recorded_with_its_first_three_failure_lines(monkeypatch, name):
    # verify_suite alone turns a suite's failure lines into its verdict
    lines = ["one", "two", "three", "four"]
    monkeypatch.setattr(oracle, f"_suite_{name}", lambda max_n: lines)
    assert verify_suite(1, [name]).results == [(name, False, "one; two; three")]
    monkeypatch.setattr(oracle, f"_suite_{name}", lambda max_n: [])
    assert verify_suite(1, [name]).results == [(name, True, "")]


def test_essential_suite_catches_a_missing_cell(monkeypatch):
    # without its largest cell the essential set no longer implies every
    # window bound, and the derivation must show it; the detail names each
    # dot set's first window whose bound it cannot derive
    real = intervalrank.essential_set

    def drop_largest(d):
        cells = real(d)
        return cells - {max(cells)} if cells else cells

    monkeypatch.setattr(intervalrank, "essential_set", drop_largest)
    assert verify_suite(3, ["essential"]).results == [
        ("essential", False, "n=2 1,1 window [1,1]; n=2 2,2 window [2,2]; n=3 1,1 window [1,1]")]


def test_commute_reports_mismatches_theory_by_theory(monkeypatch):
    # asymmetric expansions for H at n = 3 and H_T at n = 2: H's come first,
    # although the pairs are expanded n by n
    def lopsided(theories, pairs):
        return [tuple({str(nu): f"{t.value}:{mu}"}
                      if (t, mu.n) in ((filling.Theory.H, 3), (filling.Theory.HT, 2)) else {}
                      for t in theories)
                for mu, nu in pairs]

    monkeypatch.setattr(filling, "table", lopsided)
    lines = _suite_commute(3)
    assert lines[:3] == ["h 010,001->010: h:001 vs None", "h 100,001->100: h:001 vs None",
                         "h 001,010->001: h:010 vs None"]
    assert lines[-2:] == ["ht 10,01->10: ht:01 vs None", "ht 01,10->01: ht:10 vs None"]


def test_dictionary_suite_catches_a_wrong_codimension(monkeypatch):
    real = pinkdots.path_codim
    monkeypatch.setattr(pinkdots, "path_codim", lambda p: real(p) + 1)
    assert any(line.endswith(": codim mismatch") for line in _suite_dictionary(3))


def test_pinkdots_suite_catches_a_forced_step_that_moves_the_dots(monkeypatch):
    # mirror the dots of every path with an odd number of steps: the count
    # is kept, but a forced triangle (one step fewer) now moves them
    real = pinkdots.path_dots

    def mirrored(p):
        d = real(p)
        if len(p.steps) % 2:
            d = DotSet(d.n, frozenset((d.n + 1 - j, d.n + 1 - i) for i, j in d.dots))
        return d

    monkeypatch.setattr(pinkdots, "path_dots", mirrored)
    assert any("moved the dots" in line for line in _suite_pinkdots(3))


def test_boundary_suite_validates_each_path_once(monkeypatch):
    # every initial path (valid or not) and every final path, once each
    validate = board.validate_path
    calls = Counter()

    def counted(p):
        calls[p.n, p.key] += 1
        return validate(p)

    monkeypatch.setattr(board, "validate_path", counted)
    monkeypatch.setattr(pinkdots, "validate_path", counted)
    assert oracle._suite_boundary(4) == []
    # 98 pairs of words and 30 final words with n <= 4
    assert len(calls) == 128 and set(calls.values()) == {1}


_INTERESTING = board.steps_key((board.STEP["SE", "1"], board.STEP["SW", "0"]))


def _topk_as(monkeypatch, piece):
    equivariant, shift0, shift1, _ = filling._PIECES[_INTERESTING]
    monkeypatch.setitem(filling._PIECES, _INTERESTING, (equivariant, shift0, shift1, piece))
    return verify_suite(4, ["inversion"]).results


def test_inversion_suite_reads_the_branch_kind(monkeypatch):
    # the topk branch reads shift1 but still places the topk piece, so a
    # count of placement kinds would pass it
    topk = filling._PIECES[_INTERESTING][3]
    ((suite, ok, detail),) = _topk_as(monkeypatch, topk._replace(kind="shift1", made={}))
    assert (suite, ok) == ("inversion", False)
    assert "branches give" in detail


def test_inversion_suite_catches_a_relabelled_topk_piece(monkeypatch):
    # the branch and its placement both read shift1
    ((suite, ok, _),) = _topk_as(monkeypatch,
                                 filling._rhombus("shift1", ("1", "0"), "1", "K", None))
    assert (suite, ok) == ("inversion", False)


def _weight_as(theory, kind, cell):
    return lambda mp: mp.setitem(filling._WEIGHT, (filling.Theory(theory), kind), cell)


def _wrapped(module, name, wrap):
    return lambda mp: mp.setattr(module, name, wrap(getattr(module, name)))


def _drop_first_dot(real):
    def dots(p):
        d = real(p)
        return DotSet(d.n, frozenset(d.sorted_dots()[1:]))
    return dots


def _drop_first_cover(real):
    return lambda d: frozenset(sorted(real(d), key=format_dots)[1:])


def _min_plus_one(real):
    # the true min with 1 added to every entry: a one-column window then has
    # rank 1 or 2, and one of rank 2 comes from no dot set
    def irm_min(r1, r2):
        low = real(r1, r2)
        return IntervalRankMatrix(low.n, tuple(tuple(v + 1 for v in row) for row in low.rows))
    return irm_min


# a mutation of the engine or of a suite's reference per failure line of the
# suites, the size at which it shows, and some of the details it gives
@pytest.mark.parametrize("suite, max_n, mutate, details", [
    ("lr", 4, _weight_as("h", "shift0", (2, 0)), ["010/010/100: puzzle 2 vs LR 1"]),
    ("hall", 3, _wrapped(intervalrank, "fixed_point_in", lambda real: lambda d, w, r=None: True),
     ["n=2 1,1 10"]),
    ("covers", 3, _wrapped(intervalrank, "covers", _drop_first_cover), ["n=2 1,1"]),
    ("dictionary", 4, _wrapped(intervalrank, "covers", _drop_first_cover),
     ["n=2 k=1 SE1 SW0 W1: sweep does not cover the shift1 child"]),
    ("dictionary", 4, _wrapped(intervalrank, "irm_min", lambda real: lambda r1, r2: r1),
     ["n=4 k=2 SE0 SE1 SW0 SW1 W0 W1: irm_min of shifts is not the K child"]),
    # a min that is no rank matrix is not the K child's either
    ("dictionary", 5, _wrapped(intervalrank, "irm_min", _min_plus_one),
     ["n=4 k=2 SE0 SE1 SW0 SW1 W0 W1: irm_min of shifts is not the K child",
      "n=5 k=2 SE0 SE0 SE1 SW0 SW1 W0 W1 W0: irm_min of shifts is not the K child"]),
    ("boundary", 3, _wrapped(intervalrank, "envelope", lambda real: lambda d: real(d)[::-1]),
     ["initial 01/10: envelope 10/01"]),
    ("boundary", 3, _wrapped(pinkdots, "path_dots", _drop_first_dot),
     ["final 0: dots []", "final 00: non-first-row essential condition"]),
    ("pinkdots", 3, _wrapped(pinkdots, "path_dots", _drop_first_dot),
     ["n=1 k=0 SW0: 0 dots, expected 1"]),
    ("specialize", 4, _weight_as("kt", "topk", (0, -2)), ["0101/1010/0101: KT->K"]),
    ("specialize", 4, _weight_as("kt", "equivariant", (2, -1)),
     ["10/10/10: KT not vanishing to order 1"]),
    ("specialize", 4, _weight_as("ht", "shift0", (2, 0)),
     ["010/100/010: KT->HT", "010/100/010: HT->H"]),
    ("specialize", 4, _weight_as("ht", "topk", (1, 0)),
     ["0101/1010/0101: HT coeff below degree bound"]),
], ids=["lr", "hall", "covers", "dictionary-cover", "dictionary-irm-min",
        "dictionary-irm-min-invalid", "boundary-envelope",
        "boundary-dots", "pinkdots", "specialize-kt-k", "specialize-kt-order", "specialize-ht",
        "specialize-ht-topk"])
def test_each_suite_fails_under_a_mutation(monkeypatch, suite, max_n, mutate, details):
    mutate(monkeypatch)
    ((name, ok, detail),) = verify_suite(max_n, [suite]).results
    assert (name, ok) == (suite, False)
    assert set(details) <= set(detail.split("; ")), detail


_SPECIALIZE_MUTANT = textwrap.dedent("""
    from puzzlecalc import filling, oracle
    from puzzlecalc.poly import Poly

    # add 1 to every H_T coefficient of the pairs with three or more words
    table = filling.table

    def mutated(theories, pairs):
        return [tuple({lam: c + Poly.const(c.n, 1) for lam, c in coeffs.items()}
                      if t is filling.Theory.HT and len(coeffs) >= 3 else coeffs
                      for t, coeffs in zip(theories, row))
                for row in table(theories, pairs)]

    filling.table = mutated
    report = oracle.verify_suite(4, ["specialize"])
    print(report.results)
""")


def test_specialize_details_do_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(oracle.__file__).parents[1])
    outs = []
    for seed in ("5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", _SPECIALIZE_MUTANT],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert "'specialize', False" in outs[0]
