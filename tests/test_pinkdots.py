from collections import Counter

import pytest

from puzzlecalc.board import STEP, PuzzlePath, initial_path, is_valid, path_from_key
from puzzlecalc.filling import reachable_from, trace_rows
from puzzlecalc.intervalrank import envelope, envelope_codim, rank_from_dots
from puzzlecalc.pinkdots import path_codim, path_dots, path_to_rank, valid_path_dots
from puzzlecalc.words import all_words


def _valid_pairs(n):
    for k in range(n + 1):
        for mu in all_words(n, k):
            for nu in all_words(n, k):
                if is_valid(initial_path(mu, nu)):
                    yield mu, nu


def _all_paths(mu, nu):
    """Every node of the trace of (mu, nu), with its parent (None at the root)."""
    spine = []
    for depth, node in trace_rows(mu, nu):
        del spine[depth:]
        yield (spine[-1] if spine else None), node
        spine.append(node)


def test_dot_count_is_n_minus_k():
    for n in range(1, 5):
        for mu, nu in _valid_pairs(n):
            for _, node in _all_paths(mu, nu):
                assert len(node.dots.dots) == n - mu.k


def test_boring_steps_preserve_dots():
    for n in range(1, 5):
        for mu, nu in _valid_pairs(n):
            for parent, node in _all_paths(mu, nu):
                if node.branch in ("boring", "triangle"):
                    assert node.dots == parent.dots


def test_codim_formula_matches_dot_geometry():
    for n in range(1, 6):
        for mu, nu in _valid_pairs(n):
            for _, node in _all_paths(mu, nu):
                assert path_codim(node.path) == envelope_codim(node.dots)


def test_codim_formula_matches_dot_geometry_off_the_reachable_states():
    # valid paths one relabelled step away from a reachable state (initial
    # paths included) that no pair reaches: the formula and the dots must
    # still agree there
    reached = {}
    for n in range(1, 6):
        for mu, nu in _valid_pairs(n):
            reached.update(reachable_from([(mu, nu)]))
    unreached = {}
    for key, (path, _) in reached.items():
        for idx, code in enumerate(key):
            # the step's direction with each label: a code's last two bits
            # are its label's index in "01RK"
            for other_code in range(code - code % 4, code - code % 4 + 4):
                other = key[:idx] + bytes([other_code]) + key[idx + 1:]
                q = path_from_key(path.n, other)
                if other not in reached and is_valid(q):
                    unreached[other] = q
    assert sorted(Counter(q.n for q in unreached.values()).items()) == [
        (2, 1), (3, 6), (4, 29), (5, 130)]
    for q in unreached.values():
        assert path_codim(q) == envelope_codim(path_dots(q)), q


def test_initial_path_envelope_is_boundary_pair():
    for n in range(1, 5):
        for mu, nu in _valid_pairs(n):
            d, _ = path_to_rank(initial_path(mu, nu))
            env = envelope(d)
            assert env == (mu, nu)
            assert envelope_codim(d) == 0


def test_rank_consistency():
    # the rank matrix path_to_rank returns is its dots' own
    for n in range(1, 5):
        for mu, nu in _valid_pairs(n):
            for path, _ in reachable_from([(mu, nu)]).values():
                d, r = path_to_rank(path)
                assert r == rank_from_dots(d)


@pytest.mark.parametrize("n, steps, message", [
    (1, "SWR", "unbalanced rays: 0 vs 1 on one side"),
    (1, "SER W0", "kink R/K with no 1 below it"),
    (1, "SE0 W1", "kink 0 lacks a NW ray partner below"),
    (1, "SEK W1", "kink K lacks a NW ray partner below"),
    (2, "SE0 SEK W1 W0", r"dot \(2,1\) below the diagonal"),
], ids=["unbalanced", "no-1-below", "no-partner-0", "no-partner-k", "below-diagonal"])
def test_rays_of_an_invalid_path_do_not_pair(n, steps, message):
    # valid_path_dots trusts its caller, and on these invalid paths the rays
    # do not pair up; path_dots refuses each one before placing a ray
    p = PuzzlePath(n, tuple(STEP[step[:-1], step[-1]] for step in steps.split()))
    with pytest.raises(ValueError, match=f"^{message}$"):
        valid_path_dots(p)
    with pytest.raises(ValueError, match="^invalid path: "):
        path_dots(p)
