import copy
import pickle
import re
from collections import Counter

import pytest

from puzzlecalc import board, filling, oracle
from puzzlecalc.board import (STEP, UNCHECKED, FillPos, Puzzle, PuzzlePath, Step, check_path,
                              final_path_word, initial_path, is_valid, path_from_key,
                              validate_path)
from puzzlecalc.filling import (InvariantError, Theory, ascii_puzzles, branch_weight,
                                enumerate_puzzles, graph, legal_branches,
                                puzzle_degree_balance, reachable_from, runs,
                                structure_constants, table, trace, trace_rows)
from puzzlecalc.poly import LPoly, Poly, eval_at_one, sum_of_products
from puzzlecalc.words import all_words, parse_word


MU = parse_word("0101")
NU = parse_word("1010")


def test_h_constants():
    h = structure_constants(Theory.H, MU, NU)
    assert h == {"0110": Poly.const(4, 1), "1001": Poly.const(4, 1)}


def test_ht_constants():
    ht = structure_constants(Theory.HT, MU, NU)
    assert ht == {"0110": Poly.const(4, 1), "1001": Poly.const(4, 1),
                  "1010": Poly.y(4, 4) - Poly.y(4, 1)}


def test_k_constants():
    k = structure_constants(Theory.K, MU, NU)
    assert k == {"0110": LPoly.const(4, 1), "1001": LPoly.const(4, 1),
                 "0101": LPoly.const(4, -1)}


def test_kt_specializes_to_both():
    kt = structure_constants(Theory.KT, MU, NU)
    k = structure_constants(Theory.K, MU, NU)
    ht = structure_constants(Theory.HT, MU, NU)
    assert {lam for lam in kt} >= set(k) | set(ht)
    for lam, c in kt.items():
        assert eval_at_one(c) == eval_at_one(k.get(lam, LPoly.zero(4)))
    assert kt["0101"] == LPoly.exp(4, (1, 0, 0, -1), -1)


def test_identity_product():
    w = parse_word("0011")
    h = structure_constants(Theory.H, w, w)
    assert h == {"0011": Poly.const(4, 1)}


def test_deep_identity_product():
    # n(n+1)/2 = 1275 pieces in one run: the fold must not recurse per piece
    w = parse_word("0" * 25 + "1" * 25)
    assert structure_constants(Theory.H, w, w) == {str(w): Poly.const(50, 1)}


def test_unreachable_pair_is_empty():
    # nu strictly below mu leaves nothing to expand
    mu = parse_word("1100")
    nu = parse_word("0011")
    assert structure_constants(Theory.H, mu, nu) == {}


def test_puzzle_counts():
    assert len(enumerate_puzzles(MU, NU, Theory.KT)) == 6
    assert len(enumerate_puzzles(MU, NU, Theory.H)) == 2
    by_lam = {}
    for pz in enumerate_puzzles(MU, NU):
        by_lam[pz.lam] = by_lam.get(pz.lam, 0) + 1
    assert {str(l): c for l, c in by_lam.items()} == \
        {"1010": 2, "1001": 2, "0110": 1, "0101": 1}


def test_branch_order_is_deterministic():
    # at an interesting position: equivariant, shift0, shift1, topk
    root = trace(parse_word("010"), parse_word("100"))
    kinds = [c.branch for c in root.children[0].children]
    assert kinds[0] == "equivariant"
    assert all(k in ("equivariant", "shift0", "shift1", "topk") for k in kinds)
    assert kinds == sorted(kinds, key=["equivariant", "shift0",
                                       "shift1", "topk"].index)


def _pairs(max_n):
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for mu in all_words(n, k):
                for nu in all_words(n, k):
                    yield mu, nu


def test_topk_requires_both_shifts():
    for mu, nu in _pairs(4):
        for _, brs in reachable_from([(mu, nu)]).values():
            kinds = {b.kind for b, _ in brs}
            if "topk" in kinds:
                assert {"shift0", "shift1"} <= kinds
            if "equivariant" in kinds:
                assert kinds & {"shift0", "shift1"}


def test_degree_balance_on_small_puzzles():
    for n in range(1, 5):
        for k in range(n + 1):
            for mu in all_words(n, k):
                for nu in all_words(n, k):
                    for pz in enumerate_puzzles(mu, nu):
                        lhs, rhs = puzzle_degree_balance(pz)
                        assert lhs == rhs


def test_enumerate_with_lambda_filter():
    lam = parse_word("1001")
    pzs = [pz for pz in enumerate_puzzles(MU, NU) if pz.lam == lam]
    assert len(pzs) == 2
    one_triangle_only = [pz for pz in pzs
                         if pz.count("equivariant") == 0 and pz.count("topk") == 0]
    assert len(one_triangle_only) == 1


def _tree_states(mu, nu):
    """The key of every node of the run tree of (mu, nu)."""
    return {path.key for (_, path), _ in runs(mu, nu)}


def test_reachable_puts_children_before_parents():
    for mu, nu in _pairs(5):
        states = reachable_from([(mu, nu)])
        order = {key: idx for idx, key in enumerate(states)}
        for key, (path, branches) in states.items():
            assert path.key == key
            assert all(order[q.key] < order[key] for _, q in branches)
        if states:
            assert next(reversed(states)) == initial_path(mu, nu).key


def test_reachable_is_the_tree_walk_deduplicated():
    visits = 0
    for mu, nu in _pairs(5):
        states = reachable_from([(mu, nu)])
        if not states:
            with pytest.raises(ValueError, match="no runs"):
                trace(mu, nu)
            continue
        assert set(states) == _tree_states(mu, nu)
        visits += len(states)
    assert visits == 5709
    assert reachable_from([(parse_word("1100"), parse_word("0011"))]) == {}



def test_graph_is_the_union_of_the_pairs_graphs(monkeypatch):
    # one walk over every pair of an (n, k) derives each distinct chain end
    # once, and no forced state, and holds each pair's graph, edges included;
    # the memo is dropped at each pair whose root has no row, so afterwards
    # it holds rows of the last reachable pair's states only
    derive = filling._derive_branches
    derived = []

    def counted(p, site):
        derived.append(p.key)
        return derive(p, site)

    monkeypatch.setattr(filling, "_derive_branches", counted)
    visits = distinct = 0
    for _, _, pairs in oracle._pairs_by_k(6):
        # cleared, so that no forced step is read off a row an earlier
        # test left, and every chain end is derived under the count
        filling._rows.clear()
        derived.clear()
        states, roots = graph(pairs)
        assert len(derived) == len(states) == len(set(derived))
        rows = set(filling._rows)
        order = {key: idx for idx, key in enumerate(states)}
        for key, (path, edges) in states.items():
            assert path.key == key
            assert all(order[end] < order[key] for _, _, end in edges)
        union = set()
        for (mu, nu), root in zip(pairs, roots):
            alone = graph([(mu, nu)])[0]
            assert root == (next(reversed(alone)) if alone else None)
            for key, (_, edges) in alone.items():
                assert states[key][1] == edges
            visits += len(alone)
            union.update(alone)
        assert union == set(states)
        last = [pair for pair, root in zip(pairs, roots) if root is not None][-1]
        assert rows <= set(reachable_from([last]))
        distinct += len(states)
    # chain ends over every (n, k) with n <= 6, of 37,785 and 7,634 states
    assert (visits, distinct) == (8699, 1584)


def _reference(pairs, theories):
    """
    Every state reached from the pairs' initial paths through branches that
    weigh nonzero in one of the theories (every branch, for none), found
    state by state by a depth-first walk over legal_branches: per key,
    (path, kept branches).  An initial path is given the site check_path
    finds, as a walk gives it.
    """
    out = {}
    for mu, nu in pairs:
        p = initial_path(mu, nu)
        bad, p.site = check_path(p)
        stack = [] if bad else [p]
        while stack:
            path = stack.pop()
            if path.key not in out:
                kept = tuple((br, q) for br, q in legal_branches(path)
                             if not theories or not all(
                                 branch_weight(t, br, path.n).is_zero() for t in theories))
                out[path.key] = (path, kept)
                stack += [q for _, q in kept]
    return out


def _check_edges(pairs, theories):
    """
    graph's edges of the pairs against _reference, on a cold memo and on
    the warm one that the reference leaves: the chain ends are the roots
    and the states whose one branch is not forced; an edge is its branch,
    the forced branches after it and the end they reach, so every forced
    state lies on a chain.  For no theory, reachable_from gives the
    reference's states, on a cold memo and on a warm one, with its branches
    and sites, children first and the last reachable pair's initial path
    last.
    Returns the numbers of chain ends and of states.
    """
    filling._rows.clear()
    cold = graph(pairs, theories)
    want = _reference(pairs, theories)
    assert graph(pairs, theories) == cold
    states, roots = cold

    def forced(key):
        kept = want[key][1]
        return len(kept) == 1 and kept[0][0].kind in filling.FORCED

    assert set(states) == {key for key in want if key in roots or not forced(key)}
    for key, (path, edges) in states.items():
        assert path.site == want[key][0].site
        kept = want[key][1]
        assert [br for br, _, _ in edges] == [br for br, _ in kept]
        for (_, chain, end), (_, q) in zip(edges, kept):
            walked = []
            while q.key not in states:
                ((br, q),) = want[q.key][1]
                walked.append(br)
            assert (list(chain), end) == (walked, q.key)
    if not theories:
        filling._rows.clear()
        full = reachable_from(pairs)
        assert reachable_from(pairs) == full
        assert set(full) == set(want)
        order = {key: idx for idx, key in enumerate(full)}
        for key, (path, branches) in full.items():
            assert path.site == want[key][0].site
            assert branches == want[key][1]
            assert [q.site for _, q in branches] == [q.site for _, q in want[key][1]]
            assert all(order[q.key] < order[key] for _, q in branches)
        if full:
            assert next(reversed(full)) == [root for root in roots if root is not None][-1]
    return len(states), len(want)


def test_graph_edges_and_reachable_from_match_the_walk_state_by_state():
    # every pair with n <= 5 alone, and one graph of many pairs per (n, k),
    # for no theory, each theory alone, and (H, K), whose walk leaves out
    # only the equivariant branches, as K's does
    totals = {}
    for theories in [(), *[(t,) for t in Theory], (Theory.H, Theory.K)]:
        for pair in _pairs(5):
            _check_edges([pair], theories)
        ends = states = 0
        for _, _, pairs in oracle._pairs_by_k(5):
            counts = _check_edges(pairs, theories)
            ends += counts[0]
            states += counts[1]
        totals["".join(theories)] = ends, states
    # (chain ends, states) over every (n, k) with n <= 5
    assert totals == {"": (454, 1915), "h": (454, 1903), "ht": (454, 1903),
                      "k": (454, 1915), "kt": (454, 1915), "hk": (454, 1915)}


def _items(row):
    """A table row, or any tuple of results, as item lists, order included."""
    return [list(coeffs.items()) for coeffs in row]


def test_table_is_structure_constants_pair_by_pair():
    # structure_constants is a one-pair, one-theory table, so this holds
    # each row of a table of every pair of an (n, k), for each theory alone
    # and the tuples the verify suites ask for, to that pair's one-pair
    # tables, item for item, word order included, on every pair with n <= 5:
    # pairs that share a graph keep their values apart.  Up to n = 4, where
    # a theory's zero weights cut most of the graph, the tuple's own
    # one-pair table gives the row too; an unreachable pair gives {} in
    # every theory.  (H, K) walks without equivariant branches, and H's fold
    # multiplies the topk edges, which K's weight keeps, by H's zero weight.
    # test_integer_fold_is_the_polynomial_fold is the reference that shares
    # no fold code
    asks = [(t,) for t in Theory] + [(Theory.KT, Theory.K, Theory.HT, Theory.H),
                                     (Theory.H, Theory.HT, Theory.K), (Theory.H, Theory.K)]
    unreachable = 0
    for _, _, pairs in oracle._pairs_by_k(5):
        alone = {t: [structure_constants(t, mu, nu) for mu, nu in pairs] for t in Theory}
        for theories in asks:
            rows = table(theories, pairs)
            assert len(rows) == len(pairs)
            for idx, row in enumerate(rows):
                assert _items(row) == _items(alone[t][idx] for t in theories)
                if len(theories) > 1 and pairs[idx][0].n <= 4:
                    (single,) = table(theories, [pairs[idx]])
                    assert _items(single) == _items(row)
        for (mu, nu), row in zip(pairs, table(tuple(Theory), pairs)):
            if not reachable_from([(mu, nu)]):
                assert row == ({},) * 4
                unreachable += 1
    assert unreachable == 155
    assert table((Theory.KT,), []) == []


def test_table_takes_theory_names_and_refuses_none_or_a_bad_one():
    assert structure_constants("h", MU, NU) == structure_constants(Theory.H, MU, NU)
    assert table(("kt", Theory.H), [(MU, NU)]) == table((Theory.KT, Theory.H), [(MU, NU)])
    with pytest.raises(ValueError, match="'x' is not a valid Theory"):
        structure_constants("x", MU, NU)
    with pytest.raises(ValueError, match="one or more theories"):
        table((), [(MU, NU)])
    branches = [br for _, brs in reachable_from([(MU, NU)]).values() for br, _ in brs]
    assert {br.kind for br in branches} >= {"equivariant", "topk"}
    for br in branches:
        assert branch_weight("kt", br, MU.n) == branch_weight(Theory.KT, br, MU.n)
    with pytest.raises(ValueError, match="'x' is not a valid Theory"):
        branch_weight("x", branches[0], MU.n)


@pytest.mark.parametrize("theory", list(Theory))
def test_table_refuses_pairs_of_two_board_sizes(theory):
    # each fold computes in one board size's ring: the n = 4 pair's
    # coefficients would come out as arity-2 constants, or raise in H_T
    pairs = [(parse_word("01"), parse_word("10")), (parse_word("0101"), parse_word("1010"))]
    with pytest.raises(ValueError, match=r"one board size, got n = \[2, 4\]"):
        table((theory,), pairs)


def _polynomial_fold(theory, mu, nu):
    """
    The root value of (mu, nu) folded through branch_weight polynomials
    over all its states, every branch's weight multiplied in but the zero
    ones, cancelled coefficients kept.
    """
    states = reachable_from([(mu, nu)])
    if not states:
        return {}
    one = (LPoly if theory.k_theory else Poly).const(mu.n, 1)
    value = {}
    for key, (path, branches) in states.items():
        if not branches:
            value[key] = {str(final_path_word(path)): one}
            continue
        parts = {}
        for br, q in branches:
            w = branch_weight(theory, br, mu.n)
            if w.is_zero():
                continue
            for lam, c in value[q.key].items():
                parts.setdefault(lam, []).append((w, c))
        value[key] = {lam: sum_of_products(ps) for lam, ps in parts.items()}
    return value[next(reversed(states))]


@pytest.mark.parametrize("shift0, cancelled", [(1, 0), (-1, 2)])
def test_integer_fold_is_the_polynomial_fold(monkeypatch, shift0, cancelled):
    # the reference folds branch_weight polynomials over every state and
    # shares no fold code with the engine.  In all four theories, on every
    # pair up to n = 6, the pair's structure_constants and its row of one
    # table of every pair of its (n, k) are the reference's nonzero
    # coefficients, item for item in word order.  H and K fold signed
    # puzzle counts in ints and make constants at the roots.  In the
    # paper's table no coefficient cancels (a K coefficient's puzzles all
    # have its sign), so a K table where shift0 weighs -1 checks that every
    # fold drops the same cancelled ones (two, of one pair)
    monkeypatch.setitem(filling._WEIGHT, (Theory.K, "shift0"), (shift0, 0))
    dropped = Counter()
    for _, _, pairs in oracle._pairs_by_k(6):
        for (mu, nu), row in zip(pairs, table(tuple(Theory), pairs)):
            for theory, in_table in zip(Theory, row):
                want = _polynomial_fold(theory, mu, nu)
                kept = sorted((lam, c) for lam, c in want.items() if not c.is_zero())
                got = structure_constants(theory, mu, nu)
                assert list(got.items()) == list(in_table.items()) == kept, (mu, nu, theory)
                assert all(type(c) is type(want[lam]) for lam, c in got.items())
                dropped[theory] += len(want) - len(kept)
    assert dropped == {Theory.H: 0, Theory.HT: 0, Theory.K: cancelled, Theory.KT: 0}


def test_puzzle_counts_are_the_enumerated_final_words():
    # ascii_puzzles' counts are the final words of the puzzles that
    # enumerate_puzzles lists, one per run, in word order, on every pair up
    # to n = 6, unreachable ones ({}) included
    empty = 0
    for mu, nu in _pairs(6):
        counts = ascii_puzzles(mu, nu)[0]
        want = Counter(str(pz.lam) for pz in enumerate_puzzles(mu, nu))
        assert list(counts.items()) == sorted(want.items()), (mu, nu)
        empty += not counts
    assert empty == 650  # the unreachable pairs


@pytest.fixture(scope="module")
def n10_table():
    """The n = 10 pair's entry in its table of all four theories."""
    (row,) = table(tuple(Theory), [(parse_word("0110100110"), parse_word("1100110010"))])
    return dict(zip(Theory, row))


@pytest.mark.parametrize("ring", [t.value for t in Theory] + ["counts"])
def test_word_counts_of_an_n10_pair(n10_table, ring):
    # the words of structure_constants in a theory, and in the count ring
    # ascii_puzzles' counts over the pair's graph of every branch: how
    # many, in word order.  A theory's expansion is also the pair's entry
    # in its table of all four theories, whose walk leaves nothing out, so
    # H and K multiply their zero weights in where their own walks leave
    # those branches out
    mu, nu = parse_word("0110100110"), parse_word("1100110010")
    if ring == "counts":
        got = ascii_puzzles(mu, nu)[0]
    else:
        got = structure_constants(ring, mu, nu)
        assert list(n10_table[Theory(ring)].items()) == list(got.items())
    assert len(got) == {"h": 2, "ht": 146, "k": 3, "kt": 148, "counts": 148}[ring]
    assert list(got) == sorted(got)


def test_a_table_keeps_apart_two_roots_on_one_key():
    # a table of [p, an unreachable pair, p] starts two roots at one state:
    # each keeps its own value, and the two are not added
    p, unreachable = (MU, NU), (parse_word("1100"), parse_word("0011"))
    for theories in [(t,) for t in Theory] + [tuple(Theory)]:
        want = _items(structure_constants(t, *p) for t in theories)
        rows = table(theories, [p, unreachable, p])
        assert [_items(row) for row in rows] == [want, [[]] * len(theories), want]


def test_forward_fold_drops_the_cancelled_coefficients_table_drops(monkeypatch):
    # in the paper's K_T table no coefficient cancels; with the equivariant
    # piece weighing 1, 16 coefficients of pairs up to n = 5 sum to zero,
    # and structure_constants and each pair's row of one table of every
    # pair of its (n, k) drop exactly those, keeping the rest in word order
    monkeypatch.setitem(filling._WEIGHT, (Theory.KT, "equivariant"), (1, 0))
    dropped = 0
    for _, _, pairs in oracle._pairs_by_k(5):
        for (mu, nu), (in_table,) in zip(pairs, table((Theory.KT,), pairs)):
            want = _polynomial_fold(Theory.KT, mu, nu)
            kept = sorted((lam, c) for lam, c in want.items() if not c.is_zero())
            got = structure_constants(Theory.KT, mu, nu)
            assert list(got.items()) == list(in_table.items()) == kept, (mu, nu)
            dropped += len(want) - len(kept)
    assert dropped == 16


def _preorder(node):
    """(key, via) of every node of a trace tree, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node.path.key, node.via
        stack.extend(reversed(node.children))


def test_runs_is_the_trace_tree_in_preorder():
    nodes = 0
    for mu, nu in _pairs(5):
        walk = [(path.key, via) for (via, path), _ in runs(mu, nu)]
        if not walk:
            with pytest.raises(ValueError, match="no runs"):
                trace(mu, nu)
            continue
        assert walk == list(_preorder(trace(mu, nu)))
        nodes += len(walk)
        for theory in Theory:
            leaves = sum(1 for _, branches in runs(mu, nu, theory) if not branches)
            assert leaves == len(enumerate_puzzles(mu, nu, theory))
    assert nodes == 8201


def test_coeff_json_count_is_the_pruned_counting_fold():
    # coeff --json's puzzle_count, len(enumerate_puzzles(...)), walks every
    # run; the count ring folded over the theory's graph gives it too, on
    # every (pair, theory) with n <= 5, the unreachable ones (0) included
    cases = 0
    for mu, nu in _pairs(5):
        for theory in Theory:
            states, (root,) = graph([(mu, nu)], (theory,))
            folded = sum(filling._fold(filling._COUNTS, states, [root])[0].values())
            assert len(enumerate_puzzles(mu, nu, theory)) == folded, (mu, nu, theory)
            cases += 1
    assert cases == 1400


def test_a_theory_means_the_same_to_runs_and_the_graph_fold():
    # on every pair with n <= 5, for no theory and each theory by name,
    # runs' final states, counted per word, are the count ring folded over
    # the graph for that theory, word order included; a chain end whose
    # branches all weigh zero is no final state to either
    cases = 0
    for mu, nu in _pairs(5):
        for theory in (None, *[t.value for t in Theory]):
            leaves = Counter(str(final_path_word(path))
                             for (_, path), branches in runs(mu, nu, theory) if not branches)
            walked = graph([(mu, nu)], () if theory is None else (theory,))
            folded = filling._fold(filling._COUNTS, *walked)[0]
            assert list(folded.items()) == sorted(leaves.items()), (mu, nu, theory)
            cases += 1
    assert cases == 1750


@pytest.mark.parametrize("name", ["Kt", "topk", "x"])
@pytest.mark.parametrize("pair", [(MU, NU), (parse_word("1100"), parse_word("0011"))],
                         ids=["reachable", "unreachable"])
def test_a_walk_refuses_a_bad_theory_name_before_it_starts(monkeypatch, name, pair):
    # a misspelled theory, a kind's name or a stray string is no Theory:
    # graph and runs raise ValueError before the walk starts, for an
    # unreachable pair too, whatever the other theories given
    def unwalked(mu, nu):
        raise AssertionError("walk started")

    monkeypatch.setattr(filling, "_walk_start", unwalked)
    for theories in [(name,), ("h", name), {name}]:
        with pytest.raises(ValueError, match=f"{name!r} is not a valid Theory"):
            graph([pair], theories)
    with pytest.raises(ValueError, match=f"{name!r} is not a valid Theory"):
        runs(*pair, name)


def _puzzles_the_old_way(mu, nu, theory):
    """Every puzzle of (mu, nu), with a theory only those whose pieces all
    weigh nonzero in it, by a recursive walk whose leaves split their run's
    entries by kind and sort them."""
    out = []

    def walk(path, run):
        branches = legal_branches(path)
        if not branches:
            rhombi = sorted(br.placed for br in run if br.kind != "triangle")
            bottoms = sorted(br.placed for br in run if br.kind == "triangle")
            out.append(Puzzle(mu.n, final_path_word(path), mu, nu, tuple(rhombi), tuple(bottoms)))
        for br, q in branches:
            if theory is None or not branch_weight(theory, br, mu.n).is_zero():
                walk(q, run + [br])

    p = initial_path(mu, nu)
    if is_valid(p):
        walk(p, [])
    return out


def test_puzzles_from_slots_are_the_sorted_runs():
    puzzles = 0
    for mu, nu in _pairs(5):
        for theory in (None, *Theory):
            got = enumerate_puzzles(mu, nu, theory=theory)
            assert got == _puzzles_the_old_way(mu, nu, theory), (mu, nu, theory)
            puzzles += len(got)
    assert puzzles == 3886


def _depths(mu, nu):
    """(depth, key) of every node of the run tree of (mu, nu), in preorder,
    by a recursive walk."""
    out = []

    def walk(path, depth):
        out.append((depth, path.key))
        for _, q in legal_branches(path):
            walk(q, depth + 1)

    walk(initial_path(mu, nu), 0)
    return out


def test_trace_rows_depths_are_the_recursive_walks():
    nodes = 0
    for mu, nu in _pairs(5):
        if is_valid(initial_path(mu, nu)):
            rows = [(depth, node.path.key) for depth, node in trace_rows(mu, nu)]
            assert rows == _depths(mu, nu)
            nodes += len(rows)
    assert nodes == 8201


def test_a_walk_validates_its_initial_path_once(monkeypatch):
    # every walk validates its initial path once and no state below it:
    # each walk starts on a cold memo, and a second walk of the same pair,
    # on the warm memo the first left, scans the root again and nothing
    # else; an unreachable pair gives {}, nothing, or trace's ValueError,
    # whose text names the violations of that one scan
    check = filling.check_path
    calls = []

    def counted(p):
        calls.append(p.key)
        return check(p)

    monkeypatch.setattr(filling, "check_path", counted)
    walks = {"reachable_from": lambda mu, nu: reachable_from([(mu, nu)]),
             "runs": lambda mu, nu: list(runs(mu, nu)),
             "trace_rows": lambda mu, nu: list(trace_rows(mu, nu))}
    for mu, nu in _pairs(4):
        start = initial_path(mu, nu)
        for name, walk in walks.items():
            filling._rows.clear()
            calls.clear()
            if not is_valid(start):
                if name == "trace_rows":
                    with pytest.raises(ValueError) as err:
                        walk(mu, nu)
                    assert calls == [start.key]
                    bad = validate_path(start)
                    assert str(err.value) == f"no runs for this boundary pair: {bad}"
                else:
                    assert not walk(mu, nu) and calls == [start.key]
                continue
            assert walk(mu, nu) and calls == [start.key], name
            walk(mu, nu)
            assert calls == [start.key] * 2, name


def test_trace_of_an_unreachable_pair_scans_its_initial_path_once(monkeypatch):
    # the error names the violations of the walk's own check_path scan;
    # validate_path would scan again, through board's check_path
    check = board.check_path
    calls = []

    def counted(p):
        calls.append(p.key)
        return check(p)

    monkeypatch.setattr(board, "check_path", counted)
    monkeypatch.setattr(filling, "check_path", counted)
    with pytest.raises(ValueError) as err:
        next(trace_rows(parse_word("1100"), parse_word("0011")))
    assert len(calls) == 1
    assert str(err.value) == (
        "no runs for this boundary pair: ['3: first 1 SE steps have 0 0s but the last 1 steps "
        "have 1 bottom 0s', '6: no R or bottom 0 after the kink before a bottom 1']")


def test_the_kinds_a_walk_leaves_out_weigh_zero_at_every_window():
    # a walk for some theories leaves out the kinds that weigh zero at every
    # window in each of them; for no theory, none
    assert filling._zero_kinds(["h"]) == {"equivariant", "topk"}
    assert filling._zero_kinds(()) == frozenset()
    kinds = [kind for kind, *_ in filling.INTERESTING]
    for mask in range(1, 1 << len(Theory)):
        theories = [t for bit, t in enumerate(Theory) if mask >> bit & 1]
        for n in range(2, 6):
            zero = filling._zero_kinds(theories)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for kind in kinds:
                        br = filling.Branch(kind, FillPos("rhombus", i, j))
                        assert all(branch_weight(t, br, n).is_zero()
                                   for t in theories) == (kind in zero), (theories, kind)


def test_warm_and_cold_branches_agree():
    states = 0
    for mu, nu in _pairs(5):
        filling._rows.clear()
        walked = reachable_from([(mu, nu)])
        for path, first in walked.values():
            # a second call on a walked state is a memo hit
            assert legal_branches(path) is first
        for path, warm in walked.values():
            filling._rows.clear()
            assert legal_branches(path) == warm
            states += 1
    assert states == 5709


def test_parent_computed_sites_match_check_path():
    # every branch, so the graph of any theories is a subgraph of the one
    # checked here; the initial path carries the site _walk_start gave it
    children = 0
    for mu, nu in _pairs(6):
        for p, branches in reachable_from([(mu, nu)]).values():
            assert p.site == check_path(p)[1], p
            for _, q in branches:
                assert q.site == check_path(q)[1], q
            children += len(branches)
    assert children == 40184


def test_local_check_is_validate_path():
    # every candidate child of every reachable state with n <= 6, the forced
    # one or all four interesting ones: the engine keeps it iff it is valid
    # (every rejected one is interesting: no forced child of these states
    # breaks the path)
    verdicts = Counter()
    for mu, nu in _pairs(6):
        for p, _ in reachable_from([(mu, nu)]).values():
            site = check_path(p)[1]
            if site is None:
                continue
            kink = site[0]
            key = p.key
            kept = {q.key for _, q in filling._derive_branches(p, site)}
            for piece in filling._PIECES[key[kink:kink + 2]]:
                child = key[:kink] + piece.new + key[kink + 2:]
                q = path_from_key(p.n, child)
                assert (child in kept) == is_valid(q), q
                verdicts[child in kept] += 1
    assert verdicts == {True: 40184, False: 9074}


def test_words_of_two_shapes_are_refused():
    for mu, nu, message in [("01", "011", "word lengths differ"),
                            ("01", "00", "words have different numbers of 1s")]:
        with pytest.raises(ValueError, match=message):
            structure_constants(Theory.H, parse_word(mu), parse_word(nu))


def test_invalid_path_from_outside_is_refused():
    # a path shorter than an initial one leaves the memo of (MU, NU) in place
    mid = next(path for path, _ in reachable_from([(MU, NU)]).values()
               if len(path.steps) < 8 and any(s.dir == "SW" for s in path.steps))
    idx = next(idx for idx, s in enumerate(mid.steps) if s.dir == "SW")
    bad = PuzzlePath(4, mid.steps[:idx] + (STEP["SW", "K"],) + mid.steps[idx + 1:])
    rows = dict(filling._rows)
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid path: .*K on non-kink step"):
            legal_branches(bad)
    assert filling._rows == rows
    # so is an invalid initial path, and a walk from it neither drops nor
    # writes the memo
    mu, nu = parse_word("1100"), parse_word("0011")
    with pytest.raises(ValueError, match="invalid path"):
        legal_branches(initial_path(mu, nu))
    assert not list(runs(mu, nu)) and not reachable_from([(mu, nu)])
    assert filling._rows == rows


def test_branches_share_their_pieces():
    # and equal branches are one object, equal to one built anew
    pieces, seen = {}, {}
    for mu, nu in _pairs(5):
        for _, branches in reachable_from([(mu, nu)]).values():
            for br, _ in branches:
                piece = br.piece
                labels = (piece.diag, piece.base) if br.kind == "triangle" else piece.right
                assert pieces.setdefault((br.kind, labels), piece) is piece
                at = br.pos.c if br.kind == "triangle" else (br.pos.i, br.pos.j)
                assert br.placed == (at, piece)
                assert seen.setdefault(br, br) is br
                fresh = filling.Branch(br.kind, br.pos, br.piece)
                assert fresh == br and fresh.placed == br.placed
    # 4 triangles, 9 forced rhombi and the 4 interesting ones
    assert len(pieces) == 17
    assert sum(map(len, filling._PIECES.values())) == 17
    assert len(seen) == 109
    # one branch per piece and position: 4 triangles at c = 1..n, 13 rhombi
    # at 1 <= i < j <= n, for the largest n met by any test so far
    made = [br for row in filling._PIECES.values() for piece in row
            for br in piece.made.values()]
    n = max(max(br.pos.c, br.pos.j) for br in made)
    assert len(set(map(id, made))) == len(made) <= 4 * n + 13 * n * (n - 1) // 2


def test_table_holds_one_pair():
    a = (parse_word("010101"), parse_word("101010"))
    b = (parse_word("001011"), parse_word("110100"))
    # a graph of many pairs, as an earlier test may leave it, holds the rows
    # of a and b at once, and the walks below would keep it
    filling._rows.clear()
    from_a, from_b = set(reachable_from([a])), set(reachable_from([b]))
    only_a = from_a - from_b
    assert only_a
    for theory in Theory:
        enumerate_puzzles(*a)
        assert set(filling._rows) == from_a
        structure_constants(theory, *b)
        enumerate_puzzles(*b, theory)
        assert set(filling._rows) <= from_b
    # a state of another board size passed from outside joins the memo, and
    # the next walk from an initial path with no row drops it
    mid = next(path for path, _ in reachable_from([(MU, NU)]).values() if len(path.steps) < 8)
    enumerate_puzzles(*a)
    legal_branches(mid)
    assert set(filling._rows) == from_a | {mid.key}
    enumerate_puzzles(*b)
    assert set(filling._rows) == from_b


def test_the_memo_holds_the_pair_coeff_json_walks(monkeypatch):
    # coeff --json walks the pair twice, enumerate_puzzles then
    # structure_constants: the memo then holds states of that pair alone,
    # and the second walk, whose graph reads each forced step off its row,
    # derives nothing.  A walk from an unreachable pair leaves the memo as
    # it was
    full = {pair: set(reachable_from([pair])) for pair in _pairs(5)}
    derive = filling._derive_branches
    derived = []

    def counted(p, site):
        derived.append(p.key)
        return derive(p, site)

    monkeypatch.setattr(filling, "_derive_branches", counted)
    walked = 0
    for theory in Theory:
        for pair, states in full.items():
            before = set(filling._rows)
            enumerate_puzzles(*pair, theory)
            derived.clear()
            structure_constants(theory, *pair)
            assert not derived
            memo = set(filling._rows)
            if states:
                assert memo and memo <= states
                walked += 1
            else:
                assert memo == before
    assert walked == 4 * 195


def test_no_key_is_reached_at_two_board_sizes():
    # a key holds n steps that are not W, so the memo needs no board size
    size = {}
    for mu, nu in _pairs(6):
        for key, (path, _) in reachable_from([(mu, nu)]).items():
            assert size.setdefault(key, path.n) == path.n
    assert len(size) == 7634 and set(size.values()) == set(range(1, 7))


def test_invariant_error_is_not_cached(monkeypatch):
    start = initial_path(MU, NU)
    monkeypatch.setattr(filling, "_child_is_valid", lambda *args: False)
    # legal_branches is called with no walk to drop the memo, which may
    # hold start's row from an earlier walk and would hide the patch
    filling._rows.clear()
    for _ in range(2):
        with pytest.raises(InvariantError):
            legal_branches(start)
    assert start.key not in filling._rows
    monkeypatch.undo()
    assert legal_branches(start)


def _forced_below_interesting(states, depth):
    """
    A forced state at least depth states below an interesting one, along
    forced pieces, that a forced rhombus reaches from its one parent and
    that places a forced rhombus itself: (the state's key, its parent's).
    """
    parents = Counter(q.key for _, branches in states.values() for _, q in branches)
    for _, branches in states.values():
        if len(branches) < 2:
            continue
        for _, q in branches:
            chain = [q.key]
            while len(states[chain[-1]][1]) == 1:
                (br, child), = states[chain[-1]][1]
                below = states[child.key][1]
                if (len(chain) >= depth and br.kind == "boring" and parents[child.key] == 1
                        and len(below) == 1 and below[0][0].kind == "boring"):
                    return child.key, chain[-1]
                chain.append(child.key)
    return None


def test_invariant_error_below_a_forced_chain(monkeypatch):
    # graph places forced pieces in a loop: a forced piece that breaks the
    # path several states below an interesting one raises on every call,
    # and neither the state that placed it nor its forced parent gets a
    # row; a walk state by state (runs) leaves the parent's row.  Only that
    # state's check sees its own key: a rhombus leaves the steps after the
    # kink as they are, so the check reads the parent's key
    found = _forced_below_interesting(reachable_from([(MU, NU)]), 3)
    assert found is not None
    bad, parent = found
    want = structure_constants(Theory.KT, MU, NU)
    check = filling._child_is_valid
    monkeypatch.setattr(filling, "_child_is_valid",
                        lambda kink, key, start: key != bad and check(kink, key, start))
    # cleared, so that no forced step is read off a row the walks above
    # left, and the patch is seen
    for walk in (lambda: graph([(MU, NU)]), lambda: structure_constants(Theory.KT, MU, NU)):
        filling._rows.clear()
        for _ in range(2):
            with pytest.raises(InvariantError, match="forced rhombus at rhombus"):
                walk()
            assert bad not in filling._rows
            assert parent not in filling._rows
    with pytest.raises(InvariantError, match="forced rhombus at rhombus"):
        list(runs(MU, NU))
    assert bad not in filling._rows
    assert parent in filling._rows
    # the walk resumes on the rows it kept
    monkeypatch.undo()
    assert structure_constants(Theory.KT, MU, NU) == want


def _first_interesting(mu, nu):
    """The interesting state of (mu, nu) nearest its root: (its path, branches)."""
    return next(row for row in reversed(reachable_from([(mu, nu)]).values()) if len(row[1]) > 1)


def test_an_unfillable_kink_raises(monkeypatch):
    # with no piece for the interesting configuration, the first interesting
    # state has nothing to place at its kink
    path, _ = _first_interesting(MU, NU)
    kink, pos = path.site
    monkeypatch.delitem(filling._PIECES, path.key[kink:kink + 2])
    with pytest.raises(InvariantError, match=re.escape(f"unfillable rhombus ('1', '0') at {pos}")):
        graph([(MU, NU)])


@pytest.mark.parametrize("kinds, message", [
    (("equivariant",), "equivariant continuation at {} broke the path: "),
    (("shift0", "shift1"), "no shift continuation at {}"),
    (("topk",), "topk legality out of step with the shifts at {}"),
], ids=["equivariant", "no-shift", "topk"])
def test_an_interesting_state_out_of_rule_raises(monkeypatch, kinds, message):
    # _child_is_valid's answer is flipped for the named candidates of the
    # first interesting state, where all four are legal; a candidate is told
    # by its child's kink, which differs among the four
    path, branches = _first_interesting(MU, NU)
    assert [br.kind for br, _ in branches] == ["equivariant", "shift0", "shift1", "topk"]
    kink, pos = path.site
    key = path.key
    flip = {piece.new[1] for piece in filling._PIECES[key[kink:kink + 2]] if piece.kind in kinds}
    check = filling._child_is_valid

    def flipped(code, k, start):
        return check(code, k, start) != (k == key and start == kink + 2 and code in flip)

    monkeypatch.setattr(filling, "_child_is_valid", flipped)
    # a walk keeps the memo the walk above left: the patch is seen only on
    # states derived after it
    filling._rows.clear()
    with pytest.raises(InvariantError, match=re.escape(message.format(pos))):
        graph([(MU, NU)])


def test_table_reads_an_iterator_and_a_bad_theory_name_is_a_value_error():
    assert table((Theory.H,), iter([(MU, NU), (NU, MU)])) == [
        (structure_constants(Theory.H, MU, NU),), (structure_constants(Theory.H, NU, MU),)]
    assert len(enumerate_puzzles(MU, NU, theory="h")) == len(enumerate_puzzles(MU, NU, Theory.H))
    with pytest.raises(ValueError, match="'x' is not a valid Theory"):
        enumerate_puzzles(MU, NU, theory="x")


def test_a_path_rebuilt_from_fresh_steps_hits_the_table():
    # a path rebuilt from new Step calls or from plain tuples, copied or
    # unpickled has the walk's key, so it keys the same row
    for path, branches in reachable_from([(MU, NU)]).values():
        fresh = PuzzlePath(path.n, tuple(Step(s.dir, s.label) for s in path.steps))
        assert legal_branches(fresh) is branches
        plain = PuzzlePath(path.n, [(s.dir, s.label) for s in path.steps])
        assert plain.key == path.key and legal_branches(plain) is branches
        assert legal_branches(copy.deepcopy(path)) is branches
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert legal_branches(pickle.loads(pickle.dumps(path, protocol))) is branches


def test_a_path_checked_by_the_walk_equals_an_unchecked_one(monkeypatch):
    # the site slot is not part of the value: a path built from steps,
    # copied or unpickled equals and hashes as the walk's, and is UNCHECKED,
    # so on a miss it is validated once; the walk's own path is not.  A
    # second walk reads the first's rows, and its root carries a site too
    reachable_from([(MU, NU)])
    states = reachable_from([(MU, NU)])
    check = filling.check_path
    calls = []

    def counted(p):
        calls.append(p.key)
        return check(p)

    monkeypatch.setattr(filling, "check_path", counted)
    for path, branches in states.values():
        assert path.site is not UNCHECKED
        copies = [PuzzlePath(path.n, path.steps), copy.copy(path), copy.deepcopy(path)]
        copies += [pickle.loads(pickle.dumps(path, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies:
            assert q == path and hash(q) == hash(path) and repr(q) == repr(path)
            assert q.site is UNCHECKED
        # legal_branches derives, and so checks, only on a miss
        filling._rows.clear()
        assert legal_branches(path) == branches and not calls
        filling._rows.clear()
        for q in copies:
            assert legal_branches(q) == branches
        assert calls == [path.key]
        calls.clear()


def test_k_theory_constants_sum_to_one():
    # the Euler characteristic: a Schubert class and a nonempty Richardson
    # variety both push forward to 1, so summed over lambda the K and K_T
    # structure constants of a reachable pair are the constant 1
    checks = 0
    for mu, nu in _pairs(5):
        for theory in (Theory.K, Theory.KT):
            coeffs = structure_constants(theory, mu, nu)
            if coeffs:
                total = sum(coeffs.values(), LPoly.zero(mu.n))
                assert total == LPoly.const(mu.n, 1), (theory, mu, nu, total)
                checks += 1
    assert checks == 390


def _dual_word(w: str) -> str:
    # w*: the reverse of w's complement
    return "".join("1" if b == "0" else "0" for b in reversed(w))


def _dual_value(c):
    # y_i -> -y_{n+1-i} in cohomology, E(e) -> E(-reversed e) in K-theory
    if isinstance(c, LPoly):
        return LPoly(c.n, [(tuple(-e for e in reversed(exp)), coef) for exp, coef in c.terms])
    return Poly(c.n, [(tuple(reversed(exp)), (-1) ** sum(exp) * coef) for exp, coef in c.terms])


def _is_self_dual(theory, mu, nu) -> bool:
    # Gr(k, n) = Gr(n - k, n): c_{mu* nu*}^{lam*} is c_{mu nu}^lam in the dual variables
    dual = structure_constants(theory, parse_word(_dual_word(str(mu))),
                               parse_word(_dual_word(str(nu))))
    return dual == {_dual_word(lam): _dual_value(c)
                    for lam, c in structure_constants(theory, mu, nu).items()}


def test_structure_constants_are_self_dual():
    checks = 0
    for mu, nu in _pairs(5):
        for theory in Theory:
            assert _is_self_dual(theory, mu, nu), (theory, mu, nu)
            checks += 1
    assert checks == 1400


def _square_every_kt_e(monkeypatch):
    # every E of the K_T table replaced by 1 - E + E^2: no cell of the table
    # makes it, so it patches the weights built from the cells
    weight = filling._weight

    def squared(k_theory, cell, i, j, n):
        a, b = cell
        if not (k_theory and b):
            return weight(k_theory, cell, i, j, n)
        e = LPoly.exp(n, [(k == i) - (k == j) for k in range(1, n + 1)])
        return LPoly.const(n, a) + (LPoly.const(n, 1) - e + e * e) * b

    monkeypatch.setattr(filling, "_weight", squared)


@pytest.mark.parametrize("wrong, failures", [
    # E set to 1 in one K_T cell, which every verify suite passes: shift0 and
    # shift1 weigh 1 (the Euler sum test catches these too), topk -1
    ("shift0", 91),
    ("shift1", 123),
    ("topk", 33),
    # the weights of a state still sum to 1, so only duality and the
    # specialisations see it
    ("square", 120),
])
def test_duality_rejects_a_wrong_kt_weight(monkeypatch, wrong, failures):
    if wrong == "square":
        _square_every_kt_e(monkeypatch)
    else:
        a, b = filling._WEIGHT[Theory.KT, wrong]
        monkeypatch.setitem(filling._WEIGHT, (Theory.KT, wrong), (a + b, 0))
    assert sum(not _is_self_dual(Theory.KT, mu, nu) for mu, nu in _pairs(5)) == failures


def test_one_weight_cell_is_a_whole_mutant_and_leaves_no_trace(monkeypatch):
    # every walk and fold reads the weight table as it starts, and a weight
    # is built from its cell, not from its theory and kind: one setitem
    # changes every reader, a kind of zero weight and a warm K_T fold included,
    # and once undone every reading is back.  So does one setitem or
    # delitem of the piece table, though the memo holds the pair's rows
    h, k, kt = Theory.H, Theory.K, Theory.KT

    def readings():
        return (structure_constants(h, MU, NU), table((h,), [(MU, NU)]),
                len(enumerate_puzzles(MU, NU, h)), structure_constants(kt, MU, NU),
                structure_constants(k, MU, NU))

    before = readings()
    with monkeypatch.context() as mp:
        mp.setitem(filling._WEIGHT, (h, "topk"), (1, 0))
        assert structure_constants(h, MU, NU) != before[0]
        assert table((h,), [(MU, NU)]) != before[1]
        # topk no longer of zero weight: H keeps the puzzles K keeps
        h_count = len(enumerate_puzzles(MU, NU, h))
        assert h_count == len(enumerate_puzzles(MU, NU, Theory.K)) != before[2]
    with monkeypatch.context() as mp:
        mp.setitem(filling._WEIGHT, (kt, "shift0"), (1, 0))
        assert structure_constants(kt, MU, NU) != before[3]
    assert readings() == before
    # the topk piece relabelled shift1 weighs 1 in K, not -1
    interesting = next(at for at, pieces in filling._PIECES.items() if len(pieces) > 1)
    *kept, _ = filling._PIECES[interesting]
    assert before[4]["0101"] == LPoly.const(4, -1)
    with monkeypatch.context() as mp:
        mp.setitem(filling._PIECES, interesting,
                   (*kept, filling._rhombus("shift1", ("1", "0"), "1", "K", None)))
        assert structure_constants(k, MU, NU)["0101"] == LPoly.const(4, 1)
    assert structure_constants(k, MU, NU) == before[4]
    with monkeypatch.context() as mp:
        mp.delitem(filling._PIECES, interesting)
        with pytest.raises(InvariantError, match=r"unfillable rhombus \('1', '0'\)"):
            structure_constants(k, MU, NU)
    assert readings() == before


def test_a_direct_call_under_a_piece_patch_outlives_its_undo(monkeypatch):
    # the limit of a piece mutant: the memo is checked at a walk's start
    # only, so rows a direct legal_branches call derives under a patch stay
    # after its undo, and the caller clears the memo after the undo too
    k = Theory.K
    before = structure_constants(k, MU, NU)
    interesting = next(at for at, pieces in filling._PIECES.items() if len(pieces) > 1)
    *kept, _ = filling._PIECES[interesting]
    with monkeypatch.context() as mp:
        mp.setitem(filling._PIECES, interesting,
                   (*kept, filling._rhombus("shift1", ("1", "0"), "1", "K", None)))
        # a direct call after a patch clears the memo first
        filling._rows.clear()
        stack = [initial_path(MU, NU)]
        while stack:
            stack.extend(q for _, q in legal_branches(stack.pop()))
    assert structure_constants(k, MU, NU)["0101"] == LPoly.const(4, 1)
    filling._rows.clear()
    assert structure_constants(k, MU, NU) == before
