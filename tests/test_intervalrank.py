import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from puzzlecalc.intervalrank import (DotSet, IntervalRankMatrix, _unembed, all_dotsets, covers,
                                     embed_permutation, envelope, envelope_codim,
                                     essential_conditions, essential_set, fixed_point_in,
                                     format_dots, irm_min, matching_exists, parse_dots,
                                     rank_from_dots, rank_of_matrix)
from puzzlecalc.words import Word, all_words


def random_dotset(rng, n):
    size = rng.randrange(n + 1)
    rows = rng.sample(range(1, n + 1), size)
    dots = set()
    cols = set()
    for i in sorted(rows, reverse=True):
        free = [j for j in range(i, n + 1) if j not in cols]
        if not free:
            continue
        j = rng.choice(free)
        cols.add(j)
        dots.add((i, j))
    return DotSet(n, frozenset(dots))


dotsets = st.tuples(st.integers(1, 6), st.integers(0, 10 ** 6)).map(
    lambda t: random_dotset(random.Random(t[1]), t[0]))


def test_dotset_rejects_below_diagonal():
    with pytest.raises(ValueError):
        DotSet(3, frozenset({(3, 1)}))


def test_dotset_rejects_repeated_row():
    with pytest.raises(ValueError):
        DotSet(3, frozenset({(1, 2), (1, 3)}))


def test_parse_format_round_trip():
    d = parse_dots("1,5;3,3", 5)
    assert d.dots == frozenset({(1, 5), (3, 3)})
    assert parse_dots(format_dots(d), 5) == d


def test_rank_matrix_shape_and_entry_bounds():
    with pytest.raises(ValueError, match="^row count mismatch$"):
        IntervalRankMatrix(2, ((1, 1),))
    with pytest.raises(ValueError, match="^row 2 has wrong length$"):
        IntervalRankMatrix(2, ((1, 1), (1, 0)))
    r = rank_from_dots(parse_dots("1,1", 2))
    # an empty window has rank 0; a window off the board has none
    assert r.entry(2, 1) == 0
    for i, j in [(0, 1), (1, 3), (3, 3)]:
        with pytest.raises(IndexError):
            r.entry(i, j)


@given(dotsets)
def test_rank_entries_bounds(d):
    r = rank_from_dots(d)
    k = d.n - len(d.dots)
    for i in range(1, d.n + 1):
        for j in range(i, d.n + 1):
            assert 0 <= r.entry(i, j) <= min(k, j - i + 1)


def test_essential_worked_example():
    d = parse_dots("1,5;3,3", 5)
    assert essential_set(d) == frozenset({(3, 3), (1, 5)})


def test_essential_diagonal_pair():
    d = parse_dots("1,2;3,4", 4)
    assert essential_set(d) == frozenset({(1, 2), (1, 4), (3, 4)})


def test_essential_conditions_filters_vacuous():
    d = parse_dots("1,2;2,4", 4)
    assert essential_conditions(d) == [(1, 2, 1)]


@pytest.mark.parametrize("size", [2, 4])
def test_essential_conditions_refuses_a_rank_matrix_of_another_size(size):
    # the n = 2 matrix has no window (1, 2) bound below 2, so the bound
    # read from it would drop the one condition
    d = parse_dots("1,2", 3)
    assert essential_conditions(d, rank_from_dots(d)) == [(1, 2, 1)]
    with pytest.raises(ValueError, match="^size mismatch$"):
        essential_conditions(d, rank_from_dots(parse_dots("", size)))


def _essential_set_by_scanning(d):
    """essential_set as it was first written: survives scans every dot."""
    n = d.n
    dot_rows = {i for i, _ in d.dots}
    dot_cols = {j for _, j in d.dots}

    def survives(i, j):
        if not (1 <= i <= j <= n):
            return False
        if i not in dot_rows or j not in dot_cols:
            return False
        for (a, b) in d.dots:
            if b == j and a < i:  # strictly south of dot (a, j)
                return False
            if a == i and b > j:  # strictly west of dot (i, b)
                return False
        return True

    cells = set()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if survives(i, j) and not survives(i - 1, j) and not survives(i, j + 1):
                cells.add((i, j))
    return frozenset(cells)


def test_essential_set_matches_the_scanning_reference_up_to_n6():
    count = 0
    for n in range(1, 7):
        for size in range(n + 1):
            for d in all_dotsets(n, size):
                assert essential_set(d) == _essential_set_by_scanning(d), d
                count += 1
    assert count == 1154


@given(dotsets)
def test_essential_subset_of_cells(d):
    n = d.n
    for (i, j) in essential_set(d):
        assert 1 <= i <= j <= n


@given(dotsets)
def test_hall_equivalence(d):
    k = d.n - len(d.dots)
    for w in all_words(d.n, k):
        assert fixed_point_in(d, w) == matching_exists(d, w)


def test_envelope_worked_example():
    lam, mu = envelope(parse_dots("1,5;3,3", 5))
    assert str(lam) == "01011"
    assert str(mu) == "11010"


@given(dotsets)
def test_envelope_words_have_matching_weight(d):
    k = d.n - len(d.dots)
    lam, mu = envelope(d)
    assert lam.k == mu.k == k
    assert envelope_codim(d) >= 0


@given(dotsets)
def test_covers_are_strictly_above(d):
    for c in covers(d):
        assert len(c.dots) == len(d.dots)
        assert c != d
        r, rc = rank_from_dots(d), rank_from_dots(c)
        assert r.leq(rc)


def test_covers_includes_east_slide_past_column():
    d = DotSet(4, frozenset({(1, 1), (2, 2)}))
    assert DotSet(4, frozenset({(1, 3), (2, 2)})) in covers(d)


def test_covers_are_the_minimal_dot_sets_above_entrywise_up_to_n5():
    # verify's covers suite stops at n = 4; here every dot set up to n = 5
    # is checked against the brute-force covers of the entrywise order on
    # rank matrices, among the dot sets of its size
    count = 0
    for n in range(1, 6):
        cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for size in range(n + 1):
            ds = all_dotsets(n, size)
            ranks = [[rank_from_dots(d).entry(i, j) for i, j in cells] for d in ds]
            # the pairs (a, b) of indexes into ds with ds[a] strictly below ds[b]
            below = {(a, b) for a, ra in enumerate(ranks) for b, rb in enumerate(ranks)
                     if a != b and all(map(int.__le__, ra, rb))}
            for a, d in enumerate(ds):
                above = [b for b in range(len(ds)) if (a, b) in below]
                brute = {ds[b] for b in above if not any((c, b) in below for c in above)}
                assert covers(d) == brute, d
                count += 1
    assert count == 277


def test_irm_min_of_comparable_is_lower():
    d = parse_dots("1,2;3,4", 4)
    c = sorted(covers(d), key=format_dots)[0]
    r, rc = rank_from_dots(d), rank_from_dots(c)
    assert irm_min(r, rc) == r


def test_irm_min_need_not_be_a_rank_matrix():
    # their entrywise min has rank 1 on [1, 2] but 0 on [1, 1] and on [2, 2],
    # which no dot set with n = 2 gives
    r1, r2 = (rank_from_dots(parse_dots(s, 2)) for s in ("1,1", "2,2"))
    low = irm_min(r1, r2)
    assert low.rows == ((0, 1), (0,))
    assert all(low != rank_from_dots(d) for size in range(3) for d in all_dotsets(2, size))


def test_rank_of_matrix_prime_field():
    assert rank_of_matrix([[1, 2], [2, 4]], p=5) == 1
    assert rank_of_matrix([[5, 0], [0, 1]], p=5) == 1


@settings(max_examples=300, deadline=None)
@given(dotsets, st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
def test_essential_bounds_imply_every_window_bound(d, p, rng):
    # a k x n matrix over GF(p) whose column j is, for each dot (i, j), a
    # combination of columns i..j-1 meets every window bound; with one
    # column redrawn, meeting the essential bounds must still imply them all
    n, k = d.n, d.n - len(d.dots)
    row_of = {j: i for i, j in d.dots}
    cols = []
    for j in range(1, n + 1):
        if j in row_of:
            span = cols[row_of[j] - 1:j - 1]
            coeffs = [rng.randrange(p) for _ in span]
            cols.append([sum(c * col[t] for c, col in zip(coeffs, span)) % p
                         for t in range(k)])
        else:
            cols.append([rng.randrange(p) for _ in range(k)])
    r = rank_from_dots(d)

    def meets(bounds):
        return all(rank_of_matrix(list(zip(*cols[i - 1:j])), p) <= b
                   for i, j, b in bounds)

    assert meets(r.entries())
    cols[rng.randrange(n)] = [rng.randrange(p) for _ in range(k)]
    if meets(essential_conditions(d, r)):
        assert meets(r.entries())


def test_all_dotsets_counts():
    # total dotsets over all sizes follow the Bell-like count of partial
    # upper-triangular matchings: 2, 5, 15, 52 for n = 1..4
    for n, want in [(1, 2), (2, 5), (3, 15), (4, 52)]:
        assert sum(len(all_dotsets(n, s)) for s in range(n + 1)) == want


def _filtered_dotsets(n, size):
    # every size-subset of the upper-triangle cells, kept if it is a
    # partial permutation
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return [DotSet(n, frozenset(combo)) for combo in combinations(cells, size)
            if len({i for i, _ in combo}) == len({j for _, j in combo}) == size]


def test_all_dotsets_is_the_filtered_cell_subsets_in_order_up_to_n6():
    for n in range(7):
        for size in range(n + 2):
            assert all_dotsets(n, size) == _filtered_dotsets(n, size), (n, size)
    with pytest.raises(ValueError):
        all_dotsets(3, -1)


def test_unembed_is_exactly_the_inverse_of_embed_permutation_up_to_n4():
    # every permutation of 1..n+k, embeddable or not, is read back by _unembed
    for n in range(5):
        for k in range(n + 1):
            embedded = {embed_permutation(d): d for d in all_dotsets(n, n - k)}
            assert len(embedded) == len(all_dotsets(n, n - k))
            for v in permutations(range(1, n + k + 1)):
                assert _unembed(v, n, k) == embedded.get(v), (n, k, v)


@settings(max_examples=25)
@given(dotsets)
def test_fixed_points_monotone_under_covers(d):
    # moving one step up the closure order can only gain fixed points
    k = d.n - len(d.dots)
    members = {w for w in all_words(d.n, k) if fixed_point_in(d, w)}
    for c in covers(d):
        sup = {w for w in all_words(d.n, k) if fixed_point_in(c, w)}
        assert members <= sup


def _every_dotset(max_n):
    for n in range(max_n + 1):
        for size in range(n + 1):
            yield from all_dotsets(n, size)


def test_rank_from_dots_counts_the_dots_in_every_window_up_to_n6():
    # r(i, j) = (j - i + 1) - #{dots (a, b) with i <= a and b <= j}, read
    # through entry(); its text is its rows, one line each, and empty at n = 0
    for d in _every_dotset(6):
        r = rank_from_dots(d)
        assert [tuple(map(int, line.split())) for line in str(r).splitlines()] == list(r.rows)
        for i in range(1, d.n + 1):
            for j in range(i, d.n + 1):
                inside = sum(1 for a, b in d.dots if i <= a and b <= j)
                assert r.entry(i, j) == (j - i + 1) - inside, (d, i, j)


def test_fixed_point_in_with_and_without_its_rank_matrix_is_hall_up_to_n6():
    for d in _every_dotset(6):
        r = rank_from_dots(d)
        for w in all_words(d.n, d.n - len(d.dots)):
            assert fixed_point_in(d, w, r) == fixed_point_in(d, w) == matching_exists(d, w), (d, w)


def test_leq_is_the_entrywise_order_up_to_n4():
    for n in range(1, 5):
        ranks = [rank_from_dots(d) for size in range(n + 1) for d in all_dotsets(n, size)]
        for r1 in ranks:
            for r2 in ranks:
                want = all(r1.entry(i, j) <= r2.entry(i, j)
                           for i in range(1, n + 1) for j in range(i, n + 1))
                assert r1.leq(r2) == want


@pytest.mark.parametrize("small, large", [(2, 3), (3, 2)])
def test_leq_and_irm_min_refuse_two_board_sizes(small, large):
    r1, r2 = (rank_from_dots(parse_dots("1,1", n)) for n in (small, large))
    with pytest.raises(ValueError, match="size mismatch"):
        r1.leq(r2)
    with pytest.raises(ValueError, match="size mismatch"):
        irm_min(r1, r2)


def test_fixed_point_in_and_matching_exists_take_one_board_size():
    d = parse_dots("1,1", 2)
    for test in (fixed_point_in, matching_exists):
        with pytest.raises(ValueError, match="^size mismatch$"):
            test(d, Word((0, 1, 0)))
    # one dot and two 0s: no bijection
    assert not matching_exists(d, Word((0, 0)))


@pytest.mark.parametrize("size", [2, 4])
def test_fixed_point_in_refuses_a_rank_matrix_of_another_size(size):
    d, w = parse_dots("1,2", 3), Word((0, 1, 1))
    assert fixed_point_in(d, w, rank_from_dots(d))
    with pytest.raises(ValueError, match="^size mismatch$"):
        fixed_point_in(d, w, rank_from_dots(parse_dots("", size)))
