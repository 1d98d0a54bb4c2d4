import math

import pytest
from hypothesis import given, strategies as st

from puzzlecalc.words import (Word, WordError, all_words, inversions,
                              parse_word, word_to_partition)


words = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
).map(lambda bits: Word(tuple(bits)))


def test_parse_basic():
    w = parse_word("0101")
    assert (w.n, w.k) == (4, 2)
    assert w[1] == 0 and w[2] == 1
    assert str(w) == "0101"


def test_word_bits_and_positions_are_checked():
    with pytest.raises(WordError, match="^word bits must be 0 or 1$"):
        Word((0, 2))
    w = parse_word("01")
    for p in (0, 3):
        with pytest.raises(IndexError):
            w[p]


def test_parse_rejects_bad_alphabet():
    with pytest.raises(WordError, match="outside"):
        parse_word("01a1")


def test_parse_rejects_empty_word():
    # the empty word has its own message, not the bad-alphabet one
    with pytest.raises(WordError, match="^word is empty$"):
        parse_word("")


def test_parse_rejects_wrong_length():
    with pytest.raises(WordError, match="length"):
        parse_word("011", n=4)


def test_parse_rejects_wrong_weight():
    with pytest.raises(WordError, match="ones"):
        parse_word("011", k=1)


@given(words)
def test_parse_round_trip(w):
    assert parse_word(str(w)) == w


@given(words)
def test_inversions_matches_partition_size(w):
    assert inversions(w) == sum(word_to_partition(w))


def test_inversions_examples():
    assert inversions(parse_word("0101")) == 1
    assert inversions(parse_word("1010")) == 3
    assert inversions(parse_word("0011")) == 0
    assert inversions(parse_word("1100")) == 4


def test_partition_examples():
    assert word_to_partition(parse_word("1010")) == (2, 1)
    assert word_to_partition(parse_word("0011")) == ()


@given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_all_words_is_exhaustive_and_sorted(nk):
    n, k = nk
    ws = all_words(n, k)
    assert len(ws) == math.comb(n, k)
    assert len(set(ws)) == len(ws)
    assert [str(w) for w in ws] == sorted(str(w) for w in ws)
    assert all(w.n == n and w.k == k for w in ws)


def test_all_words_is_empty_for_k_outside_0_to_n():
    assert all(all_words(n, k) == [] for n in range(8) for k in (-1, n + 1))
    assert all_words(0, 0) == [Word(())]
