"""
Binary words indexing Schubert classes on the Grassmannian Gr(k, n).

A word is a string of 0s and 1s of length n with k ones.  Its degree is the
inversion count #{(i, j) : i < j, w_i = 1, w_j = 0}, and the usual partition
indexing is recovered by counting, for each 1, the 0s strictly to its right.
"""

from dataclasses import dataclass
from itertools import combinations


class WordError(ValueError):
    """Raised when a string fails to parse as a valid word."""


@dataclass(frozen=True, order=True)
class Word:
    """A binary word, e.g. Word((0, 1, 0, 1))."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not all(b in (0, 1) for b in self.bits):
            raise WordError("word bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def k(self) -> int:
        """Number of 1s."""
        return sum(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __getitem__(self, p: int) -> int:
        """1-indexed access: w[1] is the leftmost letter."""
        if not 1 <= p <= len(self.bits):
            raise IndexError(p)
        return self.bits[p - 1]


def parse_word(s: str, n: int | None = None, k: int | None = None) -> Word:
    """
    Parse a 0/1 string, optionally enforcing length n and exactly k ones.

    Each failure mode raises WordError with a distinct message.
    """
    if not s:
        raise WordError("word is empty")
    if any(c not in "01" for c in s):
        raise WordError(f"word {s!r} contains characters outside {{0,1}}")
    w = Word(tuple(int(c) for c in s))
    if n is not None and w.n != n:
        raise WordError(f"word {s!r} has length {w.n}, expected {n}")
    if k is not None and w.k != k:
        raise WordError(f"word {s!r} has {w.k} ones, expected {k}")
    return w


def inversions(w: Word) -> int:
    """Degree |w|: the number of pairs i < j with w_i = 1 and w_j = 0."""
    total = 0
    ones_seen = 0
    for b in w.bits:
        if b == 1:
            ones_seen += 1
        else:
            total += ones_seen
    return total


def word_to_partition(w: Word) -> tuple[int, ...]:
    """
    The partition whose a-th part counts 0s strictly right of the a-th 1.

    Trailing zero parts are dropped; sum of parts equals inversions(w).
    """
    zeros_right = 0
    parts = []
    for b in reversed(w.bits):
        if b == 0:
            zeros_right += 1
        else:
            parts.append(zeros_right)
    parts.reverse()
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def all_words(n: int, k: int) -> list[Word]:
    """
    All length-n words with k ones, in lexicographic order, which is the
    lexicographic order of the positions of their 0s; none for k outside
    [0, n].
    """
    if not 0 <= k <= n:
        return []
    return [Word(tuple(int(p not in zeros) for p in range(n)))
            for zeros in combinations(range(n), n - k)]
