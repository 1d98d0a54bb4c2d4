"""
Interval rank matrices and their dot-set avatars.

A DotSet is a partial permutation: dots (i, j) with i <= j, at most one per
row and per column.  Its interval rank matrix records, for every window
[i, j], the generic rank (j - i + 1) minus the number of dots inside.  These
matrices index the strata cut out by bounding ranks of consecutive column
spans of a k x n matrix, and the closure order is entrywise comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, count
from operator import le, sub

from .words import Word


@dataclass(frozen=True)
class DotSet:
    n: int
    dots: frozenset[tuple[int, int]]

    def __post_init__(self):
        rows = set()
        cols = set()
        for (i, j) in self.dots:
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"dot ({i},{j}) outside upper triangle of size {self.n}")
            if i in rows:
                raise ValueError(f"two dots in row {i}")
            if j in cols:
                raise ValueError(f"two dots in column {j}")
            rows.add(i)
            cols.add(j)

    def sorted_dots(self) -> list[tuple[int, int]]:
        return sorted(self.dots)

    def __str__(self) -> str:
        return format_dots(self)


def parse_dots(s: str, n: int) -> DotSet:
    """Parse 'i1,j1;i2,j2;...' (empty string allowed) into a DotSet."""
    dots = set()
    s = s.strip()
    if s:
        for chunk in s.split(";"):
            try:
                i, j = map(int, chunk.split(","))
            except ValueError:
                raise ValueError(f"bad dot {chunk!r}; expected 'i,j'") from None
            if (i, j) in dots:
                raise ValueError(f"repeated dot {chunk!r}")
            dots.add((i, j))
    return DotSet(n, frozenset(dots))


def format_dots(d: DotSet) -> str:
    return ";".join(f"{i},{j}" for i, j in d.sorted_dots())


@dataclass(frozen=True)
class IntervalRankMatrix:
    """Entries r_ij for 1 <= i <= j <= n, stored as rows of the upper triangle."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count mismatch")
        for i, row in enumerate(self.rows, start=1):
            if len(row) != self.n - i + 1:
                raise ValueError(f"row {i} has wrong length")

    def entry(self, i: int, j: int) -> int:
        """r_[i,j]; empty windows (j < i) have rank 0."""
        if j < i:
            return 0
        if not (1 <= i and j <= self.n):
            raise IndexError((i, j))
        return self.rows[i - 1][j - i]

    def entries(self):
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=i):
                yield i, j, v

    def leq(self, other: "IntervalRankMatrix") -> bool:
        """Entrywise comparison, the closure order; only matrices of one size compare."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return all(all(map(le, row, above)) for row, above in zip(self.rows, other.rows))

    def __str__(self) -> str:
        width = max((len(str(v)) for row in self.rows for v in row), default=0)
        return "\n".join(" " * ((width + 1) * i) + " ".join(str(v).rjust(width) for v in row)
                         for i, row in enumerate(self.rows))


def rank_from_dots(d: DotSet) -> IntervalRankMatrix:
    """
    Each row from the one below it, as i falls from n: r(i, j) is
    r(i+1, j) + 1, less 1 when row i's dot lies in [i, j] (r(i+1, i) = 0).
    """
    n = d.n
    col = dict(d.dots)
    inc = (1).__add__
    row = ()  # row n + 1, which has no windows
    rows = []
    for i in range(n, 0, -1):
        # row[m] is r(i+1, i+1+m), so the +1 stops at m = c - i - 1 for row
        # i's dot in column c (c = n + 1 without one); m < 0 when c = i
        m = col.get(i, n + 1) - i - 1
        row = (0, *row) if m < 0 else (1, *map(inc, row[:m]), *row[m:])
        rows.append(row)
    return IntervalRankMatrix(n, tuple(reversed(rows)))


def irm_min(r1: IntervalRankMatrix, r2: IntervalRankMatrix) -> IntervalRankMatrix:
    """
    Entrywise min of two matrices of one size.  It need not be the rank
    matrix of any dot set (that of 1,1 and 2,2 with n = 2 is not), as no
    IntervalRankMatrix need be; compare it with one that is to tell.
    """
    if r1.n != r2.n:
        raise ValueError("size mismatch")
    return IntervalRankMatrix(r1.n, tuple(tuple(map(min, row1, row2))
                                          for row1, row2 in zip(r1.rows, r2.rows)))


# -- essential set ---------------------------------------------------------

def essential_set(d: DotSet) -> frozenset[tuple[int, int]]:
    """
    Cells whose rank bounds imply all the others.

    Cross out everything strictly south or strictly west of each dot, then
    every cell in a dotless row or column; among surviving upper-triangular
    cells keep those with nothing surviving immediately north or east.
    A surviving cell lies in a dot's row and a dot's column, so only those
    cells are tried, each by two list lookups.
    """
    n = d.n
    col_of = [n + 1] * (n + 2)  # row -> column of its dot, n + 1 if none
    row_of = [0] * (n + 2)  # column -> row of its dot, 0 if none
    for i, j in d.dots:
        col_of[i] = j
        row_of[j] = i
    # (i, j), in the row of dot (i, c) and the column of dot (a, j), survives
    # when row i's dot is not east of column j (c <= j) and column j's dot
    # is not north of row i (a >= i); as a dot has a <= j, so does the cell.
    # Then (i - 1, j) and (i, j + 1) survive unless row i - 1's dot lies
    # east of j and column j + 1's north of i, respectively
    return frozenset((i, j) for i, c in d.dots for a, j in d.dots
                     if c <= j and a >= i and col_of[i - 1] > j and row_of[j + 1] < i)


def essential_conditions(d: DotSet, r: IntervalRankMatrix | None = None
                         ) -> list[tuple[int, int, int]]:
    """
    Essential cells with their rank bounds, dropping bounds no k x n matrix
    can violate (those with bound >= min(k, window length), k = n - #dots).
    r is rank_from_dots(d), computed here unless the caller has it; a
    matrix of another board size raises ValueError.
    """
    k = d.n - len(d.dots)
    if r is None:
        r = rank_from_dots(d)
    elif r.n != d.n:
        raise ValueError("size mismatch")
    out = []
    for (i, j) in sorted(essential_set(d)):
        bound = r.entry(i, j)
        if bound < min(k, j - i + 1):
            out.append((i, j, bound))
    return out


# -- closure order ---------------------------------------------------------

def embed_permutation(d: DotSet) -> tuple[int, ...]:
    """
    The dots completed to a permutation of n + k letters: dotless columns
    become the first k values, dotless rows receive the last k values, both
    filled in NW/SE order so no spurious inversions appear.
    """
    n = d.n
    by_row = dict(d.dots)
    used = set(by_row.values())
    tail = count(n + 1)
    return tuple([c for c in range(1, n + 1) if c not in used]
                 + [by_row[r] if r in by_row else next(tail) for r in range(1, n + 1)])


def _unembed(w: tuple[int, ...], n: int, k: int) -> DotSet | None:
    """Inverse of embed_permutation, or None if w is not of that shape."""
    dots = [(r, v) for r, v in enumerate(w[k:], 1) if v <= n]
    if any(v < r for r, v in dots):
        return None  # below the diagonal
    d = DotSet(n, frozenset(dots))
    return d if embed_permutation(d) == w else None


def covers(d: DotSet) -> frozenset[DotSet]:
    """
    Dot sets one step up in the closure order (rank matrix covers r(d)):
    the Bruhat covers of the embedded permutation that remain embeddable.
    Seen on the dots themselves these are rectangle uncrossings and east or
    north slides, possibly jumping occupied rows or columns.
    """
    n = d.n
    k = n - len(d.dots)
    w = embed_permutation(d)
    m = n + k
    out = set()
    for i in range(m):
        for j in range(i + 1, m):
            if w[i] <= w[j]:
                continue
            if any(w[j] < w[l] < w[i] for l in range(i + 1, j)):
                continue
            v = list(w)
            v[i], v[j] = v[j], v[i]
            e = _unembed(tuple(v), n, k)
            if e is not None:
                out.add(e)
    return frozenset(out)


# -- coordinate fixed points ----------------------------------------------

def fixed_point_in(d: DotSet, w: Word, r: IntervalRankMatrix | None = None) -> bool:
    """
    Whether the coordinate k-plane of w satisfies every window rank bound:
    w has at most r(i, j) ones in [i, j].  r is rank_from_dots(d), computed
    here unless the caller has it (a caller testing many words builds it
    once); a word or matrix of another board size raises ValueError.  Row
    i holds when ones[j] - r(i, j) <= ones[i - 1] for each j, ones being
    the prefix counts; the first row that fails ends the test.
    """
    if w.n != d.n or (r is not None and r.n != d.n):
        raise ValueError("size mismatch")
    if r is None:
        r = rank_from_dots(d)
    ones = list(accumulate(w.bits, initial=0))
    return all(max(map(sub, ones[i + 1:], row)) <= ones[i] for i, row in enumerate(r.rows))


def matching_exists(d: DotSet, w: Word) -> bool:
    """
    Whether the dots can be matched bijectively to 0s of w, each dot (i, j)
    to a 0 in position i..j.  Augmenting-path bipartite matching.
    """
    if w.n != d.n:
        raise ValueError("size mismatch")
    zeros = [p for p in range(1, w.n + 1) if w[p] == 0]
    dots = d.sorted_dots()
    if len(dots) != len(zeros):
        return False
    adj = [[p for p in zeros if i <= p <= j] for (i, j) in dots]
    match = {}  # zero position -> dot index
    return all(_augment(adj, match, di, set()) for di in range(len(dots)))


def _augment(adj, match, di, seen) -> bool:
    # matching_exists' augmenting path from dot di, a module-level function
    # so that a call leaves no closure cycle for the cyclic collector
    for p in adj[di]:
        if p in seen:
            continue
        seen.add(p)
        if p not in match or _augment(adj, match, match[p], seen):
            match[p] = di
            return True
    return False


# -- Richardson envelope ---------------------------------------------------

def envelope(d: DotSet) -> tuple[Word, Word]:
    """The pair (lambda, mu): 1s of lambda in dotless rows, of mu in dotless columns."""
    dot_rows = {i for i, _ in d.dots}
    dot_cols = {j for _, j in d.dots}
    lam = Word(tuple(0 if p in dot_rows else 1 for p in range(1, d.n + 1)))
    mu = Word(tuple(0 if p in dot_cols else 1 for p in range(1, d.n + 1)))
    return lam, mu


def envelope_codim(d: DotSet) -> int:
    """Codimension inside the envelope: the number of NE/SW dot pairs."""
    return sum(1 for (a, b), (a2, b2) in combinations(sorted(d.dots), 2)
               if a < a2 and b > b2)


# -- exact matrix rank -----------------------------------------------------

def rank_of_matrix(m, p: int) -> int:
    """Rank of an integer matrix over GF(p), p prime."""
    rows = [[x % p for x in row] for row in m]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, ncols):
                    rows[r][c] = (rows[r][c] - factor * rows[rank][c]) % p
        rank += 1
    return rank


def all_dotsets(n: int, size: int) -> list[DotSet]:
    """
    Every DotSet of the given cardinality, in the lexicographic order of
    its sorted dots: one dot per row, placed row by row in a free column.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    out = []
    _place(n, size, 1, [], frozenset(), out)
    return out


def _place(n, size, row, dots, used, out) -> None:
    # all_dotsets' recursion: puts every way to finish dots from row on into out
    if len(dots) == size:
        out.append(DotSet(n, frozenset(dots)))
        return
    for i in range(row, n + 2 - size + len(dots)):  # the rest must fit in rows i..n
        for j in range(i, n + 1):
            if j not in used:
                _place(n, size, i + 1, dots + [(i, j)], used | {j}, out)
