"""
The triangular board, lattice paths across it, and completed puzzles.

Vertices v(a, b) with 0 <= b <= a <= n sit in row a; the apex is v(0, 0).
A path runs from the apex to the bottom-left corner v(n, 0) using three step
kinds: SE (an edge written \\), SW (written /), and W along the bottom row
(written --).  Edge coordinates: the horizontal edge at v(a, b-1)-v(a, b)
carries the window (i, j) = (b, b + n - a); a \\ step ending at v(a, b)
preserves the NE/SW coordinate i = b; a / step starting at v(a, b) preserves
the NW/SE coordinate j = b + n - a; bottom edge c joins v(n, c-1)-v(n, c).

Labels are "0", "1", "R", "K".  The kink is the last SE step; boundary edges
carry only 0/1.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .words import Word

Label = str


class Step(namedtuple("Step", "dir label")):
    """
    One edge of a path: its direction ("SE", "SW" or "W") and its label.
    There are twelve steps, in STEP: Step(dir, label) returns one of them or
    raises ValueError, and _replace goes through it too.  The engine keeps
    a path as a key of step codes (see PuzzlePath) and builds steps only
    for readers of PuzzlePath.steps.
    """
    __slots__ = ()

    def __new__(cls, dir: str, label: Label):
        try:
            return STEP[dir, label]
        except (KeyError, TypeError):
            pass
        if dir not in ("SE", "SW", "W"):
            raise ValueError(f"bad direction {dir!r}")
        raise ValueError(f"bad label {label!r}")

    @classmethod
    def _make(cls, iterable):
        # _replace goes through _make, so it validates too
        return cls(*iterable)


STEP = {(d, label): tuple.__new__(Step, (d, label))
        for d in ("SE", "SW", "W") for label in ("0", "1", "R", "K")}
# a step's code is its index here: SE steps are codes 0-3, SW steps 4-7 and
# W steps 8-11, each range in label order 0, 1, R, K, so a code's last two
# bits are its label's index in "01RK", and a SE step's code is that index
STEPS = tuple(STEP.values())
SE_0, SE_1, SE_R, SE_K, SW_0, SW_1, SW_R, SW_K, W_0, W_1, W_R, W_K = range(12)
_CODE = {s: code for code, s in enumerate(STEPS)}


def steps_key(steps) -> bytes:
    """The codes of steps, one byte each."""
    return bytes(map(_CODE.__getitem__, steps))


# the site of a path that the engine has not checked (None is a final path's)
UNCHECKED = object()
# check_path's site for a path that leaves the board
OFF_BOARD = object()


class PuzzlePath:
    """
    A lattice path across the size-n board, held as its key: one byte per
    step, the step's code.  Keys hash and slice in C and cache their hash,
    so the engine keys its tables by them.  steps decodes the key.  A path
    is a value: equal paths have equal n and keys, and nothing changes one.

    site is the path's fill site (see check_path) when the engine checked
    the path as it built it (a child its parent derived, or a walk's
    initial path), and UNCHECKED otherwise.  Equality, hashing, repr and
    pickling ignore it, so a path built any other way, unpickled or copied
    is UNCHECKED.
    """
    __slots__ = ("n", "key", "site")

    def __init__(self, n: int, steps):
        self.n = n
        self.key = steps_key(steps)
        self.site = UNCHECKED

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map(STEPS.__getitem__, self.key))

    def __eq__(self, other):
        if not isinstance(other, PuzzlePath):
            return NotImplemented
        return self.n == other.n and self.key == other.key

    def __hash__(self):
        return hash((self.n, self.key))

    def __repr__(self):
        return f"PuzzlePath(n={self.n!r}, steps={self.steps!r})"

    def __reduce__(self):
        return path_from_key, (self.n, self.key)


_new = object.__new__


def path_from_key(n: int, key: bytes, site=UNCHECKED) -> PuzzlePath:
    """
    The path of size n with this key; it sets the slots and runs no __init__.
    Only a caller that knows the path valid passes its fill site as site.
    """
    p = _new(PuzzlePath)
    p.n = n
    p.key = key
    p.site = site
    return p


def initial_path(mu: Word, nu: Word) -> PuzzlePath:
    """Down the NE boundary reading mu, then west along the bottom against nu."""
    if mu.n != nu.n:
        raise ValueError("word lengths differ")
    if mu.k != nu.k:
        raise ValueError("words have different numbers of 1s")
    return path_from_key(mu.n, bytes([SE_0 + b for b in mu.bits]
                                     + [W_0 + b for b in reversed(nu.bits)]))


def final_path(lam: Word) -> PuzzlePath:
    """Down the NW boundary, reading lam from the bottom up: final_path_word's inverse."""
    return path_from_key(lam.n, bytes([SW_0 + b for b in reversed(lam.bits)]))


def final_path_word(p: PuzzlePath) -> Word:
    """
    Read the NW boundary word off a final path: position q of the word is
    the label at depth n + 1 - q, i.e. the path is read from the bottom up.
    """
    key = p.key
    if min(key, default=SW_0) < SW_0:
        raise ValueError("path still has SE steps")
    # a label's index in "01RK" is its code's last two bits, and the word
    # refuses an R or K
    return Word(tuple(code & 3 for code in reversed(key)))


def validate_path(p: PuzzlePath) -> list[str]:
    """
    All violations of the path well-formedness conditions (empty if valid).

    1. boundary edges carry only 0/1;
    2. K appears only on the kink;
    3. among the first t (all-SE) steps there are at least as many 0s as
       among the last t (bottom) steps;
    4. #(SE 0) equals #(SW R) plus #(bottom 0);
    5. after a kink R or K, some SW 1 or bottom 1 occurs before any SW R or
       bottom 0 (and such a step must exist);
    6. after a kink 0 or K, some SW R or bottom 0 occurs before any bottom 1
       (and such a step must exist);
    7. after a kink K, a SW 1 comes before any SW R or bottom 0, which in
       turn comes before any bottom 1.

    A path that leaves the board gets a single "geometry" message instead.

    This is the spec: check_path's pass, without the fill site.  The engine
    runs check_path once on each path that no parent derived, and checks a
    derived child only where its piece changed the path
    (filling._child_is_valid, which tests hold equal to this).
    """
    return check_path(p)[0]


def check_path(p: PuzzlePath) -> tuple[list[str], object]:
    """
    validate_path's violations and the path's fill site, in one pass over
    the key that tracks the vertex, the rule-4 counts and the first step of
    each rule 5-7 kind after the latest SE step.  The fill site is the kink
    (the index of the last SE step) and the position the next piece
    occupies, or None once the path is final; equal sites hold the same
    FillPos.  A path that leaves the board has the site OFF_BOARD.
    """
    n, key = p.n, p.key
    bad: list[str] = []
    a = b = 0
    lead = 0  # length of the leading run of SE steps
    kink = None  # the latest SE step so far: the kink once the pass ends
    k_at = None  # where rule 2's message goes if a later SE step follows a K kink
    se0 = swr = w0 = 0
    # since the latest SE step: the first SW R or bottom 0, SW 1, bottom 1
    ray = sw1 = w1 = None
    for idx, code in enumerate(key):
        if code < SW_0:
            if k_at is not None:
                bad.insert(k_at, f"2: K on non-kink step {kink}")
                k_at = None
            on_boundary = a == b
            a += 1
            b += 1
            if lead == idx:
                lead += 1
            kink, ka, kb = idx, a, b  # and the vertex it ends at
            ray = sw1 = w1 = None
            if code == SE_0:
                se0 += 1
        elif code < W_0:
            on_boundary = b == 0
            a += 1
            if code == SW_R:
                swr += 1
                if ray is None:
                    ray = idx
            elif code == SW_1 and sw1 is None:
                sw1 = idx
        else:
            if a != n or b < 1:
                return ["geometry: west step off the bottom row"], OFF_BOARD
            on_boundary = True
            b -= 1
            if code == W_0:
                w0 += 1
                if ray is None:
                    ray = idx
            elif code == W_1 and w1 is None:
                w1 = idx
        # a code's last two bits are its label's index in "01RK"
        if on_boundary and code & 2:  # R or K
            bad.append(f"1: boundary step {idx} carries {STEPS[code].label}")
        if code & 3 == 3:  # K
            if code == SE_K:
                k_at = len(bad)
            else:
                bad.append(f"2: K on non-kink step {idx}")
    if (a, b) != (n, 0):
        return [f"geometry: path ends at v({a},{b}), not v({n},0)"], OFF_BOARD

    head_zeros = tail_zeros = 0
    for t in range(1, lead + 1):
        if key[t - 1] == SE_0:
            head_zeros += 1
        if key[-t] == W_0:
            tail_zeros += 1
        if head_zeros < tail_zeros:
            bad.append(f"3: first {t} SE steps have {head_zeros} 0s "
                       f"but the last {t} steps have {tail_zeros} bottom 0s")
            break

    if se0 != swr + w0:
        bad.append(f"4: #SE0={se0} but #SWR+#W0={swr + w0}")

    site = None
    if kink is not None:
        kink_code = key[kink]
        # bottom steps come last on the board, so the first 1 is a SW 1 if any
        one = sw1 if sw1 is not None else w1
        if kink_code in (SE_R, SE_K):
            if one is None or (ray is not None and ray < one):
                bad.append("5: no 1 after the kink before an R or bottom 0")
        if kink_code in (SE_0, SE_K):
            if ray is None or (w1 is not None and w1 < ray):
                bad.append("6: no R or bottom 0 after the kink before a bottom 1")
        if kink_code == SE_K:
            if sw1 is None or ray is None or not (sw1 < ray):
                bad.append("7: kink K needs a SW 1 strictly before an R or bottom 0")
            elif w1 is not None and w1 < ray:
                bad.append("7: kink K needs its R or bottom 0 before any bottom 1")
        # a path that ends at v(n, 0) cannot end with its kink, and the step
        # after the last SE step is SW or W
        site = kink, (bottom_pos(kb) if key[kink + 1] >= W_0
                      else rhombus_pos(kb, kb + n - ka))
    return bad, site


def is_valid(p: PuzzlePath) -> bool:
    return not validate_path(p)


# -- where the next piece goes --------------------------------------------

@dataclass(frozen=True)
class FillPos:
    kind: str  # "rhombus", "bottom", "done"
    i: int = 0
    j: int = 0
    c: int = 0

    def __str__(self):
        if self.kind == "rhombus":
            return f"rhombus({self.i},{self.j})"
        if self.kind == "bottom":
            return f"bottom({self.c})"
        return "done"


@lru_cache(maxsize=None)
def rhombus_pos(i: int, j: int) -> FillPos:
    """The position of the rhombus at window (i, j), built once."""
    return FillPos("rhombus", i=i, j=j)


@lru_cache(maxsize=None)
def bottom_pos(c: int) -> FillPos:
    """The position of bottom triangle c, built once."""
    return FillPos("bottom", c=c)


def next_fill_position(p: PuzzlePath) -> FillPos:
    """
    The unique position the next piece occupies: the rhombus or bottom
    triangle just left of the kink.  A path that leaves the board raises
    ValueError.
    """
    bad, site = check_path(p)
    if site is OFF_BOARD:
        raise ValueError(bad[0])
    return FillPos("done") if site is None else site[1]


# -- completed puzzles -----------------------------------------------------

@dataclass(frozen=True)
class RhombusPlacement:
    kind: str        # "boring", "equivariant", "shift0", "shift1", "topk"
    right: tuple[Label, Label]  # (upper \\, lower /) before the piece
    left: tuple[Label, Label]   # (upper /, lower \\) after the piece
    mid: Label | None           # horizontal edge when the piece splits in two


@dataclass(frozen=True)
class TrianglePlacement:
    diag: Label   # the \\ edge (old kink)
    base: Label   # the bottom edge
    left: Label   # the new / edge


@dataclass(frozen=True)
class Puzzle:
    n: int
    lam: Word
    mu: Word
    nu: Word
    rhombi: tuple[tuple[tuple[int, int], RhombusPlacement], ...]
    bottoms: tuple[tuple[int, TrianglePlacement], ...]

    def count(self, kind: str) -> int:
        return sum(1 for _, r in self.rhombi if r.kind == kind)


class _Layout(NamedTuple):
    """
    The edges of the size-n board, each at its offset in the ascii_render
    text: every label is one character, written over a placeholder byte.
    """
    offset: dict[tuple[str, int, int], int]   # ("H"|"SE"|"SW", a, b) -> its offset
    blank: bytes   # the ASCII text with a placeholder byte per edge
    mu: tuple[int, ...]   # the offsets of the NE boundary edges, mu[1..n]
    nu: tuple[int, ...]   # the offsets of the bottom edges, nu[1..n]
    # window (i, j) -> the offsets of its left /, left \\ and mid edges
    rhombus: dict[tuple[int, int], tuple[int, int, int]]
    bottom: dict[int, int]   # triangle c -> the offset of its / edge


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    """
    The board's geometry, once per size.  The edge with upper vertex v(a, b)
    is ("H", a, b) when horizontal (it joins v(a, b-1) and v(a, b)), ("SE",
    a, b) when written \\ and ("SW", a, b) when written /.
    """
    keys = []

    def slot(kind, a, b):
        keys.append((kind, a, b))
        return "."

    lines = []
    for a in range(1, n + 1):
        indent = "  " * (n - a)
        lines.append(indent + " ".join(f"/{slot('SW', a - 1, b)} \\{slot('SE', a - 1, b)}"
                                       for b in range(a)))
        lines.append(indent + "  " + "    ".join(f"-{slot('H', a, b)}" for b in range(1, a + 1)))
    blank = "\n".join(lines)
    at = dict(zip(keys, [idx for idx, ch in enumerate(blank) if ch == "."]))
    rhombus = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            # the rhombus occupying window (i, j): upper vertex row a with
            # j = i + n - a, columns b = i - 1 (left side) and b = i (right side)
            a = i + n - j
            rhombus[i, j] = (at["SW", a - 1, i - 1], at["SE", a, i - 1], at["H", a, i])
    return _Layout(
        offset=at,
        blank=blank.encode(),
        mu=tuple(at["SE", d - 1, d - 1] for d in range(1, n + 1)),
        nu=tuple(at["H", n, c] for c in range(1, n + 1)),
        rhombus=rhombus,
        bottom={c: at["SW", n - 1, c - 1] for c in range(1, n + 1)},
    )


def boundary_text(mu: Word, nu: Word) -> bytearray:
    """The ascii_render text of the pair's board with its NE and bottom labels only."""
    lay = _layout(mu.n)
    text = bytearray(lay.blank)
    for offsets, word in ((lay.mu, mu), (lay.nu, nu)):
        for off, bit in zip(offsets, word.bits):
            text[off] = 48 + bit   # "0" or "1"
    return text


def placed_bytes(n: int, entries) -> Iterator[tuple[int, int]]:
    """
    The (offset, byte) writes of Puzzle entries (each a Branch.placed) into
    the ascii_render text of the size-n board: a triangle's / label, or a
    rhombus's left / and \\ labels and its mid edge, "-" when it has none,
    so that a text reused from one puzzle to the next keeps no stale label.
    """
    lay = _layout(n)
    rhombus, bottom = lay.rhombus, lay.bottom
    offsets: list[int] = []
    labels: list[Label] = []
    for at, piece in entries:
        if type(at) is int:  # a triangle's c
            offsets.append(bottom[at])
            labels.append(piece.left)
        else:
            offsets += rhombus[at]
            labels += piece.left
            labels.append(piece.mid or "-")
    return zip(offsets, "".join(labels).encode())


def ascii_render(pz: Puzzle) -> str:
    """
    One text row per board row: the zigzag of / and \\ edge labels, then the
    horizontal edge labels underneath (-- where a piece has no mid edge).
    """
    text = boundary_text(pz.mu, pz.nu)
    for off, byte in placed_bytes(pz.n, pz.rhombi + pz.bottoms):
        text[off] = byte
    return text.decode()


# the shading of a rhombus with no mid edge, by its left / and \\ labels: the
# equivariant piece and the topk one; the forced K pieces (0K, R0) have none
_PIECE_FILL = {"01": "#fbb", "1K": "#bbf"}


def svg_render(text: str) -> str:
    """A simple SVG picture of an ascii_render text: the triangular grid
    with edge labels, shaded equivariant and K pieces."""
    n = len(text.splitlines()) // 2
    s = 60.0
    h = s * 3 ** 0.5 / 2
    lay = _layout(n)

    def ends(kind, a, b):
        # the edge's end points v(a, b), from its key's upper vertex (a, b)
        if kind == "H":
            return (a, b - 1), (a, b)
        return (a, b), (a + 1, b + 1 if kind == "SE" else b)

    def xy(v):
        # v(a, b): row a down from apex, b steps SE of the NW boundary
        a, b = v
        x = (n - a) * s / 2 + b * s
        y = a * h
        return x + 10, y + 10

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{n * s + 20:.0f}" '
             f'height="{n * h + 20:.0f}" font-size="12" text-anchor="middle">']
    for (i, j), (upper, lower, mid) in lay.rhombus.items():   # (i, j) in order
        fill = text[mid] == "-" and _PIECE_FILL.get(text[upper] + text[lower])
        if fill:
            a = i + n - j   # window (i, j): upper vertex row a, columns i - 1 and i
            corners = ((a - 1, i - 1), (a, i), (a + 1, i), (a, i - 1))
            poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in map(xy, corners))
            parts.append(f'<polygon points="{poly}" fill="{fill}" stroke="none"/>')
    for key in sorted(lay.offset):
        lab = text[lay.offset[key]]
        if lab == "-":  # a piece with no mid edge
            continue
        p1, p2 = map(xy, ends(*key))
        parts.append(f'<line x1="{p1[0]:.1f}" y1="{p1[1]:.1f}" '
                     f'x2="{p2[0]:.1f}" y2="{p2[1]:.1f}" stroke="#444"/>')
        mx, my = (p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2
        parts.append(f'<text x="{mx:.1f}" y="{my - 2:.1f}">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
