"""
The degeneration engine: grow a puzzle piece by piece behind a moving path.

Each state is a lattice path across the board.  The next piece always sits
at the kink; away from the single interesting configuration (kink 1 over a
SW 0) the continuation is forced, while the interesting configuration
branches four ways.  Multiplying the branch weights of a complete run gives
that puzzle's contribution to a structure constant, in any of four theories:
ordinary or torus-equivariant cohomology, and ordinary or torus-equivariant
K-theory.  The class of a partly filled puzzle depends on its path alone, so
structure constants are summed once per distinct path state rather than once
per run, and a state's continuations are derived and checked once per walk,
which may serve many boundary pairs and theories.  A graph keeps only the
chain ends, its roots and the states that are not forced, and a chain of
forced pieces is one edge between two of them.  A table's fold over many
pairs goes backward, children first, and holds per chain end the value of
every final word below it, so pairs share states; one pair's expansion, in
any theory, and its puzzle counts are folded forward from its root, one
value per chain end.  Either fold lists a result's words in word order,
which its ring puts them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Iterator, NamedTuple

from .board import (SE_0, SE_1, SE_R, STEP, STEPS, SW_0, SW_1, SW_R, UNCHECKED, W_0, W_1,
                    FillPos, Puzzle, PuzzlePath, RhombusPlacement, TrianglePlacement,
                    boundary_text, bottom_pos, check_path, final_path, final_path_word,
                    initial_path, path_from_key, placed_bytes, rhombus_pos, steps_key,
                    validate_path)
from .intervalrank import DotSet, essential_conditions
from .pinkdots import path_codim, path_to_rank
from .poly import LPoly, Poly, sum_of_products
from .words import Word, inversions


class Theory(str, Enum):
    H = "h"
    HT = "ht"
    K = "k"
    KT = "kt"

    @property
    def k_theory(self) -> bool:
        return self in (Theory.K, Theory.KT)


# forced rhombus continuations, keyed by (kink label, following SW label):
# value is (new upper SW label, new kink label, horizontal mid edge), where
# the single K pieces have no mid edge
BORING = {
    ("1", "1"): ("1", "1", "1"),
    ("0", "0"): ("0", "0", "0"),
    ("0", "1"): ("1", "0", "R"),
    ("1", "R"): ("R", "1", "0"),
    ("R", "0"): ("0", "R", "1"),
    ("0", "R"): ("0", "1", "0"),
    ("R", "1"): ("0", "1", "1"),
    ("K", "0"): ("0", "K", None),
    ("K", "1"): ("R", "0", None),
}

# bottom triangles, keyed by (kink label, bottom label) -> new SW label
TRIANGLE = {
    ("1", "1"): "1",
    ("0", "0"): "0",
    ("R", "1"): "0",
    ("1", "0"): "R",
}

# the kinds of the forced pieces, which weigh 1 in every theory
FORCED = ("triangle", "boring")

# the four continuations of the interesting configuration (kink 1, SW 0), in
# branch order: the new upper SW and kink labels, the horizontal mid edge,
# and the weight in each theory, written (a, b) for a + b·Y, where Y is
# y_j - y_i in cohomology and E(e_i - e_j) in K-theory at window (i, j)
INTERESTING = (
    # kind          new         mid   H       H_T     K        K_T
    ("equivariant", ("0", "1"), None, (0, 0), (0, 1), (0, 0),  (1, -1)),
    ("shift0",      ("R", "0"), "0",  (1, 0), (1, 0), (1, 0),  (0, 1)),
    ("shift1",      ("1", "R"), "1",  (1, 0), (1, 0), (1, 0),  (0, 1)),
    ("topk",        ("1", "K"), None, (0, 0), (0, 0), (-1, 0), (0, -1)),
)

# per (theory, kind), its weight (a, b) as above: forced pieces weigh 1
_WEIGHT = {(t, kind): (1, 0) for t in Theory for kind in FORCED} | {
    (t, kind): cell for kind, _, _, *cells in INTERESTING for t, cell in zip(Theory, cells)}


class InvariantError(RuntimeError):
    """An internal invariant of the degeneration failed: a bug, not bad input."""


@dataclass(frozen=True)
class Branch:
    """
    One continuation of a path state: the kind of piece, where it goes and
    the piece itself.  The engine builds each branch once per (kind,
    position, piece) and shares it (see _PIECES), but a branch
    built anew compares equal to it.
    """
    kind: str                 # "triangle", "boring", or an interesting kind
    pos: FillPos
    piece: RhombusPlacement | TrianglePlacement | None = None
    # the entry this branch adds to a Puzzle: ((i, j), piece) in its rhombi,
    # (c, piece) in its bottoms; built with the branch, so that every puzzle
    # through it shares one entry
    placed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = self.pos
        at = pos.c if self.kind == "triangle" else (pos.i, pos.j)
        object.__setattr__(self, "placed", (at, self.piece))


class _Piece(NamedTuple):
    """One of the 17 pieces: its kind, the key of the steps that replace the
    kink and the step after it, its placement, and its branches by
    position, c or (i, j).  A piece put in _PIECES in place of another
    needs a made of its own: one that _replace copied shares the real
    piece's, so its branches would stay there after the patch's undo."""
    kind: str
    new: bytes
    placement: RhombusPlacement | TrianglePlacement
    made: dict

    def branch(self, pos: FillPos, at) -> Branch:
        made = self.made
        return made.get(at) or made.setdefault(at, Branch(self.kind, pos, self.placement))


def _rhombus(kind, right, upper, lower, mid):
    return _Piece(kind, steps_key((STEP["SW", upper], STEP["SE", lower])),
                  RhombusPlacement(kind, right, (upper, lower), mid), {})


# the puzzle rule: the pieces that fit at the kink, in branch order, keyed by
# the key's two bytes at the kink, key[kink:kink + 2]; the step after the
# kink is W exactly at a bottom site, so the key picks the site kind too.
# A branch is built the first time its piece goes to its position, so at most
# 4n + 13n(n - 1)/2 of them exist for the largest board size n met.
_PIECES = {steps_key((STEP["SE", kink], STEP["W", base])):
           (_Piece("triangle", steps_key((STEP["SW", left],)),
                   TrianglePlacement(kink, base, left), {}),)
           for (kink, base), left in TRIANGLE.items()}
_PIECES |= {steps_key((STEP["SE", kink], STEP["SW", sw])): (_rhombus("boring", (kink, sw), *new),)
            for (kink, sw), new in BORING.items()}
_PIECES[steps_key((STEP["SE", "1"], STEP["SW", "0"]))] = tuple(
    _rhombus(kind, ("1", "0"), *new, mid) for kind, new, mid, *_ in INTERESTING)
# the codes of the four SW steps: a head with these stripped ends in its last SE step
_SW_CODES = bytes(range(SW_0, W_0))


# legal_branches' memo: the branches of a path state, keyed by the path's
# key.  Branches are a function of the path and of _PIECES alone, and a key
# holds n steps that are not W, so keys of different board sizes never
# collide.  A row is a tuple of (branch, child) pairs, which the walks push
# as they are.  Only _walk_start drops it, and then copies _PIECES into
# _rows_from, so that a walk's hit returns what a fresh derivation would
# (for the limit of that, see _walk_start).
_rows: dict[bytes, tuple[tuple[Branch, PuzzlePath], ...]] = {}
_rows_from: dict[bytes, tuple[_Piece, ...]] = {}


def legal_branches(p: PuzzlePath) -> tuple[tuple[Branch, PuzzlePath], ...]:
    """
    The continuations of a valid, non-final path, in deterministic order:
    the forced one, or (interesting case) equivariant, shift0, shift1, topk.
    Each branch carries the piece it places.  A path whose site is
    UNCHECKED must pass check_path, which finds its fill site too, or
    raises ValueError; one that a parent derived (which passed
    _child_is_valid) or a walk validated (_walk_start) carries its site.
    A broken invariant raises InvariantError, and is raised again on the
    next call.  A hit in the memo is returned unchecked (see _walk_start).
    """
    key = p.key
    out = _rows.get(key)
    if out is not None:
        return out
    site = p.site
    if site is UNCHECKED:
        bad, site = check_path(p)
        if bad:
            raise ValueError(f"invalid path: {'; '.join(bad)}")
    out = _rows[key] = _derive_branches(p, site)
    return out


def _walk_start(mu: Word, nu: Word) -> tuple[PuzzlePath | None, list[str]]:
    """
    The initial path of (mu, nu) for a walk, or None when it is invalid,
    and its violations, as validate_path gives them.  Every walk checks it
    here, in one check_path pass, and gives it its fill site, so
    legal_branches does not check it again.  The memo is dropped unless it
    holds the path's row and _PIECES equals _rows_from, which holds the
    piece tuples themselves, so an unpatched entry compares by identity: a
    walk after a patch of _PIECES, or after its undo, derives afresh.  The
    check is made here only, so rows derived while a patch stands by a
    walk started before it (a resumed runs or trace_rows generator), or
    by a direct legal_branches call, outlive its undo; such a caller
    clears _rows after the undo too.
    """
    p = initial_path(mu, nu)
    bad, site = check_path(p)
    if bad:
        return None, bad
    if p.key not in _rows or _PIECES != _rows_from:
        _rows.clear()
        _rows_from.clear()
        _rows_from.update(_PIECES)
    p.site = site
    return p, bad


def _child_is_valid(kink: int, key: bytes, start: int) -> bool:
    """
    Whether a child of a valid path, not final, is valid, given the code of
    its kink (a SE step's code is its label's index in "01RK") and a key
    whose steps from start on are the child's steps after that kink.
    validate_path is the spec, and tests hold the two equal on every
    candidate child with n <= 6.  The child differs from its parent only
    where the piece went, so only rules 5-7 can fail:
    - the end point stays put, and rule 3 can only lose bottom 0s;
    - every piece balances rule 4, and replaces the parent's kink, its only
      K step, by steps with no K off the child's kink (rule 2);
    - the new SW step lies on the boundary only when the parent's kink was
      its only SE step; rule 4 then allows a SW R there only under a new
      kink 0 with no SW R or bottom 0 after it, which rule 6 rejects
      (rule 1).
    Rules 5-7 read the steps after the kink up to the first SW R or bottom
    0 (the ray); after a kink of a valid path the SW steps all come before
    the W steps, so a SW R comes first.  A kink 1 needs nothing after it,
    so the steps are scanned only for the other kinds of kink, and only as
    far as the kink's rules ask.
    """
    if kink == SE_1:
        return True
    ray = key.find(SW_R, start)
    if ray < 0:
        ray = key.find(W_0, start)
    if kink == SE_R:  # rule 5: a 1 before the ray, if any
        end = ray if ray >= 0 else len(key)
        return key.find(SW_1, start, end) >= 0 or key.find(W_1, start, end) >= 0
    # rule 6 (kinks 0 and K): a ray, with no bottom 1 before it; rule 7
    # (kink K): a SW 1 before it too
    return ray >= 0 and key.find(W_1, start, ray) < 0 and (
        kink == SE_0 or key.find(SW_1, start, ray) >= 0)


def _forced(n: int, key: bytes, kink: int, pos: FillPos, piece: _Piece
            ) -> tuple[Branch, bytes, tuple[int, FillPos] | None]:
    """
    The forced piece's branch at the fill site (kink, pos) of the valid
    size-n path with this key, its child's key and the child's site, as
    _derive_branches tells them; a child that breaks the path raises
    InvariantError.  graph places forced chains through it too.
    """
    head = key[:kink]
    child = head + piece.new + key[kink + 2:]
    if pos.kind == "bottom":
        # the steps between the child's kink and the new SW step are all
        # SW, so the child's rhombus sits k - m rows above the bottom
        m = len(head.rstrip(_SW_CODES)) - 1
        c = at = pos.c
        site = None if m < 0 else (m, rhombus_pos(c - 1, c - 1 + kink - m))
        ok = m < 0 or _child_is_valid(key[m], child, m + 1)
    else:
        i, j = at = pos.i, pos.j
        site = (kink + 1, bottom_pos(i) if key[kink + 2] >= W_0 else rhombus_pos(i, j - 1))
        ok = _child_is_valid(piece.new[1], key, kink + 2)
    if not ok:
        shape = "triangle" if pos.kind == "bottom" else "rhombus"
        raise InvariantError(
            f"forced {shape} at {pos} broke the path: {validate_path(path_from_key(n, child))}")
    return piece.made.get(at) or piece.branch(pos, at), child, site


def _derive_branches(p: PuzzlePath, site: tuple[int, FillPos] | None
                     ) -> tuple[tuple[Branch, PuzzlePath], ...]:
    """
    The branches of the valid path p, whose fill site is site: the forced
    one, checked first, or the kept ones of the four interesting
    candidates.  A child's key is p's with the piece in place of the two
    bytes at the kink, and its site follows from p's: a rhombus at the
    kink k leaves the child's kink at k + 1, before step k + 2 of p; a
    triangle leaves it at the last SE step before k, or makes the child
    final.  Each candidate child is checked by _child_is_valid, which
    reads the steps after the child's kink; a rhombus leaves them as they
    are in p.  A forced child is placed by _forced, and a PuzzlePath is
    built only for a kept child.
    """
    if site is None:
        return ()
    kink, pos = site
    n, key = p.n, p.key
    pieces = _PIECES.get(key[kink:kink + 2])
    if pieces is None:
        shape = "bottom triangle" if pos.kind == "bottom" else "rhombus"
        labels = STEPS[key[kink]].label, STEPS[key[kink + 1]].label
        raise InvariantError(f"unfillable {shape} {labels} at {pos}")
    if len(pieces) == 1:
        br, child, child_site = _forced(n, key, kink, pos, pieces[0])
        return ((br, path_from_key(n, child, child_site)),)
    head, tail = key[:kink], key[kink + 2:]
    i, j = at = pos.i, pos.j
    child_site = (kink + 1, bottom_pos(i) if key[kink + 2] >= W_0 else rhombus_pos(i, j - 1))
    ok = [_child_is_valid(piece.new[1], key, kink + 2) for piece in pieces]
    equivariant, shift0, shift1, topk = ok
    if not equivariant:
        q = path_from_key(n, head + pieces[0].new + tail)
        raise InvariantError(
            f"equivariant continuation at {pos} broke the path: {validate_path(q)}")
    if not (shift0 or shift1):
        raise InvariantError(f"no shift continuation at {pos}")
    if topk != (shift0 and shift1):
        raise InvariantError(f"topk legality out of step with the shifts at {pos}")
    return tuple((piece.branch(pos, at), path_from_key(n, head + piece.new + tail, child_site))
                 for keep, piece in zip(ok, pieces) if keep)


def branch_weight(theory: Theory, branch: Branch, n: int):
    """
    Weight of one branch in the theory (a Theory or its name) on the size-n
    board: its kind's cell of _WEIGHT at the branch's window (i, j), as
    _weight builds it.
    """
    theory = Theory(theory)
    return _weight(theory.k_theory, _WEIGHT[theory, branch.kind], branch.pos.i, branch.pos.j, n)


@cache
def _weight(k_theory: bool, cell: tuple[int, int], i: int, j: int, n: int):
    """The weight a + b·Y of the cell (a, b) at window (i, j) of the size-n
    board, an LPoly in K-theory and a Poly in cohomology: a pure function of
    its arguments, so each is built once and shared (values are immutable)."""
    a, b = cell
    ring = LPoly if k_theory else Poly
    if not b:
        return ring.const(n, a)
    y = (LPoly.exp(n, [(k == i) - (k == j) for k in range(1, n + 1)]) if k_theory
         else Poly.y(n, j) - Poly.y(n, i))
    return ring.const(n, a) + y * b


def graph(pairs, prune=frozenset()) -> tuple[dict, list]:
    """
    The union of the state graphs of the boundary pairs, one entry per
    chain end: each initial path, interesting state and final state
    reachable from a pair's initial path through branches whose kind is
    not in prune, keyed by the path's key and mapped to (path, edges),
    children before parents; and per pair, the key of its initial path, or
    None when the pair is unreachable.  An edge is (branch, the forced
    branches after it, the key of the chain end they reach), one per kept
    branch, so an edge starts with a forced branch only at an initial path.
    An initial path is no state's child.  A key holds n steps that are not
    W, so boards of different sizes share no key.

    One walk serves every pair.  A chain end's branches come from
    legal_branches, so each is derived once and kept in its memo; a forced
    state gets no entry and no path: its step is read off its memo row
    when there is one, and placed by _forced otherwise, which checks it as
    legal_branches would.  A forced state met again is walked again.
    reachable_from walks the states one by one.
    """
    out: dict[bytes, tuple[PuzzlePath, tuple]] = {}
    roots: list[bytes | None] = []
    for mu, nu in pairs:
        p, _ = _walk_start(mu, nu)
        roots.append(None if p is None else p.key)
        # a chain end to walk from, or a (key, entry) whose ends are in out
        stack: list = [] if p is None else [p]
        while stack:
            path = stack.pop()
            if type(path) is tuple:
                out[path[0]] = path[1]
            elif path.key not in out:
                edges, ends = [], []
                for br, q in legal_branches(path):
                    if br.kind not in prune:
                        forced, end, end_path = _chain(q, out)
                        edges.append((br, forced, end))
                        if end not in out:
                            ends.append(end_path)
                stack.append((path.key, (path, tuple(edges))))
                stack += ends
    return out, roots


def _chain(q: PuzzlePath, out: dict) -> tuple[tuple, bytes, PuzzlePath | None]:
    """graph's chain from the child q of a chain end: the forced branches
    from q on, the chain end they reach, and its path unless out has it."""
    n, key, site, path = q.n, q.key, q.site, q
    forced = []
    while key not in out:
        row = _rows.get(key)
        if row is not None:
            if len(row) != 1:
                break
            br, path = row[0]
            child, child_site = path.key, path.site
        else:
            if site is None:
                break
            kink, pos = site
            pieces = _PIECES.get(key[kink:kink + 2])
            if pieces is None or len(pieces) != 1:
                break  # legal_branches derives it, or raises as it would
            br, child, child_site = _forced(n, key, kink, pos, pieces[0])
            path = None
        forced.append(br)
        key, site = child, child_site
    if path is None and key not in out:
        path = path_from_key(n, key, site)
    return tuple(forced), key, path


def reachable_from(pairs) -> dict:
    """
    Every state reachable from the boundary pairs' initial paths, forced
    ones included, keyed by the path's key and mapped to (path,
    legal_branches(path)), children before parents.  One depth-first walk
    serves every pair, and each state is derived once, whichever pairs
    reach it; an unreachable pair adds nothing.
    """
    out: dict[bytes, tuple[PuzzlePath, tuple]] = {}
    for mu, nu in pairs:
        p, _ = _walk_start(mu, nu)
        # a state to walk from, or a (key, entry) whose children are in out
        stack: list = [] if p is None else [p]
        while stack:
            path = stack.pop()
            if type(path) is tuple:
                out[path[0]] = path[1]
            elif path.key not in out:
                branches = legal_branches(path)
                stack.append((path.key, (path, branches)))
                stack += [q for _, q in branches if q.key not in out]
    return out


def _ring(theory: Theory, n: int) -> tuple:
    """
    What the theory's folds on the size-n board compute in: (the ring's 1,
    the weight of a branch, the sum of the products of a list of (weight,
    value) pairs, the nonzero coefficients of a dict of values by word, in
    word order, the interesting kinds whose cell is (0, 0), which the folds
    skip).  It is the walks' and folds' one reader of _WEIGHT, read as each
    starts, and the coefficients are the one place a fold's words are put
    in order.  Where every weight is an integer (H and K), values are
    signed puzzle counts, summed in ints and made constants by the
    coefficients; otherwise (H_T and K_T) they are Poly or LPoly values
    built by _weight from the cells.
    """
    k_theory = theory.k_theory
    const = (LPoly if k_theory else Poly).const
    cells = {kind: cell for (t, kind), cell in _WEIGHT.items() if t is theory}
    skip = frozenset(kind for kind, *_ in INTERESTING if cells[kind] == (0, 0))
    if not any(b for _, b in cells.values()):
        return (1, lambda br: cells[br.kind][0], _int_sum_of_products,
                lambda value: {lam: const(n, c) for lam, c in sorted(value.items()) if c}, skip)
    return (const(n, 1), lambda br: _weight(k_theory, cells[br.kind], br.pos.i, br.pos.j, n),
            sum_of_products,
            lambda value: {lam: c for lam, c in sorted(value.items()) if not c.is_zero()}, skip)


def _int_sum_of_products(pairs) -> int:
    return sum(w * c for w, c in pairs)


def _fold(ring: tuple, states: dict, roots: list) -> list[dict]:
    """
    Per root of a table, the nonzero coefficients of its value in the ring
    (see _ring): a fold over the chain ends of graph's states, children
    before parents, in which a state's value maps each final word below it
    to its coefficient.  A final state's value maps its word to the ring's
    1, and any other state's sums, word by word, the (weight, end
    coefficient) pairs of its edges whose kind is not skipped; a chain's
    forced pieces weigh 1 and are not multiplied in.  An end's value is
    dropped once its last parent has read it; a root is no state's child,
    so its value is read after the loop.  A state that only a skipped
    branch reaches is folded too, and no root reads its value.
    """
    one, weight, add, coefficients, skip = ring
    # per chain end, the parent that reads its value last: states come
    # children before parents, so that is the last one met
    last = {end: key for key, (_, edges) in states.items()
            for br, _, end in edges if br.kind not in skip}
    value: dict[bytes, dict[str, object]] = {}
    for key, (path, edges) in states.items():
        if not edges:
            value[key] = {str(final_path_word(path)): one}
        else:
            parts: dict[str, list] = {}
            for br, _, end in edges:
                if br.kind not in skip:
                    w = weight(br)
                    for lam, c in value[end].items():
                        parts.setdefault(lam, []).append((w, c))
            value[key] = {lam: add(ps) for lam, ps in parts.items()}
        # dropped after every edge has read: two edges of one state could end
        # at one state (none do for n <= 8)
        for _, _, end in edges:
            if last.get(end) is key:
                value.pop(end, None)
    return [{} if key is None else coefficients(value[key]) for key in roots]


def _fold_forward(ring: tuple, states: dict, root: bytes | None) -> dict:
    """
    The nonzero coefficients of the value of one pair's root in the ring
    (see _ring), where states is the root's graph pruned of the ring's
    skipped kinds, graph([(mu, nu)], skip).  The fold goes
    forward: the root's value is the ring's 1, and a state's value is the
    sum of the (weight, parent value) pairs its parents pushed to it.
    Chain ends come parents first in reversed(states).  Each pushes its
    value along each edge to the edge's end, with the weight of the edge's
    branch, and then holds none of it; a final state's value is its word's
    coefficient.  So each edge multiplies its weight into one value, where
    _fold multiplies it into the value of every word below the end.
    """
    if root is None:
        return {}
    one, weight, add, coefficients, _ = ring
    pushed: dict[bytes, list] = {root: [(one, one)]}
    words: dict[str, object] = {}
    for key, (path, edges) in reversed(states.items()):
        parts = pushed.pop(key)
        value = parts[0][1] if len(parts) == 1 and parts[0][0] is one else add(parts)
        if not edges:
            words[str(final_path_word(path))] = value
            continue
        for br, _, end in edges:
            into = pushed.get(end)
            if into is None:
                pushed[end] = [(weight(br), value)]
            else:
                into.append((weight(br), value))
    return coefficients(words)


# the ring of puzzle counts: a final state is one run, and a branch weighs 1
_COUNTS = (1, lambda br: 1, _int_sum_of_products, lambda value: dict(sorted(value.items())),
           frozenset())


def table(theories, pairs) -> list[tuple[dict, ...]]:
    """
    Per boundary pair of the iterable pairs, its structure_constants in
    each of the theories (one or more, each a Theory or its name), in
    order.  One walk serves every pair and theory: it leaves out only the
    kinds that weigh zero in every theory, and each theory's fold skips
    the rest of its ring's zero kinds, folding each distinct state once.
    The folds go backward (_fold), so that pairs share states; each dict
    is the pair's structure_constants item for item, word order included.
    Every pair must be of one board size, since each fold computes in that
    size's ring.
    """
    theories = [Theory(t) for t in theories]
    if not theories:
        raise ValueError("table takes one or more theories, got none")
    pairs = list(pairs)  # read twice: for the sizes, then by graph
    sizes = sorted({mu.n for mu, _ in pairs})
    if len(sizes) > 1:
        raise ValueError(f"table takes pairs of one board size, got n = {sizes}")
    n = max(sizes, default=0)  # no pairs: no roots, so no fold reads n
    rings = [_ring(t, n) for t in theories]
    states, roots = graph(pairs, frozenset.intersection(*(ring[4] for ring in rings)))
    return list(zip(*(_fold(ring, states, roots) for ring in rings)))


def structure_constants(theory: Theory, mu: Word, nu: Word) -> dict:
    """
    All nonzero coefficients of the product expansion for the pair (mu, nu),
    keyed by the boundary word read off each final path, in word order: the
    table of the one pair, as a dict.  An unreachable boundary pair yields
    the empty dict.  The pair's graph is folded forward from its root
    (_fold_forward), one value per state.
    """
    ring = _ring(Theory(theory), mu.n)
    states, (root,) = graph([(mu, nu)], ring[4])  # pruned of the kinds the fold skips
    return _fold_forward(ring, states, root)


def runs(mu: Word, nu: Word, prune=frozenset()):
    """
    Every run of the boundary pair (mu, nu), as a preorder walk of its tree
    with branches in order: for each node, ((via, path), branches), where
    via is the branch taken to arrive (None at the root) and branches is
    legal_branches(path), called exactly once per node.  The stack holds
    the (branch, child) pairs of those tuples themselves, and no depth.
    Only children whose kind is not in prune are visited, so a node whose
    branches are all pruned is not a leaf.  An unreachable pair yields
    nothing.
    """
    p, _ = _walk_start(mu, nu)
    return iter(()) if p is None else _runs_from(p, prune)


def _runs_from(p: PuzzlePath, prune):
    """runs' walk from the initial path p, which _walk_start gave."""
    stack: list[tuple[Branch | None, PuzzlePath]] = [(None, p)]
    while stack:
        node = stack.pop()
        branches = legal_branches(node[1])
        yield node, branches
        if len(branches) == 1:
            if branches[0][0].kind not in prune:
                stack.append(branches[0])
        elif branches:
            stack.extend([pair for pair in reversed(branches) if pair[0].kind not in prune])


def enumerate_puzzles(mu: Word, nu: Word, theory: Theory | None = None) -> list[Puzzle]:
    """
    Every completed puzzle for (mu, nu), pruned to branches of nonzero
    weight when a theory is given.  Each node writes its branch's entry
    into one dict, keyed by its position, (i, j) or c, and made with its
    keys in the order of the Puzzle's tuples: a run writes every position,
    so at a leaf the dict's values are that run's pieces, in order.
    """
    n = mu.n
    prune = _ring(Theory(theory), n)[4] if theory is not None else frozenset()
    out = []
    grid = dict.fromkeys([(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
    rhombi = len(grid)
    grid.update(dict.fromkeys(range(1, n + 1)))
    words: dict[bytes, Word] = {}   # final word per final state
    for (via, path), branches in runs(mu, nu, prune):
        if via is not None:
            grid[via.placed[0]] = via.placed
        if branches:
            continue
        word = words.get(path.key)
        if word is None:
            word = words[path.key] = final_path_word(path)
        entries = tuple(grid.values())
        out.append(Puzzle(n, word, mu, nu, entries[:rhombi], entries[rhombi:]))
    return out


def ascii_puzzles(mu: Word, nu: Word, lam: Word | None = None) -> tuple[dict, Iterator[str]]:
    """
    The number of puzzles of (mu, nu) per final word, in word order ({}
    for an unreachable pair), folded forward over the chain ends of the
    pair's unpruned graph, and a lazy stream of the ascii_render texts of
    its puzzles whose final word is lam (every one when lam is None), in
    enumerate_puzzles' order.  Both read that one graph, built here with
    the counts, so every state is derived and checked, and each chain end
    left in legal_branches' memo, before the first board is read.
    Memory is that graph, the stream's edges and one board (see _boards).
    A lam of another length or number of 1s than mu raises ValueError
    first, as initial_path does for mu and nu.
    """
    if lam is not None and lam.n != mu.n:
        raise ValueError("lambda's length differs from the words'")
    if lam is not None and lam.k != mu.k:
        raise ValueError("lambda has a different number of 1s from the words")
    states, (root,) = graph([(mu, nu)])
    return _fold_forward(_COUNTS, states, root), _boards(mu, nu, states, root, lam)


def _boards(mu: Word, nu: Word, states: dict, root: bytes | None, lam: Word | None):
    """
    The board texts of ascii_puzzles, from one text written by a preorder
    walk over the chain ends of the pair's graph (states, root).  An edge
    is written as the (offset, byte) writes of all its pieces, built once
    per edge, with its end's key; the walk starts as if by an edge of no
    pieces into the root.  A run writes every position, so at a final
    state the text is that run's board.  With lam, one pass over the
    states, children before parents, marks those that reach lam's final
    state, and only edges that end at one are kept.
    """
    if root is None:
        return
    n = mu.n
    reach = None
    if lam is not None:
        reach = {final_path(lam).key}
        for key, (_, edges) in states.items():
            if any(end in reach for _, _, end in edges):
                reach.add(key)
        if root not in reach:
            return
    text = boundary_text(mu, nu)
    # per chain end, its edges' writes in reverse branch order, as the stack takes them
    writes_of: dict[bytes, list] = {}
    stack = [((), root)]
    while stack:
        writes, key = stack.pop()
        for off, byte in writes:
            text[off] = byte
        out = writes_of.get(key)
        if out is None:
            out = writes_of[key] = [
                (list(placed_bytes(n, [br.placed, *[f.placed for f in forced]])), end)
                for br, forced, end in reversed(states[key][1])
                if reach is None or end in reach]
        if out:
            stack += out
        else:  # a final state: with lam, only lam's is reached
            yield text.decode()


def puzzle_degree_balance(pz: Puzzle) -> tuple[int, int]:
    """
    Both sides of the degree bookkeeping identity
    |nu| + #equivariant = |lam| + |mu| + #topk.
    """
    lhs = inversions(pz.nu) + pz.count("equivariant")
    rhs = inversions(pz.lam) + inversions(pz.mu) + pz.count("topk")
    return lhs, rhs


# -- degeneration traces ---------------------------------------------------

@dataclass
class TraceNode:
    path: PuzzlePath
    pos: FillPos
    via: Branch | None          # branch taken to arrive here (None at root)
    dots: DotSet
    essential: list[tuple[int, int, int]]   # essential_conditions(dots)
    codim: int
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def branch(self) -> str | None:
        """The kind of the branch taken to arrive here (None at root)."""
        return self.via.kind if self.via is not None else None


def trace_rows(mu: Word, nu: Word):
    """
    The degeneration tree of (mu, nu) in preorder, as (depth, TraceNode)
    with no children linked, annotated geometrically.  An unreachable pair
    raises ValueError before the first row; a reached state that cannot be
    annotated raises InvariantError.
    """
    p, bad = _walk_start(mu, nu)
    if p is None:
        raise ValueError(f"no runs for this boundary pair: {bad}")
    # per open node on the way down, its children not yet met: a node's
    # depth is the number of open nodes above it
    pending: list[int] = []
    for (via, path), branches in _runs_from(p, frozenset()):
        depth = len(pending)
        if pending:
            pending[-1] -= 1
        pos = branches[0][0].pos if branches else FillPos("done")
        # path is valid here, so a failure to annotate it is a bug
        try:
            d, r = path_to_rank(path)
            node = TraceNode(path, pos, via, d, essential_conditions(d, r), path_codim(path))
        except ValueError as exc:
            steps = " ".join(s.dir + s.label for s in path.steps)
            raise InvariantError(f"cannot annotate the state {steps}: {exc}") from exc
        yield depth, node
        if branches:
            pending.append(len(branches))
        while pending and not pending[-1]:
            pending.pop()


def trace(mu: Word, nu: Word) -> TraceNode:
    """The full degeneration tree for (mu, nu): trace_rows, linked."""
    # spine[d] is the last node met at depth d: the parent of the next row
    spine: list[TraceNode] = []
    for depth, node in trace_rows(mu, nu):
        del spine[depth:]
        if spine:
            spine[-1].children.append(node)
        spine.append(node)
    return spine[0]
