"""
Pink rays and dots: reading an interval rank matrix off a lattice path.

Rays shoot out of certain path edges; pairing a SW-pointing ray of NE/SW
coordinate i with a NW-pointing ray of NW/SE coordinate j marks a dot on
the horizontal edge (i, j), and likewise NE with SE rays on the right of
the path.  The resulting DotSet determines the interval rank matrix of the
stratum the path tracks through the degeneration.
"""

from __future__ import annotations

from .board import (SE_0, SE_1, SE_K, SE_R, STEPS, SW_0, SW_1, SW_R, W_0, W_1, PuzzlePath,
                    validate_path)
from .intervalrank import DotSet, IntervalRankMatrix, rank_from_dots


def path_dots(p: PuzzlePath) -> DotSet:
    """
    The dots of a valid path, valid_path_dots(p) once p has passed
    validate_path.  Raises ValueError on an invalid path, or when the rays
    do not pair up.
    """
    bad = validate_path(p)
    if bad:
        raise ValueError(f"invalid path: {bad}")
    return valid_path_dots(p)


def valid_path_dots(p: PuzzlePath) -> DotSet:
    """
    The dots of a path that the caller has validated: one pass over its
    steps places the rays, then they are paired.  Raises ValueError when
    the rays do not pair up.

    Rays, left of the path: every SE 0 sends a ray SW (coordinate i); every
    SW R and bottom 0 sends a ray NW (coordinate j); a kink R or K
    additionally sends a SW ray and puts a NW ray on the first SW 1 (or
    bottom 1) after it.  Right of the path: every SW 0 sends a ray SE; a
    kink 1 with a SW 0 above it sends a ray NE; off-path bottom edges just
    right of the path supply the remaining NE rays.

    Pairing, the unique non-crossing one: the kink's ray is resolved first.
    A kink 0 or R pairs with the first NW ray strictly below it along the
    path; a kink K skips that ray and takes the second; a kink 1 pairs its
    NE ray with the SE ray of the nearest SW 0 above it.  Everything
    remaining is paired off by sorting both sides of each left/right family
    by their coordinate.

    Each family's coordinates are listed in path order, so the rays after
    the kink, or above it, are a slice of their list.
    """
    n = p.n
    sw, nw, se = [], [], []  # ray coordinates in path order
    a = b = 0
    west = 0  # the largest bottom edge on the path
    # the latest SE step (the kink once the pass ends): its code, its
    # coordinate i, and how many NW and SE rays come before it
    kink = None
    one = None  # the first 1 after it: (how many NW rays come before, its coordinate)
    for code in p.key:
        if code < SW_0:
            a += 1
            b += 1
            if code == SE_0:
                sw.append(b)
            kink, ki, nw_above, se_above, one = code, b, len(nw), len(se), None
        elif code < W_0:
            j = b + n - a
            a += 1
            if code == SW_R:
                nw.append(j)
            elif code == SW_0:
                se.append(j)
            elif code == SW_1 and one is None:
                one = len(nw), j
        else:
            west = max(west, b)
            if code == W_0:
                nw.append(b)
            elif code == W_1 and one is None:
                one = len(nw), b
            b -= 1

    dots = []
    if kink in (SE_0, SE_R, SE_K):
        if kink == SE_0:
            sw.pop()  # the kink's own ray
        elif one is None:
            raise ValueError("kink R/K with no 1 below it")
        else:
            nw.insert(*one)  # the NW ray on the first 1, in path order
        at = nw_above + (kink == SE_K)
        if at >= len(nw):
            raise ValueError(f"kink {STEPS[kink].label} lacks a NW ray partner below")
        dots.append((ki, nw.pop(at)))
    elif kink == SE_1 and se_above:
        dots.append((ki, se.pop(se_above - 1)))

    if len(sw) != len(nw):
        raise ValueError(f"unbalanced rays: {len(sw)} vs {len(nw)} on one side")
    dots += zip(sorted(sw), sorted(nw))
    # the remaining NE rays come off the bottom edges just right of the path
    dots += zip(range(west + 1, west + 1 + len(se)), sorted(se))
    for (i, j) in dots:
        if i > j:
            raise ValueError(f"dot ({i},{j}) below the diagonal")
    return DotSet(n, frozenset(dots))


def path_to_rank(p: PuzzlePath) -> tuple[DotSet, IntervalRankMatrix]:
    d = path_dots(p)
    return d, rank_from_dots(d)


def path_codim(p: PuzzlePath) -> int:
    """
    Codimension of the path's stratum inside its Richardson envelope,
    computed purely from label counts along the path, in one pass; it reads
    no dots, so it checks envelope_codim of path_dots independently.

    Base: pairs of a SW R occurring before a SW 0.  Kink corrections:
      no kink: nothing added;
      kink 1 with a SW 0 above: SW 0s below the kink (the last SW 0 above
        is consumed by the kink's own dot, so its base pairs drop out);
      kink 1 without: nothing added;
      kink 0: SW Rs above the kink;
      kink R: SW Rs above the kink, plus SW 0s after the first 1 below it;
      kink K: as for R, plus one for the crossing at the skipped ray.

    A kink 0 would also count the SW 0s below the first bottom 0 below it,
    but on a valid path there are none: a W step needs a == n, and a SW or
    SE step after it would leave row n for good, so the path could not end
    at v(n, 0).  Only W steps follow a W step.
    """
    base = rs = zs = 0  # the base pairs; the SW Rs and SW 0s so far
    kink = None
    # below the latest SE step: the SW 0s after its first 1, and whether
    # that 1 has come
    late_zeros = 0
    one = False
    for code in p.key:
        if code < SW_0:
            kink, r_above, z_above = code, rs, zs
            late_zeros = 0
            one = False
        elif code == SW_1 or code == W_1:
            one = True
        elif code == SW_R:
            rs += 1
        elif code == SW_0:
            base += rs
            zs += 1
            late_zeros += one
    if kink == SE_1:
        return base + zs - z_above if z_above else base
    if kink == SE_0:
        return base + r_above
    if kink in (SE_R, SE_K):
        return base + r_above + late_zeros + (kink == SE_K)
    return base
