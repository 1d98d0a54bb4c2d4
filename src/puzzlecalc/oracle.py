"""
Independent cross-checks for the degeneration engine.

The centrepiece is a classical Littlewood-Richardson counter: structure
constants in ordinary cohomology must equal the number of column-strict
skew tableaux with lattice reading word.  It shares no code with the
puzzle engine, so agreement is meaningful.  verify_suite bundles this with
the geometric and combinatorial invariant sweeps used by the test suite
and the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import filling, intervalrank as ir, pinkdots
from .board import final_path, final_path_word, initial_path, is_valid
from .poly import LPoly, Poly, eval_at_one, lowest_form, y_to_zero
from .words import Word, all_words, inversions, word_to_partition


def lr_count(outer, inner, content) -> int:
    """
    Number of Littlewood-Richardson tableaux of shape outer/inner with the
    given content: rows weakly increase, columns strictly increase, and the
    right-to-left, top-to-bottom reading word is a lattice word.
    """
    outer = list(outer)
    inner = list(inner) + [0] * (len(outer) - len(inner))
    if len(inner) > len(outer) or any(i > o for i, o in zip(inner, outer)):
        return 0
    if sum(outer) - sum(inner) != sum(content):
        return 0
    if not outer:
        return 1
    # grid[r][c] for inner[r] <= c < outer[r]
    grid = [[0] * o for o in outer]
    return _fill(outer, inner, grid, list(content), 0, outer[0] - 1, [0] * len(content))


def _fill(outer, inner, grid, remaining, r, c, counts_prefix) -> int:
    """lr_count's recursion: the tableaux that complete grid from cell (r, c)
    on.  Rows are filled right to left, so the lattice condition can be
    checked in reading order as each cell is placed.  A module-level
    function, so that a call leaves no closure cycle for the collector."""
    if r == len(outer):
        return 1
    if c < inner[r]:  # row finished, start at the right end of the next
        nxt = outer[r + 1] - 1 if r + 1 < len(outer) else -1
        return _fill(outer, inner, grid, remaining, r + 1, nxt, counts_prefix)
    lo = 1
    if r > 0 and inner[r - 1] <= c:
        lo = max(lo, grid[r - 1][c] + 1)  # strict increase down columns
    hi = len(remaining)
    if c + 1 < outer[r]:
        hi = min(hi, grid[r][c + 1])  # weak increase along the row
    total = 0
    for v in range(hi, lo - 1, -1):
        if remaining[v - 1] == 0:
            continue
        if v > 1 and counts_prefix[v - 1] >= counts_prefix[v - 2]:
            continue  # lattice: never more v's than (v-1)'s so far
        grid[r][c] = v
        remaining[v - 1] -= 1
        counts_prefix[v - 1] += 1
        total += _fill(outer, inner, grid, remaining, r, c - 1, counts_prefix)
        counts_prefix[v - 1] -= 1
        remaining[v - 1] += 1
        grid[r][c] = 0
    return total


def lr_oracle(lam: Word, mu: Word, nu: Word) -> int:
    """The classical count matching the triangle-only puzzle count."""
    if not (lam.n == mu.n == nu.n and lam.k == mu.k == nu.k):
        raise ValueError("words must share n and k")
    if inversions(lam) + inversions(mu) != inversions(nu):
        return 0
    return lr_count(word_to_partition(nu), word_to_partition(lam),
                    word_to_partition(mu))


# -- invariant sweeps ------------------------------------------------------

@dataclass
class Report:
    results: list[tuple[str, bool, str]] = field(default_factory=list)
    # (suite, wall seconds) per suite run; text output only, so that the
    # JSON form stays a function of the checks alone
    times: list[tuple[str, float]] = field(default_factory=list)

    def record(self, suite: str, ok: bool, detail: str = ""):
        self.results.append((suite, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def to_json(self):
        return {"ok": self.ok,
                "suites": [{"suite": s, "ok": ok, "detail": d}
                           for s, ok, d in self.results]}

    def __str__(self):
        lines = [f"{'PASS' if ok else 'FAIL'} {s}" + (f": {d}" if d else "")
                 for s, ok, d in self.results]
        lines += [f"time {s}: {secs:.2f}s" for s, secs in self.times]
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines)


def _pairs_by_k(max_n):
    """Per (n, k) up to max_n, every pair of words (mu, nu), mu first."""
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            ws = all_words(n, k)
            yield n, k, [(mu, nu) for mu in ws for nu in ws]


def _graphs(max_n):
    """Per (n, k), every state reachable from any pair, state by state
    (filling.reachable_from), and the pink dots of each, computed once per
    state.

    The dots come from pinkdots.path_dots, which checks each path against
    the spec again although the engine derived and checked it: the suites
    check the engine, so they do not take its word that a state is valid.
    pinkdots.valid_path_dots would skip that check."""
    for n, k, pairs in _pairs_by_k(max_n):
        states = filling.reachable_from(pairs)
        yield n, k, states, {key: pinkdots.path_dots(path) for key, (path, _) in states.items()}


def _where(n, k, path) -> str:
    return f"n={n} k={k} " + " ".join(s.dir + s.label for s in path.steps)


def _suite_pinkdots(max_n: int) -> list[str]:
    bad = []
    for n, k, states, dots in _graphs(max_n):
        for key, (path, branches) in states.items():
            d = dots[key]
            if len(d.dots) != n - k:
                bad.append(f"{_where(n, k, path)}: {len(d.dots)} dots, expected {n - k}")
            for br, q in branches:
                if br.kind in filling.FORCED and dots[q.key] != d:
                    bad.append(f"{_where(n, k, path)}: forced step at {br.pos} moved the dots")
    return bad


def _suite_dictionary(max_n: int) -> list[str]:
    bad = []
    for n, k, states, dots in _graphs(max_n):
        for key, (path, branches) in states.items():
            if pinkdots.path_codim(path) != ir.envelope_codim(dots[key]):
                bad.append(f"{_where(n, k, path)}: codim mismatch")
            # rank matrices only for the K child's triple, the one reader
            kinds = {br.kind: dots[q.key] for br, q in branches}
            if "equivariant" not in kinds:
                continue
            dsw = kinds["equivariant"]
            for kind in ("shift0", "shift1"):
                if kind in kinds and dsw not in ir.covers(kinds[kind]):
                    bad.append(f"{_where(n, k, path)}: sweep does not cover the {kind} child")
            if "topk" in kinds:
                # rk is a rank matrix, so equality also shows that the min is one
                r0, r1, rk = (ir.rank_from_dots(kinds[kind])
                              for kind in ("shift0", "shift1", "topk"))
                if ir.irm_min(r0, r1) != rk:
                    bad.append(f"{_where(n, k, path)}: irm_min of shifts is not the K child")
    return bad


def _suite_inversion(max_n: int) -> list[str]:
    """The degree bookkeeping of every puzzle, |nu| + #equivariant = |lam| +
    |mu| + #topk, checked once per chain end of one unpruned graph per (n, k).

    A state's value below is |lam| + #topk - #equivariant over the run's
    pieces from that state down: the final word's inversions at a final
    state, and one value whichever branch a run takes anywhere else.  A
    pair's root must read |nu| - |mu|.  This is exactly the check on every
    puzzle: every state lies on a run from some root, and every non-final
    state has a branch, so a state whose branches disagree gives two puzzles
    of one pair different values.  A forced piece counts 0, and a forced
    state has one branch, so an edge adds its first branch's count alone."""
    bad = []
    for n, k, pairs in _pairs_by_k(max_n):
        states, roots = filling.graph(pairs)
        below = {}
        for key, (path, edges) in states.items():
            if not edges:
                below[key] = inversions(final_path_word(path))
                continue
            values = {below[end] + (br.kind == "topk") - (br.kind == "equivariant")
                      for br, _, end in edges}
            if len(values) > 1:
                bad.append(f"{_where(n, k, path)}: branches give {sorted(values)}")
            below[key] = min(values)
        for (mu, nu), root in zip(pairs, roots):
            want = inversions(nu) - inversions(mu)
            if root is not None and below[root] != want:
                bad.append(f"{mu}/{nu}: {below[root]} below the root, expected {want}")
    return bad


def _suite_hall(max_n: int) -> list[str]:
    bad = []
    for n in range(1, max_n + 1):
        for size in range(n + 1):
            words = all_words(n, n - size)
            for d in ir.all_dotsets(n, size):
                r = ir.rank_from_dots(d)
                for w in words:
                    if ir.fixed_point_in(d, w, r) != ir.matching_exists(d, w):
                        bad.append(f"n={n} {d} {w}")
    return bad


def _suite_essential(max_n: int) -> list[str]:
    """The essential rank bounds imply every window rank bound, for every
    k x n matrix over every field.

    A bound b on [a, c] caps a window W = [i, j] at b + |W - [a, c]|, as
    rank W <= rank(W & [a, c]) + |W - [a, c]|; no window's rank exceeds
    min(k, |W|) either.  The least of these caps must be at most r(i, j)
    on every window.  The bounds are those of essential_conditions, the
    ones trace prints; it drops only bounds that min(k, |W|) already gives."""
    bad = []
    for n in range(1, max_n + 1):
        for size in range(n + 1):
            k = n - size
            for d in ir.all_dotsets(n, size):
                r = ir.rank_from_dots(d)
                conds = ir.essential_conditions(d, r)
                for i, j, bound in r.entries():
                    width = j - i + 1
                    derived = min([k, width] + [
                        b + width - max(0, min(j, c) - max(i, a) + 1)
                        for a, c, b in conds])
                    if derived > bound:
                        bad.append(f"n={n} {d} window [{i},{j}]")
                        break
    return bad


def _suite_specialize(max_n: int) -> list[str]:
    bad = []
    theories = (filling.Theory.KT, filling.Theory.K, filling.Theory.HT, filling.Theory.H)
    for n, _, pairs in _pairs_by_k(max_n):
        kzero, hzero = LPoly.zero(n), Poly.zero(n)
        for (mu, nu), (kt, k, ht, h) in zip(pairs, filling.table(theories, pairs)):
            # in sorted order, so that the details do not depend on the hash seed
            for lam_s in sorted(set(kt) | set(k) | set(ht) | set(h)):
                lam = Word(tuple(int(c) for c in lam_s))
                ktc = kt.get(lam_s, kzero)
                kc = k.get(lam_s, kzero)
                htc = ht.get(lam_s, hzero)
                hc = h.get(lam_s, hzero)
                if eval_at_one(ktc) != eval_at_one(kc):
                    bad.append(f"{mu}/{nu}/{lam_s}: KT->K")
                d = inversions(lam) + inversions(mu) - inversions(nu)
                if d >= 0:
                    try:
                        low = lowest_form(ktc, d)
                    except ValueError:
                        bad.append(f"{mu}/{nu}/{lam_s}: KT not vanishing to order {d}")
                        continue
                    if low != htc:
                        bad.append(f"{mu}/{nu}/{lam_s}: KT->HT")
                elif htc != hzero:
                    # below-degree terms have no ordinary cohomology limit,
                    # so the equivariant coefficient must simply be absent
                    bad.append(f"{mu}/{nu}/{lam_s}: HT coeff below degree bound")
                if Poly.const(n, y_to_zero(htc)) != hc:
                    bad.append(f"{mu}/{nu}/{lam_s}: HT->H")
    return bad


def _suite_commute(max_n: int) -> list[str]:
    theories = (filling.Theory.H, filling.Theory.HT, filling.Theory.K)
    # lam has mu's n and k, so each (n, k) table is checked as it is built;
    # the mismatches are reported theory by theory
    bad = {t: [] for t in theories}
    for _, _, pairs in _pairs_by_k(max_n):
        for t, column in zip(theories, zip(*filling.table(theories, pairs))):
            table = {(str(mu), str(nu)): coeffs for (mu, nu), coeffs in zip(pairs, column)}
            for (mu_s, nu_s), coeffs in table.items():
                for lam_s, c in coeffs.items():
                    other = table[lam_s, nu_s].get(mu_s)
                    if other != c:
                        bad[t].append(f"{t.value} {lam_s},{mu_s}->{nu_s}: {c} vs {other}")
    return [line for t in theories for line in bad[t]]


def _suite_lr(max_n: int) -> list[str]:
    bad = []
    for n, k, pairs in _pairs_by_k(max_n):
        ws = all_words(n, k)
        for (mu, nu), (h,) in zip(pairs, filling.table((filling.Theory.H,), pairs)):
            for lam in ws:
                want = lr_oracle(lam, mu, nu)
                got = h.get(str(lam), Poly.zero(n)).constant_term()
                if want != got:
                    bad.append(f"{lam}/{mu}/{nu}: puzzle {got} vs LR {want}")
    return bad


def _suite_boundary(max_n: int) -> list[str]:
    bad = []
    for n, k, pairs in _pairs_by_k(max_n):
        for mu, nu in pairs:
            p = initial_path(mu, nu)
            if not is_valid(p):
                continue
            d = pinkdots.valid_path_dots(p)
            env = ir.envelope(d)
            if env != (mu, nu) or ir.envelope_codim(d) != 0:
                bad.append(f"initial {mu}/{nu}: envelope {env[0]}/{env[1]}")
        for lam in all_words(n, k):
            d = pinkdots.path_dots(final_path(lam))
            zeros = [pp for pp in range(1, n + 1) if lam[pp] == 0]
            want = frozenset((t + 1, z) for t, z in enumerate(zeros))
            if d.dots != want:
                bad.append(f"final {lam}: dots {sorted(d.dots)}")
            if any(i != 1 for (i, j, _b) in ir.essential_conditions(d)):
                bad.append(f"final {lam}: non-first-row essential condition")
    return bad


def _suite_covers(max_n: int) -> list[str]:
    """Move-generated covers match brute-force covers of the entrywise order,
    up to n = 4 whatever max_n is: the brute force is cubic in the dot sets
    of a size, so n = 5 would make this suite about ten times slower, and
    n = 6 alone takes about 1.1 s.  tests/test_intervalrank.py checks n = 5."""
    bad = []
    for n in range(1, min(max_n, 4) + 1):
        for size in range(n + 1):
            ds = ir.all_dotsets(n, size)
            ranked = [(d, ir.rank_from_dots(d)) for d in ds]
            for d, r in ranked:
                above = [(e, re) for e, re in ranked if e != d and r.leq(re)]
                # every f in above is already above d
                brute = {e for e, re in above
                         if not any(f != e and rf.leq(re) for f, rf in above)}
                if ir.covers(d) != frozenset(brute):
                    bad.append(f"n={n} {d}")
    return bad


# the suites in the order verify runs them; each takes max_n and returns its
# failure lines, and is called through its module-level name _suite_<name>,
# so that whatever rebinds that name (a test's stand-in, a profiler's
# wrapper) sees the call
_SUITES = ("pinkdots", "dictionary", "inversion", "hall", "essential",
           "specialize", "commute", "lr", "boundary", "covers")


class UnknownSuiteError(ValueError):
    """verify_suite was asked for a suite it does not have."""


def verify_suite(max_n: int, suites=None) -> Report:
    """
    Run the named invariant sweeps (all by default) up to size max_n >= 1,
    timing each.  Every name is checked before any sweep runs, none at all
    is refused, and a name given twice runs once, where it was first given.
    A sweep returns its failure lines; it passes when there are none, and
    fails with its first three as the detail.  A sweep that raises fails,
    with the exception as its detail, and the next one still runs; a
    MemoryError is not a failed sweep, and passes through.
    """
    names = list(_SUITES) if suites is None else list(dict.fromkeys(suites))
    unknown = [name for name in names if name not in _SUITES]
    if unknown or not names:
        raise UnknownSuiteError(f"unknown suite(s): {', '.join(unknown) or 'none given'}; "
                                f"choose from {', '.join(_SUITES)}")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    report = Report()
    for name in names:
        t0 = time.perf_counter()
        try:
            bad = globals()[f"_suite_{name}"](max_n)
        except MemoryError:
            raise
        except Exception as exc:
            bad = [f"raised {type(exc).__name__}: {exc}"]
        report.record(name, not bad, "; ".join(bad[:3]))
        report.times.append((name, time.perf_counter() - t0))
    return report
