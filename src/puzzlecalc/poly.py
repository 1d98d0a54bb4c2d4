"""
Exact sparse polynomial arithmetic over the integers.

Two flavours share one representation: Poly is an ordinary polynomial in
y_1..y_n, and LPoly is a Laurent-style exponential sum whose monomial
E(e_1,..,e_n) stands for exp(e_1 y_1 + ... + e_n y_n).  All coefficients are
Python ints.  A value is stored as a dict from packed monomial key (one int
per exponent vector, see _Layout) to coefficient with no zero coefficients,
so equal values have equal dicts; the canonical graded order of the terms is
the keys' integer order, sorted only when something reads the terms
(`terms`, `render`, `json_text`), and decoded afresh for each read.
"""

from __future__ import annotations

import struct
from functools import cache

_set = object.__setattr__

# each exponent takes one 16-bit digit of a key, so |e_i| <= LIMIT
_WIDTH = 16
_OFF = 1 << (_WIDTH - 1)
LIMIT = _OFF - 1


class PolyError(ValueError):
    pass


class _Layout:
    """
    The packed keys of arity n.  The monomial with exponents e is the int

        sum(e) * 2^(16n) + sum_i (_OFF - e_i) * 2^(16(n - i)),

    the total degree above one 16-bit digit per variable, e_1 in the most
    significant one.  Every digit lies in [1, 2^16) while |e_i| <= LIMIT,
    so integer order is graded order (lower total degree first, then the
    larger exponent vector first), and the key of a product of monomials is
    k1 + k2 - offset, where offset is the key of the constant monomial.
    """

    __slots__ = ("shift", "offset", "twice", "mask", "nbytes", "struct")

    def __init__(self, n: int):
        self.shift = _WIDTH * n
        self.offset = sum(_OFF << (_WIDTH * i) for i in range(n))
        self.twice = 2 * self.offset
        self.mask = (1 << self.shift) - 1
        self.nbytes = 2 * n
        self.struct = struct.Struct(f">{n}h")

    def key(self, exp: tuple) -> int:
        # the 16-bit two's complements of e, XORed with offset, are the
        # digits _OFF + e_i; twice minus them is _OFF - e_i
        v = int.from_bytes(self.struct.pack(*exp), "big") ^ self.offset
        return (sum(exp) << self.shift) + self.twice - v


# one layout per arity, built on first use
_layout = cache(_Layout)


class _Sparse:
    """
    Shared machinery for Poly and LPoly.  Immutable by convention.

    The value lives in a dict from packed key to nonzero coefficient; the
    ring operations combine these dicts directly and never sort.  `terms`
    is the canonical tuple of (exp, coef) pairs in graded order.  _bound
    bounds every |e_i| of the value: `*` adds the operands' bounds and
    raises PolyError before any digit could leave its range.
    """

    __slots__ = ("n", "_coeffs", "_bound")
    _allow_negative = False

    def __init__(self, n: int, terms=()):
        lay = _layout(n)
        d = {}
        bound = 0
        for exp, coef in terms:
            exp = tuple(exp)
            if len(exp) != n:
                raise PolyError(f"exponent {exp} has wrong arity for n={n}")
            if not self._allow_negative and any(e < 0 for e in exp):
                raise PolyError(f"negative exponent {exp} in non-Laurent polynomial")
            b = max(map(abs, exp), default=0)
            if b > LIMIT:
                raise PolyError(f"exponent {exp} outside [-{LIMIT}, {LIMIT}]")
            bound = max(bound, b)
            key = lay.key(exp)
            d[key] = d.get(key, 0) + coef
        _set(self, "n", n)
        _set(self, "_coeffs", {k: c for k, c in d.items() if c != 0})
        _set(self, "_bound", bound)

    @classmethod
    def _wrap(cls, n: int, coeffs: dict, bound: int):
        # the ring operations' constructor: coeffs already has arity-n keys
        # valid for cls, no zero coefficients and exponents within bound
        self = object.__new__(cls)
        _set(self, "n", n)
        _set(self, "_coeffs", coeffs)
        _set(self, "_bound", bound)
        return self

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def _items(self):
        # (key, exp, coef) per term in graded order, decoded afresh: the
        # inverse of _Layout.key, one C-level unpack per key
        lay = _layout(self.n)
        twice, mask, off, nbytes, unpack = (lay.twice, lay.mask, lay.offset, lay.nbytes,
                                            lay.struct.unpack)
        keys = sorted(self._coeffs)
        return zip(keys, [unpack(((twice - (k & mask)) ^ off).to_bytes(nbytes, "big"))
                          for k in keys], map(self._coeffs.__getitem__, keys))

    @property
    def terms(self) -> tuple:
        return tuple((e, c) for _, e, c in self._items())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int):
        return cls(n, [])

    @classmethod
    def const(cls, n: int, c: int):
        return cls(n, [((0,) * n, c)])

    @classmethod
    def monomial(cls, n: int, exp, coef: int = 1):
        return cls(n, [(tuple(exp), coef)])

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if type(other) is not type(self) or other.n != self.n:
            raise PolyError(f"mixed arithmetic: {self!r} vs {other!r}")

    def _plus(self, other, sign: int):
        self._check(other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            c = out.get(k, 0) + sign * c
            if c:
                out[k] = c
            else:
                del out[k]
        return self._wrap(self.n, out, max(self._bound, other._bound))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self._wrap(self.n, {k: -c for k, c in self._coeffs.items()}, self._bound)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if other == 0:
                return self._wrap(self.n, {}, 0)
            return self._wrap(self.n, {k: c * other for k, c in self._coeffs.items()},
                              self._bound)
        self._check(other)
        bound = self._bound + other._bound
        if bound > LIMIT:
            raise PolyError(f"a product's exponents could leave [-{LIMIT}, {LIMIT}]")
        small, big = ((self, other) if len(self._coeffs) <= len(other._coeffs)
                      else (other, self))
        off = _layout(self.n).offset
        if len(small._coeffs) == 1 and small._coeffs.get(off) == 1:
            return big
        return self._wrap(self.n, _accumulate(((small, big),), off), bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and other.n == self.n
                and other._coeffs == self._coeffs)

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.terms))

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant_term(self) -> int:
        return self._coeffs.get(_layout(self.n).offset, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {list(self.terms)})"

    def __str__(self):
        return render(self)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, n: int, data):
        return cls(n, [(tuple(t["exp"]), t["coef"]) for t in data])


class Poly(_Sparse):
    """Polynomial in y_1..y_n with integer coefficients."""

    _allow_negative = False

    @classmethod
    def y(cls, n: int, i: int):
        """The variable y_i (1-indexed)."""
        if not 1 <= i <= n:
            raise PolyError(f"variable index {i} out of range for n={n}")
        return cls.monomial(n, tuple(1 if j == i - 1 else 0 for j in range(n)))


class LPoly(_Sparse):
    """Integer combination of exponentials E(e) = exp(sum_i e_i y_i)."""

    _allow_negative = True

    @classmethod
    def exp(cls, n: int, exp, coef: int = 1):
        return cls.monomial(n, exp, coef)


def sum_of_products(pairs):
    """
    sum(w * c for w, c in pairs), for a nonempty list of pairs of values of
    one type and arity whose w have few terms, built as one dict from a copy
    of the largest c.  A lone pair is its product: a lone (1, c) is c.
    """
    if len(pairs) == 1:
        w, c = pairs[0]
        return w * c
    first = pairs[0][0]
    bound = 0
    for w, c in pairs:
        first._check(w)
        first._check(c)
        bound = max(bound, w._bound + c._bound)
    if bound > LIMIT:
        raise PolyError(f"a product's exponents could leave [-{LIMIT}, {LIMIT}]")
    pairs = sorted(pairs, key=lambda pair: -len(pair[1]._coeffs))
    return first._wrap(first.n, _accumulate(pairs, _layout(first.n).offset), bound)


def _accumulate(pairs, off: int) -> dict:
    # the coefficients of sum(w * c for w, c in pairs), checked by the
    # caller: the first term of the first w starts the dict (a copy of c, or
    # its shifted copy), and every later term adds its shifted copy of its c
    # in place, so no product is built
    out = {}
    for w, c in pairs:
        cs = c._coeffs
        for k1, c1 in w._coeffs.items():
            k1 -= off
            if not out:
                out = dict(cs) if c1 == 1 and not k1 else \
                    {k1 + k2: c1 * c2 for k2, c2 in cs.items()}
                get = out.get
            elif c1 == 1 and not k1:
                for k, c2 in cs.items():
                    out[k] = get(k, 0) + c2
            else:
                for k2, c2 in cs.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return out


def eval_at_one(p: LPoly | Poly) -> int:
    """Specialize every y_i to 0 in an LPoly (so E(e) -> 1), summing coefficients."""
    return sum(p._coeffs.values())


def y_to_zero(p: Poly) -> int:
    """Specialize every y_i to 0, leaving the constant term."""
    return p.constant_term()


def lowest_form(p: LPoly, d: int) -> Poly:
    """
    Lowest-degree behaviour of an exponential sum near y = 0.

    E(e) = exp(e.y), so the coefficient of y^a in the degree-|a| part of p
    is the moment sum_e c_e e^a / a!.  Returns the degree-d part as a Poly.
    Raises PolyError if a part of degree below d is nonzero, since callers
    rely on p vanishing to order d.  Substituting exp(y_i) ~ 1 + y_i instead
    is a change of coordinates tangent to the identity, so it gives the same
    order and lowest form.  One depth-first pass meets each a with |a| <= d
    once, a child raising one exponent at an index no lower than its
    parent's, and an a whose terms c_e e^a are all zero is not descended.
    """
    if d < 0:
        raise PolyError("lowest_form degree must be >= 0")
    n, terms = p.n, p.terms
    cols = [[e[i] for e, _ in terms] for i in range(n)]
    low, out = None, []  # low: (m, a, sum) of the first nonzero term below degree d
    # (a, |a|, a!, first index a child may raise, [c_e e^a per term])
    stack = [((0,) * n, 0, 1, 0, [c for _, c in terms])]
    while stack:
        a, m, fact, first, vals = stack.pop()
        s = sum(vals)
        if m == d:
            if s:
                out.append((a, s // fact))
            continue
        # graded order: lowest degree first, then the largest exponents
        if s and (low is None or (m, low[1]) < (low[0], a)):
            low = (m, a, s // fact)
        for i in range(first, n):
            child = [v * e for v, e in zip(vals, cols[i])]
            if any(child):
                ai = a[i] + 1
                stack.append((a[:i] + (ai,) + a[i + 1:], m + 1, fact * ai, i, child))
    if low is not None:
        m, a, c = low
        raise PolyError(f"expected vanishing to order {d}, found degree-{m} term {c}*{a}")
    return Poly(n, out)


# -- text form -------------------------------------------------------------

def render(p: Poly | LPoly) -> str:
    """Canonical text form; terms in graded order, '0' for the zero element."""
    if p.is_zero():
        return "0"
    off = _layout(p.n).offset
    if isinstance(p, LPoly):
        tmpl = "%d*E(" + ",".join(["%d"] * p.n) + ")"
        return " + ".join([str(c) if k == off else tmpl % (c, *e) for k, e, c in p._items()])
    return " + ".join([str(c) if k == off else f"{c}*" + "*".join(
        f"y{i}" if e == 1 else f"y{i}^{e}" for i, e in enumerate(exp, 1) if e)
        for k, exp, c in p._items()])


def json_text(p: Poly | LPoly) -> str:
    """
    json.dumps of p's terms as [{"coef": c, "exp": [e_1, ..]}, ..] with
    sorted keys, formatted straight from the packed keys.
    """
    tmpl = '{"coef": %d, "exp": [' + ", ".join(["%d"] * p.n) + "]}"
    return "[" + ", ".join([tmpl % (c, *e) for _, e, c in p._items()]) + "]"

