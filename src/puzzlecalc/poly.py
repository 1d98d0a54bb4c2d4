"""
Exact sparse polynomial arithmetic over the integers.

Two flavours share one representation: Poly is an ordinary polynomial in
y_1..y_n, and LPoly is a Laurent-style exponential sum whose monomial
E(e_1,..,e_n) stands for exp(e_1 y_1 + ... + e_n y_n).  All coefficients are
Python ints.  A value is stored as a dict from exponent tuple to coefficient
with no zero coefficients, so equal values have equal dicts; the canonical
graded order of the terms is built only when something reads it (rendering,
JSON, repr, hash).
"""

from __future__ import annotations

import re
from math import factorial
from operator import add, neg

_set = object.__setattr__


class PolyError(ValueError):
    pass


def _gen_binomial(a: int, m: int) -> int:
    # binomial coefficient C(a, m) for any integer a (negative included)
    num = 1
    for t in range(m):
        num *= a - t
    return num // factorial(m)


def _graded_key(term):
    # total degree first, then the larger exponent vector first
    exp = term[0]
    return (sum(exp), tuple(map(neg, exp)))


class _Sparse:
    """
    Shared machinery for Poly and LPoly.  Immutable by convention.

    The value lives in a dict from exponent tuple to nonzero coefficient;
    the ring operations combine these dicts directly and never sort.
    `terms`, the canonical tuple of (exp, coef) pairs in graded order, is
    built on first use and cached.
    """

    __slots__ = ("n", "_coeffs", "_terms")
    _allow_negative = False

    def __init__(self, n: int, terms=None):
        d = {}
        for exp, coef in (terms or {}).items() if isinstance(terms, dict) else (terms or []):
            exp = tuple(exp)
            if len(exp) != n:
                raise PolyError(f"exponent {exp} has wrong arity for n={n}")
            if not self._allow_negative and any(e < 0 for e in exp):
                raise PolyError(f"negative exponent {exp} in non-Laurent polynomial")
            d[exp] = d.get(exp, 0) + coef
        _set(self, "n", n)
        _set(self, "_coeffs", {e: c for e, c in d.items() if c != 0})
        _set(self, "_terms", None)

    @classmethod
    def _wrap(cls, n: int, coeffs: dict):
        # the ring operations' constructor: coeffs already has arity-n
        # exponents valid for cls and no zero coefficients
        self = object.__new__(cls)
        _set(self, "n", n)
        _set(self, "_coeffs", coeffs)
        _set(self, "_terms", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def terms(self) -> tuple:
        t = self._terms
        if t is None:
            t = tuple(sorted(self._coeffs.items(), key=_graded_key))
            _set(self, "_terms", t)
        return t

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
        for e, c in other._coeffs.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
        return self._wrap(self.n, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self._wrap(self.n, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if other == 0:
                return self._wrap(self.n, {})
            return self._wrap(self.n, {e: c * other for e, c in self._coeffs.items()})
        self._check(other)
        small, big = ((self, other) if len(self._coeffs) <= len(other._coeffs)
                      else (other, self))
        if len(small._coeffs) == 1:
            # a monomial times big: exponents stay distinct, nothing cancels
            (e1, c1), = small._coeffs.items()
            if c1 == 1 and not any(e1):
                return big
            return self._wrap(self.n, {tuple(map(add, e1, e2)): c1 * c2
                                       for e2, c2 in big._coeffs.items()})
        out = {}
        get = out.get
        for e1, c1 in small._coeffs.items():
            for e2, c2 in big._coeffs.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return self._wrap(self.n, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and other.n == self.n
                and other._coeffs == self._coeffs)

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.terms))

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant_term(self) -> int:
        return self._coeffs.get((0,) * self.n, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {list(self.terms)})"

    def __str__(self):
        return render(self)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [{"coef": c, "exp": list(e)} for e, c in self.terms]

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

    def degree_component(self, d: int) -> "Poly":
        return Poly._wrap(self.n, {e: c for e, c in self._coeffs.items() if sum(e) == d})


class LPoly(_Sparse):
    """Integer combination of exponentials E(e) = exp(sum_i e_i y_i)."""

    _allow_negative = True

    @classmethod
    def exp(cls, n: int, exp, coef: int = 1):
        return cls.monomial(n, exp, coef)


def eval_at_one(p: LPoly | Poly) -> int:
    """Specialize every y_i to 0 in an LPoly (so E(e) -> 1), summing coefficients."""
    return sum(p._coeffs.values())


def y_to_zero(p: Poly) -> int:
    """Specialize every y_i to 0, leaving the constant term."""
    return p.constant_term()


def lowest_form(p: LPoly, d: int) -> Poly:
    """
    Lowest-degree behaviour of an exponential sum near y = 0.

    Substitutes exp(y_i) ~ 1 + y_i, expands up to total degree d, and returns
    the degree-d homogeneous component as a Poly.  Raises PolyError if any
    component of degree below d survives, since callers rely on p vanishing
    to order d.
    """
    if d < 0:
        raise PolyError("lowest_form degree must be >= 0")
    n = p.n
    acc = {}
    for exp, coef in p.terms:
        # expand prod_i (1 + z_i)^{exp_i} truncated at total degree d
        partial = {(0,) * n: coef}
        for i, a in enumerate(exp):
            if a == 0:
                continue
            nxt = {}
            for mono, c in partial.items():
                room = d - sum(mono)
                for m in range(room + 1):
                    b = _gen_binomial(a, m)
                    if b == 0:
                        continue
                    e2 = list(mono)
                    e2[i] += m
                    e2 = tuple(e2)
                    nxt[e2] = nxt.get(e2, 0) + c * b
            partial = nxt
        for mono, c in partial.items():
            acc[mono] = acc.get(mono, 0) + c
    low = Poly(n, list(acc.items()))
    for e, c in low.terms:
        if sum(e) < d:
            raise PolyError(
                f"expected vanishing to order {d}, found degree-{sum(e)} term {c}*{e}")
    return low.degree_component(d)


# -- text form -------------------------------------------------------------

def _render_term(exp, coef, laurent: bool) -> str:
    if laurent:
        if all(e == 0 for e in exp):
            return str(coef)
        return f"{coef}*E({','.join(str(e) for e in exp)})"
    if all(e == 0 for e in exp):
        return str(coef)
    factors = []
    for i, e in enumerate(exp):
        if e == 1:
            factors.append(f"y{i + 1}")
        elif e > 1:
            factors.append(f"y{i + 1}^{e}")
    return f"{coef}*" + "*".join(factors)


def render(p: Poly | LPoly) -> str:
    """Canonical text form; terms in graded order, '0' for the zero element."""
    if p.is_zero():
        return "0"
    laurent = isinstance(p, LPoly)
    return " + ".join(_render_term(e, c, laurent) for e, c in p.terms)


_TERM_RE = re.compile(r"^(-?\d+)(?:\*(.+))?$")
_VAR_RE = re.compile(r"^y(\d+)(?:\^(\d+))?$")


def parse(s: str, n: int, laurent: bool = False) -> Poly | LPoly:
    """Inverse of render for the given arity."""
    cls = LPoly if laurent else Poly
    s = s.strip()
    if s == "0":
        return cls.zero(n)
    terms = []
    for chunk in s.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise PolyError(f"cannot parse term {chunk!r}")
        coef = int(m.group(1))
        body = m.group(2)
        if body is None:
            terms.append(((0,) * n, coef))
            continue
        if laurent:
            if not (body.startswith("E(") and body.endswith(")")):
                raise PolyError(f"cannot parse exponential {body!r}")
            exp = tuple(int(x) for x in body[2:-1].split(","))
            if len(exp) != n:
                raise PolyError(f"arity mismatch in {body!r}")
            terms.append((exp, coef))
        else:
            exp = [0] * n
            for factor in body.split("*"):
                vm = _VAR_RE.match(factor)
                if not vm:
                    raise PolyError(f"cannot parse factor {factor!r}")
                i = int(vm.group(1))
                if not 1 <= i <= n:
                    raise PolyError(f"variable y{i} out of range for n={n}")
                exp[i - 1] += int(vm.group(2) or 1)
            terms.append((tuple(exp), coef))
    return cls(n, terms)


def coefficients_to_json(coeffs: dict) -> dict:
    return {lam: p.to_json() for lam, p in coeffs.items()}
