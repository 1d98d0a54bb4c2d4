import builtins
import json
from math import factorial
from operator import add, mul, neg

import pytest
from hypothesis import given, strategies as st

from puzzlecalc import poly
from puzzlecalc.poly import (LIMIT, LPoly, Poly, PolyError, eval_at_one, json_text,
                             lowest_form, render, sum_of_products, y_to_zero)
from puzzlecalc.cli import main
from puzzlecalc.filling import Theory, count_puzzles, structure_constants
from puzzlecalc.words import Word, all_words, inversions


N = 3

coefs = st.integers(-9, 9)
pexps = st.tuples(*[st.integers(0, 3)] * N)
lexps = st.tuples(*[st.integers(-3, 3)] * N)
polys = st.lists(st.tuples(pexps, coefs), max_size=5).map(lambda t: Poly(N, t))
lpolys = st.lists(st.tuples(lexps, coefs), max_size=5).map(lambda t: LPoly(N, t))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = Poly.zero(N)
    one = Poly.const(N, 1)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@given(lpolys, lpolys)
def test_laurent_product_adds_exponents(a, b):
    assert eval_at_one(a * b) == eval_at_one(a) * eval_at_one(b)


def test_negative_exponent_rejected_in_poly():
    with pytest.raises(PolyError):
        Poly(2, [((-1, 0), 1)])


def test_mixed_arithmetic_rejected():
    with pytest.raises(PolyError):
        Poly.const(2, 1) + Poly.const(3, 1)
    with pytest.raises(PolyError):
        Poly.const(2, 1) * LPoly.const(2, 1)


def test_render_examples():
    p = Poly.y(4, 4) - Poly.y(4, 1)
    assert render(p) == "-1*y1 + 1*y4"
    assert render(Poly.zero(2)) == "0"
    assert render(Poly.const(2, -3)) == "-3"
    assert render(LPoly.exp(4, (1, 0, 0, -1), -1)) == "-1*E(1,0,0,-1)"


@given(polys)
def test_json_round_trip(p):
    assert Poly.from_json(N, json.loads(json_text(p))) == p


@given(lpolys)
def test_json_round_trip_laurent(p):
    assert LPoly.from_json(N, json.loads(json_text(p))) == p


def test_eval_at_one():
    p = LPoly.const(2, 1) - LPoly.exp(2, (1, -1))
    assert eval_at_one(p) == 0


def test_y_index_is_in_range():
    for i in (0, 3):
        with pytest.raises(PolyError, match=f"^variable index {i} out of range for n=2$"):
            Poly.y(2, i)


def test_y_to_zero():
    p = Poly.const(2, 5) + Poly.y(2, 1) * 3
    assert y_to_zero(p) == 5


def test_lowest_form_linear():
    # 1 - e^{y1-y4} has lowest form y4 - y1 in degree 1
    p = LPoly.const(4, 1) - LPoly.exp(4, (1, 0, 0, -1))
    assert lowest_form(p, 1) == Poly.y(4, 4) - Poly.y(4, 1)


def test_lowest_form_degree_zero():
    p = LPoly.exp(4, (1, 0, 0, -1), -1)
    assert lowest_form(p, 0) == Poly.const(4, -1)


def test_lowest_form_rejects_low_terms():
    p = LPoly.const(2, 1)
    with pytest.raises(PolyError):
        lowest_form(p, 1)
    with pytest.raises(PolyError, match="degree must be >= 0"):
        lowest_form(p, -1)


@given(lpolys, st.integers(0, 2))
def test_lowest_form_consistency(p, d):
    # whenever defined, the degree-d form evaluates like a Taylor coefficient
    try:
        low = lowest_form(p, d)
    except PolyError:
        return
    if d == 0:
        assert low == Poly.const(N, eval_at_one(p))


# coefficients summing to 0 vanish to order >= 1, and a product of two such
# to order >= 2, so lowest_form succeeds above degree 0 too
balanced = lpolys.map(lambda p: p - LPoly.const(N, eval_at_one(p)))
vanishing = st.one_of(lpolys, balanced, st.builds(mul, balanced, balanced))


@given(vanishing, vanishing, st.integers(0, 2), st.integers(0, 2))
def test_lowest_form_is_multiplicative(p, q, d1, d2):
    try:
        low_p, low_q = lowest_form(p, d1), lowest_form(q, d2)
    except PolyError:
        return
    assert lowest_form(p * q, d1 + d2) == low_p * low_q


# -- lowest_form against ring arithmetic -------------------------------------

def _ref_lowest_form(p, d):
    # the ring-arithmetic form kept as the reference: the degree-m part of
    # p is sum_e c_e (e.y)^m / m!, built from Poly powers of each e.y
    if d < 0:
        raise PolyError("lowest_form degree must be >= 0")
    n = p.n
    one = Poly.const(n, 1)
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    parts = [Poly.zero(n)] * (d + 1)  # parts[m] = sum_e c_e (e.y)^m
    terms = p.terms
    # sixteen terms at a time, so that only their powers are held
    for at in range(0, len(terms), 16):
        block = terms[at:at + 16]
        forms = [Poly(n, [(units[i], a) for i, a in enumerate(e) if a]) for e, _ in block]
        powers = [Poly.const(n, c) for _, c in block]
        for m in range(d + 1):
            parts[m] += sum_of_products([(one, q) for q in powers])
            if m < d:
                powers = [q * form for q, form in zip(powers, forms)]
    for m, part in enumerate(parts[:d]):
        if not part.is_zero():
            e, c = part.terms[0]
            raise PolyError(f"expected vanishing to order {d}, "
                            f"found degree-{m} term {c // factorial(m)}*{e}")
    f = factorial(d)
    return Poly(n, [(e, c // f) for e, c in parts[d].terms])


def _outcome(f, p, d):
    # a value, or the PolyError it raised
    try:
        return f(p, d)
    except PolyError as exc:
        return str(exc)


def test_lowest_form_matches_the_reference_on_every_kt_coefficient():
    # at the degree specialize reads it and one above, where a nonzero
    # lowest form must raise
    nonzero = 0
    for n in range(1, 6):
        for k in range(n + 1):
            for mu in all_words(n, k):
                for nu in all_words(n, k):
                    for lam, c in structure_constants(Theory.KT, mu, nu).items():
                        d = inversions(Word(tuple(map(int, lam)))) + inversions(mu) \
                            - inversions(nu)
                        if d < 0:
                            continue
                        low = _outcome(lowest_form, c, d)
                        assert low == _outcome(_ref_lowest_form, c, d)
                        assert _outcome(lowest_form, c, d + 1) == \
                            _outcome(_ref_lowest_form, c, d + 1)
                        if isinstance(low, Poly) and not low.is_zero():
                            nonzero += 1
                            with pytest.raises(PolyError):
                                lowest_form(c, d + 1)
    assert nonzero


@given(st.one_of(lpolys, vanishing), st.integers(0, 4))
def test_lowest_form_matches_the_reference(p, d):
    assert _outcome(lowest_form, p, d) == _outcome(_ref_lowest_form, p, d)


def test_lowest_form_visits_only_the_support(monkeypatch):
    # (1 - E(e_1 - e_12))^10 vanishes to order 10 with lowest form
    # (y_12 - y_1)^10; the 66 exponents on y_1 and y_12 of degree <= 10
    # are summed, not the 646,646 on all twelve variables
    n = 12
    q = LPoly.const(n, 1) - LPoly.exp(n, (1,) + (0,) * 10 + (-1,))
    p = LPoly.const(n, 1)
    for _ in range(10):
        p = p * q
    sums = []
    monkeypatch.setattr(poly, "sum", lambda xs: sums.append(1) or builtins.sum(xs),
                        raising=False)
    low = lowest_form(p, 10)
    monkeypatch.undo()
    y = Poly.y(n, 12) - Poly.y(n, 1)
    expected = Poly.const(n, 1)
    for _ in range(10):
        expected = expected * y
    assert low == expected
    assert len(sums) < 200


# -- one value, one canonical form -----------------------------------------

def _graded(terms):
    return sorted(terms, key=lambda t: (sum(t[0]), [-e for e in t[0]]))


@pytest.mark.parametrize("cls, operands", [(Poly, polys), (LPoly, lpolys)])
@given(data=st.data())
def test_a_value_has_one_canonical_form(cls, operands, data):
    # the product a * b built three ways: by `*`, by the constructor from
    # the unreduced term list, and as a sum of its monomials in any order
    a, b = data.draw(operands), data.draw(operands)
    raw = [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
           for e1, c1 in a.terms for e2, c2 in b.terms]
    total = cls.zero(N)
    for exp, coef in data.draw(st.permutations(raw)):
        total = total + cls.monomial(N, exp, coef)
    for p in (cls(N, raw), total):
        assert p == a * b
        assert p.terms == (a * b).terms
        assert hash(p) == hash(a * b)
        assert json_text(p) == json_text(a * b)


@given(st.one_of(polys, lpolys), st.one_of(polys, lpolys))
def test_terms_are_in_graded_order(a, b):
    for p in (a, a + a * a, a * a - a) + ((a * b, a - b) if type(a) is type(b) else ()):
        assert list(p.terms) == _graded(p.terms)
        assert len({e for e, _ in p.terms}) == len(p.terms)
        assert all(c != 0 for _, c in p.terms)


@given(st.one_of(polys, lpolys))
def test_cancellation_leaves_the_zero_element(p):
    for z in (p * 0, 0 * p, p - p, p + (-p)):
        assert z.terms == ()
        assert z.is_zero()
        assert z == type(p).zero(N)


@given(polys, polys)
def test_cancelled_products_keep_no_zero_terms(a, b):
    # the cross terms a*b and -b*a cancel inside the product
    p = (a + b) * (a - b)
    assert p.terms == (a * a - b * b).terms
    assert all(c != 0 for _, c in p.terms)


def test_constructor_rejects_wrong_arity():
    with pytest.raises(PolyError):
        LPoly(2, [((1, 0, 0), 1)])


# -- packed keys against the tuple-keyed reference ----------------------------

class _RefSparse:
    """
    The tuple-keyed core the packed keys replaced, kept as the reference:
    a dict from exponent tuple to nonzero coefficient, sorted by
    (total degree, negated exponents) when read.
    """

    def __init__(self, n, terms):
        d = {}
        for exp, coef in terms:
            d[tuple(exp)] = d.get(tuple(exp), 0) + coef
        self.n = n
        self.coeffs = {e: c for e, c in d.items() if c}

    @classmethod
    def _wrap(cls, n, coeffs):
        return cls(n, coeffs.items())

    @property
    def terms(self):
        return tuple(sorted(self.coeffs.items(),
                            key=lambda t: (sum(t[0]), tuple(map(neg, t[0])))))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + sign * c
        return self._wrap(self.n, out)

    def __neg__(self):
        return self._wrap(self.n, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.n, {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._wrap(self.n, out)

    def __eq__(self, other):
        return other.n == self.n and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.name, self.n, self.terms))

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, 0)

    def eval_at_one(self):
        return sum(self.coeffs.values())

    def render(self):
        if not self.coeffs:
            return "0"
        out = []
        for exp, coef in self.terms:
            if not any(exp):
                out.append(str(coef))
            elif self.name == "LPoly":
                out.append(f"{coef}*E({','.join(map(str, exp))})")
            else:
                out.append(f"{coef}*" + "*".join(
                    f"y{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exp) if e))
        return " + ".join(out)


class _RefPoly(_RefSparse):
    name = "Poly"


class _RefLPoly(_RefSparse):
    name = "LPoly"


def _ref_json(p):
    # a value's terms as coeff --json wrote them when it built the document
    # as dicts and passed it to json.dumps
    return json.dumps([{"coef": c, "exp": list(e)} for e, c in p.terms], sort_keys=True)


def _agree(p, ref):
    # every reading of a value matches the reference's
    assert p.terms == ref.terms
    assert json_text(p) == _ref_json(ref)
    assert render(p) == ref.render()
    assert hash(p) == hash(ref)
    assert p.constant_term() == ref.constant_term()
    assert eval_at_one(p) == ref.eval_at_one()


# small exponents, where products collide and cancel, and wide ones, up to
# half the digit range so that one product of two still fits
_HALF = LIMIT // 2
_pexp = st.one_of(st.integers(0, 2), st.integers(0, _HALF))
_lexp = st.one_of(st.integers(-2, 2), st.integers(-_HALF, _HALF))
_term_lists = {
    Poly: st.lists(st.tuples(st.tuples(*[_pexp] * N), coefs), max_size=6),
    LPoly: st.lists(st.tuples(st.tuples(*[_lexp] * N), coefs), max_size=6),
}
_REF = {Poly: _RefPoly, LPoly: _RefLPoly}


@pytest.mark.parametrize("cls", [Poly, LPoly])
@given(data=st.data())
def test_packed_keys_match_the_tuple_keyed_reference(cls, data):
    ta, tb = data.draw(_term_lists[cls]), data.draw(_term_lists[cls])
    m = data.draw(st.integers(-3, 3))
    a, b = cls(N, ta), cls(N, tb)
    ra, rb = _REF[cls](N, ta), _REF[cls](N, tb)
    for p, ref in ((a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                   (a * b, ra * rb), (b * a, ra * rb), (a * m, ra * m), (m * a, ra * m),
                   (sum_of_products([(cls.const(N, 1), a), (cls.const(N, 1), b),
                                     (cls.const(N, m), a)]), ra + rb + ra * m)):
        _agree(p, ref)
    assert (a == b) == (ra == rb)


def test_constructor_rejects_exponents_outside_the_digit_range():
    for cls, e in ((Poly, LIMIT + 1), (LPoly, LIMIT + 1), (LPoly, -LIMIT - 1)):
        with pytest.raises(PolyError):
            cls(2, [((0, e), 1)])
    # the extremes themselves are kept and read back
    assert LPoly(2, [((LIMIT, -LIMIT), 3)]).terms == (((LIMIT, -LIMIT), 3),)
    assert Poly.from_json(2, [{"coef": 1, "exp": [0, LIMIT]}]).terms == (((0, LIMIT), 1),)


@pytest.mark.parametrize("base, exp", [(Poly.y(2, 1), (1, 0)),
                                       (LPoly.exp(2, (1, -1)), (1, -1))])
def test_repeated_squaring_raises_at_the_first_overflowing_product(base, exp):
    # 2^14 fits a digit (LIMIT = 2^15 - 1); the next square would not, and
    # must raise rather than carry into the neighbouring digit
    p = base
    for step in range(1, 15):
        p = p * p
        assert p.terms == ((tuple(e << step for e in exp), 1),)
    with pytest.raises(PolyError):
        p * p


# -- the output encoders against the reference ------------------------------

@pytest.mark.parametrize("p", [
    Poly(2, [((0, LIMIT), 1), ((LIMIT, 0), -2), ((0, 0), 3)]),
    LPoly(3, [((LIMIT, -LIMIT, 0), 5), ((-LIMIT, 0, LIMIT), -1), ((0, 0, 0), -7)]),
    LPoly(2, [((-LIMIT, -LIMIT), 1), ((LIMIT, LIMIT), 1)]),
    Poly(3, [((1, 0, 2), 2**64 + 1), ((0, 0, 0), -(2**70)), ((0, 1, 0), 1)]),
    LPoly(2, [((1, -1), -(2**65)), ((0, 0), 2**64)]),
    Poly(4, [((0, 1, 0, 0), -1), ((1, 0, 0, 0), -3), ((0, 0, 0, 4), -12)]),
    Poly(1, [((3,), 1)]),
    Poly.zero(3), LPoly.zero(2), Poly.const(2, -3), LPoly.const(1, 0),
], ids=lambda p: f"{type(p).__name__}-{len(p.terms)}")
def test_encoders_match_the_reference_on_extreme_values(p):
    assert json_text(p) == _ref_json(p)
    assert render(p) == _REF[type(p)](p.n, p.terms).render()
    assert type(p).from_json(p.n, json.loads(json_text(p))) == p


@pytest.mark.parametrize("theory", list(Theory))
def test_coeff_output_is_the_reference_encoding(theory, capsys):
    # both forms of coeff on every pair up to n = 4, the unreachable ones
    # (an empty expansion) included, against the whole document built from
    # terms and passed to json.dumps, and the reference text
    for n in range(1, 5):
        for k in range(n + 1):
            for mu in all_words(n, k):
                for nu in all_words(n, k):
                    coeffs = structure_constants(theory, mu, nu)
                    doc = {"n": n, "k": k, "mu": str(mu), "nu": str(nu), "theory": theory.value,
                           "coefficients": {lam: json.loads(_ref_json(p))
                                            for lam, p in coeffs.items()},
                           "puzzle_count": count_puzzles(theory, mu, nu)}
                    text = "".join(f"{lam}: {_REF[type(p)](n, p.terms).render()}\n"
                                   for lam, p in sorted(coeffs.items()))
                    argv = ["coeff", "--theory", theory.value, "--mu", str(mu), "--nu", str(nu)]
                    assert main(argv + ["--json"]) == 0
                    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"
                    assert main(argv) == 0
                    assert capsys.readouterr().out == text


# -- the fold's fused sum of products ------------------------------------------

# weights like the branch weights: a few terms with small exponents
_weights = {
    Poly: st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * N), coefs), min_size=1, max_size=2),
    LPoly: st.lists(st.tuples(st.tuples(*[st.integers(-1, 1)] * N), coefs), min_size=1,
                    max_size=2),
}


@pytest.mark.parametrize("cls", [Poly, LPoly])
@given(data=st.data())
def test_sum_of_products_is_the_sum_of_the_products(cls, data):
    pairs = data.draw(st.lists(st.tuples(_weights[cls].map(lambda t: cls(N, t)),
                                         _term_lists[cls].map(lambda t: cls(N, t))),
                               min_size=1, max_size=4))
    # a unit weight, and a pair that cancels another, as the fold meets them
    if data.draw(st.booleans()):
        pairs.append((cls.const(N, 1), pairs[0][1]))
    if data.draw(st.booleans()):
        pairs.append((-pairs[0][0], pairs[0][1]))
    total = cls.zero(N)
    for w, c in pairs:
        total = total + w * c
    got = sum_of_products(pairs)
    assert got == total
    assert got.terms == total.terms
    assert 0 not in got._coeffs.values()


def test_sum_of_products_cancels_to_the_zero_element():
    w, c = LPoly.const(2, 1) - LPoly.exp(2, (1, -1)), LPoly(2, [((0, 3), 2), ((-1, 1), 1)])
    z = sum_of_products([(w, c), (-w, c), (LPoly.exp(2, (1, -1)), c - c)])
    assert z.is_zero() and z._coeffs == {}


@pytest.mark.parametrize("c", [Poly(2, [((1, 0), 3), ((0, 2), -1)]), Poly.y(2, 2), Poly.zero(2)])
def test_sum_of_products_of_a_lone_unit_pair_is_the_child(c):
    assert sum_of_products([(Poly.const(2, 1), c)]) == c
    if not c.is_zero():
        assert sum_of_products([(Poly.const(2, 1), c)]) is c


class _Untouchable(dict):
    # a term dict that may be measured but not read
    def items(self):
        raise AssertionError("a product was started")

    __iter__ = keys = values = items


def test_sum_of_products_checks_the_bound_before_multiplying():
    def value(exp):
        return LPoly._wrap(2, _Untouchable({LPoly.monomial(2, exp)._coeffs.popitem()[0]: 1}),
                           max(map(abs, exp)))

    half = LIMIT // 2 + 1
    ok = (value((1, 0)), value((0, 1)))
    for pairs in ([ok, (value((half, 0)), value((half, 0)))],
                  [(value((0, -half)), value((0, -half))), ok],
                  [(value((0, LIMIT)), value((1, 0)))]):
        with pytest.raises(PolyError):
            sum_of_products(pairs)
    # at the bound itself the sum is formed
    top = LPoly.exp(2, (LIMIT - 1, 0))
    assert sum_of_products([(LPoly.exp(2, (1, 0)), top), (LPoly.const(2, 1), top)]) == \
        LPoly(2, [((LIMIT, 0), 1), ((LIMIT - 1, 0), 1)])


@pytest.mark.parametrize("pairs", [
    [(Poly.const(2, 1), Poly.y(2, 1)), (LPoly.const(2, 1), LPoly.exp(2, (1, 0)))],
    [(Poly.const(2, 1), Poly.y(2, 1)), (Poly.const(2, 1), LPoly.exp(2, (1, 0)))],
    [(Poly.const(2, 1), Poly.y(2, 1)), (Poly.const(3, 1), Poly.y(3, 1))],
    [(Poly.y(2, 1), Poly.y(2, 1)), (Poly.const(2, 1), Poly.y(3, 1))],
    [(Poly.const(2, 1), LPoly.exp(2, (1, 0)))],
    [(Poly.y(2, 1), Poly.y(3, 1))],
], ids=["type", "type-in-pair", "arity", "arity-in-pair", "lone-type", "lone-arity"])
def test_sum_of_products_rejects_mixed_operands(pairs):
    with pytest.raises(PolyError):
        sum_of_products(pairs)
