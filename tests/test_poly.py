import pytest
from hypothesis import given, strategies as st

from puzzlecalc.poly import (LPoly, Poly, PolyError, eval_at_one, lowest_form,
                             parse, render, y_to_zero)


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
def test_render_parse_round_trip(p):
    assert parse(render(p), N) == p


@given(lpolys)
def test_render_parse_round_trip_laurent(p):
    assert parse(render(p), N, laurent=True) == p


@given(polys)
def test_json_round_trip(p):
    assert Poly.from_json(N, p.to_json()) == p


@given(lpolys)
def test_json_round_trip_laurent(p):
    assert LPoly.from_json(N, p.to_json()) == p


def test_eval_at_one():
    p = LPoly.const(2, 1) - LPoly.exp(2, (1, -1))
    assert eval_at_one(p) == 0


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


@given(lpolys, st.integers(0, 2))
def test_lowest_form_consistency(p, d):
    # whenever defined, the degree-d form evaluates like a Taylor coefficient
    try:
        low = lowest_form(p, d)
    except PolyError:
        return
    if d == 0:
        assert low == Poly.const(N, eval_at_one(p))


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
        assert p.to_json() == (a * b).to_json()


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
