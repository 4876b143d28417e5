from hypothesis import given
from hypothesis import strategies as st

from oracles import max_exponent
from rscells.polynomials import ONE, Q, ZERO, IntPolynomial, LaurentPoly

int_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial)
laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(
    LaurentPoly
)


def test_int_polynomial_basics():
    p = IntPolynomial((1, 1))
    assert p.degree == 1 and p.coeff(0) == 1 and p.coeff(5) == 0
    assert IntPolynomial((0, 0)) == ZERO and not ZERO
    assert ZERO.degree == -1
    assert p.shift(2) == IntPolynomial((0, 0, 1, 1))
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(p) == "1 + q"
    assert str(IntPolynomial((0, 2, 1))) == "2q + q^2"
    assert str(IntPolynomial((-1, 1))) == "-1 + q"
    assert ONE + Q == p


@given(int_polys, int_polys, int_polys)
def test_int_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a * ONE == a and a * ZERO == ZERO


def test_laurent_basics():
    v = LaurentPoly.v_power(1)
    assert v * v == LaurentPoly({2: 1})
    assert (v + v.bar()).bar() == v + v.bar()
    assert str(v.bar() + v) == "v^-1 + v"
    assert str(LaurentPoly.zero()) == "0"
    assert LaurentPoly({0: 1, 2: 0}) == LaurentPoly.one()
    assert (v - v) == LaurentPoly.zero()
    assert v.shifted(-1) == LaurentPoly.one()
    assert max_exponent(v) == 1 and max_exponent(LaurentPoly.zero()) is None


def test_laurent_q_polynomial_round_trip():
    p = IntPolynomial((1, 0, 3))
    lp = LaurentPoly.from_q_polynomial(p, v_shift=-3)
    assert lp == LaurentPoly({-3: 1, 1: 3})
    assert lp.as_q_polynomial(v_shift=-3) == p
    try:
        lp.as_q_polynomial(v_shift=0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a parity failure")


@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()


@given(laurents, laurents)
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
