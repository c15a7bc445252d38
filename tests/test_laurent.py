import random

import pytest
from hypothesis import given, strategies as st

from qfold.laurent import (LaurentPoly, RationalFn, ONE, Q, RF_ONE, RF_ZERO,
                           ZERO, bar, parse_laurent, parse_rational, q_power,
                           qfact, qint, split_bar_parts)
from test_ldl import SETTINGS, laurent

rational = st.builds(RationalFn, laurent, laurent.filter(bool))


def L(s):
    return parse_laurent(s)


def test_addition_and_multiplication():
    assert Q + q_power(-1) == L("q + q^-1")
    assert (ONE - Q ** 2) * (ONE + Q ** 2) == L("1 - q^4")
    assert L("q + q^-1") * L("q + q^-1") == L("q^2 + 2 + q^-2")
    assert (Q - Q) == ZERO
    assert LaurentPoly({2: 1, 0: -1}) + LaurentPoly({0: 1}) == LaurentPoly({2: 1})


def test_ring_axioms_on_random_inputs():
    rng = random.Random(7)

    def rand_poly():
        return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)
                            for _ in range(rng.randint(0, 5))})

    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * ONE == a
        assert a * (b + c) == a * b + a * c


@SETTINGS
@given(laurent, laurent, laurent, st.integers(0, 3), st.integers(-3, 3))
def test_laurent_ring_laws(a, b, c, k, shift):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and -(-a) == a and a - b == -(b - a)
    assert a ** 0 == ONE and a ** k * a * a == a ** (k + 2)
    assert a.shift(shift) == a * q_power(shift)
    assert hash(a * (b + c)) == hash(a * b + a * c)


@SETTINGS
@given(rational, rational, rational)
def test_rational_field_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a and a * RF_ONE == a and a - a == RF_ZERO
    assert hash(a * (b + c)) == hash(a * b + a * c)
    if not b.is_zero():
        assert (a / b) * b == a and b / b == RF_ONE
    # a common factor cancels into the same normal form
    assert RationalFn(a.num * a.den, a.den) == RationalFn(a.num)


def test_bar_examples():
    assert bar(L("q^2 + 3q^-1")) == L("q^-2 + 3q")
    assert bar(L("q + q^-1")) == L("q + q^-1")


def test_bar_is_a_ring_involution():
    rng = random.Random(11)

    def rand_poly():
        return LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 6))})

    for _ in range(10_000):
        a = rand_poly()
        b = rand_poly()
        assert bar(bar(a)) == a
        assert bar(a * b) == bar(a) * bar(b)
        assert bar(a + b) == bar(a) + bar(b)


def test_qint():
    assert qint(2, 1) == L("q + q^-1")
    assert qint(3, 2) == L("q^4 + 1 + q^-4")
    assert qint(1, 3) == ONE
    assert qint(0, 2) == ZERO


def test_qint_defining_identity():
    for d in (1, 2, 3):
        lhs_den = q_power(d) - q_power(-d)
        for n in range(-20, 21):
            assert qint(n, d) * lhs_den == q_power(n * d) - q_power(-n * d)


def test_qfact():
    assert qfact(0, 1) == ONE
    assert qfact(2, 1) == L("q + q^-1")
    assert qfact(2, 1) * qfact(2, 1) == L("(q + q^-1)^2")
    assert qfact(2, 2) == L("q^2 + q^-2")
    assert qfact(3, 1) == qint(1) * qint(2) * qint(3)


def test_split_bar_parts():
    plus, const, minus = split_bar_parts(L("q^2 + 2 + q^-1"))
    assert (plus, const, minus) == (L("q^2"), 2, L("q^-1"))
    assert split_bar_parts(L("1 + q^4")) == (L("q^4"), 1, ZERO)
    assert split_bar_parts(ZERO) == (ZERO, 0, ZERO)


def test_split_bar_parts_reassembles():
    rng = random.Random(3)
    for _ in range(500):
        a = LaurentPoly({rng.randint(-5, 5): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 6))})
        plus, const, minus = split_bar_parts(a)
        assert plus + const + minus == a
        assert plus.is_zero() or plus.min_exp() >= 1
        assert minus.is_zero() or minus.max_exp() <= -1


def test_rational_arithmetic():
    one_minus_q2 = ONE - Q ** 2
    a = RationalFn(1, one_minus_q2)
    assert a == parse_rational("1/(1 - q^2)")
    assert a * RationalFn(ONE - Q ** 4) == RationalFn(ONE + Q ** 2)
    assert a + RationalFn(0) == a
    assert a - a == RationalFn(0)
    assert (a / a) == RationalFn(1)
    with pytest.raises(ZeroDivisionError):
        a / RationalFn(0)


def test_rational_normal_form_uniqueness():
    # same value along two different arithmetic paths
    x = parse_rational("(1 - q^4)/(1 - q^2)")
    y = RationalFn(ONE + Q ** 2)
    assert x == y and str(x) == str(y)
    lhs = parse_rational("1/(1-q^2)") + parse_rational("1/(1+q^2)")
    rhs = parse_rational("2/(1-q^4)")
    assert lhs == rhs and hash(lhs) == hash(rhs)
    rng = random.Random(5)
    for _ in range(200):
        n1 = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        d1 = LaurentPoly({0: rng.randint(1, 3), 2: rng.randint(1, 3)})
        r = RationalFn(n1, d1)
        scale = LaurentPoly({rng.randint(-2, 2): rng.choice([-3, -1, 1, 2])})
        assert RationalFn(n1 * scale, d1 * scale) == r


def test_rational_to_laurent():
    assert parse_rational("(1 - q^4)/(1 - q^2)").to_laurent() == L("1 + q^2")
    assert parse_rational("1/(1 - q^2)").to_laurent() is None
    assert parse_rational("q^3/q").to_laurent() == L("q^2")
    assert RationalFn(L("2q + 2q^-1")).to_laurent() == L("2q + 2q^-1")
    assert parse_rational("(1+q)/2").to_laurent() is None


def test_display_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        a = LaurentPoly({rng.randint(-5, 5): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 6))})
        assert parse_laurent(str(a)) == a
    values = ["q^2 + 2 + q^-2", "1", "0", "-q + 3", "2q^3 - q^-3"]
    for s in values:
        assert str(parse_laurent(s)) == str(L(s))
    r = parse_rational("(1 + q^2)/((1 - q^2)^5(1 + q^2)^2)")
    assert parse_rational(str(r)) == r
