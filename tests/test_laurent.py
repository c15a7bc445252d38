import math
import random

import pytest
from hypothesis import given, strategies as st

import qfold.laurent as qlaurent
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


# -- the gcd behind every normal form ----------------------------------------

def poly(coeffs):
    """A polynomial in Z[q], coefficients ascending from q^0."""
    return LaurentPoly(dict(enumerate(coeffs)))


def as_polynomial(a):
    """a times the power of q that makes its lowest exponent 0."""
    return a.shift(-a.min_exp())


big = st.integers(-2 ** 70, 2 ** 70)
dense = st.lists(st.integers(-9, 9) | big, min_size=1, max_size=8).map(
    poly).filter(bool)
cyclotomic = st.lists(st.integers(1, 4), max_size=3).map(
    lambda ds: math.prod((ONE - q_power(2 * d) for d in ds), start=ONE))
quantum_factorial = st.builds(lambda n, d: as_polynomial(qfact(n, d)),
                              st.integers(0, 5), st.integers(1, 3))
common_factor = (st.just(ONE) | cyclotomic | quantum_factorial
                 | dense | st.builds(lambda x, y: x * y, quantum_factorial, dense))
cofactor = st.builds(lambda a, k, s: a.shift(k) * s, dense,
                     st.integers(0, 3), st.sampled_from([1, -1, 3, -2 ** 65]))


@SETTINGS
@given(st.integers(2, 130), st.data())
def test_packing_is_evaluation_at_a_power_of_two(w, data):
    half = 1 << (w - 1)
    xs = data.draw(st.lists(st.integers(-half, half - 1), max_size=8))
    packed = qlaurent._pack(xs, w)
    assert packed == sum(c << (w * i) for i, c in enumerate(xs))
    assert qlaurent._unpack(packed, w) == qlaurent._strip(xs[:])


@SETTINGS
@given(common_factor, cofactor, cofactor)
def test_gcd_cofactors_equal_the_prs_reference(g, a, b):
    """The heuristic gcd of g*a and g*b, coprime a and b included, is the
    primitive PRS gcd with positive leading coefficient, and its cofactors
    are the exact quotients."""
    x, y = g * a, g * b
    ref = qlaurent._prs_gcd_cofactors(x, y)
    assert qlaurent._gcd_cofactors(x, y) == ref
    assert ref[0] * ref[1] == x and ref[0] * ref[2] == y


@SETTINGS
@given(common_factor, cofactor, cofactor, st.integers(-3, 3))
def test_normal_form_does_not_depend_on_the_heuristic(g, a, b, k):
    """With the heuristic giving up, the PRS fallback gives the same normal
    form."""
    num, den = (g * a).shift(k), g * b
    fast = RationalFn(num, den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlaurent, "_heuristic_gcd_cofactors", lambda A, B: None)
        slow = RationalFn(num, den)
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert fast.num * den == fast.den * num


def test_a_narrow_width_is_refused_by_the_coefficient_bound(monkeypatch):
    """x = (1 - q)...(1 - q^8) has coefficients of at most 2, but its
    cofactor by gcd(x, (1 - q)^8) is the q-factorial [8]! with a coefficient
    of 3836, which 8-bit digits cannot hold.  Started at 8 bits, the
    heuristic must reject that width and the next and accept at 32."""
    x = math.prod((ONE - q_power(i) for i in range(1, 9)), start=ONE)
    y = (ONE - Q) ** 8
    widths = []
    pack = qlaurent._pack

    def recorded(xs, w):
        widths.append(w)
        return pack(xs, w)

    monkeypatch.setattr(qlaurent, "_WIDTH_SLACK", -6)
    monkeypatch.setattr(qlaurent, "_pack", recorded)
    g, cx, cy = qlaurent._gcd_cofactors(x, y)
    assert (g, cx, cy) == qlaurent._prs_gcd_cofactors(x, y)
    assert max(cx.coeffs.values()) == 3836 and cy == ONE
    assert sorted(set(widths)) == [8, 16, 32]


def test_gcd_cofactors_of_known_pairs():
    one_minus = poly([1, 0, -1])                 # 1 - q^2
    assert qlaurent._gcd_cofactors(one_minus * poly([2, 3]), one_minus * Q) == \
        (poly([-1, 0, 1]), poly([-2, -3]), -Q)
    assert qlaurent._gcd_cofactors(Q ** 3, Q ** 2 + Q ** 5) == \
        (Q ** 2, Q, ONE + Q ** 3)
    assert qlaurent._gcd_cofactors(poly([6]), poly([4, 2])) == \
        (ONE, poly([6]), poly([4, 2]))
    assert qlaurent._gcd_cofactors(ZERO, poly([2, -4])) == \
        (poly([-1, 2]), ZERO, LaurentPoly(-2))


def test_polynomial_helpers_refuse_negative_exponents():
    for call in (lambda: qlaurent._dense(q_power(-1)),
                 lambda: qlaurent._poly_gcd(q_power(-1), ONE),
                 lambda: qlaurent._gcd_cofactors(Q, q_power(-2) + ONE)):
        with pytest.raises(ValueError, match="negative exponents"):
            call()
