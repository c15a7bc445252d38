import functools
import math
import random

import pytest
from hypothesis import given, strategies as st

import qfold.laurent as qlaurent
from qfold.laurent import (LaurentPoly, RationalFn, ONE, Q, RF_ZERO, ZERO,
                           parse_laurent, parse_rational, q_power, qfact, qint)
from qfold.transition import _common_denominator
from test_ldl import (SETTINGS, coefficients, fraction_sum, laurent, long_division,
                      prs_gcd_cofactors, prs_lcm)


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
@given(st.dictionaries(st.integers(-5, 5), st.integers(-3, 3)))
def test_zero_coefficients_leave_no_trace(coeffs):
    # the constructor keeps its input's nonzero coefficients and nothing else,
    # so equality, hashing and printing never see a zero
    nonzero = {e: c for e, c in coeffs.items() if c}
    a, b = LaurentPoly(coeffs), LaurentPoly(nonzero)
    assert a.coeffs == nonzero and a == b
    assert hash(a) == hash(b) and str(a) == str(b)
    assert LaurentPoly(0).coeffs == {} and str(LaurentPoly(0)) == "0"


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


def test_rational_arithmetic():
    a = RationalFn(1, ONE - Q ** 2)
    assert a == parse_rational("1/(1 - q^2)")
    assert RationalFn(ONE - Q ** 4, ONE - Q ** 2) == RationalFn(ONE + Q ** 2)
    assert RationalFn(0, ONE - Q ** 2) == RF_ZERO and not RF_ZERO and a
    assert RationalFn(1, ONE + Q ** 2) != RationalFn(1, ONE + Q ** 4)
    assert a != RationalFn(-1, ONE - Q ** 2)
    # a value type: equal only to another fraction, and never combined
    assert a != ONE - Q ** 2 and RationalFn(2) != 2
    with pytest.raises(TypeError):
        a + a
    with pytest.raises(ZeroDivisionError):
        RationalFn(1, 0)


def test_rational_normal_form_uniqueness():
    # same value along two different arithmetic paths
    x = parse_rational("(1 - q^4)/(1 - q^2)")
    y = RationalFn(ONE + Q ** 2)
    assert x == y and str(x) == str(y)
    lhs = fraction_sum([(parse_rational("1/(1-q^2)"),),
                        (parse_rational("1/(1+q^2)"),)])
    rhs = parse_rational("2/(1-q^4)")
    assert lhs == rhs and hash(lhs) == hash(rhs)
    rng = random.Random(5)
    for _ in range(200):
        n1 = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        d1 = LaurentPoly({0: rng.randint(1, 3), 2: rng.randint(1, 3)})
        r = RationalFn(n1, d1)
        scale = LaurentPoly({rng.randint(-2, 2): rng.choice([-3, -1, 1, 2])})
        assert RationalFn(n1 * scale, d1 * scale) == r


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
    assert parse_laurent("2*q^2") == parse_laurent("2q^2") == q_power(2) * 2


@pytest.mark.parametrize("text, fault", [
    ("q^x", "bad character"),
    ("(1+q", "unbalanced parenthesis"),
    ("(1+q)^-1", "negative power of a non-monomial"),
    ("", "unexpected end"),
    ("q)", "trailing input"),
    ("2 q^", "expected integer exponent"),
    ("^2", "unexpected token"),
])
def test_parse_refuses_malformed_input(text, fault):
    with pytest.raises(ValueError, match=fault):
        parse_laurent(text)


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
    packed = qlaurent._pack(enumerate(xs), w)
    assert packed == sum(c << (w * i) for i, c in enumerate(xs))
    assert qlaurent._unpack(packed, w) == qlaurent._strip(xs[:])


@SETTINGS
@given(st.integers(2, 130), st.data())
def test_lowest_digit_is_the_first_nonzero_digit(w, data):
    """On balanced digits, as `_unpack` reads them, and on unsigned slots
    with the same zeros, as `gram` packs its counts."""
    half = 1 << (w - 1)
    xs = data.draw(st.lists(st.integers(-half, half - 1), max_size=8).filter(any))
    v = qlaurent._pack(enumerate(xs), w)
    first = next(k for k, c in enumerate(qlaurent._unpack(v, w)) if c)
    assert qlaurent._lowest_digit(v, w) == first
    unsigned = qlaurent._pack(enumerate(c % (1 << w) for c in xs), w)
    assert qlaurent._lowest_digit(unsigned, w) == first


@SETTINGS
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6), min_size=1,
                max_size=4))
def test_product_norms_bound_the_expanded_product(factors):
    """The bounds that `Factored`, `ldl`'s rows and its S entries share, on
    the largest coefficient and the sum of absolute coefficients, hold for
    the expanded product."""
    product = math.prod((qlaurent._laurent(f, 0, 1) for f in factors), start=ONE)
    bound = functools.reduce(qlaurent._product_norms, map(qlaurent._norms, factors))
    norms = qlaurent._norms(product.coeffs.values())
    assert bound[0] >= norms[0] and bound[1] >= norms[1]


@SETTINGS
@given(common_factor, cofactor, cofactor)
def test_gcd_cofactors_equal_the_prs_reference(g, a, b):
    """The heuristic gcd of g*a and g*b, coprime a and b included, is the
    primitive PRS gcd with positive leading coefficient, and its cofactors
    are the exact quotients."""
    x, y = g * a, g * b
    ref = prs_gcd_cofactors(x, y)
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
        mp.setattr(qlaurent, "_heuristic_gcd_cofactors", lambda A, B, r: None)
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
    assert (g, cx, cy) == prs_gcd_cofactors(x, y)
    assert max(cx.coeffs.values()) == 3836 and cy == ONE
    assert sorted(set(widths)) == [8, 16, 32]


# factors of a shared denominator: contents > 1, negative leading
# coefficients, negative lowest powers and constants
factor = (st.builds(lambda a, k, s: a.shift(k) * s, dense, st.integers(-3, 3),
                    st.sampled_from([1, -1, 3, -6]))
          | cyclotomic.filter(lambda f: f != ONE) | quantum_factorial
          | st.sampled_from([ONE, LaurentPoly(-4), LaurentPoly(6), q_power(-2) * -2]))


@st.composite
def fractions_over_factors(draw):
    """Factors and a numerator over their product: a multiple of some of
    them (so the gcd is not trivial), a monomial, zero, or anything."""
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    kind = draw(st.sampled_from(("shared", "monomial", "zero", "other")))
    if kind == "shared":
        shared = draw(st.lists(st.sampled_from(factors), max_size=3))
        num = math.prod(shared, start=draw(cofactor).shift(draw(st.integers(-3, 3))))
    elif kind == "monomial":
        num = q_power(draw(st.integers(-4, 4))) * draw(st.sampled_from([1, -2, 9]))
    elif kind == "zero":
        num = ZERO
    else:
        num = draw(dense).shift(draw(st.integers(-3, 3)))
    return num, factors


def _over_factors(num, factors):
    """num over the factors kept apart, the first two grouped as a
    `Factored` of their own, as gram_block groups delta's."""
    head = qlaurent.Factored(*factors[:2])
    return RationalFn(num, qlaurent.Factored(head, *factors[2:]))


@SETTINGS
@given(fractions_over_factors())
def test_a_factored_denominator_gives_the_normal_form_of_its_product(fraction):
    num, factors = fraction
    product = math.prod(factors, start=ONE)
    expected = RationalFn(num, product)
    got = _over_factors(num, factors)
    assert (got.num, got.den) == (expected.num, expected.den)
    split = qlaurent.Factored(*factors)
    low, content, step, primitive = qlaurent._split(product)
    assert qlaurent._laurent(split.dense(), split.low, split.content,
                             split.step) == product
    assert (split.low, abs(split.content)) == (low, content)
    # the parts' common step may be finer than the product's, never coarser
    assert step % split.step == 0 if split.step else step == 0
    assert (split.length - 1) * split.step == (len(primitive) - 1) * step
    assert split.bound >= qlaurent._norms(primitive)[0]
    # with the heuristic giving up, the PRS gcd runs on the expanded product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlaurent, "_heuristic_gcd_cofactors", lambda A, B, r: None)
        slow = _over_factors(num, factors)
    assert (slow.num, slow.den) == (expected.num, expected.den)


# -- polynomials in q^s -------------------------------------------------------

STEPS = (1, 2, 3, 4, 6)


def in_step(xs, s, k=0):
    """q^k * xs(q^s) for a dense list xs."""
    return LaurentPoly({k + s * i: c for i, c in enumerate(xs)})


def normal_form_by_prs(num, den):
    """(num, den) of num / den reduced in q by the PRS gcd and long division:
    coprime, with coprime integer contents and den's leading coefficient
    positive, which is the normal form of `RationalFn`."""
    if not num:
        return ZERO, ONE
    lo = min(num.min_exp(), den.min_exp())
    n, d = coefficients(num.shift(-lo)), coefficients(den.shift(-lo))
    g = qlaurent._poly_gcd(n, d)
    n, d = qlaurent._poly_div_exact(n, g), qlaurent._poly_div_exact(d, g)
    c = math.gcd(*n, *d) * (1 if d[-1] > 0 else -1)
    return poly([v // c for v in n]), poly([v // c for v in d])


@st.composite
def stepped(draw, steps=st.sampled_from(STEPS), low=st.integers(0, 3)):
    """q^k * f(q^s) for a random f of up to 3 terms: a monomial when f has
    one."""
    xs = draw(st.lists(st.integers(-5, 5) | big, min_size=1, max_size=3)
              .filter(lambda xs: xs[0] and xs[-1]))
    return in_step(xs, draw(steps), draw(low))


@st.composite
def stepped_fractions(draw):
    """Factors of different steps, some of the form 1 - q^s, and a
    numerator over their product: a multiple of some of them times a
    polynomial whose step is finer than, equal to or coarser than the
    factors' common step, one of the form 1 - q^(t * step) over factors
    1 - q^step, a monomial, or zero."""
    factor = stepped(low=st.integers(-3, 3)) | st.builds(
        lambda s: ONE - q_power(s), st.sampled_from(STEPS))
    factors = draw(st.lists(factor, min_size=1, max_size=3))
    step = math.gcd(*(qlaurent._split(f)[2] for f in factors))
    kind = draw(st.sampled_from(("finer", "same", "coarser", "monomial", "zero")))
    if kind == "monomial":
        num = q_power(draw(st.integers(-4, 4))) * draw(st.sampled_from([1, -2, 9]))
    elif kind == "zero":
        num = ZERO
    else:
        s = {"finer": 1, "same": step or 1}.get(kind, draw(st.sampled_from((2, 3)))
                                              * (step or 1))
        num = draw(stepped(steps=st.just(s), low=st.integers(-3, 3)))
        if kind == "coarser":
            num = num * (ONE - q_power(s))
        else:
            num = math.prod(draw(st.lists(st.sampled_from(factors), max_size=2)),
                            start=num)
    return num, factors


@SETTINGS
@given(stepped_fractions(), stepped(), stepped(), stepped(), st.data())
def test_polynomials_in_q_to_a_step_match_the_prs_and_long_division(
        fraction, g, a, b, data):
    """On polynomials in q^s for s in STEPS, of steps that differ or agree,
    the normal form over a `Factored` denominator (with the heuristic gcd
    and with its PRS fallback), `_gcd_cofactors` and `_common_denominator`
    equal the PRS gcd and long division in q."""
    num, factors = fraction
    expected = normal_form_by_prs(num, math.prod(factors, start=ONE))
    got = _over_factors(num, factors)
    assert (got.num, got.den) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlaurent, "_heuristic_gcd_cofactors", lambda A, B, r: None)
        slow = _over_factors(num, factors)
    assert (slow.num, slow.den) == expected

    x, y = g * a, g * b
    assert qlaurent._gcd_cofactors(x, y) == prs_gcd_cofactors(x, y)

    # the lcm of some divisors and its cofactor over each of them
    divisors = [as_polynomial(d) for d in (b, g * b, x, data.draw(stepped()))]
    C, cofactor = _common_denominator(divisors)
    assert C == prs_lcm(dict.fromkeys(divisors))
    assert cofactor == {d: long_division(C, d) for d in divisors}


def test_a_factored_denominator_refuses_a_zero_factor():
    with pytest.raises(ZeroDivisionError):
        RationalFn(ONE, qlaurent.Factored(Q, ZERO))
    with pytest.raises(ZeroDivisionError):
        RationalFn(ONE, ZERO)


def test_gcd_cofactors_of_known_pairs():
    one_minus = poly([1, 0, -1])                 # 1 - q^2
    assert qlaurent._gcd_cofactors(one_minus * poly([2, 3]), one_minus * Q) == \
        (poly([-1, 0, 1]), poly([-2, -3]), -Q)
    assert qlaurent._gcd_cofactors(Q ** 3, Q ** 2 + Q ** 5) == \
        (Q ** 2, Q, ONE + Q ** 3)
    assert qlaurent._gcd_cofactors(poly([6]), poly([4, 2])) == \
        (ONE, poly([6]), poly([4, 2]))


def test_polynomial_helpers_refuse_negative_exponents():
    with pytest.raises(ValueError, match="negative exponents"):
        qlaurent._gcd_cofactors(Q, q_power(-2) + ONE)
