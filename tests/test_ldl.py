"""Properties of the symmetric factorization lam = H^t D H, the split
H = PQ, and the products that check them.

H^t D H is built from a random unit lower triangular Laurent H and a
diagonal D of PBW-like reciprocals; the factorization is unique, so ldl
must give back exactly H and D.  Likewise pq_split must give back the
unique factors of a random product PQ, and the common-denominator and
in-place products must equal the naive entrywise sums.  ldl's packed
elimination must also equal the same elimination on coefficient dicts,
`ldl_reference`, at every width it takes, and its packed division must
never accept a quotient that is not exact.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import qfold
import qfold.transition as qtransition
from qfold.gram import pbw_diag
from qfold.laurent import (ONE, ZERO, LaurentPoly, RationalFn, _laurent, _norm, _pack,
                           _poly_div_exact, _unpack, laurent_div_exact, packed_quotient,
                           poly_lcm, q_power)
from qfold.transition import (NotIntegral, SingularPivot, gram_block, ldl,
                              matmul_laurent, pq_split, reconstruct_lam)

SETTINGS = settings(max_examples=60, deadline=None, database=None)

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          max_size=3).map(LaurentPoly)
rational = st.builds(RationalFn, laurent, laurent.filter(bool))
pbw_like = st.lists(st.integers(1, 4), max_size=3).map(
    lambda ks: RationalFn(1, math.prod((ONE - q_power(2 * k) for k in ks), start=ONE)))


positive = st.dictionaries(st.integers(1, 3), st.integers(-3, 3),
                           max_size=3).map(LaurentPoly)
bar_invariant = st.dictionaries(st.integers(0, 3), st.integers(-3, 3),
                                max_size=3).map(
    lambda d: LaurentPoly({s * e: c for e, c in d.items() for s in (1, -1)}))


def unitriangular(draw, n, entries):
    return [[ONE if i == j else draw(entries) if j < i else ZERO
             for j in range(n)] for i in range(n)]


@st.composite
def factors(draw, min_n=1):
    n = draw(st.integers(min_n, 6))
    H = unitriangular(draw, n, laurent)
    D = [draw(pbw_like) for _ in range(n)]
    return H, D


def fraction(x):
    """(numerator, denominator) of a Laurent or Q(q) value."""
    return (x.num, x.den) if isinstance(x, RationalFn) else (x, ONE)


def fraction_sum(terms):
    """The sum of products of Laurent or Q(q) values, one tuple of factors
    per term, by cross-multiplication over the product of every
    denominator: an lcm-free reference for the common-denominator sums."""
    parts = []
    for term in terms:
        nums, dens = zip(*map(fraction, term))
        parts.append((math.prod(nums, start=ONE), math.prod(dens, start=ONE)))
    num = sum((n * math.prod((d for k, (_, d) in enumerate(parts) if k != i), start=ONE)
               for i, (n, _) in enumerate(parts)), ZERO)
    return RationalFn(num, math.prod((d for _, d in parts), start=ONE))


def gram(H, D):
    """H^t D H over Q(q); H may hold rational entries."""
    n = len(H)
    return [[fraction_sum((H[e][a], H[e][b], D[e]) for e in range(max(a, b), n))
             for b in range(n)] for a in range(n)]


def long_division(a, b):
    """a / b in Z[q, q^-1] by the long division `_poly_div_exact` alone."""
    lo_a, lo_b = a.min_exp(), b.min_exp()
    return _poly_div_exact(a.shift(-lo_a), b.shift(-lo_b)).shift(lo_a - lo_b)


def ldl_reference(lam):
    """The elimination of `ldl` on coefficient dicts: the same recurrence
    over the same common denominator, every update a double loop over
    the terms of H[e][i] and S[e][j], and every division, the cofactors'
    included, the long division."""
    n = len(lam)
    dens = dict.fromkeys(lam[i][j].den for i in range(n) for j in range(i + 1))
    C = ONE
    for den in dens:
        C = poly_lcm(C, den)
    cofactor = {den: long_division(C, den) for den in dens}
    H = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    S = [[None] * n for _ in range(n)]      # coefficient items of S[e][j], j <= e
    D = [None] * n
    for i in range(n - 1, -1, -1):
        column = [(e, H[e][i].coeffs.items()) for e in range(i + 1, n) if H[e][i]]
        for j in range(i, -1, -1):
            entry = lam[i][j]
            acc = dict((entry.num * cofactor[entry.den]).coeffs)
            for e, h in column:
                for e1, c1 in h:
                    for e2, c2 in S[e][j]:
                        acc[e1 + e2] = acc.get(e1 + e2, 0) - c1 * c2
            value = LaurentPoly(acc)
            S[i][j] = value.coeffs.items()
            if j == i:
                pivot = value
                if i and not pivot:
                    raise SingularPivot(f"zero pivot at block position {i}")
                D[i] = RationalFn(pivot, C)
            elif value:
                try:
                    H[i][j] = long_division(value, pivot)
                except ArithmeticError:
                    raise NotIntegral(f"H[{i}][{j}]") from None
    return H, D


def widths_taken(lam, slack=None):
    """ldl(lam) and the widths its elimination ran at, with the first
    width's slack set to `slack` when given."""
    widths = []
    eliminate = qtransition._eliminate

    def recorded(*args):
        widths.append(args[-1])
        return eliminate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qtransition, "_eliminate", recorded)
        if slack is not None:
            mp.setattr(qtransition, "_WIDTH_SLACK", slack)
        return ldl(lam), widths


@SETTINGS
@given(factors())
def test_ldl_recovers_random_factors(hd):
    H, D = hd
    n = len(H)
    assert ldl(gram(H, D)) == (H, D)


@SETTINGS
@given(factors(min_n=2), laurent, st.integers(1, 4), st.data())
def test_ldl_rejects_a_non_laurent_factor(hd, u, m, data):
    """One entry u + 1/(1 + q^m) of H is not Laurent, so neither is the
    unique factor of H^t D H."""
    H, D = hd
    n = len(H)
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(0, i - 1))
    H = [row[:] for row in H]
    H[i][j] = RationalFn(u * (ONE + q_power(m)) + ONE, ONE + q_power(m))
    with pytest.raises(NotIntegral):
        ldl(gram(H, D))


big = st.dictionaries(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40),
                      max_size=3).map(LaurentPoly)


@st.composite
def big_factors(draw):
    n = draw(st.integers(2, 5))
    H = unitriangular(draw, n, big)
    D = [RationalFn(draw(laurent.filter(bool)), draw(pbw_like).den) for _ in range(n)]
    return H, D


@SETTINGS
@given(big_factors())
def test_ldl_equals_the_reference_across_width_restarts(hd):
    """Coefficients up to 2^40, and a first width with no slack above the
    bound of A, so that most blocks outgrow it: every width the
    elimination restarts at gives the reference's factors."""
    H, D = hd
    lam = gram(H, D)
    reference = ldl_reference(lam)
    got, widths = widths_taken(lam, slack=0)
    assert got == reference
    assert widths == sorted(set(widths))


def test_a_row_bound_above_the_width_restarts_the_block():
    """The largest bound of A has 82 bits, and row 1's bound 83, so a
    first width without slack (83 bits) is refused at row 1 and the block
    restarts at 84, which holds every row; the default slack holds them
    at the first width."""
    x, y = LaurentPoly({0: 2 ** 40, 1: -(2 ** 40)}), LaurentPoly({-1: 3, 2: 2 ** 39})
    H = [[ONE, ZERO, ZERO], [x, ONE, ZERO], [y, x, ONE]]
    D = [RationalFn(1, ONE - q_power(2)), RationalFn(1, ONE - q_power(4)), RationalFn(1)]
    lam = gram(H, D)
    got, widths = widths_taken(lam, slack=0)
    assert got == ldl_reference(lam) == (H, D)
    assert widths == [83, 84]
    assert widths_taken(lam)[1] == [widths[0] + qtransition._WIDTH_SLACK]


@SETTINGS
@given(factors(min_n=2))
def test_uncertified_quotients_take_the_long_division(hd):
    """With no packed quotient certified, every H entry comes from the
    long division, and the factors do not change."""
    H, D = hd
    lam = gram(H, D)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qtransition, "packed_quotient", lambda *args: None)
        assert ldl(lam) == (H, D)


def test_ldl_equals_the_reference_on_a_folded_block():
    block = gram_block(qfold.get_folding("D4->G2"), (2, 2, 2, 2))
    assert len(block.index) == 37
    H, D = ldl(block.lam)
    assert (H, D) == ldl_reference(block.lam)
    assert reconstruct_lam(H, D) == block.lam


dense = st.lists(st.integers(-9, 9), min_size=1, max_size=5)
with_constant = dense.filter(lambda xs: xs[0] != 0)


@SETTINGS
@given(st.integers(2, 8), dense, with_constant, st.integers(-200, 200), st.data())
def test_packed_quotient_returns_only_exact_quotients(w, xs, bs, k, data):
    """Whatever a and b are, and at any width, a quotient it returns is
    exact, and a division it refuses is inexact.  Four kinds of
    dividend: a multiple xs * b of b; any polynomial xs; the digits of
    k * b(2^w), whose values divide as integers even when the
    polynomials do not divide; and xs * b plus a multiple of 2^w - q,
    which has the value of xs * b but coefficients out of the digits'
    range."""
    b = _laurent(bs, 0, 1)
    kind = data.draw(st.sampled_from(("multiple", "any", "integer multiple",
                                      "vanishing at 2^w")))
    if kind == "multiple":
        a = _laurent(xs, 0, 1) * b
    elif kind == "any":
        a = _laurent(xs, 0, 1)
    elif kind == "integer multiple":
        a = _laurent(_unpack(k * _pack(bs, w), w), 0, 1)
    else:
        vanishing = LaurentPoly({0: 1 << w, 1: -1}).shift(data.draw(st.integers(0, 3)))
        a = _laurent(xs, 0, 1) * b + vanishing * k
    A = [a.coeffs.get(e, 0) for e in range(max(a.coeffs, default=-1) + 1)]
    try:
        found = packed_quotient(_pack(A, w), _norm(A), _pack(bs, w), _norm(bs),
                                len(bs), w)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _poly_div_exact(a, b)
        return
    if found is not None:
        q, digits = found
        assert _laurent(digits, 0, 1) * b == a and _pack(digits, w) == q


@pytest.mark.parametrize("w, a, b", [
    (3, [-2, -1, 1], [-3, -3]),       # (q - 2)(q + 1) / -3(q + 1): not over Z
    (3, [-3, 3, -3], [-3, -2]),       # no common factor at all
])
def test_an_integer_quotient_of_indivisible_polynomials_is_refused(w, a, b):
    """a(2^w) / b(2^w) is an integer, and every coefficient of a is
    below 2^(w-1), but the quotient's digits times b are not a: the
    certificate refuses them."""
    pa, pb = _pack(a, w), _pack(b, w)
    assert pa % pb == 0
    with pytest.raises(ArithmeticError):
        _poly_div_exact(_laurent(a, 0, 1), _laurent(b, 0, 1))
    assert packed_quotient(pa, _norm(a), pb, _norm(b), len(b), w) is None


@SETTINGS
@given(laurent, laurent.filter(bool), st.booleans())
def test_laurent_div_exact_equals_the_long_division(x, b, multiple):
    a = x * b if multiple else x
    try:
        expected = long_division(a, b)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            laurent_div_exact(a, b)
        return
    assert laurent_div_exact(a, b) == expected


def test_ldl_a3_block_matches_pbw_diagonal():
    p = qfold.get_folding("A3->B2")
    datum, seq, _word = p.side()
    block = gram_block(p, (3, 3, 2))
    H, D = ldl(block.lam)
    assert D == [pbw_diag(datum, seq, c) for c in block.index]
    assert reconstruct_lam(H, D) == block.lam


@SETTINGS
@given(factors(min_n=2), st.data())
def test_reconstruct_lam_matches_the_rational_sum(hd, data):
    H, D = hd
    D = [RationalFn(d.num * data.draw(laurent), d.den) for d in D]
    assume(len({d.den for d in D}) > 1)
    assert reconstruct_lam(H, D) == gram(H, D)


@SETTINGS
@given(st.integers(1, 6), st.data())
def test_pq_split_recovers_random_factors(n, data):
    P = unitriangular(data.draw, n, positive)
    Q = unitriangular(data.draw, n, bar_invariant)
    assert pq_split(matmul_laurent(P, Q)) == (P, Q)


@SETTINGS
@given(st.integers(1, 5), st.data())
def test_matmul_laurent_matches_the_entrywise_sum(n, data):
    A, B = ([[data.draw(laurent) for _ in range(n)] for _ in range(n)]
            for _ in range(2))
    assert matmul_laurent(A, B) == [
        [sum((A[i][k] * B[k][j] for k in range(n)), LaurentPoly(0))
         for j in range(n)] for i in range(n)]
