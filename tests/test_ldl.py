"""Properties of the symmetric factorization lam = H^t D H, the split
H = PQ, and the products that check them.

H^t D H is built from a random unit lower triangular Laurent H and a
diagonal D of PBW-like reciprocals; the factorization is unique, so ldl
must give back exactly H and D.  Likewise pq_split must give back the
unique factors of a random product PQ, and the common-denominator and
in-place products must equal the naive entrywise sums.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import qfold
from qfold.gram import pbw_diag
from qfold.laurent import ONE, ZERO, LaurentPoly, RationalFn, RF_ZERO, q_power
from qfold.transition import (NotIntegral, gram_block, ldl, matmul_laurent,
                              pq_split, reconstruct_lam)

SETTINGS = settings(max_examples=60, deadline=None, database=None)

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                          max_size=3).map(LaurentPoly)
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


def gram(H, D):
    """H^t D H over Q(q); H may hold rational entries."""
    n = len(H)
    return [[sum((RationalFn(1) * H[e][a] * H[e][b] * D[e]
                  for e in range(max(a, b), n)), RF_ZERO)
             for b in range(n)] for a in range(n)]


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
    H = [[RationalFn(v) for v in row] for row in H]
    H[i][j] = RationalFn(u) + RationalFn(1, ONE + q_power(m))
    with pytest.raises(NotIntegral):
        ldl(gram(H, D))


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
    D = [d * data.draw(laurent) for d in D]
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
