"""Properties of the symmetric factorization lam = H^t D H, the split
H = PQ, and the products that check them.

H^t D H is built from a random unit lower triangular Laurent H and a
diagonal D of PBW-like reciprocals; the factorization is unique, so ldl
must give back exactly H and D.  Likewise pq_split must give back the
unique factors of a random product PQ, and matmul_laurent must equal the
naive entrywise sums.  reconstruct_lam must accept the fraction sum
H^t D H and refuse it once one entry moves.  pq_split, which
shares equal values and forms each product once per pair of objects,
must equal the split with neither, `pq_split_reference`.  ldl's packed
elimination must also equal the same elimination on coefficient dicts,
`ldl_reference`, at every width it takes, and its packed division must
never accept a quotient that is not exact.  The common denominator and
its cofactors must equal the lcm by the PRS gcd and its long division by
each denominator.
"""

import copy
import functools
import math
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

import qfold
import qfold.laurent as qlaurent
import qfold.transition as qtransition
from qfold.gram import pbw_diag
from qfold.laurent import (ONE, ZERO, LaurentPoly, RationalFn, _gcd_cofactors, _laurent,
                           _norms, _pack, _poly_div_exact, _prs_gcd_cofactors, _unpack,
                           packed_quotient, q_power)
from qfold.transition import (NotIntegral, SingularPivot, _common_denominator, gram_block,
                              ldl, matmul_laurent, pq_split, reconstruct_lam)

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


def coefficients(a):
    """The coefficients of a polynomial in Z[q], ascending from q^0."""
    return [a.coeffs.get(i, 0) for i in range(max(a.coeffs, default=-1) + 1)]


def long_division(a, b):
    """a / b in Z[q, q^-1] by the long division `_poly_div_exact` alone."""
    lo_a, lo_b = a.min_exp(), b.min_exp()
    quotient = _poly_div_exact(coefficients(a.shift(-lo_a)), coefficients(b.shift(-lo_b)))
    return _laurent(quotient, lo_a - lo_b, 1)


def prs_gcd_cofactors(x, y):
    """`_prs_gcd_cofactors` on polynomials in Z[q] as Laurent polynomials."""
    return tuple(_laurent(p, 0, 1)
                 for p in _prs_gcd_cofactors(coefficients(x), coefficients(y)))


def prs_lcm(dens):
    """The lcm of polynomials in Z[q], folded as C * (den / gcd(C, den))
    from ONE by the PRS gcd: the reference for `_common_denominator`."""
    return functools.reduce(lambda C, den: C * prs_gcd_cofactors(C, den)[2], dens, ONE)


def lam_common(lam):
    """(C, cofactor) over the denominators of all of lam's entries, as
    `reconstruct_lam` takes it for a lam that no `factor_gram` numbered."""
    return _common_denominator(x.den for row in lam for x in row)


def ldl_reference(lam):
    """The elimination of `ldl` on coefficient dicts: the same recurrence
    over the same common denominator, the lcm by the PRS gcd, every update
    a double loop over the terms of H[e][i] and S[e][j], and every
    division, the cofactors' included, the long division."""
    n = len(lam)
    dens = dict.fromkeys(lam[i][j].den for i in range(n) for j in range(i + 1))
    C = prs_lcm(dens)
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


def pq_split_reference(H):
    """The split of `pq_split` without shared values: every entry built
    afresh, every product P[i][k] * Q[k][j] a double loop over terms."""
    n = len(H)
    P = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    Q = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for dist in range(1, n):
        for i in range(dist, n):
            j = i - dist
            acc = dict(H[i][j].coeffs)
            for k in range(j + 1, i):
                for e1, c1 in P[i][k].coeffs.items():
                    for e2, c2 in Q[k][j].coeffs.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) - c1 * c2
            p, q = {}, {0: acc.get(0, 0)}
            for e, c in acc.items():
                if e > 0:
                    p[e] = p.get(e, 0) + c
                elif e < 0:
                    p[-e] = p.get(-e, 0) - c
                    q[e] = q[-e] = c
            P[i][j], Q[i][j] = LaurentPoly(p), LaurentPoly(q)
    return P, Q


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
            mp.setattr(qlaurent, "_WIDTH_SLACK", slack)
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
    assert widths_taken(lam)[1] == [widths[0] + qlaurent._WIDTH_SLACK]


@SETTINGS
@given(factors(min_n=2))
def test_uncertified_quotients_take_the_long_division(hd):
    """With no packed quotient certified, every nonzero H entry comes from
    the long division, and the factors do not change."""
    H, D = hd
    lam = gram(H, D)
    divisions = []
    long_division = qlaurent._poly_div_exact

    def counted(*args):
        divisions.append(args)
        return long_division(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlaurent, "packed_quotient", lambda *args: None)
        mp.setattr(qlaurent, "_poly_div_exact", counted)
        assert ldl(lam) == (H, D)
    assert len(divisions) >= sum(1 for i, row in enumerate(H) for x in row[:i] if x)


def test_ldl_equals_the_reference_on_a_folded_block():
    block = gram_block(qfold.get_folding("D4->G2"), (2, 2, 2, 2))
    assert len(block.index) == 37
    H, D = ldl(block.lam)
    assert (H, D) == ldl_reference(block.lam)
    assert reconstruct_lam(H, D, block.lam, lam_common(block.lam))


def test_ldl_on_a_lam_that_shares_nothing_gives_the_same_factors():
    """ldl numbers lam's entries by identity; a copy with one object per
    position, as parsed from JSON, gives the same H and D, and on the
    shared lam equal H entries are one object."""
    lam = gram_block(qfold.get_folding("D4->G2"), (2, 2, 2, 2)).lam
    fresh = [[qlaurent.parse_rational(str(x)) for x in row] for row in lam]
    n = len(lam)
    assert len({id(x) for row in fresh for x in row}) == n * n
    assert len({id(x) for row in lam for x in row}) < n * n // 4
    H, D = ldl(lam)
    assert ldl(fresh) == (H, D)
    shared = {}
    for i in range(n):
        for h in H[i][:i]:
            assert shared.setdefault(h, h) is h
    assert len(shared) < n * (n - 1) // 8


def test_a_block_survives_pickle_and_copy():
    """H, D and lam round-trip through pickle equal, with the objects they
    share still shared, and copy and deepcopy give equal values."""
    lam = gram_block(qfold.get_folding("D4->G2"), (2, 2, 2, 2)).lam
    H, D = ldl(lam)
    matrices = (H, [D], lam)
    back = pickle.loads(pickle.dumps(matrices))
    assert back == matrices

    def objects(ms):
        return len({id(x) for M in ms for row in M for x in row})
    assert objects(back) == objects(matrices) < len(lam) ** 2
    for x in (H[5][2], D[3], lam[4][1]):
        assert copy.copy(x) == x and copy.deepcopy(x) == x


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
        a = _laurent(_unpack(k * _pack(enumerate(bs), w), w), 0, 1)
    else:
        vanishing = LaurentPoly({0: 1 << w, 1: -1}).shift(data.draw(st.integers(0, 3)))
        a = _laurent(xs, 0, 1) * b + vanishing * k
    A = [a.coeffs.get(e, 0) for e in range(max(a.coeffs, default=-1) + 1)]
    try:
        found = packed_quotient(_pack(enumerate(A), w), _norms(A)[0],
                                _pack(enumerate(bs), w), _norms(bs)[0], len(bs), w)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _poly_div_exact(A, bs)
        return
    if found is not None:
        q, digits = found
        assert _laurent(digits, 0, 1) * b == a and _pack(enumerate(digits), w) == q


@pytest.mark.parametrize("w, a, b", [
    (3, [-2, -1, 1], [-3, -3]),       # (q - 2)(q + 1) / -3(q + 1): not over Z
    (3, [-3, 3, -3], [-3, -2]),       # no common factor at all
])
def test_an_integer_quotient_of_indivisible_polynomials_is_refused(w, a, b):
    """a(2^w) / b(2^w) is an integer, and every coefficient of a is
    below 2^(w-1), but the quotient's digits times b are not a: the
    certificate refuses them."""
    pa, pb = _pack(enumerate(a), w), _pack(enumerate(b), w)
    assert pa % pb == 0
    with pytest.raises(ArithmeticError):
        _poly_div_exact(a, b)
    assert packed_quotient(pa, _norms(a)[0], pb, _norms(b)[0], len(b), w) is None


polynomial = st.dictionaries(st.integers(0, 3), st.integers(-3, 3), min_size=1,
                             max_size=3).map(LaurentPoly).filter(bool)


@SETTINGS
@given(st.lists(polynomial, min_size=1, max_size=4), st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=3), max_size=6))
def test_common_denominator_equals_the_prs_lcm(pool, picks):
    """Over products of a few shared factors, repeats included, C is the
    lcm folded by the PRS gcd and each cofactor times its den is C."""
    dens = [math.prod((pool[k % len(pool)] for k in ks), start=ONE) for ks in picks]
    C, cofactor = _common_denominator(dens)
    assert C == prs_lcm(dict.fromkeys(dens))
    assert list(cofactor) == list(dict.fromkeys(dens))
    assert all(cofactor[den] * den == C for den in dens)


@pytest.mark.parametrize("fold, weight", [("D4->G2", (2, 2, 2, 2)),
                                          ("A5->B3", (2, 2, 2, 2, 1))])
def test_common_denominator_equals_the_lcm_and_long_division(fold, weight):
    """On the denominators of a block's lam and of its D, C and every
    cofactor are the lcm and its long division by each den."""
    lam = gram_block(qfold.get_folding(fold), weight).lam
    for dens in ([x.den for row in lam for x in row], [d.den for d in ldl(lam)[1]]):
        C, cofactor = _common_denominator(dens)
        assert C == prs_lcm(dict.fromkeys(dens))
        assert cofactor == {den: long_division(C, den) for den in dens}


def common_denominator_from_one(dens):
    """`_common_denominator`'s fold started from C = 1, with one gcd per
    distinct den, the first's included, where `_common_denominator` takes
    the first den as C."""
    C, cofactor = ONE, {}
    for den in dens:
        if den not in cofactor:
            _, c, d = _gcd_cofactors(C, den)
            if d != ONE:
                C = C * d
                cofactor = {k: v * d for k, v in cofactor.items()}
            cofactor[den] = c
    return C, cofactor


# The blocks the benchmark's transition and gram workloads run or draw from.
WORKLOAD_BLOCKS = (
    ("D4->G2", (2, 2, 2, 2)), ("A5->B3", (2, 2, 2, 2, 1)),
    ("D4->G2", (2, 2, 3, 2)), ("D4->G2", (2, 3, 2, 2)), ("D4->G2", (3, 2, 2, 2)),
    ("A5->B3", (0, 2, 2, 2, 2)), ("A5->B3", (1, 2, 1, 2, 2)), ("A5->B3", (1, 3, 1, 2, 2)),
    ("A5->B3", (2, 0, 2, 2, 2)), ("A5->B3", (2, 1, 1, 2, 3)), ("A5->B3", (1, 1, 2, 1, 2)),
    ("A5->B3", (1, 1, 2, 2, 1)), ("A5->B3", (1, 3, 2, 2, 1)),
    ("A3", (3, 4, 4)), ("A3", (4, 3, 4)), ("A3", (4, 4, 4)), ("G2", (6, 4)),
    ("A3", (1, 8, 4)), ("B2", (7, 5)), ("B3", (0, 5, 6)), ("B3", (0, 7, 4)), ("G2", (8, 4)))


def test_common_denominator_seeded_with_the_first_den_equals_the_fold_from_one():
    """On lam's denominators, as `_numbering` numbers a lam without its Gram
    record, of every block of criterion 6 and of the workload blocks: the
    same C and cofactors, with one gcd fewer per block."""
    blocks = [(preset, gamma) for preset in map(qfold.get_preset, ("A3", "B2", "D4", "G2"))
              for gamma in qfold.weights_up_to(preset.side()[0], 8)]
    blocks += [(qfold.get_folding(spec) if "->" in spec else qfold.get_preset(spec), gamma)
               for spec, gamma in WORKLOAD_BLOCKS]
    checked = 0
    for preset, gamma in blocks:
        lam = gram_block(preset, gamma).lam
        if lam:
            numbering = qtransition._numbering(lam)
            common = common_denominator_from_one(numbering.kinds)
            assert numbering.common == common, gamma
            assert list(numbering.common[1]) == list(common[1]), gamma
            checked += 1
    assert checked == 746 + 22


def test_the_record_common_denominator_is_the_lcm_and_ldl_agrees():
    """On the workload blocks and the blocks of criterion 6 to height 6,
    the C that a Gram record gives (delta times the lcm of the prefactors)
    is the lcm of lam's denominators that a bare lam gives, each of its
    cofactors times its den is C, ldl over it gives the H and D of ldl on
    the bare lam, and equal denominators of lam are one object."""
    blocks = [(preset, gamma) for preset in map(qfold.get_preset, ("A3", "B2", "D4", "G2"))
              for gamma in qfold.weights_up_to(preset.side()[0], 6)]
    blocks += [(qfold.get_folding(spec) if "->" in spec else qfold.get_preset(spec), gamma)
               for spec, gamma in WORKLOAD_BLOCKS]
    checked = 0
    for preset, gamma in blocks:
        gram = gram_block(preset, gamma)
        dens = [x.den for row in gram.lam for x in row]
        assert len({id(den) for den in dens}) == len(set(dens)), gamma
        if not dens:
            continue
        record, bare = qtransition._numbering(gram.lam, gram), qtransition._numbering(gram.lam)
        C, cofactor = record.common
        assert C == bare.common[0], gamma
        assert all(cofactor[den] * den == C for den in dens), gamma
        assert ldl(gram.lam, gram.perms, record) == ldl(gram.lam), gamma
        checked += 1
    assert checked == 346 + 22


def test_a_replaced_lam_is_numbered_without_its_record():
    """A record whose lam was replaced by one with denominators of its own
    (here parsed from text, as JSON gives it) is numbered by the lcm of
    lam's denominators, as a bare lam is."""
    gram = gram_block(qfold.get_folding("A3->B2"), (2, 2, 1))
    parsed = [[qlaurent.parse_rational(str(x)) for x in row] for row in gram.lam]
    replaced = gram._replace(lam=parsed)
    assert qtransition._numbering(parsed, replaced) == qtransition._numbering(parsed)
    assert qtransition.factor_gram(replaced, (2, 2, 1)) == \
        qtransition.factor_gram(gram, (2, 2, 1))


def test_factor_gram_takes_no_gcd_for_the_denominators_of_lam():
    """On A3 (4,3,4), with 117 distinct denominators over 14 prefactors,
    factor_gram's only lcm runs over the prefactors, at most 13 gcds, and
    every other gcd it takes reduces a pivot of D other than the last,
    which is lam's corner entry itself."""
    gram = gram_block(qfold.get_preset("A3"), (4, 3, 4))
    assert len({id(den) for den, _, _ in gram.dens}) == 117
    prefactors = len({id(p) for _, p, _ in gram.dens})
    assert prefactors == 14
    lcm, gcds = [], []
    common, dense = qtransition._gcd_cofactors, qlaurent._dense_gcd_cofactors

    def counted_lcm(a, b):
        lcm.append(None)
        return common(a, b)

    def counted(*args):
        gcds.append(None)
        return dense(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qtransition, "_gcd_cofactors", counted_lcm)
        mp.setattr(qlaurent, "_dense_gcd_cofactors", counted)
        block = qtransition.factor_gram(gram, (4, 3, 4))
    assert block.D[-1] is gram.lam[-1][-1]
    pivots = len({id(d) for d in block.D}) - 1
    assert len(lcm) <= prefactors - 1
    assert len(gcds) == len(lcm) + pivots


def test_ldl_a3_block_matches_pbw_diagonal():
    p = qfold.get_folding("A3->B2")
    datum, seq, _word = p.side()
    block = gram_block(p, (3, 3, 2))
    H, D = ldl(block.lam)
    assert D == [pbw_diag(datum, seq, c) for c in block.index]
    assert reconstruct_lam(H, D, block.lam, lam_common(block.lam))


@SETTINGS
@given(factors(min_n=2), st.data())
def test_reconstruct_lam_matches_the_rational_sum(hd, data):
    """The check holds on the fraction sum H^t D H and fails once one of its
    entries, and the symmetric one, moves by a nonzero fraction."""
    H, D = hd
    D = [RationalFn(d.num * data.draw(laurent), d.den) for d in D]
    assume(len({d.den for d in D}) > 1)
    lam = gram(H, D)
    assert reconstruct_lam(H, D, lam, lam_common(lam))
    n = len(lam)
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    moved = fraction_sum([(lam[a][b],), (data.draw(rational.filter(bool)),)])
    lam[a][b] = lam[b][a] = moved
    assert not reconstruct_lam(H, D, lam, lam_common(lam))


def pool(data, values):
    """Draws of one of at most three objects, so that entries repeat."""
    return st.sampled_from(data.draw(st.lists(values, min_size=1, max_size=3)))


@SETTINGS
@given(st.integers(1, 6), st.data())
def test_pq_split_recovers_random_factors(n, data):
    P = unitriangular(data.draw, n, pool(data, positive))
    Q = unitriangular(data.draw, n, pool(data, bar_invariant))
    assert pq_split(matmul_laurent(P, Q)) == (P, Q)


@SETTINGS
@given(st.integers(1, 5), st.data())
def test_matmul_laurent_matches_the_entrywise_sum(n, data):
    """Entries repeat, and each product of a pair of objects is formed
    once."""
    A, B = ([[data.draw(pool(data, laurent)) for _ in range(n)] for _ in range(n)]
            for _ in range(2))
    expected = [[sum((A[i][k] * B[k][j] for k in range(n)), LaurentPoly(0))
                 for j in range(n)] for i in range(n)]
    formed, mul = [], LaurentPoly.__mul__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "__mul__", lambda x, y: formed.append(1) or mul(x, y))
        assert matmul_laurent(A, B) == expected
    assert len(formed) == len({(id(A[i][k]), id(B[k][j])) for i in range(n)
                               for k in range(n) for j in range(n) if A[i][k] and B[k][j]})


@pytest.mark.parametrize("spec, gamma", [
    ("D4->G2", (2, 2, 2, 2)), ("A5->B3", (2, 2, 2, 2, 1)), ("A3", (4, 3, 4))])
def test_pq_split_equals_the_reference_on_reference_blocks(spec, gamma):
    """On H from `ldl`, whose equal entries are one object, and on a copy
    of it with one object per position, as parsed from JSON."""
    preset = qfold.get_folding(spec) if "->" in spec else qfold.get_preset(spec)
    H, _D = ldl(gram_block(preset, gamma).lam)
    fresh = [[LaurentPoly(x.coeffs) for x in row] for row in H]
    n = len(H)
    assert len({id(x) for row in fresh for x in row}) == n * n
    expected = pq_split_reference(H)
    assert pq_split(H) == expected
    assert pq_split(fresh) == expected
