"""Acceptance criteria, one test per criterion.

Every assertion is an exact identity of normal forms; the timed criteria
also assert their wall-clock budget.  Run with ``pytest -s`` to see one
status line per criterion.
"""

import time

import qfold
from qfold.checks import (check_congruence, check_delta, check_equivariance,
                          check_factorization, check_oracle, check_restriction)
from qfold.gram import inner_mackey, inversion_stat, matchings, matching_sum
from qfold.laurent import ONE, LaurentPoly, parse_laurent, parse_rational
from qfold.monomial import word_modified
from qfold.transition import factor_gram, gram_block, sigma_submatrix


def R(s):
    return parse_rational(s)


def L(s):
    return parse_laurent(s)


def announce(number, label, started):
    print(f"ACCEPTANCE {number}: PASS  {label}  "
          f"({time.perf_counter() - started:.2f}s)")


def grid(rows):
    return [[R(s) for s in row] for row in rows]


def lgrid(rows):
    return [[L(s) for s in row] for row in rows]


def test_criterion_1_a3_golden_block():
    started = time.perf_counter()
    p = qfold.get_folding("A3->B2")
    gram = gram_block(p, (2, 2, 1))
    block = factor_gram(gram, (2, 2, 1))

    assert block.index == [(1, 1, 1, 0, 0, 0), (1, 2, 0, 0, 1, 0),
                           (2, 1, 0, 1, 0, 0), (2, 2, 0, 0, 0, 1)]
    d5 = "(1-q^2)^5 (1+q^2)^2"
    assert block.lam == grid([
        [f"4(1+q^2)^2/({d5})", f"2(1+q^2)^2/({d5})",
         f"2(1+q^2)^2/({d5})", f"(1+q^2)^2/({d5})"],
        [f"2(1+q^2)^2/({d5})", f"2(1+q^2)/({d5})",
         f"(1+q^2)^2/({d5})", f"(1+q^2)/({d5})"],
        [f"2(1+q^2)^2/({d5})", f"(1+q^2)^2/({d5})",
         f"2(1+q^2)/({d5})", f"(1+q^2)/({d5})"],
        [f"(1+q^2)^2/({d5})", f"(1+q^2)/({d5})",
         f"(1+q^2)/({d5})", f"1/({d5})"],
    ])
    # the H, D solving the symmetric factorization of the matrix above
    assert block.H == lgrid([
        ["1", "0", "0", "0"],
        ["1+q^2", "1", "0", "0"],
        ["1+q^2", "0", "1", "0"],
        ["(1+q^2)^2", "1+q^2", "1+q^2", "1"]])
    assert block.D == [R(f"(1-q^4)^2/({d5})"), R(f"(1-q^4)/({d5})"),
                       R(f"(1-q^4)/({d5})"), R(f"1/({d5})")]
    assert block.P == lgrid([
        ["1", "0", "0", "0"],
        ["q^2", "1", "0", "0"],
        ["q^2", "0", "1", "0"],
        ["q^4", "q^2", "q^2", "1"]])
    assert block.Q == lgrid([
        ["1", "0", "0", "0"],
        ["1", "1", "0", "0"],
        ["1", "0", "1", "0"],
        ["1", "1", "1", "1"]])
    sub_index, sub = sigma_submatrix(p.fd, p.seq, block.index, block.lam)
    assert sub_index == [(1, 1, 1, 0, 0, 0), (2, 2, 0, 0, 0, 1)]
    ds = "(1-q^2)^3 (1-q^4)^2"
    assert sub == grid([
        [f"4(1+q^2)^2/({ds})", f"(1+q^2)^2/({ds})"],
        [f"(1+q^2)^2/({ds})", f"1/({ds})"]])
    # the same matrix in prefactor-factored form: raw matching sums
    b = "q + q^-1"
    assert gram.M == lgrid([
        ["4", f"2({b})", f"2({b})", f"({b})^2"],
        [f"2({b})", f"2q^-1({b})", f"({b})^2", f"q^-1({b})^2"],
        [f"2({b})", f"({b})^2", f"2q^-1({b})", f"q^-1({b})^2"],
        [f"({b})^2", f"q^-1({b})^2", f"q^-1({b})^2", f"q^-2({b})^2"]])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, "A3 golden block at weight 2a1 + 2a1' + a2", started)


def test_criterion_2_single_inner_product():
    started = time.perf_counter()
    p = qfold.get_folding("A3->B2")
    datum = p.fd.base
    w3 = word_modified(p.fd, p.seq, (2, 1, 0, 1, 0, 0))
    w4 = word_modified(p.fd, p.seq, (2, 2, 0, 0, 0, 1))
    assert inner_mackey(datum, w3, w4) == \
        R("(1+q^2)/((1-q^2)^5 (1+q^2)^2)")
    nu = ("1'", "1", "1", "2", "1'")
    nup = ("1'", "1'", "1", "1", "2")
    found = matchings(nu, nup)
    assert set(found) == {(0, 2, 3, 4, 1), (1, 2, 3, 4, 0),
                          (0, 3, 2, 4, 1), (1, 3, 2, 4, 0)}
    assert sorted(inversion_stat(datum, nu, w) for w in found) == [-1, 1, 1, 3]
    assert matching_sum(datum, nu, nup) == L("q^-1 (q+q^-1)^2")
    announce(2, "single inner product with its four matchings", started)


def test_criterion_3_b2_golden_block():
    started = time.perf_counter()
    p = qfold.get_preset("B2")
    gram = gram_block(p, (2, 1))
    block = factor_gram(gram, (2, 1))
    assert block.index == [(1, 1, 0, 0), (2, 0, 0, 1)]
    d = "(1-q^4)^2 (1-q^2)"
    assert block.lam == grid([
        [f"2/({d})", f"1/({d})"],
        [f"1/({d})", f"1/((1-q^2)(1-q^4)(1-q^8))"]])
    assert gram.M == lgrid([["2", "q^2 + q^-2"], ["q^2 + q^-2", "1 + q^-4"]])
    assert block.H == lgrid([["1", "0"], ["1+q^4", "1"]])
    assert block.D == [R("1/((1-q^2)(1-q^4))"),
                       R("1/((1-q^2)(1-q^4)(1-q^8))")]
    assert block.P == lgrid([["1", "0"], ["q^4", "1"]])
    assert block.Q == lgrid([["1", "0"], ["1", "1"]])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(3, "B2 golden block at weight 2a1 + a2", started)


def test_criterion_4_d4_and_g2_golden_blocks():
    started = time.perf_counter()
    p = qfold.get_folding("D4->G2")
    gram = gram_block(p, (2, 2, 2, 1))
    sub_index, sub = sigma_submatrix(p.fd, p.seq, gram.index, gram.lam)
    assert sub_index == [(1, 1, 1, 1) + (0,) * 8, (2, 2, 2) + (0,) * 8 + (1,)]
    d7 = "(1-q^2)^7"
    assert sub == grid([
        [f"8/({d7})", f"1/({d7})"],
        [f"1/({d7})", f"1/({d7}(1+q^2)^3)"]])
    _, core = sigma_submatrix(p.fd, p.seq, gram.index, gram.M)
    b = "q + q^-1"
    assert core == lgrid([["8", f"({b})^3"], [f"({b})^3", "(1 + q^-2)^3"]])

    g2 = qfold.get_preset("G2")
    gram = gram_block(g2, (2, 1))
    block = factor_gram(gram, (2, 1))
    d = "(1-q^6)^2 (1-q^2)"
    assert block.lam == grid([
        [f"2/({d})", f"1/({d})"],
        [f"1/({d})", "1/((1-q^2)(1-q^6)(1-q^12))"]])
    assert gram.M == lgrid([["2", "q^3 + q^-3"], ["q^3 + q^-3", "1 + q^-6"]])
    assert block.H == lgrid([["1", "0"], ["1+q^6", "1"]])
    assert block.D == [R("1/((1-q^2)(1-q^6))"),
                       R("1/((1-q^2)(1-q^6)(1-q^12))")]
    assert block.P == lgrid([["1", "0"], ["q^6", "1"]])
    assert block.Q == lgrid([["1", "0"], ["1", "1"]])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(4, "D4 fixed part and G2 golden block", started)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    result = check_oracle(presets=("A3", "B2", "D4", "G2"), max_height=6,
                          random_pairs=500)
    assert result.ok, "\n".join(result.failures)
    assert result.instances >= 500
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    announce(5, f"two inner-product routes agree on {result.instances} pairs",
             started)


def test_criterion_6_factorization_invariants():
    started = time.perf_counter()
    result = check_factorization(presets=("A3", "B2", "D4", "G2"), max_height=8)
    assert result.ok, "\n".join(result.failures)
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    announce(6, f"factorization invariants on {result.instances} blocks",
             started)


def test_criterion_7_single_part_codimension():
    started = time.perf_counter()
    result = check_delta(presets=("A3", "A5", "D4", "D5", "E6"), max_height=10)
    assert result.ok, "\n".join(result.failures)
    announce(7, f"codimension statistic vanishes on {result.instances} vectors",
             started)


def test_criterion_8_restricted_sums():
    started = time.perf_counter()
    result = check_restriction(folds=("A3->B2", "D4->G2"), max_height=6)
    assert result.ok, "\n".join(result.failures)
    announce(8, f"restricted matching sums survive unfolding on "
                f"{result.instances} pairs", started)


def test_criterion_9_mod_p_congruence():
    started = time.perf_counter()
    result = check_congruence(folds=("A3->B2", "D4->G2"), max_height=6)
    assert result.ok, "\n".join(result.failures)
    announce(9, f"fixed-part P congruent to quotient P on "
                f"{result.instances} blocks", started)


def test_criterion_10_sigma_equivariance():
    started = time.perf_counter()
    result = check_equivariance(folds=("A3->B2", "D4->G2"), max_height=8)
    assert result.ok, "\n".join(result.failures)
    announce(10, f"permutation law for modified monomials on "
                 f"{result.instances} vectors", started)
