import json

import pytest
from hypothesis import given, strategies as st

import qfold
from qfold.laurent import ONE, LaurentPoly, RationalFn, parse_laurent, parse_rational
from qfold.transition import (NotIntegral, SingularPivot, TransitionBlock,
                              block_from_json, block_to_json, gram_block, ldl,
                              matmul_laurent, mod_p_compare, pipeline, pq_split,
                              reconstruct_lam, sigma_submatrix)
from test_laurent import rational
from test_ldl import SETTINGS, laurent


def R(s):
    return parse_rational(s)


def L(s):
    return parse_laurent(s)


def a3_fold():
    return qfold.get_folding("A3->B2")


def gram(preset, gamma):
    block = gram_block(preset, gamma)
    return block.index, block.lam


def test_gram_block_a3():
    index, lam = gram(a3_fold(), (2, 2, 1))
    assert index == [(1, 1, 1, 0, 0, 0), (1, 2, 0, 0, 1, 0),
                     (2, 1, 0, 1, 0, 0), (2, 2, 0, 0, 0, 1)]
    d5 = "(1 - q^2)^5"
    expected = [
        ["4/(%s)" % d5, "2/(%s)" % d5, "2/(%s)" % d5, "1/(%s)" % d5],
        ["2/(%s)" % d5, "2/(%s(1+q^2))" % d5, "1/(%s)" % d5, "1/(%s(1+q^2))" % d5],
        ["2/(%s)" % d5, "1/(%s)" % d5, "2/(%s(1+q^2))" % d5, "1/(%s(1+q^2))" % d5],
        ["1/(%s)" % d5, "1/(%s(1+q^2))" % d5, "1/(%s(1+q^2))" % d5,
         "1/(%s(1+q^2)^2)" % d5],
    ]
    for row, exp_row in zip(lam, expected):
        assert row == [R(s) for s in exp_row]


def test_gram_block_single_element():
    index, lam = gram(a3_fold(), (1, 0, 0))
    assert index == [(1, 0, 0, 0, 0, 0)]
    assert lam == [[R("1/(1 - q^2)")]]
    index, lam = gram(a3_fold(), (0, 0, 0))
    assert index == [(0,) * 6] and lam == [[R("1")]]


def test_gram_block_b2():
    index, lam = gram(qfold.get_preset("B2"), (2, 1))
    assert index == [(1, 1, 0, 0), (2, 0, 0, 1)]
    d = "(1 - q^4)^2 (1 - q^2)"
    assert lam[0][0] == R("2/(%s)" % d)
    assert lam[0][1] == lam[1][0] == R("1/(%s)" % d)
    assert lam[1][1] == R("1/((1 - q^2)(1 - q^4)(1 - q^8))")


def test_ldl_golden_a3():
    _index, lam = gram(a3_fold(), (2, 2, 1))
    H, D = ldl(lam)
    u = "1 + q^2"
    assert H == [[L(x) for x in row] for row in [
        ["1", "0", "0", "0"],
        [u, "1", "0", "0"],
        [u, "0", "1", "0"],
        ["(1 + q^2)^2", u, u, "1"]]]
    assert D == [R("1/(1 - q^2)^3"),
                 R("1/((1 - q^2)^3 (1 - q^4))"),
                 R("1/((1 - q^2)^3 (1 - q^4))"),
                 R("1/((1 - q^2)^3 (1 - q^4)^2)")]
    assert reconstruct_lam(H, D) == lam


def test_ldl_golden_b2():
    _index, lam = gram(qfold.get_preset("B2"), (2, 1))
    H, D = ldl(lam)
    assert H == [[ONE, LaurentPoly(0)], [L("1 + q^4"), ONE]]
    assert D == [R("1/((1 - q^2)(1 - q^4))"),
                 R("1/((1 - q^2)(1 - q^4)(1 - q^8))")]


def test_ldl_one_by_one():
    x = R("(1 + q^2)/(1 - q^2)")
    H, D = ldl([[x]])
    assert H == [[ONE]] and D == [x]


def test_ldl_errors():
    one, zero = RationalFn(1), RationalFn(0)
    with pytest.raises(SingularPivot):
        ldl([[one, zero], [zero, zero]])
    r = R("1/(1 - q^2)")
    with pytest.raises(NotIntegral):
        ldl([[one, r], [r, one]])


def test_pq_split_golden():
    _index, lam = gram(a3_fold(), (2, 2, 1))
    H, _D = ldl(lam)
    P, Q = pq_split(H)
    assert P == [[L(x) for x in row] for row in [
        ["1", "0", "0", "0"],
        ["q^2", "1", "0", "0"],
        ["q^2", "0", "1", "0"],
        ["q^4", "q^2", "q^2", "1"]]]
    assert Q == [[L(x) for x in row] for row in [
        ["1", "0", "0", "0"],
        ["1", "1", "0", "0"],
        ["1", "0", "1", "0"],
        ["1", "1", "1", "1"]]]
    assert matmul_laurent(P, Q) == H


def test_pq_split_rank_two_cases():
    for name, entry in (("B2", "q^4"), ("G2", "q^6")):
        block = pipeline(qfold.get_preset(name), (2, 1))
        assert block.P == [[ONE, LaurentPoly(0)], [L(entry), ONE]]
        assert block.Q == [[ONE, LaurentPoly(0)], [ONE, ONE]]


def test_pq_split_is_idempotent():
    block = pipeline(a3_fold(), (2, 2, 1))
    P2, Q2 = pq_split(matmul_laurent(block.P, block.Q))
    assert P2 == block.P and Q2 == block.Q


def test_pq_split_mixed_entry():
    # one entry mixing the three exponent-sign parts
    H = [[ONE, LaurentPoly(0)], [L("q^3 + 2 + 5q^-2"), ONE]]
    P, Q = pq_split(H)
    assert P[1][0] == L("q^3 - 5q^2")
    assert Q[1][0] == L("5q^2 + 2 + 5q^-2")
    assert matmul_laurent(P, Q) == H


def test_sigma_submatrix():
    p = a3_fold()
    index, lam = gram(p, (2, 2, 1))
    sub_index, sub = sigma_submatrix(p.fd, p.seq, index, lam)
    assert sub_index == [(1, 1, 1, 0, 0, 0), (2, 2, 0, 0, 0, 1)]
    assert sub[0][0] == R("4(1+q^2)^2/((1-q^2)^3(1-q^4)^2)")
    assert sub[0][1] == R("(1+q^2)^2/((1-q^2)^3(1-q^4)^2)")
    assert sub[1][1] == R("1/((1-q^2)^3(1-q^4)^2)")
    # block without fixed vectors
    index2, lam2 = gram(p, (1, 0, 0))
    sub_index2, sub2 = sigma_submatrix(p.fd, p.seq, index2, lam2)
    assert sub_index2 == [] and sub2 == []


def test_sigma_submatrix_d4():
    p = qfold.get_folding("D4->G2")
    index, lam = gram(p, (2, 2, 2, 1))
    assert len(index) == 8
    sub_index, sub = sigma_submatrix(p.fd, p.seq, index, lam)
    assert sub_index == [(1, 1, 1, 1) + (0,) * 8, (2, 2, 2) + (0,) * 8 + (1,)]
    assert sub[0][0] == R("8/(1 - q^2)^7")
    assert sub[0][1] == R("1/(1 - q^2)^7")
    assert sub[1][1] == R("1/((1 - q^2)^7 (1 + q^2)^3)")


def test_mod_p_compare():
    p = a3_fold()
    block = pipeline(p, (2, 2, 1))
    _si, Ps = sigma_submatrix(p.fd, p.seq, block.index, block.P)
    b2 = qfold.get_preset("B2")
    ul_block = pipeline(b2, (2, 1))
    report = mod_p_compare(Ps, ul_block.P, 2)
    assert report.equal
    assert mod_p_compare(ul_block.P, ul_block.P, 5).equal
    bad = [[ONE, LaurentPoly(0)], [L("q^4 + 1"), ONE]]
    assert not mod_p_compare(bad, ul_block.P, 2).equal


def test_heuristic_gcd_serves_every_fraction_of_the_reference_blocks(monkeypatch):
    """Every Q(q) fraction of these blocks (Gram entries, the lcm of their
    denominators, D, the reconstruction) is reduced by the heuristic gcd;
    a slide back to the PRS gcd fails here."""
    import qfold.laurent as qlaurent

    served = []
    heuristic = qlaurent._heuristic_gcd_cofactors

    def counted(A, B):
        served.append(len(A))
        return heuristic(A, B)

    def refuse(a, b):
        raise AssertionError(f"PRS fallback on ({a}, {b})")

    monkeypatch.setattr(qlaurent, "_heuristic_gcd_cofactors", counted)
    monkeypatch.setattr(qlaurent, "_prs_gcd_cofactors", refuse)
    for preset, gamma in ((qfold.get_preset("A3"), (4, 4, 4)),
                          (qfold.get_preset("G2"), (6, 4)),
                          (qfold.get_folding("D4->G2"), (2, 2, 2, 2))):
        block = pipeline(preset, gamma)
        assert reconstruct_lam(block.H, block.D) == block.lam
    assert len(served) > 1000


def test_pipeline_trivial_weight():
    a3 = a3_fold()
    block = pipeline(a3, (1, 0, 0))
    assert block.P == [[ONE]] and block.Q == [[ONE]]
    assert block.H == [[ONE]]
    # weights outside the positive lattice give the legal 0x0 block
    empty = pipeline(a3, (-1, 1, 0))
    assert empty.index == [] and empty.P == []


def test_block_json_round_trip():
    block = pipeline(qfold.get_preset("G2"), (2, 1))
    data = block_to_json(block, ("1", "2"))
    again = block_from_json(data)
    assert block == again


@st.composite
def small_blocks(draw):
    """A TransitionBlock of random entries, n <= 3, with negative
    exponents and coefficients, zeros and proper fractions."""
    n = draw(st.integers(0, 3))
    rank = draw(st.integers(1, 4))

    def matrix(entries):
        return [[draw(entries) for _ in range(n)] for _ in range(n)]

    return TransitionBlock(
        weight=tuple(draw(st.lists(st.integers(0, 9), min_size=rank, max_size=rank))),
        index=[tuple(draw(st.lists(st.integers(0, 9), min_size=rank, max_size=rank)))
               for _ in range(n)],
        lam=matrix(rational), H=matrix(laurent), D=[draw(rational) for _ in range(n)],
        P=matrix(laurent), Q=matrix(laurent))


@SETTINGS
@given(small_blocks())
def test_block_json_round_trips_random_blocks(block):
    labels = [str(i + 1) for i in range(len(block.weight))]
    data = json.loads(json.dumps(block_to_json(block, labels)))
    again = block_from_json(data)
    assert again == block
    assert block_to_json(again, labels) == data


def test_h_column_of_single_position_vector_is_q_to_delta():
    # in the plain basis, the expansion of a one-factor word over the block
    # of its weight has coefficients q^(orbit codimension), an independent
    # route to the same triangular data
    from qfold.laurent import q_power
    from qfold.monomial import delta_codim

    for name in ("A3", "D4"):
        p = qfold.get_preset(name)
        seq = p.seq
        for k in range(seq.N):
            for ck in (1, 2):
                gamma = tuple(ck * x for x in seq.betas[k])
                if sum(gamma) > 6:
                    continue
                block = pipeline(p, gamma, "symmetric")
                c0 = tuple(ck if i == k else 0 for i in range(seq.N))
                col = block.index.index(c0)
                for row in range(col, len(block.index)):
                    cp = block.index[row]
                    assert block.H[row][col] == \
                        q_power(delta_codim(seq, p.orientation, cp))