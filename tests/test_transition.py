import json

import pytest
from hypothesis import given, strategies as st

import qfold
import qfold.cli
import qfold.transition
from qfold.cli import main
from qfold.laurent import ONE, LaurentPoly, RationalFn, parse_laurent, parse_rational
from qfold.rootsys import weights_up_to
from qfold.transition import (NotIntegral, SingularPivot, TransitionBlock,
                              block_from_json, block_to_json, factor_gram,
                              gram_block, ldl, matmul_laurent, mod_p_compare,
                              pipeline, pq_split, reconstruct_lam,
                              sigma_submatrix)
from test_ldl import SETTINGS, lam_common, laurent, rational


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
    assert reconstruct_lam(H, D, lam, lam_common(lam))


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


def test_pq_split_shares_equal_values():
    """Equal P or Q values are one object: on D4->G2 (2,2,2,2) the 357
    nonzero P positions below the diagonal hold 23 objects, and the 88
    nonzero Q positions 2."""
    block = pipeline(qfold.get_folding("D4->G2"), (2, 2, 2, 2))
    assert len(block.index) == 37
    for M, positions, objects in ((block.P, 357, 23), (block.Q, 88, 2)):
        below = [x for i, row in enumerate(M) for x in row[:i] if x]
        assert len(below) == positions
        assert len({id(x) for x in below}) == len(set(below)) == objects


def test_pq_split_mixed_entry():
    # one entry mixing the three exponent-sign parts
    H = [[ONE, LaurentPoly(0)], [L("q^3 + 2 + 5q^-2"), ONE]]
    P, Q = pq_split(H)
    assert P[1][0] == L("q^3 - 5q^2")
    assert Q[1][0] == L("5q^2 + 2 + 5q^-2")
    assert matmul_laurent(P, Q) == H


@pytest.mark.parametrize("preset, gamma", [
    (lambda: qfold.get_preset("A3"), (2, 2, 1)),
    (lambda: qfold.get_folding("D4->G2"), (2, 2, 2, 2))], ids=["A3", "D4->G2"])
def test_no_laurent_value_of_a_block_holds_a_zero_coefficient(preset, gamma):
    gram = gram_block(preset(), gamma)
    block = factor_gram(gram, gamma)
    fractions = [x for row in gram.lam for x in row] + block.D
    values = [x for M in (gram.M, block.H, block.P, block.Q) for row in M for x in row]
    values += [part for x in fractions for part in (x.num, x.den)]
    assert len(values) > 4 * len(block.index) ** 2
    assert all(all(v.coeffs.values()) for v in values)


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


def test_gram_entries_are_the_matching_sums_over_the_expanded_denominators():
    """gram_block keeps each denominator delta * g[a] * g[b] as its factors
    and builds each distinct matching sum and entry once: every entry
    equals the fraction over the expanded product built afresh, and equal
    values, sums or entries, are one object."""
    for preset, gamma in ((qfold.get_preset("G2"), (6, 4)),
                          (qfold.get_preset("A3"), (4, 4, 4)),
                          (qfold.get_folding("D4->G2"), (2, 2, 2, 2)),
                          (qfold.get_folding("A5->B3"), (2, 2, 2, 2, 1))):
        block = gram_block(preset, gamma)
        n = len(block.index)
        assert n > 10
        sums, entries = {}, {}
        for a in range(n):
            for b in range(a, n):
                core, entry = block.M[a][b], block.lam[a][b]
                assert block.M[b][a] is core and block.lam[b][a] is entry
                expected = RationalFn(core, block.delta * block.g[a] * block.g[b])
                assert (entry.num, entry.den) == (expected.num, expected.den), \
                    (gamma, a, b)
                assert sums.setdefault(core, core) is core, (gamma, a, b)
                assert entries.setdefault(entry, entry) is entry, (gamma, a, b)
        assert len(entries) < n * (n + 1) // 2, gamma


def test_heuristic_gcd_serves_every_fraction_of_the_reference_blocks(monkeypatch):
    """Every gcd these blocks take (Gram entries, the lcm of their
    prefactors and D; the reconstruction check certifies the block's
    common denominator and takes none) is the heuristic gcd: each gcd of
    two parts of degree >= 1 reaches it, and a slide back to the PRS gcd
    fails here."""
    import qfold.laurent as qlaurent

    reached, served = [], []
    dense = qlaurent._dense_gcd_cofactors
    heuristic = qlaurent._heuristic_gcd_cofactors

    def dense_counted(A, a_step, B):
        if len(A) > 1 and B.length > 1:     # the constant cases need no gcd
            reached.append(B)
        return dense(A, a_step, B)

    def counted(A, B, r):
        served.append(B)
        return heuristic(A, B, r)

    def refuse(a, b):
        raise AssertionError(f"PRS fallback on ({a}, {b})")

    monkeypatch.setattr(qlaurent, "_dense_gcd_cofactors", dense_counted)
    monkeypatch.setattr(qlaurent, "_heuristic_gcd_cofactors", counted)
    monkeypatch.setattr(qlaurent, "_prs_gcd_cofactors", refuse)
    for preset, gamma in ((qfold.get_preset("A3"), (4, 4, 4)),
                          (qfold.get_preset("G2"), (6, 4)),
                          (qfold.get_folding("D4->G2"), (2, 2, 2, 2))):
        block = pipeline(preset, gamma)
        assert reconstruct_lam(block.H, block.D, block.lam, block.common)
    assert len(served) == len(reached) > 0
    assert all(b is c for b, c in zip(served, reached))


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


def _identity_alone(datum, weight):
    return [tuple(range(datum.rank))]


# rows ldl eliminates with the block permutations gram_block records; it
# copies the others.  On the identity foldings no permutation is total,
# so every row is eliminated.
ROWS_ELIMINATED = {
    ("A3->B2", (2, 2, 1)): 3, ("A3->B2", (3, 3, 3)): 13,
    ("A5->B3", (2, 2, 2, 1, 1)): 13, ("A5->B3", (2, 2, 1, 2, 2)): 28,
    ("D4->G2", (2, 2, 2, 2)): 14, ("D4->G2", (2, 3, 2, 2)): 25,
    ("D4->G2", (3, 3, 3, 3)): 40,
}


@pytest.mark.parametrize("flag, spec, gamma", [
    ("--fold", "A3->B2", (2, 2, 1)), ("--fold", "A3->B2", (3, 3, 3)),
    ("--fold", "A5->B3", (2, 2, 2, 1, 1)), ("--fold", "A5->B3", (2, 2, 1, 2, 2)),
    ("--fold", "D4->G2", (2, 2, 2, 2)), ("--fold", "D4->G2", (2, 3, 2, 2)),
    ("--fold", "D4->G2", (3, 3, 3, 3)),
    # identity foldings, where some images of a word are no block word
    ("--preset", "A3", (4, 4, 4)), ("--preset", "D4", (2, 2, 2, 2)),
])
def test_orbit_reuse_changes_no_sum_and_no_output(flag, spec, gamma, monkeypatch,
                                                   capsys):
    """The Gram block, the transition block and the printed gram and
    transition records are the same whether each orbit of word pairs under
    the automorphisms fixing gamma shares one matching sum and ldl and
    pq_split copy rows, or, with the identity as the only automorphism,
    every pair, row and entry is computed.  An eliminated row builds its
    own D object and a copied row shares its representative's, so the
    distinct D objects count the rows eliminated."""
    argv = [flag, spec, "--weight", ",".join(map(str, gamma))]
    sums, blocks, factored = [], [], []

    def counted(*args):
        sums.append(args)
        return matching_sum(*args)

    def recorded(*args):
        blocks.append(gram_block(*args))
        return blocks[-1]

    def factored_by(*args):
        factored.append(pipeline(*args))
        return factored[-1]

    def outputs():             # gram and transition each build the block once
        sums.clear()
        printed = []
        for command in ("gram", "transition"):
            assert main([command, *argv]) == 0
            printed.append(capsys.readouterr().out)
        return blocks[-1], factored[-1], len(sums) // 2, printed

    matching_sum = qfold.transition.matching_sum
    monkeypatch.setattr(qfold.transition, "matching_sum", counted)
    monkeypatch.setattr(qfold.cli, "gram_block", recorded)
    monkeypatch.setattr(qfold.cli, "pipeline", factored_by)
    reused, reused_block, reused_calls, printed = outputs()
    monkeypatch.setattr(qfold.transition, "automorphisms", _identity_alone)
    full, full_block, full_calls, full_printed = outputs()
    n = len(full.index)
    assert full_calls == n * (n + 1) // 2 > reused_calls
    assert reused.M == full.M and reused.lam == full.lam
    assert reused_block == full_block
    assert len({id(d) for d in full_block.D}) == n
    assert len({id(d) for d in reused_block.D}) == ROWS_ELIMINATED.get((spec, gamma), n)
    assert printed == full_printed


def test_a_one_word_block_takes_no_automorphism_search(monkeypatch):
    """A block of one word has no pair to share and no row to copy, so
    gram_block searches no automorphism for it and records no permutation.
    Before, such a block recorded the identity [0] once per automorphism
    that passed the guard; ldl and pq_split do nothing with it, so the
    factors are the same with those permutations as without."""
    searched = []

    def recorded(datum, weight):
        searched.append(tuple(weight))
        return automorphisms(datum, weight)

    automorphisms = qfold.transition.automorphisms
    monkeypatch.setattr(qfold.transition, "automorphisms", recorded)
    one_word = 0
    for preset in (qfold.get_preset("A3"), qfold.get_preset("D4"),
                   qfold.get_folding("D4->G2")):
        for gamma in weights_up_to(preset.side()[0], 6):
            searched.clear()
            gram = gram_block(preset, gamma)
            if len(gram.index) != 1:
                assert searched == [gamma]
                continue
            one_word += 1
            assert searched == [] and gram.perms == []
            block = factor_gram(gram, gamma)
            assert block == factor_gram(gram._replace(perms=[[0]] * 5), gamma)
    assert one_word == 33 + 89 + 89


def _rho(datum, seq, index, t):
    """The permutation of the block index that the label permutation t
    induces through the positions of the roots t(beta_k)."""
    position = {beta: k for k, beta in enumerate(seq.betas)}
    moved = [position[tuple(beta[t.index(i)] for i in range(len(beta)))]
             for beta in seq.betas]
    where = {c: a for a, c in enumerate(index)}
    return [where[tuple(c[moved.index(k)] for k in range(len(c)))] for c in index]


def test_the_guard_refuses_each_unsafe_move():
    """A move reaches ldl only with a total permutation, for an automorphism
    fixing the reduced word up to commuting letters, equal to the
    permutation the automorphism induces on exponent vectors; a move that
    fails any one of these is refused."""
    from qfold.presets import custom_preset
    from qfold.transition import _block_permutations, _pbw_permutations

    preset = qfold.get_folding("D4->G2")
    gamma = (2, 2, 2, 2)
    datum, seq, _ = preset.side()
    block = gram_block(preset, gamma)
    moves = _block_permutations(datum, gamma, block.words)
    assert len(moves) == 5
    for t, perm in moves:
        assert perm == _rho(datum, seq, block.index, t)
        assert _pbw_permutations(datum, seq, block.index, [(t, perm)]) == [perm]
    (t, perm), (_, other) = moves[:2]
    assert other != perm
    partial = perm[:-1] + [None]
    assert _pbw_permutations(datum, seq, block.index, [(t, partial)]) == []
    assert _pbw_permutations(datum, seq, block.index, [(t, other)]) == []
    # the flip of 1 and 1' sends the reduced word 1 2 1' 2 1 2 to
    # 1' 2 1 2 1' 2, which no swap of commuting letters reaches
    flip = custom_preset(["1", "1'", "2"], [[2, 0, -1], [0, 2, -1], [-1, -1, 2]],
                         word=("1", "2", "1'", "2", "1", "2"))
    datum, seq, _ = flip.side()
    for gamma in ((1, 1, 1), (2, 2, 1), (3, 3, 1)):
        index = gram_block(flip, gamma).index
        rho = _rho(datum, seq, index, (1, 0, 2))
        assert _pbw_permutations(datum, seq, index, [((1, 0, 2), rho)]) == []


@pytest.mark.parametrize("weight", ["1,1,1", "2,2,1", "3,3,1"])
def test_a_word_the_flip_does_not_fix_hands_ldl_no_permutation(weight, tmp_path,
                                                               monkeypatch, capsys):
    """On A3 with the reduced word 1 2 1' 2 1 2 the flip of 1 and 1' fixes
    each weight but not the word (its permutations of these blocks are
    partial too), so ldl and pq_split receive no permutation, and
    transition prints the bytes it prints with the identity as the only
    automorphism."""
    cfg = tmp_path / "flip.cfg"
    cfg.write_text("labels = 1 1' 2\n"
                   "form = 2 0 -1; 0 2 -1; -1 -1 2\n"
                   "word = 1 2 1' 2 1 2\n")
    received = []

    def recording(fn):
        def recorded(*args):
            received.append(args[1:])
            return fn(*args)
        return recorded

    monkeypatch.setattr(qfold.transition, "ldl", recording(ldl))
    monkeypatch.setattr(qfold.transition, "pq_split", recording(pq_split))
    argv = ["transition", "--config", str(cfg), "--weight", weight]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert [perms for perms, *_common in received] == [[], []]
    monkeypatch.setattr(qfold.transition, "automorphisms", _identity_alone)
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
