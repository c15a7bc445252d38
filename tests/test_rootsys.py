import itertools

import pytest

import qfold
from qfold.rootsys import (InvalidColoring, NotReduced, RootSystemError, WrongLength,
                           automorphisms, betas_from_sequence, bipartite_w0,
                           cartan_datum, enumerate_block,
                           positive_roots, reflect, vectors_up_to, weight_of,
                           weights_up_to)


def a3():
    return qfold.get_preset("A3").fd.base


def test_index_is_the_label_position():
    datum = a3()
    assert [datum.index(lab) for lab in datum.labels] == [0, 1, 2]
    with pytest.raises(RootSystemError, match="unknown label '3'"):
        datum.index("3")


def test_reflect_simple_root_negates():
    datum = a3()
    assert reflect(datum, "1", datum.simple_root("1")) == (-1, 0, 0)


def test_reflect_adjacent_node():
    datum = a3()
    # labels are ordered (1, 1', 2); s_2(a_1) = a_1 + a_2
    assert reflect(datum, "2", datum.simple_root("1")) == (1, 0, 1)


def test_reflect_is_an_involution():
    datum = a3()
    for lab in datum.labels:
        for v in [(1, 2, 3), (0, 1, 0), (2, 0, 1)]:
            assert reflect(datum, lab, reflect(datum, lab, v)) == v


def test_a3_beta_order():
    preset = qfold.get_preset("A3")
    assert preset.seq.indices == ("1", "1'", "2", "1", "1'", "2")
    assert preset.seq.betas == (
        (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 1))


def test_d4_triality_root_table():
    preset = qfold.get_preset("D4")
    labels = preset.fd.base.labels
    assert labels == ("1", "1'", "1''", "2")

    def root(s):
        tokens = s.split()
        return tuple(tokens.count(lab) for lab in labels)

    expected = ["1", "1'", "1''", "1 1' 1'' 2", "1' 1'' 2", "1 1'' 2",
                "1 1' 2", "1 1' 1'' 2 2", "1 2", "1' 2", "1'' 2", "2"]
    assert preset.seq.betas == tuple(root(s) for s in expected)


def test_b2_beta_order():
    preset = qfold.get_preset("B2")
    assert preset.ulseq.indices == ("1", "2", "1", "2")
    assert preset.ulseq.betas == ((1, 0), (1, 1), (1, 2), (0, 1))


def test_not_reduced_word_rejected():
    datum = a3()
    with pytest.raises(NotReduced):
        betas_from_sequence(datum, ("1", "1", "2", "1", "1'", "2"))
    with pytest.raises(WrongLength):
        betas_from_sequence(datum, ("1", "2"))


def test_bipartite_words():
    a3p = qfold.get_preset("A3")
    assert bipartite_w0(a3p.fd.base, a3p.parts) == ("1", "1'", "2") * 2
    d4 = qfold.get_preset("D4")
    assert bipartite_w0(d4.fd.base, d4.parts) == ("1", "1'", "1''", "2") * 3
    e6 = qfold.get_preset("E6")
    assert bipartite_w0(e6.fd.base, e6.parts) == ("1", "1'", "3", "2", "2'", "4") * 6


def test_invalid_coloring_rejected():
    datum = a3()
    with pytest.raises(InvalidColoring):
        bipartite_w0(datum, (("1", "2"), ("1'",)))


def test_weight_of():
    preset = qfold.get_preset("A3")
    seq = preset.seq
    assert weight_of(seq, (0,) * 6) == (0, 0, 0)
    assert weight_of(seq, (1, 1, 1, 0, 0, 0)) == (2, 2, 1)
    assert weight_of(seq, (2, 2, 0, 0, 0, 1)) == (2, 2, 1)


def test_enumerate_block_a3():
    seq = qfold.get_preset("A3").seq
    assert enumerate_block(seq, (2, 2, 1)) == [
        (1, 1, 1, 0, 0, 0), (1, 2, 0, 0, 1, 0),
        (2, 1, 0, 1, 0, 0), (2, 2, 0, 0, 0, 1)]
    assert enumerate_block(seq, (1, 0, 0)) == [(1, 0, 0, 0, 0, 0)]


def test_enumerate_block_b2():
    seq = qfold.get_preset("B2").ulseq
    assert enumerate_block(seq, (2, 1)) == [(1, 1, 0, 0), (2, 0, 0, 1)]


def test_positive_root_counts():
    expected = {"A3": 6, "B2": 4, "D4": 12, "G2": 6, "E6": 36,
                "A5": 15, "B3": 9, "D5": 20, "C4": 16, "F4": 24}
    for name, count in expected.items():
        preset = qfold.get_preset(name)
        seq = preset.ulseq if preset.is_quotient else preset.seq
        assert seq.N == count, name
        datum = preset.fd.quotient if preset.is_quotient else preset.fd.base
        assert len(positive_roots(datum)) == count


def test_enumerate_block_sorted_and_weighted():
    for name in ("A3", "B2", "D4", "G2"):
        preset = qfold.get_preset(name)
        setup_seq = preset.ulseq if preset.is_quotient else preset.seq
        datum = preset.fd.quotient if preset.is_quotient else preset.fd.base
        for gamma in qfold.weights_up_to(datum, 8):
            block = enumerate_block(setup_seq, gamma)
            assert block == sorted(block)
            assert len(set(block)) == len(block)
            for c in block:
                assert weight_of(setup_seq, c) == gamma


@pytest.mark.parametrize("name, height", [("G2", 5), ("A3", 6), ("D4", 6)])
def test_weights_up_to_lists_every_weight_in_lex_order(name, height):
    datum = qfold.get_preset(name).side()[0]
    expected = [v for v in itertools.product(range(height + 1),
                                              repeat=datum.rank)
                if 0 < sum(v) <= height]
    assert weights_up_to(datum, height) == expected


# G2 and F4 roots have coefficients up to 3 and 4, so the foldings onto
# them also test that enumerate_block's packed lanes never carry
WALK_HEIGHTS = {"A3->B2": 6, "D4->G2": 6, "A5->B3": 6, "D5->C4": 6, "E6->F4": 5}


@pytest.mark.parametrize("spec", WALK_HEIGHTS)
def test_vectors_up_to_root_heights_walks_every_block(spec):
    height = WALK_HEIGHTS[spec]
    preset = qfold.get_folding(spec)
    for seq in (preset.seq, preset.ulseq):
        walked = vectors_up_to([sum(beta) for beta in seq.betas], height)
        blocks = [c for gamma in weights_up_to(seq.datum, height)
                  for c in enumerate_block(seq, gamma)]
        assert walked == sorted(blocks)


def _preserves_the_form(datum, t):
    form = datum.form
    return all(form[t[i]][t[j]] == form[i][j]
               for i in range(datum.rank) for j in range(datum.rank))


@pytest.mark.parametrize("name, order", [
    ("A3", 2), ("A5", 2), ("D5", 2), ("E6", 2), ("D4", 6),
    ("B2", 1), ("B3", 1), ("C3", 1), ("F4", 1), ("G2", 1)])
def test_automorphisms_of_the_built_in_forms(name, order):
    datum = qfold.get_preset(name).side()[0]
    found = automorphisms(datum, (0,) * datum.rank)
    assert len(found) == len(set(found)) == order
    assert found[0] == tuple(range(datum.rank))
    assert all(sorted(t) == list(range(datum.rank)) and _preserves_the_form(datum, t)
               for t in found)


def test_automorphisms_of_a_rank_8_chain_in_bipartite_label_order():
    labels = [str(k) for k in (1, 3, 5, 7, 2, 4, 6, 8)]
    form = [[2 if a == b else -1 if abs(int(a) - int(b)) == 1 else 0 for b in labels]
            for a in labels]
    datum = cartan_datum(labels, form)
    flip = tuple(labels.index(str(9 - int(lab))) for lab in labels)
    assert automorphisms(datum, (0,) * 8) == [tuple(range(8)), flip]
    assert automorphisms(datum, (1, 1, 2, 2, 2, 2, 1, 1)) == [tuple(range(8)), flip]
    assert automorphisms(datum, (1, 1, 2, 2, 2, 2, 1, 2)) == [tuple(range(8))]


@pytest.mark.parametrize("weight, fixing", [
    ((2, 2, 2, 2), 6), ((2, 3, 2, 2), 2), ((3, 3, 2, 2), 2), ((1, 2, 3, 4), 1)])
def test_automorphisms_fixing_a_weight_of_d4(weight, fixing):
    # labels 1 1' 1'' 2: the permutations of the outer nodes that fix the weight
    datum = qfold.get_preset("D4").side()[0]
    found = automorphisms(datum, weight)
    assert len(found) == fixing
    assert all(t[3] == 3 and all(weight[k] == weight[i] for i, k in enumerate(t))
               for t in found)
