import itertools

import pytest

import qfold
from qfold.rootsys import (InvalidColoring, NotReduced, WrongLength,
                           betas_from_sequence, bipartite_w0, enumerate_block,
                           lex_compare, positive_roots, reflect, vectors_up_to,
                           weight_of, weights_up_to)


def a3():
    return qfold.get_preset("A3").fd.base


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


def test_lex_compare():
    assert lex_compare((1, 1, 1, 0, 0, 0), (1, 2, 0, 0, 1, 0)) == -1
    assert lex_compare((2, 1, 0, 1, 0, 0), (2, 2, 0, 0, 0, 1)) == -1
    assert lex_compare((1, 2), (1, 2)) == 0
    with pytest.raises(WrongLength):
        lex_compare((1,), (1, 2))


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


@pytest.mark.parametrize("spec", ["A3->B2", "D4->G2", "A5->B3"])
def test_vectors_up_to_root_heights_walks_every_block(spec):
    preset = qfold.get_folding(spec)
    for seq in (preset.seq, preset.ulseq):
        walked = vectors_up_to([sum(beta) for beta in seq.betas], 6)
        blocks = [c for gamma in weights_up_to(seq.datum, 6)
                  for c in enumerate_block(seq, gamma)]
        assert walked == sorted(blocks)
