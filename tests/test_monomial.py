import pytest

import qfold
from qfold.monomial import (MonomialWord, canonical_word, collapse_orbit_runs,
                            delta_codim, dvec, word_folded, word_modified,
                            word_sym)
from qfold.rootsys import RootSystemError, enumerate_block, weight_of


def test_preset_orientations():
    a3 = qfold.get_preset("A3")
    assert set(a3.orientation.edges) == {("2", "1"), ("2", "1'")}
    d4 = qfold.get_preset("D4")
    assert set(d4.orientation.edges) == {("2", "1"), ("2", "1'"), ("2", "1''")}
    e6 = qfold.get_preset("E6")
    assert set(e6.orientation.edges) == {("2", "1"), ("2", "3"), ("2'", "3"),
                                         ("2'", "1'"), ("4", "3")}


def test_dvec():
    a3 = qfold.get_preset("A3")
    c = (0, 0, 1, 0, 0, 0)
    assert dvec(a3.seq, c, 2) == {"1": 1, "1'": 1, "2": 1}
    assert dvec(a3.seq, (0,) * 6, 2) == {"1": 0, "1'": 0, "2": 0}
    b2 = qfold.get_preset("B2")
    assert dvec(b2.ulseq, (0, 0, 5, 0), 2) == {"1": 5, "2": 10}


def test_word_sym():
    a3 = qfold.get_preset("A3")
    assert word_sym(a3.seq, (0,) * 6).letters == ()
    assert word_sym(a3.seq, (0, 0, 0, 0, 0, 3)) == MonomialWord((("2", 3),))
    word = word_sym(a3.seq, (1, 1, 1, 0, 0, 0))
    assert word.letters == (("1", 1), ("1'", 1), ("2", 1), ("1'", 1), ("1", 1))
    # sigma-fixed vector: same element as the orbit-aware construction
    fd = qfold.get_folding("A3->B2").fd
    assert canonical_word(fd.base, word) == \
        canonical_word(fd.base, word_modified(fd, a3.seq, (1, 1, 1, 0, 0, 0)))


def test_word_modified_a3():
    p = qfold.get_folding("A3->B2")
    c = (1, 2, 3, 4, 5, 6)
    word = word_modified(p.fd, p.seq, c)
    # the third factor exponents follow the roots: position 4 carries the
    # 1'-coordinate and position 5 the 1-coordinate
    assert word.letters == (("1'", 2), ("1", 1),
                            ("2", 3), ("1'", 3), ("1", 3),
                            ("2", 9), ("1'", 4), ("1", 5),
                            ("2", 6))
    assert str(word).startswith("f[1']^(2) f[1]^(1)")


def test_word_modified_matches_block_display():
    p = qfold.get_folding("A3->B2")
    words = {
        (1, 1, 1, 0, 0, 0): (("1'", 1), ("1", 1), ("2", 1), ("1'", 1), ("1", 1)),
        (1, 2, 0, 0, 1, 0): (("1'", 2), ("1", 1), ("2", 1), ("1", 1)),
        (2, 1, 0, 1, 0, 0): (("1'", 1), ("1", 2), ("2", 1), ("1'", 1)),
        (2, 2, 0, 0, 0, 1): (("1'", 2), ("1", 2), ("2", 1)),
    }
    for c, letters in words.items():
        assert word_modified(p.fd, p.seq, c).letters == letters


def test_word_modified_d4():
    p = qfold.get_folding("D4->G2")
    c = (2, 2, 2) + (0,) * 8 + (1,)
    word = word_modified(p.fd, p.seq, c)
    assert word.letters == (("1''", 2), ("1'", 2), ("1", 2), ("2", 1))


def test_word_folded_b2():
    p = qfold.get_preset("B2")
    c = (1, 2, 3, 4)
    word = word_folded(p.fd, p.ulseq, c)
    assert word.letters == (("1", 1), ("2", 2), ("1", 2),
                            ("2", 6), ("1", 3), ("2", 4))
    assert word_folded(p.fd, p.ulseq, (0, 0, 0, 0)).letters == ()


def test_word_folded_g2():
    p = qfold.get_preset("G2")
    word = word_folded(p.fd, p.ulseq, (1, 1, 0, 0, 0, 0))
    assert word.letters == (("1", 1), ("2", 1), ("1", 1))


def test_words_preserve_weight():
    for spec in ("A3->B2", "D4->G2"):
        preset = qfold.get_folding(spec)
        fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
        for gamma in qfold.weights_up_to(fd.base, 8):
            for c in enumerate_block(seq, gamma):
                assert word_sym(seq, c).weight(fd.base) == gamma
                assert word_modified(fd, seq, c).weight(fd.base) == gamma
        for ulgamma in qfold.weights_up_to(fd.quotient, 8):
            for ulc in enumerate_block(ulseq, ulgamma):
                assert word_folded(fd, ulseq, ulc).weight(fd.quotient) == ulgamma


def test_delta_codim_values():
    a3 = qfold.get_preset("A3")
    assert delta_codim(a3.seq, a3.orientation, (0,) * 6) == 0
    # vectors supported on a single orbit part have closed orbits
    assert delta_codim(a3.seq, a3.orientation, (0, 0, 4, 0, 0, 0)) == 0
    assert delta_codim(a3.seq, a3.orientation, (0, 0, 0, 2, 3, 0)) == 0
    # two adjacent parts interact: pinned by direct evaluation of the sums
    assert delta_codim(a3.seq, a3.orientation, (1, 1, 1, 1, 0, 0)) == 1


def test_delta_codim_needs_symmetric_datum():
    b2 = qfold.get_preset("B2")
    with pytest.raises(RootSystemError):
        delta_codim(b2.ulseq, b2.orientation, (1, 0, 0, 0))


def test_canonical_word_sorts_commuting_runs():
    fd = qfold.get_folding("A3->B2").fd
    # f_1 and f_1' commute; order inside the run is normalized
    w1 = MonomialWord((("1", 1), ("1'", 1), ("2", 1)))
    w2 = MonomialWord((("1'", 1), ("1", 1), ("2", 1)))
    assert canonical_word(fd.base, w1) == canonical_word(fd.base, w2)
    w3 = MonomialWord((("2", 1), ("1", 1)))
    assert canonical_word(fd.base, w3) != canonical_word(
        fd.base, MonomialWord((("1", 1), ("2", 1))))


def test_canonical_word_is_a_normal_form_of_traces():
    fd = qfold.get_folding("A5->B3").fd
    labels = fd.base.labels
    letter = dict(zip(labels, ((lab, 1) for lab in labels)))
    for a, b in fd.base.edges():
        # adjacent labels: swapping them changes the monomial
        assert canonical_word(fd.base, MonomialWord((letter[a], letter[b]))) != \
            canonical_word(fd.base, MonomialWord((letter[b], letter[a])))
    # a letter moves past the orthogonal ones before it, never past a neighbour:
    # f[1] f[2'] f[2] and f[1] f[2] f[2'] are one monomial
    w1 = MonomialWord((("1", 1), ("2'", 1), ("2", 1)))
    w2 = MonomialWord((("1", 1), ("2", 1), ("2'", 1)))
    assert canonical_word(fd.base, w1) == canonical_word(fd.base, w2)
    # powers of one generator commute, whatever their exponents
    w1 = MonomialWord((("2", 1), ("1", 1), ("1", 2)))
    w2 = MonomialWord((("2", 1), ("1", 2), ("1", 1)))
    assert canonical_word(fd.base, w1) == canonical_word(fd.base, w2)


def test_sigma_word_and_collapse():
    p = qfold.get_folding("A3->B2")
    fd = p.fd
    word = word_modified(fd, p.seq, (1, 2, 0, 0, 1, 0))
    # sigma applied letterwise, up to commuting letters
    sigma = dict(zip(fd.base.labels, fd.sigma))
    image = MonomialWord((("1", 2), ("1'", 1), ("2", 1), ("1'", 1)))
    assert canonical_word(fd.base, word, sigma) == canonical_word(fd.base, image)
    assert canonical_word(fd.base, word) != canonical_word(fd.base, image)
    fixed = word_modified(fd, p.seq, (1, 1, 2, 3, 3, 4))
    collapsed = collapse_orbit_runs(fd, fixed)
    assert collapsed == word_folded(fd, p.ulseq, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        collapse_orbit_runs(fd, word)  # not sigma-fixed
