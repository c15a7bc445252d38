import pytest

import qfold
from qfold import presets
from qfold.folding import (NotAdmissible, fold_exponent, lift_sequence,
                           orbit_blocks, sigma_on_exponents, unfold_exponent,
                           validate_admissible)
from qfold.rootsys import enumerate_block, weight_of


def test_a3_quotient_is_b2():
    fd = qfold.get_folding("A3->B2").fd
    q = fd.quotient
    assert fd.p == 2
    assert q.labels == ("1", "2")
    assert q.form[0][0] == 4 and q.form[1][1] == 2 and q.form[0][1] == -2


def test_d4_quotient_is_g2():
    fd = qfold.get_folding("D4->G2").fd
    q = fd.quotient
    assert fd.p == 3
    assert q.form[0][0] == 6 and q.form[0][1] == -3 and q.form[1][1] == 2


def test_identity_folding_quotient_equals_base():
    base = qfold.get_preset("A3").fd.base
    fd = qfold.identity_folding(base)
    assert fd.quotient.labels == base.labels
    assert fd.quotient.form == base.form
    assert fd.p == 1


def test_non_admissible_rejected():
    base = qfold.get_preset("A3").fd.base
    # swapping joined nodes does not preserve the form
    with pytest.raises(NotAdmissible):
        validate_admissible(base, {"1": "2", "2": "1", "1'": "1'"})
    with pytest.raises(NotAdmissible):
        validate_admissible(base, {"1": "2", "2": "1'", "1'": "2"})


def test_lift_sequence():
    b2 = qfold.get_folding("A3->B2")
    assert lift_sequence(b2.fd, ("1", "2", "1", "2")) == \
        ("1", "1'", "2", "1", "1'", "2")
    g2 = qfold.get_folding("D4->G2")
    assert lift_sequence(g2.fd, ("1", "2") * 3) == ("1", "1'", "1''", "2") * 3
    trivial = qfold.identity_folding(b2.fd.base)
    word = ("1", "1'", "2", "1", "1'", "2")
    assert lift_sequence(trivial, word) == word


def test_sigma_on_exponents_a3():
    p = qfold.get_folding("A3->B2")
    c = (1, 2, 3, 4, 5, 6)
    assert sigma_on_exponents(p.fd, p.seq, c) == (2, 1, 3, 5, 4, 6)
    fixed = (1, 1, 2, 3, 3, 4)
    assert sigma_on_exponents(p.fd, p.seq, fixed) == fixed


def test_sigma_on_exponents_d4():
    p = qfold.get_folding("D4->G2")
    c = tuple(range(1, 13))
    out = sigma_on_exponents(p.fd, p.seq, c)
    # values cycle forward within each orbit part; fixed slots stay
    assert out == (3, 1, 2, 4, 7, 5, 6, 8, 11, 9, 10, 12)
    assert sigma_on_exponents(p.fd, p.seq, out) == \
        (2, 3, 1, 4, 6, 7, 5, 8, 10, 11, 9, 12)
    triple = sigma_on_exponents(p.fd, p.seq,
                                sigma_on_exponents(p.fd, p.seq, out))
    assert triple == c


def test_fold_exponent():
    p = qfold.get_folding("A3->B2")
    assert fold_exponent(p.fd, p.ulseq, (1, 2, 3, 4)) == (1, 1, 2, 3, 3, 4)
    assert fold_exponent(p.fd, p.ulseq, (1, 1, 0, 0)) == (1, 1, 1, 0, 0, 0)
    assert fold_exponent(p.fd, p.ulseq, (0, 0, 0, 0)) == (0,) * 6
    assert unfold_exponent(p.fd, p.seq, p.ulseq, (1, 1, 1, 0, 0, 0)) == (1, 1, 0, 0)
    assert unfold_exponent(p.fd, p.seq, p.ulseq, (1, 2, 0, 0, 0, 0)) is None


def test_fixed_points_are_exactly_folded_vectors():
    for spec in ("A3->B2", "D4->G2"):
        preset = qfold.get_folding(spec)
        fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
        for gamma in qfold.weights_up_to(fd.base, 8):
            block = enumerate_block(seq, gamma)
            if not block:
                continue
            images = {}
            for c in block:
                sc = sigma_on_exponents(fd, seq, c)
                images[c] = sc
                # weight transforms by sigma, so sigma-stable weights close up
                assert weight_of(seq, sc) == fd.sigma_root(gamma)
            if fd.sigma_root(gamma) != gamma:
                continue
            # order p bijection on the block
            for c in block:
                cur = c
                for _ in range(fd.p):
                    cur = images[cur]
                assert cur == c
            fixed = {c for c in block if images[c] == c}
            ulgamma = fd.project_weight(gamma)
            folded = {fold_exponent(fd, ulseq, ulc)
                      for ulc in enumerate_block(ulseq, ulgamma)}
            assert fixed == folded


def test_folded_weight_matches_quotient_weight():
    preset = qfold.get_folding("D4->G2")
    fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
    for ulgamma in qfold.weights_up_to(fd.quotient, 5):
        for ulc in enumerate_block(ulseq, ulgamma):
            c = fold_exponent(fd, ulseq, ulc)
            assert weight_of(seq, c) == fd.expand_weight(ulgamma)
            assert fd.project_weight(weight_of(seq, c)) == ulgamma


def test_lifted_word_splits_into_orbit_parts():
    for spec in ("A3->B2", "D4->G2", "E6->F4", "D5->C4", "A5->B3"):
        preset = qfold.get_folding(spec)
        fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
        blocks = orbit_blocks(fd, seq)
        assert len(blocks) == ulseq.N
        for (k, positions), ulbeta in zip(blocks, ulseq.betas):
            total = [0] * fd.base.rank
            for s in positions:
                # sigma permutes the roots of each part
                assert fd.sigma_root(seq.betas[s]) in {seq.betas[t] for t in positions}
                for i, x in enumerate(seq.betas[s]):
                    total[i] += x
            assert tuple(total) == fd.expand_weight(ulbeta)


def test_get_folding_builds_its_source_once(monkeypatch):
    calls = []
    build = presets._build

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(presets, "_build", counted)
    qfold.get_folding("D4->G2")
    assert calls == ["D4"]


def test_get_folding_returns_its_source_preset():
    sources = {"A3->B2": lambda: presets._preset_a(3),
               "A5->B3": lambda: presets._preset_a(5),
               "A7->B4": lambda: presets._preset_a(7),
               "D4->G2": presets._preset_d4_triality,
               "D4->C3": lambda: presets._preset_d(4),
               "D5->C4": lambda: presets._preset_d(5),
               "D6->C5": lambda: presets._preset_d(6),
               "E6->F4": presets._preset_e6}
    for spec, build in sources.items():
        assert qfold.get_folding(spec) == build(), spec
    for spec in ("A5->B2", "A3->C3", "D4->B3", "E6->G2", "A4->B2"):
        with pytest.raises(presets.UnsupportedPreset):
            qfold.get_folding(spec)
