import inspect

import pytest

import qfold.checks
from qfold.checks import (SUITES, check_congruence, check_delta, check_equivariance,
                          check_factorization, check_oracle, check_restriction)
from qfold.cli import main
from qfold.gram import MismatchError, inner_mackey_restricted, pbw_diag
from qfold.laurent import ONE, LaurentPoly, RationalFn, q_power
from qfold.presets import get_preset
from qfold.rootsys import weights_up_to
from qfold.transition import (_common_denominator, _exact_quotient, _numbering,
                              factor_gram, gram_block, matmul_laurent)
from test_ldl import gram as fraction_gram


def _argument(name, args, kwargs):
    """The value a call's arguments give gram_block's parameter ``name``."""
    return inspect.signature(gram_block).bind(*args, **kwargs).arguments.get(name)


def _plus_one(v):
    return RationalFn(v.num + v.den, v.den)


def test_oracle_gates_the_gram_entries_the_commands_print(monkeypatch):
    def tampered(*args, **kwargs):
        gram = gram_block(*args, **kwargs)
        lam = [row[:] for row in gram.lam]
        lam[-1][-1] = _plus_one(lam[-1][-1])
        return gram._replace(lam=lam)

    monkeypatch.setattr(qfold.checks, "gram_block", tampered)
    result = check_oracle(presets=("B2",), max_height=3, random_pairs=0)
    assert not result.ok


def _tamper_D(block):
    block.D = block.D[:]
    block.D[-1] = _plus_one(block.D[-1])


def _tamper_P(block):
    block.P = [row[:] for row in block.P]
    block.P[-1][0] = block.P[-1][0] + ONE


def _tamper_H(block):
    block.H = [row[:] for row in block.H]
    block.H[-1][0] = block.H[-1][0] + ONE


def _tamper_lam(block):
    # 2 + q divides no product of cyclotomic polynomials, so this entry's
    # denominator does not divide the lcm of D's denominators
    block.lam = [row[:] for row in block.lam]
    x = block.lam[-1][-1]
    block.lam[-1][-1] = RationalFn(x.num, x.den * LaurentPoly({0: 2, 1: 1}))


def _tamper_D_den(block):
    # 2 + q divides no product of cyclotomic polynomials, so this entry's
    # denominator does not divide the lcm of lam's denominators
    block.D = block.D[:]
    x = block.D[-1]
    block.D[-1] = RationalFn(x.num, x.den * LaurentPoly({0: 2, 1: 1}))


def _tamper_C(block):
    # the lcm of lam's denominators but one, which it needs: that one does
    # not divide the C handed to the check, though C * lam's other entries
    # stay Laurent by their cofactors, and its own cofactor is C
    dens = list(_numbering(block.lam).kinds)
    for den in dens:
        C, cofactor = _common_denominator(d for d in dens if d != den)
        if _exact_quotient(C, den) is None:
            block.common = C, {**cofactor, den: C}
            return
    raise AssertionError("no denominator of lam grows C")


def _tampering(tamper):
    def tampered(gram, gamma):
        block = factor_gram(gram, gamma)
        tamper(block)
        return block
    return tampered


@pytest.mark.parametrize("tamper, message", [
    (_tamper_D, "does not reconstruct"),
    (_tamper_D_den, "does not reconstruct"),
    (_tamper_P, "PQ != H"),
    (_tamper_H, "does not reconstruct"),
    (_tamper_lam, "does not reconstruct"),
])
def test_factorization_gates_a_tampered_block(tamper, message, monkeypatch):
    monkeypatch.setattr(qfold.checks, "factor_gram", _tampering(tamper))
    result = check_factorization(presets=("B2",), max_height=4)
    assert not result.ok
    assert any(message in f for f in result.failures), result.failures


def test_a_D_denominator_off_the_common_denominator_exits_one(monkeypatch, capsys):
    # the check decides the verdict by an exact division that fails; it
    # raises nothing, so the CLI reports a failed check, not a breach
    monkeypatch.setattr(qfold.checks, "factor_gram", _tampering(_tamper_D_den))
    code = main(["check", "--suite", "factorization", "--preset", "B2",
                 "--max-height", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "does not reconstruct" in out


def test_factorization_builds_one_common_denominator_per_block(monkeypatch):
    # factor_gram builds C once and hands it to ldl and to the check
    calls = []

    def counted(dens):
        calls.append(None)
        return _common_denominator(dens)

    monkeypatch.setattr(qfold.transition, "_common_denominator", counted)
    result = check_factorization(presets=("B2", "G2"), max_height=5)
    assert result.ok
    assert len(calls) == result.instances == 40


def test_a_C_that_a_lam_denominator_does_not_divide_exits_one(monkeypatch, capsys):
    # the common denominator that ldl eliminated over is certified, not
    # trusted: a C that misses a factor fails the block and raises nothing
    monkeypatch.setattr(qfold.checks, "factor_gram", _tampering(_tamper_C))
    code = main(["check", "--suite", "factorization", "--preset", "B2",
                 "--max-height", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  factorization invariants (height <= 4): 14 instances" in out
    assert out.count("does not reconstruct") == 14       # every block


def _diag_key(datum, seq, c):
    return tuple(sorted((datum.d(lab), ck) for lab, ck in zip(seq.indices, c) if ck))


def test_factorization_computes_pbw_diag_once_per_multiset(monkeypatch):
    """pbw_diag(c) is a product over the positions k with c_k > 0 of factors
    fixed by (d_k, c_k), so it depends on the multiset of those pairs alone;
    the suite computes it once per multiset and per call."""
    presets = ("B2", "G2", "D4")
    first, vectors = {}, 0
    for name in presets:
        preset = get_preset(name)
        datum, seq, _ = preset.side()
        for gamma in weights_up_to(datum, 5):
            for c in gram_block(preset, gamma).index:
                vectors += 1
                value = pbw_diag(datum, seq, c)
                assert first.setdefault(_diag_key(datum, seq, c), value) == value, c
    keys = []

    def counted(datum, seq, c):
        keys.append(_diag_key(datum, seq, c))
        return pbw_diag(datum, seq, c)

    monkeypatch.setattr(qfold.checks, "pbw_diag", counted)
    assert check_factorization(presets=presets, max_height=5).ok
    assert sorted(keys) == sorted(first)
    assert len(keys) < vectors


def _lam_with_a_negative_P_entry(*args, **kwargs):
    # the Gram matrix rebuilt from P'Q and D by a fraction sum, P' being P
    # with a negative coefficient added to its last row: H = P'Q, D, P' and
    # Q factor the new matrix exactly, so only the sign of P can show the
    # change
    gram = gram_block(*args, **kwargs)
    block = factor_gram(gram, _argument("gamma", args, kwargs))
    if len(block.P) < 2:
        return gram
    P = [row[:] for row in block.P]
    P[-1][0] = P[-1][0] - q_power(max(P[-1][0].coeffs, default=0) + 1)
    return gram._replace(lam=fraction_gram(matmul_laurent(P, block.Q), block.D))


def test_factorization_gates_negative_P_on_symmetric_presets_only(monkeypatch):
    clean = check_factorization(presets=("A3", "B2"), max_height=4)
    assert clean.ok and clean.ungated_negatives == 0
    monkeypatch.setattr(qfold.checks, "gram_block", _lam_with_a_negative_P_entry)
    result = check_factorization(presets=("A3",), max_height=4)
    assert result.failures
    assert all("has a negative coefficient" in f for f in result.failures), \
        result.failures
    assert result.ungated_negatives is None
    quotient = check_factorization(presets=("B2",), max_height=4)
    assert quotient.ok and quotient.ungated_negatives > 0
    assert "negative coefficients of P on quotient presets (not gated)" in str(quotient)


def test_delta_uses_the_orbit_parts_of_every_symmetric_name():
    # single root positions alone would give 79 and 71 instances
    assert check_delta(presets=("A7",), max_height=6).instances == 135
    assert check_delta(presets=("D6",), max_height=6).instances == 90


def test_equivariance_walks_every_vector_up_to_the_height():
    assert check_equivariance(folds=("A3->B2",), max_height=8).instances == 602
    assert check_equivariance(folds=("D4->G2",), max_height=8).instances == 2790


@pytest.mark.parametrize("spec, height", [
    ("A5->B3", 4), ("D4->C3", 5), ("D5->C4", 4), ("E6->F4", 4), ("A7->B4", 4)])
def test_equivariance_holds_on_every_built_in_folding(spec, height):
    # words differing by a swap of commuting letters, such as f[1] f[2'] f[2]
    # and f[1] f[2] f[2'] on A5->B3, are one monomial
    result = check_equivariance(folds=(spec,), max_height=height)
    assert result.ok, result.failures
    assert result.instances > 0


@pytest.mark.parametrize("spec, height, blocks, pairs", [
    ("A5->B3", 5, 55, 346), ("D4->C3", 5, 55, 353), ("D5->C4", 4, 69, 273),
    ("E6->F4", 4, 69, 281), ("A7->B4", 4, 69, 271)],
    ids=["A5->B3", "D4->C3", "D5->C4", "E6->F4", "A7->B4"])
def test_congruence_and_restriction_hold_on_every_built_in_folding(
        spec, height, blocks, pairs):
    congruence = check_congruence(folds=(spec,), max_height=height)
    assert congruence.ok, congruence.failures
    assert congruence.instances == blocks
    restriction = check_restriction(folds=(spec,), max_height=height)
    assert restriction.ok, restriction.failures
    assert restriction.instances == pairs


def _mismatch(fd, ulword, ulwordp):
    raise MismatchError("inversion statistic changed under unfolding: 1 -> 2")


def _wrong_sum(fd, ulword, ulwordp):
    return inner_mackey_restricted(fd, ulword, ulwordp) + ONE


def _quotient_P_plus_q(gram, gamma):
    block = factor_gram(gram, gamma)
    if len(gamma) == 2 and len(block.P) > 1:   # a B2 block, the quotient side
        block.P = [row[:] for row in block.P]
        block.P[-1][0] = block.P[-1][0] + q_power(1)
    return block


def _quotient_Q_plus_one(gram, gamma):
    # 1 is bar-invariant and not divisible by 2, and H, P and M keep their
    # values, so only the gate on Q sees the change
    block = factor_gram(gram, gamma)
    if len(gamma) == 2 and len(block.Q) > 1:   # a B2 block, the quotient side
        block.Q = [row[:] for row in block.Q]
        block.Q[-1][0] = block.Q[-1][0] + ONE
    return block


def _modified_M_plus_one(*args, **kwargs):
    # on A3->B2 up to height 3 the last vector of every modified block is
    # sigma-fixed, so the tampered sum is one the new gate compares; lam is
    # left as it was, so P and the other gates do not move
    gram = gram_block(*args, **kwargs)
    if _argument("basis", args, kwargs) == "modified":
        M = [row[:] for row in gram.M]
        M[-1][-1] = M[-1][-1] + ONE
        gram = gram._replace(M=M)
    return gram


@pytest.mark.parametrize("suite, kwargs, name, tamper, message", [
    (check_delta, {"presets": ("A3",), "max_height": 4},
     "delta_codim", lambda seq, orientation, c: 1, "delta != 0 at"),
    (check_restriction, {"folds": ("A3->B2",), "max_height": 4},
     "inner_mackey_restricted", _mismatch, "inversion statistic changed"),
    (check_restriction, {"folds": ("A3->B2",), "max_height": 4},
     "inner_mackey_restricted", _wrong_sum, "restricted sum differs"),
    (check_factorization, {"presets": ("B2",), "max_height": 4},
     "factor_gram", _tampering(_tamper_C), "does not reconstruct"),
    (check_congruence, {"folds": ("A3->B2",), "max_height": 3},
     "factor_gram", _quotient_P_plus_q, "P NOT congruent mod 2"),
    (check_congruence, {"folds": ("A3->B2",), "max_height": 3},
     "factor_gram", _quotient_Q_plus_one, "Q NOT congruent mod 2"),
    (check_congruence, {"folds": ("A3->B2",), "max_height": 3},
     "gram_block", _modified_M_plus_one, "matching sums differ mod 2"),
    (check_equivariance, {"folds": ("A3->B2",), "max_height": 4},
     "sigma_on_exponents", lambda fd, seq, c: c, "permutation law fails"),
    (check_equivariance, {"folds": ("A3->B2",), "max_height": 4},
     "word_folded", lambda fd, ulseq, ulc: None, "does not collapse"),
], ids=["delta", "restriction", "restriction-sum", "factorization-C", "congruence",
        "congruence-Q", "congruence-sums", "equivariance", "equivariance-collapse"])
def test_suite_gates_a_tampered_step(suite, kwargs, name, tamper, message,
                                     monkeypatch):
    monkeypatch.setattr(qfold.checks, name, tamper)
    result = suite(**kwargs)
    assert result.failures
    assert all(message in f for f in result.failures), result.failures


_FIELD_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def test_no_code_combines_values_of_the_fraction_field():
    # every Q(q) value is built once from a Laurent numerator and denominator,
    # and RationalFn has no operation that could combine two of them
    assert [name for name in _FIELD_OPERATIONS if hasattr(RationalFn, name)] == []
    for name, suite in SUITES.items():
        assert suite(max_height=4).ok, name
    for argv in (["transition", "--fold", "A5->B3", "--weight", "2,2,2,2,1"],
                 ["gram", "--preset", "G2", "--weight", "6,4"]):
        assert main(argv) == 0, argv
