import pytest

import qfold.checks
from qfold.checks import (SUITES, check_congruence, check_delta, check_equivariance,
                          check_factorization, check_oracle, check_restriction)
from qfold.cli import main
from qfold.gram import MismatchError, inner_mackey_restricted
from qfold.laurent import ONE, RF_ONE, RationalFn, q_power
from qfold.transition import factor_gram, gram_block


def test_oracle_gates_the_gram_entries_the_commands_print(monkeypatch):
    def tampered(preset, gamma, basis=None):
        gram = gram_block(preset, gamma, basis)
        lam = [row[:] for row in gram.lam]
        lam[-1][-1] = lam[-1][-1] + RF_ONE
        return gram._replace(lam=lam)

    monkeypatch.setattr(qfold.checks, "gram_block", tampered)
    result = check_oracle(presets=("B2",), max_height=3, random_pairs=0)
    assert not result.ok


def _tamper_D(block):
    D = block.D[:]
    D[-1] = D[-1] + RF_ONE
    return D, block.P


def _tamper_P(block):
    P = [row[:] for row in block.P]
    P[-1][0] = P[-1][0] + ONE
    return block.D, P


@pytest.mark.parametrize("tamper, message", [
    (_tamper_D, "does not reconstruct"),
    (_tamper_P, "PQ != H"),
])
def test_factorization_gates_a_tampered_block(tamper, message, monkeypatch):
    def tampered(gram, gamma):
        block = factor_gram(gram, gamma)
        block.D, block.P = tamper(block)
        return block

    monkeypatch.setattr(qfold.checks, "factor_gram", tampered)
    result = check_factorization(presets=("B2",), max_height=4)
    assert not result.ok
    assert any(message in f for f in result.failures), result.failures


def test_delta_uses_the_orbit_parts_of_every_symmetric_name():
    # single root positions alone would give 79 and 71 instances
    assert check_delta(presets=("A7",), max_height=6).instances == 135
    assert check_delta(presets=("D6",), max_height=6).instances == 90


def test_equivariance_walks_every_vector_up_to_the_height():
    assert check_equivariance(folds=("A3->B2",), max_height=8).instances == 602
    assert check_equivariance(folds=("D4->G2",), max_height=8).instances == 2790


def _mismatch(fd, ulword, ulwordp):
    raise MismatchError("inversion statistic changed under unfolding: 1 -> 2")


def _wrong_sum(fd, ulword, ulwordp):
    total, witness = inner_mackey_restricted(fd, ulword, ulwordp)
    return total + ONE, witness


def _quotient_P_plus_q(gram, gamma):
    block = factor_gram(gram, gamma)
    if len(gamma) == 2 and len(block.P) > 1:   # a B2 block, the quotient side
        block.P = [row[:] for row in block.P]
        block.P[-1][0] = block.P[-1][0] + q_power(1)
    return block


@pytest.mark.parametrize("suite, kwargs, name, tamper, message", [
    (check_delta, {"presets": ("A3",), "max_height": 4},
     "delta_codim", lambda seq, orientation, c: 1, "delta != 0 at"),
    (check_restriction, {"folds": ("A3->B2",), "max_height": 4},
     "inner_mackey_restricted", _mismatch, "inversion statistic changed"),
    (check_restriction, {"folds": ("A3->B2",), "max_height": 4},
     "inner_mackey_restricted", _wrong_sum, "restricted sum differs"),
    (check_congruence, {"folds": ("A3->B2",), "max_height": 3},
     "factor_gram", _quotient_P_plus_q, "NOT congruent mod 2"),
    (check_equivariance, {"folds": ("A3->B2",), "max_height": 4},
     "sigma_on_exponents", lambda fd, seq, c: c, "permutation law fails"),
    (check_equivariance, {"folds": ("A3->B2",), "max_height": 4},
     "word_folded", lambda fd, ulseq, ulc: None, "does not collapse"),
], ids=["delta", "restriction", "restriction-sum", "congruence",
        "equivariance", "equivariance-collapse"])
def test_suite_gates_a_tampered_step(suite, kwargs, name, tamper, message,
                                     monkeypatch):
    monkeypatch.setattr(qfold.checks, name, tamper)
    result = suite(**kwargs)
    assert result.failures
    assert all(message in f for f in result.failures), result.failures


_FIELD_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def test_no_code_combines_values_of_the_fraction_field(monkeypatch):
    # every Q(q) value is built once from a Laurent numerator and denominator
    def refuse(*_args):
        raise AssertionError("Q(q) arithmetic outside laurent.py")

    for name in _FIELD_OPERATIONS:
        monkeypatch.setattr(RationalFn, name, refuse)
    for name, suite in SUITES.items():
        assert suite(max_height=4).ok, name
    for argv in (["transition", "--fold", "A5->B3", "--weight", "2,2,2,2,1"],
                 ["gram", "--preset", "G2", "--weight", "6,4"]):
        assert main(argv) == 0, argv
