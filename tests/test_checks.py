import pytest

import qfold.checks
from qfold.checks import check_delta, check_factorization, check_oracle
from qfold.laurent import ONE, RF_ONE
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
