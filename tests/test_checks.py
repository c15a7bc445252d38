import qfold.checks
from qfold.checks import check_delta, check_oracle
from qfold.laurent import RF_ONE
from qfold.transition import gram_block


def test_oracle_gates_the_gram_entries_the_commands_print(monkeypatch):
    def tampered(preset, gamma, basis=None):
        gram = gram_block(preset, gamma, basis)
        lam = [row[:] for row in gram.lam]
        lam[-1][-1] = lam[-1][-1] + RF_ONE
        return gram._replace(lam=lam)

    monkeypatch.setattr(qfold.checks, "gram_block", tampered)
    result = check_oracle(presets=("B2",), max_height=3, random_pairs=0)
    assert not result.ok


def test_delta_uses_the_orbit_parts_of_every_symmetric_name():
    # single root positions alone would give 79 and 71 instances
    assert check_delta(presets=("A7",), max_height=6).instances == 135
    assert check_delta(presets=("D6",), max_height=6).instances == 90
