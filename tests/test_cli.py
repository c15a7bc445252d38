import hashlib
import io
import json
import pathlib
import sys

import pytest

from qfold.cli import main
from qfold.laurent import parse_laurent
from qfold.transition import block_from_json

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_b2(capsys):
    code, out, _ = run(["roots", "--preset", "B2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == ["1", "2", "1", "2"]
    assert len(data["betas"]) == 4


def test_roots_with_folding_lists_orbit_parts(capsys):
    code, out, _ = run(["roots", "--fold", "A3->B2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == ["1", "1'", "2", "1", "1'", "2"]
    assert data["orbit_parts"][0] == {"orbit": ["1", "1'"], "positions": [1, 2]}


def test_roots_d4_table(capsys):
    code, out, _ = run(["roots", "--fold", "D4->G2"], capsys)
    data = json.loads(out)
    assert code == 0 and len(data["betas"]) == 12


def test_gram_emits_lambda_and_fixed_part(capsys):
    code, out, _ = run(["gram", "--fold", "A3->B2", "--weight", "2,2,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["lambda"]) == 4
    assert data["index_sigma"] == [[1, 1, 1, 0, 0, 0], [2, 2, 0, 0, 0, 1]]
    assert data["gamma_factors"] == ["1", "q + q^-1", "q + q^-1",
                                     "q^2 + 2 + q^-2"]
    assert data["delta"].startswith("-q^10")
    b = "q + q^-1"
    assert [[parse_laurent(v) for v in row] for row in data["core"]] == \
        [[parse_laurent(v) for v in row] for row in [
            ["4", f"2({b})", f"2({b})", f"({b})^2"],
            [f"2({b})", f"2q^-1({b})", f"({b})^2", f"q^-1({b})^2"],
            [f"2({b})", f"({b})^2", f"2q^-1({b})", f"q^-1({b})^2"],
            [f"({b})^2", f"q^-1({b})^2", f"q^-1({b})^2", f"q^-2({b})^2"]]]


def test_gram_computes_each_matching_sum_once(monkeypatch, capsys):
    from qfold.gram import matching_sum

    calls = []

    def counted(*args):
        calls.append(args)
        return matching_sum(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qfold") and \
                getattr(module, "matching_sum", None) is matching_sum:
            monkeypatch.setattr(module, "matching_sum", counted)
    code, out, _ = run(["gram", "--preset", "G2", "--weight", "6,4"], capsys)
    assert code == 0
    n = len(json.loads(out)["index"])
    assert n == 13
    assert len(calls) == n * (n + 1) // 2


# SHA-256 of the stdout of these commands, taken before the Gram block kept
# its denominators factored; any drift in the printed normal form fails here.
GOLDEN_DIGESTS = {
    ("gram --preset G2 --weight 6,4", "json"):
        "9dcc60f42916ac9f76a133e241a5ca7312b938eeeccd391852709fb7358ae570",
    ("gram --preset G2 --weight 6,4", "tsv"):
        "875d8e370ac37cc4d6860ef1f304018203a84253dd71f8fb91ccacbbdf4b8ab1",
    ("transition --fold D4->G2 --weight 2,2,2,2", "json"):
        "0df56c7be0b30e1598acbaf2daa7aed06281af06525a35040e22475f4e3d0670",
    ("transition --fold D4->G2 --weight 2,2,2,2", "tsv"):
        "cc012cbde133a89475a3665993fbff654acc5c54ec50cd77a598f89a1cf2b3f4",
}


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN_DIGESTS))
def test_output_matches_its_golden_digest(command, fmt, capsys):
    code, out, _ = run(command.split() + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command, fmt]


def test_gram_empty_block_exits_zero(capsys):
    code, out, _ = run(["gram", "--preset", "B2", "--weight", "0,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["index"] == [[0, 0, 0, 0]]


def test_transition_round_trips_against_fixtures(capsys):
    cases = [
        ("fixtures/A3/2,2,1.json", ["transition", "--fold", "A3->B2",
                                    "--weight", "2,2,1"]),
        ("fixtures/B2/2,1.json", ["transition", "--preset", "B2",
                                  "--weight", "2,1"]),
        ("fixtures/G2/2,1.json", ["transition", "--preset", "G2",
                                  "--weight", "2,1"]),
        ("fixtures/D4/2,2,2,1.json", ["transition", "--fold", "D4->G2",
                                      "--weight", "2,2,2,1"]),
    ]
    for path, argv in cases:
        code, out, _ = run(argv, capsys)
        assert code == 0
        emitted = block_from_json(json.loads(out))
        stored = block_from_json(json.loads((ROOT / path).read_text()))
        assert emitted == stored, path


def test_output_is_deterministic(capsys):
    argv = ["transition", "--preset", "G2", "--weight", "2,1"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text in ("preset = B2\nweight = 2,1\n",
                 "preset: B2\nweight: 2,1  # a comment\n"):
        cfg.write_text(text)
        code, out, _ = run(["transition", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["P"][1][0] == "q^4"


def test_custom_datum_via_config(tmp_path, capsys):
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "labels = 1 1' 2\n"
        "form = 2 0 -1; 0 2 -1; -1 -1 2\n"
        "sigma = (1 1')(2)\n"
        "parts = 1 1'; 2\n")
    code, out, _ = run(["roots", "--config", str(cfg)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == ["1", "1'", "2", "1", "1'", "2"]
    assert data["orbit_parts"][0] == {"orbit": ["1", "1'"], "positions": [1, 2]}


def test_custom_datum_by_word_via_config(tmp_path, capsys):
    cfg = tmp_path / "custom.cfg"
    datum = ("labels = 1 1' 2\n"
             "form = 2 0 -1; 0 2 -1; -1 -1 2\n"
             "sigma = (1 1')(2)\n")
    cfg.write_text(datum + "word = 1' 1 2 1 1' 2\n")
    code, out, _ = run(["roots", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["word"] == ["1'", "1", "2", "1", "1'", "2"]
    cfg.write_text(datum + "word = 1 1 2 1 1' 2\n")
    code, out, err = run(["roots", "--config", str(cfg)], capsys)
    assert code == 2 and not out and "not reduced" in err


def test_check_refuses_a_custom_datum(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("labels = 1 1' 2\n"
                   "form = 2 0 -1; 0 2 -1; -1 -1 2\n"
                   "sigma = (1 1')(2)\n"
                   "parts = 1 1'; 2\n")
    code, out, err = run(["check", "--config", str(cfg), "--suite", "oracle",
                          "--max-height", "2"], capsys)
    assert code == 2 and not out and "built-in presets and foldings" in err


def test_check_suite_exit_code(capsys):
    code, out, _ = run(["check", "--suite", "delta", "--preset", "A3",
                        "--max-height", "6"], capsys)
    assert code == 0
    assert "pass" in out


def test_check_rejects_the_selector_its_suite_does_not_take(capsys):
    code, _, err = run(["check", "--suite", "oracle", "--fold", "A3->B2",
                        "--max-height", "2"], capsys)
    assert code == 2
    assert "--preset" in err
    code, _, err = run(["check", "--suite", "congruence", "--preset", "A3"],
                       capsys)
    assert code == 2
    assert "--fold" in err


def test_config_errors_exit_two(capsys):
    assert run(["roots", "--preset", "Z9"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight", "1,2,3"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight=-1,0"], capsys)[0] == 2
    assert run(["transition", "--preset", "A4", "--weight", "1,1"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight", "2,1",
                "--basis", "symmetric"], capsys)[0] == 2


def test_bad_config_values_exit_two_naming_the_key(tmp_path, capsys):
    cases = [
        ("basis", ["gram"], "preset = B2\nweight = 2,1\nbasis = foo\n"),
        ("max-height", ["transition"], "preset = B2\nmax-height = x\n"),
        ("max-height", ["check"], "preset = A3\nmax-height = x\n"),
        ("form", ["roots"], "labels = 1 2\nform = 2 -1; -1 two\nparts = 1; 2\n"),
        ("parts", ["roots"], "labels = 1 2\nform = 2 -1; -1 2\nparts = 1 2\n"),
        ("sigma", ["roots"], "labels = 1 1' 2\nform = 2 0 -1; 0 2 -1; -1 -1 2\n"
                             "sigma = 1 1'\nparts = 1 1'; 2\n"),
    ]
    for key, argv, text in cases:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 2 and key in err, (text, err)
    cfg.write_bytes(b"preset = B2\xff\n")
    assert run(["roots", "--config", str(cfg)], capsys)[0] == 2


def test_unknown_config_keys_exit_two_naming_the_key(tmp_path, capsys):
    cases = [
        ("max-heigth", ["check", "--suite", "delta"], "preset = A3\nmax-heigth = 2\n"),
        ("weight", ["check", "--suite", "delta"],
         "preset = A3\nmax-height = 2\nweight = 1,1,1\n"),
        ("format", ["gram"], "preset = B2\nweight = 2,1\nformat = tsv\n"),
        ("weigth", ["transition"], "preset = B2\nweigth = 2,1\n"),
        ("max-height", ["roots"], "preset = B2\nmax_height = 3\n"),
    ]
    for key, argv, text in cases:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 2 and not out and key in err, (text, err)
    # the same files without the stray key run
    cfg.write_text("preset = A3\nmax-height = 2\n")
    code, out, _ = run(["check", "--suite", "delta", "--config", str(cfg)], capsys)
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("error", [KeyError("orbit"), ValueError("no orbit run")])
def test_internal_key_and_value_errors_exit_three(error, monkeypatch, capsys):
    def breach(*_args):
        raise error

    monkeypatch.setattr("qfold.cli.pipeline", breach)
    code, _, err = run(["transition", "--preset", "B2", "--weight", "2,1"],
                       capsys)
    assert code == 3
    assert "internal invariant breach" in err


def test_tsv_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "block.tsv"
    code, _, _ = run(["transition", "--preset", "B2", "--weight", "2,1",
                      "--format", "tsv", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# weight")
    assert "q^4 + 1" in text


def test_gram_pretty_prints_a_header_and_one_line_per_vector(capsys):
    argv = ["gram", "--fold", "A3->B2", "--weight", "2,2,1"]
    data = json.loads(run(argv, capsys)[1])
    code, out, _ = run(argv + ["--format", "pretty"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "weight (2, 2, 1) (modified): 4 vectors"
    assert lines[1:5] == [f"  {tuple(c)}: " + "  |  ".join(row)
                          for c, row in zip(data["index"], data["lambda"])]
    assert lines[5] == "  fixed part: 2 vectors"
    assert len(lines) == 8


def test_transition_pretty_prints_a_header_and_one_line_per_vector(capsys):
    argv = ["transition", "--preset", "B2", "--weight", "2,1"]
    data = json.loads(run(argv, capsys)[1])
    code, out, _ = run(argv + ["--format", "pretty"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "weight (2, 1) (folded): 2 vectors"
    sections = {}
    for line in lines[1:]:
        if line.startswith("  "):
            rows.append(line[2:])
        else:
            rows = sections.setdefault(line.rstrip(":"), [])
    assert list(sections) == ["index", "H", "D", "P", "Q"]
    assert sections["index"] == [str(c) for c in data["index"]]
    assert sections["D"] == data["D"]
    for name in ("H", "P", "Q"):
        assert sections[name] == ["[" + ",  ".join(row) + "]"
                                  for row in data[name]], name


def test_tsv_cells_are_the_json_cells(capsys):
    for argv in (["--fold", "A3->B2", "--weight", "2,2,1"],
                 ["--preset", "B2", "--weight", "2,1"],
                 ["--preset", "G2", "--weight", "2,1"],
                 ["--fold", "D4->G2", "--weight", "2,2,2,1"]):
        _, out, _ = run(["transition"] + argv, capsys)
        data = json.loads(out)
        _, tsv, _ = run(["transition", "--format", "tsv"] + argv, capsys)
        sections = {}
        for line in tsv.splitlines():
            if line.startswith("# "):
                rows = sections.setdefault(line[2:].split("\t")[0], [])
            else:
                rows.append(line.split("\t"))
        assert sections["index"] == [[str(x) for x in c] for c in data["index"]]
        for name in ("lambda", "H", "P", "Q"):
            assert sections[name] == data[name], (argv, name)
        assert sections["D"] == [data["D"]], argv


def test_max_height_sweep(capsys):
    code, out, _ = run(["transition", "--preset", "B2", "--max-height", "2",
                        "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 5


def test_max_height_zero_means_zero(capsys):
    code, out, _ = run(["transition", "--preset", "B2", "--max-height", "0"],
                       capsys)
    assert code == 0
    assert json.loads(out) == {"blocks": []}
    code, out, _ = run(["check", "--suite", "delta", "--preset", "A3",
                        "--max-height", "0"], capsys)
    assert code == 0
    assert ": 0 instances" in out


def test_negative_max_height_exits_two(tmp_path, capsys):
    for argv in (["check", "--suite", "factorization", "--preset", "A3"],
                 ["transition", "--preset", "A3"],
                 ["transition", "--preset", "B2", "--weight", "2,1"]):
        code, out, err = run(argv + ["--max-height", "-1"], capsys)
        assert code == 2 and "max-height" in err and not out, (argv, err)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-height = -2\n")
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 2 and "max-height" in err and not out, (argv, err)


def test_arithmetic_errors_exit_three(monkeypatch, capsys):
    def breach(*_args):
        raise ArithmeticError("inexact polynomial division")

    monkeypatch.setattr("qfold.cli.pipeline", breach)
    code, _, err = run(["transition", "--preset", "B2", "--weight", "2,1"],
                       capsys)
    assert code == 3
    assert "internal invariant breach" in err


def test_max_block_refuses_a_larger_block_naming_n(tmp_path, capsys):
    # A7 at (2,...,2) has n = 1625, above the default bound
    code, out, err = run(["gram", "--preset", "A7", "--weight",
                          "2,2,2,2,2,2,2"], capsys)
    assert code == 2 and "n = 1625" in err and not out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = G2\nweight = 6,4\nmax-block = 12\n")
    for command in ("gram", "transition"):
        for argv in ([command, "--preset", "G2", "--weight", "6,4",
                      "--max-block", "12"],
                     [command, "--config", str(cfg)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and "n = 13" in err and "max-block" in err, argv
            assert not out
        code, out, _ = run([command, "--config", str(cfg), "--max-block", "13"],
                           capsys)
        assert code == 0 and len(json.loads(out)["index"]) == 13


def test_bad_max_block_exits_two(tmp_path, capsys):
    for argv in (["gram", "--preset", "B2", "--weight", "2,1", "--max-block", "0"],
                 ["transition", "--preset", "B2", "--max-height", "2",
                  "--max-block", "-3"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and "max-block" in err and not out, argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = B2\nweight = 2,1\nmax-block = many\n")
    code, _, err = run(["gram", "--config", str(cfg)], capsys)
    assert code == 2 and "max-block" in err
