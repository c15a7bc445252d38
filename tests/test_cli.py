import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qfold.cli import main
from qfold.laurent import parse_laurent
from qfold.presets import BASES, custom_preset
from qfold.rootsys import RootSystemError, bipartite_w0, cartan_datum, weights_up_to
from qfold.transition import SingularPivot, block_from_json, pipeline

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


def _count_matching_sums(monkeypatch):
    """The list of calls of matching_sum that qfold makes from now on."""
    from qfold.gram import matching_sum

    calls = []

    def counted(*args):
        calls.append(args)
        return matching_sum(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qfold") and \
                getattr(module, "matching_sum", None) is matching_sum:
            monkeypatch.setattr(module, "matching_sum", counted)
    return calls


def test_gram_computes_each_matching_sum_once(monkeypatch, capsys):
    calls = _count_matching_sums(monkeypatch)
    code, out, _ = run(["gram", "--preset", "G2", "--weight", "6,4"], capsys)
    assert code == 0
    n = len(json.loads(out)["index"])
    assert n == 13
    assert len(calls) == n * (n + 1) // 2


@pytest.mark.parametrize("flag, spec, weight, n, sums", [
    # every automorphism of D4 fixes (2,2,2,2); a transposition of two outer
    # nodes fixes each of its sigma-images (2,3,2,2), (3,2,2,2), (2,2,3,2)
    ("--fold", "D4->G2", "2,2,2,2", 37, 172),
    ("--fold", "D4->G2", "2,3,2,2", 37, 403),
    ("--fold", "D4->G2", "3,2,2,2", 37, 403),
    ("--fold", "D4->G2", "2,2,3,2", 37, 403),
    ("--preset", "A3", "4,4,4", 35, 480),
    # no automorphism but the identity fixes (2,2,2,2,1)
    ("--fold", "A5->B3", "2,2,2,2,1", 50, 50 * 51 // 2),
])
def test_gram_computes_one_matching_sum_per_orbit_of_pairs(flag, spec, weight, n,
                                                           sums, monkeypatch, capsys):
    calls = _count_matching_sums(monkeypatch)
    code, out, _ = run(["gram", flag, spec, "--weight", weight], capsys)
    assert code == 0
    assert len(json.loads(out)["index"]) == n
    assert len(calls) == sums


@pytest.mark.parametrize("weight, n, sums", [("2,2,1", 4, 7), ("3,3,3", 20, 119)])
def test_custom_datum_shares_sums_without_changing_output(weight, n, sums, tmp_path,
                                                          monkeypatch, capsys):
    """A3 on config data, its labels in the order 1 1' 2: the flip of 1 and
    1' fixes each weight, and gram and transition print the same bytes
    with the identity as the only automorphism."""
    import qfold.transition

    cfg = tmp_path / "custom.cfg"
    cfg.write_text("labels = 1 1' 2\n"
                   "form = 2 0 -1; 0 2 -1; -1 -1 2\n"
                   "sigma = (1 1')(2)\n"
                   "parts = 1 1'; 2\n")
    calls = _count_matching_sums(monkeypatch)

    def outputs():
        printed = []
        for command in ("gram", "transition"):
            code, out, _ = run([command, "--config", str(cfg), "--weight", weight],
                               capsys)
            assert code == 0
            printed.append(out)
        return printed

    printed = outputs()
    assert len(json.loads(printed[0])["index"]) == n
    assert len(calls) == 2 * sums
    monkeypatch.setattr(qfold.transition, "automorphisms",
                        lambda datum, weight: [tuple(range(datum.rank))])
    assert outputs() == printed
    assert len(calls) == 2 * sums + n * (n + 1)


# SHA-256 of the stdout of these commands, taken before the Gram block kept
# its denominators factored (the A5->B3 (2,2,2,2,1) ones before it shared
# equal values, A5->B3 (2,2,2,2,2), n = 125, before P and Q shared theirs,
# A3 (4,4,4) before each Gram entry cancelled a prefactor from its packed
# matching sum); any drift in the printed normal form fails here.
GOLDEN_DIGESTS = {
    ("gram --preset A3 --weight 4,4,4", "json"):
        "05e156dbbec16806ae237ff4878e25180bafbb83b57623846841f258339fff1c",
    ("gram --preset G2 --weight 6,4", "json"):
        "9dcc60f42916ac9f76a133e241a5ca7312b938eeeccd391852709fb7358ae570",
    ("gram --preset G2 --weight 6,4", "tsv"):
        "875d8e370ac37cc4d6860ef1f304018203a84253dd71f8fb91ccacbbdf4b8ab1",
    ("transition --fold D4->G2 --weight 2,2,2,2", "json"):
        "0df56c7be0b30e1598acbaf2daa7aed06281af06525a35040e22475f4e3d0670",
    ("transition --fold D4->G2 --weight 2,2,2,2", "tsv"):
        "cc012cbde133a89475a3665993fbff654acc5c54ec50cd77a598f89a1cf2b3f4",
    ("transition --fold A5->B3 --weight 2,2,2,2,1", "json"):
        "764df3932a6cbb3f851e07a7577098ae6aee77551285983ada19aeb5146a1953",
    ("transition --fold A5->B3 --weight 2,2,2,2,1", "tsv"):
        "047ef042b97c8dc27daa944e37fcaf3223541e5621085d7460ae9b709a2c697a",
    ("transition --fold A5->B3 --weight 2,2,2,2,2", "tsv"):
        "eb5cd180d2cfd1366fe98173d6192b1ce771d8f9cc0ac674bd8aa4df5488d07c",
    # the blocks with the most distinct denominators of lambda (117, 118 and
    # 68), taken before equal denominators were one object and lambda's
    # common denominator came from the prefactors
    ("transition --preset A3 --weight 4,3,4", "json"):
        "006771fd04f10f0411b810765ff28e88177ee2937838addcc95b883fcd32c29f",
    ("transition --preset A3 --weight 4,3,4", "tsv"):
        "29c8f30c07ee03a4e67afb85c7ec000323c0e6c274f1ba9b5561afc84cbee1dc",
    ("transition --preset A3 --weight 3,4,4", "json"):
        "8db546c61d6c06e20628442583c4a807a6ee0add295452f8098537296d54b687",
    ("gram --preset B2 --weight 7,5", "json"):
        "087c4274c57134274c058206283c4f9c23a732b0ff19cd90e4c45cde5817e45b",
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


@pytest.mark.parametrize("labels", itertools.permutations(("1", "1'", "2")))
@pytest.mark.parametrize("parts", [("1 1'", "2"), ("2", "1 1'")])
def test_custom_parts_refuse_a_label_order_their_word_cannot_use(labels, parts,
                                                                tmp_path, capsys):
    """Each of the 12 label and part orders of A3 either passes the label
    order test of the built-ins and gives clean blocks to height 4 on every
    basis, or exits 2; then its bipartite word, given as an (unchecked)
    word, reaches a zero pivot by height 4 on the modified basis."""
    edges = {("1", "2"), ("2", "1"), ("2", "1'"), ("1'", "2")}
    form = [[2 if a == b else -1 if (a, b) in edges else 0 for b in labels]
            for a in labels]
    sigma = {"1": "1'", "1'": "1", "2": "2"}
    split = [p.split() for p in parts]
    by_word = custom_preset(labels, form, sigma,
                            word=bipartite_w0(cartan_datum(labels, form), split))

    def blocks(basis):
        for gamma in weights_up_to(by_word.side(basis)[0], 4):
            pipeline(by_word, gamma, basis)

    try:
        custom_preset(labels, form, sigma, parts=split)
    except RootSystemError:
        with pytest.raises(SingularPivot):
            blocks("modified")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"labels = {' '.join(labels)}\n"
                       f"form = {'; '.join(' '.join(map(str, r)) for r in form)}\n"
                       f"parts = {'; '.join(parts)}\n")
        code, out, err = run(["roots", "--config", str(cfg)], capsys)
        assert code == 2 and not out
        assert f"label order {' '.join(labels)}" in err and "; ".join(parts) in err
        return
    for basis in BASES:
        blocks(basis)


def test_check_at_height_zero_exits_zero(capsys):
    """No nonzero word has height 0, so the oracle draws no random pair."""
    code, out, _ = run(["check", "--suite", "all", "--max-height", "0"], capsys)
    assert code == 0 and "FAIL" not in out


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


def test_the_selector_table_names_every_suite():
    from qfold.checks import SUITES
    from qfold.cli import _SELECTOR
    assert sorted(_SELECTOR) == sorted(SUITES)


def test_gram_and_transition_do_not_import_the_check_suites():
    code = "import sys, qfold.cli; sys.exit('qfold.checks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_config_errors_exit_two(capsys):
    assert run(["roots", "--preset", "Z9"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight", "1,2,3"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight=-1,0"], capsys)[0] == 2
    assert run(["transition", "--preset", "A4", "--weight", "1,1"], capsys)[0] == 2
    assert run(["gram", "--preset", "B2", "--weight", "2,1",
                "--basis", "symmetric"], capsys)[0] == 2
    for argv, message in [
        (["gram", "--preset", "A3", "--weight", "1,x,1"], "bad weight"),
        (["roots"], "custom datum is required"),
        (["roots", "--preset", "A5", "--fold", "A3->B2"], "does not match fold"),
    ]:
        code, _, err = run(argv, capsys)
        assert code == 2 and message in err, (argv, err)


def test_bad_config_values_exit_two_naming_the_key(tmp_path, capsys):
    cases = [
        ("basis", ["gram"], "preset = B2\nweight = 2,1\nbasis = foo\n"),
        ("max-height", ["transition"], "preset = B2\nmax-height = x\n"),
        ("max-height", ["check"], "preset = A3\nmax-height = x\n"),
        ("max-block", ["check"], "preset = A3\nmax-block = x\n"),
        ("form", ["roots"], "labels = 1 2\nform = 2 -1; -1 two\nparts = 1; 2\n"),
        ("parts", ["roots"], "labels = 1 2\nform = 2 -1; -1 2\nparts = 1 2\n"),
        ("sigma", ["roots"], "labels = 1 1' 2\nform = 2 0 -1; 0 2 -1; -1 -1 2\n"
                             "sigma = 1 1'\nparts = 1 1'; 2\n"),
        ("bad config line", ["roots"], "preset B2\n"),
        ("word", ["roots"], "labels = 1 2\nform = 2 -1; -1 2\n"),
        # this label order does not suit these parts, which a word must not hide
        ("word=... or parts=I0;I1, not both", ["roots"],
         "labels = 1 1' 2\nform = 2 0 -1; 0 2 -1; -1 -1 2\n"
         "word = 1 1' 2 1 1' 2\nparts = 2; 1 1'\n"),
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


def test_a_prefactor_that_does_not_divide_its_sum_exits_three(monkeypatch, capsys):
    from qfold.gram import packed_prefactor

    def tampered(g, width):
        return packed_prefactor(g * parse_laurent("q + 3 + q^-1"), width)

    monkeypatch.setattr("qfold.transition.packed_prefactor", tampered)
    code, out, err = run(["gram", "--preset", "G2", "--weight", "6,4"], capsys)
    assert code == 3 and not out
    assert "prefactor does not divide its matching sum" in err


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


def test_check_max_block_refuses_a_larger_block_naming_n(tmp_path, capsys):
    # D4's largest block to height 6 has n = 20
    argv = ["check", "--suite", "factorization", "--preset", "D4", "--max-height", "6"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-block = 10\n")
    for extra in (["--max-block", "10"], ["--config", str(cfg)]):
        code, out, err = run(argv + extra, capsys)
        assert code == 2 and "n = " in err and "max-block 10" in err, extra
        assert not out
    code, out, _ = run(argv + ["--config", str(cfg), "--max-block", "20"], capsys)
    assert code == 0 and out.startswith("pass")


def test_check_refused_by_a_later_suite_prints_no_results(capsys):
    # B2's blocks to height 3 have n <= 3, so oracle, factorization and
    # delta pass; restriction then meets A3->B2's n = 4 block at 1,1,1
    argv = ["check", "--suite", "all", "--preset", "B2", "--fold", "A3->B2",
            "--max-height", "3", "--max-block"]
    code, out, err = run(argv + ["3"], capsys)
    assert code == 2 and "n = 4" in err and not out
    code, out, _ = run(argv + ["4"], capsys)
    assert code == 2 and not out
    code, out, _ = run(argv + ["5"], capsys)
    assert code == 0 and out.count("pass") == 6


def test_bad_max_block_exits_two(tmp_path, capsys):
    for argv in (["gram", "--preset", "B2", "--weight", "2,1", "--max-block", "0"],
                 ["transition", "--preset", "B2", "--max-height", "2",
                  "--max-block", "-3"],
                 ["check", "--max-block", "0"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and "max-block" in err and not out, argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = B2\nweight = 2,1\nmax-block = many\n")
    code, _, err = run(["gram", "--config", str(cfg)], capsys)
    assert code == 2 and "max-block" in err
