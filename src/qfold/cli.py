"""Command-line entry point.

Commands: roots, gram, transition, check.  Exit codes: 0 success,
1 check failure, 2 configuration error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .folding import NotAdmissible
from .presets import BASES, custom_preset, get_folding, get_preset
from .rootsys import RootSystemError, weights_up_to
from .transition import (BlockTooLarge, block_to_json, block_to_tsv, formatter,
                         gram_block, pipeline, sigma_submatrix)

# The largest block `gram` and `transition` compute unless told otherwise:
# twice the largest block of the test suite and the benchmark (n = 128).
# A7 at (2,...,2), n = 1625, has about 160 times as many entries.
MAX_BLOCK = 256


# The config keys each command reads.  `check` reads the custom-datum keys
# only to refuse them with a message of their own.
_DATUM_KEYS = ("preset", "fold", "labels", "form", "sigma", "word", "parts")
_BLOCK_KEYS = _DATUM_KEYS + ("basis", "weight", "max-height", "max-block")
CONFIG_KEYS = {"roots": _DATUM_KEYS, "gram": _BLOCK_KEYS, "transition": _BLOCK_KEYS,
               "check": _DATUM_KEYS + ("max-height", "max-block")}


class ConfigError(ValueError):
    pass


def _read_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not text: {exc}") from None
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, value = line.split("=", 1)
        elif ":" in line:
            key, value = line.split(":", 1)
        else:
            raise ConfigError(f"bad config line: {raw.rstrip()}")
        out[key.strip().replace("_", "-")] = value.strip()
    return out


def _parse_sigma_cycles(text):
    if not re.fullmatch(r"(\s*\([^()]*\))*\s*", text):
        raise ConfigError(f"sigma needs cycles like (1 1')(2), got {text!r}")
    sigma = {}
    for cycle in re.findall(r"\(([^()]*)\)", text):
        members = cycle.split()
        for a, b in zip(members, members[1:] + members[:1]):
            sigma[a] = b
    return sigma


def _custom_preset(cfg):
    rows = [r.strip() for r in cfg["form"].split(";") if r.strip()]
    try:
        form = [[int(x) for x in row.split()] for row in rows]
    except ValueError:
        raise ConfigError(f"form needs integer entries, got {cfg['form']!r}") from None
    sigma = _parse_sigma_cycles(cfg["sigma"]) if "sigma" in cfg else None
    word = tuple(cfg["word"].split()) if "word" in cfg else None
    parts = [p.split() for p in cfg["parts"].split(";")] if "parts" in cfg else None
    if parts is not None and len(parts) != 2:
        raise ConfigError(f"parts needs the form I0;I1, got {cfg['parts']!r}")
    return custom_preset(cfg["labels"].split(), form, sigma, word, parts)


def _resolve(args, cfg):
    preset_name = args.preset or cfg.get("preset")
    fold_name = args.fold or cfg.get("fold")
    if fold_name:
        preset = get_folding(fold_name)
        src = fold_name.split("->")[0].strip()
        if preset_name and preset_name not in (src, preset.name):
            raise ConfigError(f"preset {preset_name} does not match fold {fold_name}")
        return preset
    if not preset_name:
        if "labels" in cfg and "form" in cfg:
            return _custom_preset(cfg)
        raise ConfigError("a --preset, --fold, or custom datum is required")
    return get_preset(preset_name)


def _parse_weight(text, datum):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != datum.rank:
        raise ConfigError(f"weight needs {datum.rank} coordinates "
                          f"for labels {', '.join(datum.labels)}")
    try:
        gamma = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad weight {text!r}") from exc
    if any(g < 0 for g in gamma):
        raise ConfigError("weight coordinates must be nonnegative")
    return gamma


def _setting(args, cfg, key, floor, default=None):
    """The flag, else the config value, else default (None when all three
    are missing): an integer at or above floor, 0 for a height and 1 for a
    block size."""
    value = getattr(args, key.replace("-", "_"))
    if value is None:
        value = cfg.get(key, default)
        if value is None:
            return None
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if value < floor:
        kind = "nonnegative" if floor == 0 else "positive"
        raise ConfigError(f"{key} must be {kind}, got {value}")
    return value


def _weights(args, cfg, datum):
    height = _setting(args, cfg, "max-height", 0)
    weight = args.weight or cfg.get("weight")
    if weight:
        return [_parse_weight(weight, datum)]
    if height is None:
        raise ConfigError("give --weight or --max-height")
    return weights_up_to(datum, height)


def _root_str(datum, v):
    return " ".join(tok for lab, n in zip(datum.labels, v) for tok in [lab] * n) or "0"


def _emit(args, payload, pretty_lines, tsv):
    fmt = args.format
    if fmt == "json":
        payload = {k: v for k, v in payload.items() if not k.startswith("_")}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "tsv":
        text = tsv
    else:
        text = "\n".join(pretty_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_roots(args, cfg):
    preset = _resolve(args, cfg)
    fd = preset.fd
    datum, seq, _word = preset.side()
    lines = [f"preset {preset.name}: {datum.rank} generators, "
             f"{seq.N} positive roots",
             "word: " + " ".join(seq.indices)]
    for k, beta in enumerate(seq.betas):
        lines.append(f"beta_{k + 1} = {_root_str(datum, beta)}")
    payload = {
        "preset": preset.name,
        "labels": list(datum.labels),
        "word": list(seq.indices),
        "betas": [list(b) for b in seq.betas],
    }
    if not fd.is_trivial() and not preset.is_quotient:
        parts = preset.orbit_parts()
        payload["orbit_parts"] = [
            {"orbit": list(orbit), "positions": [p + 1 for p in positions]}
            for orbit, positions in parts]
        lines.append("orbit parts: " + "  ".join(
            "{" + " ".join(orbit) + "}@" + ",".join(str(p + 1) for p in positions)
            for orbit, positions in parts))
    rows = ["\t".join(["k", "label", "beta"])]
    rows += ["\t".join([str(k + 1), seq.indices[k], _root_str(datum, seq.betas[k])])
             for k in range(seq.N)]
    _emit(args, payload, lines, "\n".join(rows) + "\n")
    return 0


def cmd_gram(args, cfg):
    preset = _resolve(args, cfg)
    basis = args.basis or cfg.get("basis") or preset.default_basis
    datum, _seq, _word = preset.side(basis)
    max_block = _setting(args, cfg, "max-block", 1, MAX_BLOCK)
    results, pretty = [], []
    for gamma in _weights(args, cfg, datum):
        gram = gram_block(preset, gamma, basis, max_block)
        fmt = formatter()
        entry = {
            "weight": list(gamma),
            "labels": list(datum.labels),
            "basis": basis,
            "index": [list(c) for c in gram.index],
            "words": [str(w) for w in gram.words],
            "lambda": [[fmt(v) for v in row] for row in gram.lam],
            "core": [[fmt(v) for v in row] for row in gram.M],
            "delta": str(gram.delta),
            "gamma_factors": [str(g) for g in gram.g],
        }
        if not preset.fd.is_trivial() and basis != "folded":
            sub_index, sub = sigma_submatrix(preset.fd, preset.seq, gram.index,
                                             entry["lambda"])
            entry["index_sigma"] = [list(c) for c in sub_index]
            entry["lambda_sigma"] = sub
        results.append(entry)
        if args.format == "pretty":
            pretty.append(f"weight {gamma} ({basis}): {len(gram.index)} vectors")
            pretty += [f"  {c}: " + "  |  ".join(row)
                       for c, row in zip(gram.index, entry["lambda"])]
            if "index_sigma" in entry:
                pretty.append(f"  fixed part: {len(sub_index)} vectors")
                pretty += [f"  {c}: " + "  |  ".join(r) for c, r in zip(sub_index, sub)]
    payload = results[0] if len(results) == 1 else {"blocks": results}
    rows = []
    for entry in results:
        rows.append("# weight\t" + ",".join(str(x) for x in entry["weight"]))
        for crow, lrow in zip(entry["index"], entry["lambda"]):
            rows.append("\t".join([",".join(str(x) for x in crow)] + lrow))
    _emit(args, payload, pretty, "\n".join(rows) + "\n")
    return 0


def cmd_transition(args, cfg):
    preset = _resolve(args, cfg)
    basis = args.basis or cfg.get("basis") or preset.default_basis
    datum, _seq, _word = preset.side(basis)
    max_block = _setting(args, cfg, "max-block", 1, MAX_BLOCK)
    results, pretty, tsv_parts = [], [], []
    for gamma in _weights(args, cfg, datum):
        block = pipeline(preset, gamma, basis, max_block)
        data = block_to_json(block, datum.labels)
        data["preset"] = preset.name
        data["basis"] = basis
        results.append(data)
        if args.format == "tsv":
            tsv_parts.append(block_to_tsv(data))
        elif args.format == "pretty":
            pretty.append(f"weight {gamma} ({basis}): {len(block.index)} vectors")
            for name in ("index", "H", "D", "P", "Q"):
                pretty.append(f"{name}:")
                value = data[name]
                if name in ("index", "D"):
                    for item in value:
                        pretty.append(f"  {item}")
                else:
                    for row in value:
                        pretty.append("  [" + ",  ".join(row) + "]")
    payload = results[0] if len(results) == 1 else {"blocks": results}
    _emit(args, payload, pretty, "".join(tsv_parts))
    return 0


# the one selector each suite takes, a preset name or a folding, for each
# suite of `checks.SUITES`, which only `check` imports
_SELECTOR = {"oracle": "preset", "factorization": "preset", "delta": "preset",
             "restriction": "fold", "congruence": "fold", "equivariance": "fold"}
# the suites that build Gram blocks, and so take a max_block
_BLOCK_SUITES = ("oracle", "factorization", "restriction", "congruence")


def cmd_check(args, cfg):
    from .checks import SUITES

    custom = [key for key in ("labels", "form", "sigma", "word", "parts") if key in cfg]
    if custom:
        raise ConfigError(f"the check suites take only built-in presets and "
                          f"foldings, not a custom datum ({', '.join(custom)})")
    chosen = {"preset": args.preset or cfg.get("preset"),
              "fold": args.fold or cfg.get("fold")}
    if args.suite != "all":
        takes = _SELECTOR[args.suite]
        other = "fold" if takes == "preset" else "preset"
        if chosen[other] and not chosen[takes]:
            raise ConfigError(f"suite {args.suite} takes --{takes}, not --{other}")
    suite_names = [args.suite] if args.suite != "all" else list(SUITES)
    height = _setting(args, cfg, "max-height", 0)
    max_block = _setting(args, cfg, "max-block", 1, MAX_BLOCK)
    results = []
    for name in suite_names:
        kwargs = {}
        if height is not None:
            kwargs["max_height"] = height
        if name in _BLOCK_SUITES:
            kwargs["max_block"] = max_block
        takes = _SELECTOR[name]
        if chosen[takes]:
            kwargs[takes + "s"] = [chosen[takes]]
        results.append(SUITES[name](**kwargs))
    # printed only once every suite has run, so a sweep that a later
    # suite refuses (exit 2 or 3) leaves stdout empty
    for result in results:
        print(result)
    return 0 if all(result.ok for result in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfold",
        description="Exact transition matrices between PBW, monomial and "
                    "canonical bases, with foldings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def max_block(p):
        p.add_argument("--max-block", type=int, dest="max_block",
                       help=f"largest block size n computed (default {MAX_BLOCK})")

    def common(p, weights=True):
        p.add_argument("--config", help="key=value file mirroring the flags")
        p.add_argument("--preset")
        p.add_argument("--fold")
        p.add_argument("--basis", choices=BASES)
        p.add_argument("--format", choices=("json", "tsv", "pretty"),
                       default="json")
        p.add_argument("--out")
        if weights:
            p.add_argument("--weight")
            p.add_argument("--max-height", type=int, dest="max_height")
            max_block(p)

    common(sub.add_parser("roots", help="reduced word, root order, orbit parts"),
           weights=False)
    common(sub.add_parser("gram", help="Gram matrix of a weight block"))
    common(sub.add_parser("transition", help="full transition block"))
    p_check = sub.add_parser("check", help="run verification sweeps")
    p_check.add_argument("--config", help="key=value file mirroring the flags")
    p_check.add_argument("--suite", default="all",
                         choices=sorted(_SELECTOR) + ["all"])
    p_check.add_argument("--preset")
    p_check.add_argument("--fold")
    p_check.add_argument("--max-height", type=int, dest="max_height")
    max_block(p_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
        unknown = [key for key in cfg if key not in CONFIG_KEYS[args.command]]
        if unknown:
            raise ConfigError(f"qfold {args.command} does not read the config "
                              f"key{'s' * (len(unknown) > 1)} {', '.join(unknown)}")
        if args.command == "roots":
            return cmd_roots(args, cfg)
        if args.command == "gram":
            return cmd_gram(args, cfg)
        if args.command == "transition":
            return cmd_transition(args, cfg)
        return cmd_check(args, cfg)
    # RootSystemError covers UnsupportedPreset
    except (ConfigError, RootSystemError, NotAdmissible, BlockTooLarge,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every other failure is a breach: the mismatch, pivot and integrality
    # errors, an inexact polynomial division, a zero division, and any
    # KeyError or ValueError (IndexMismatch among them) raised inside qfold
    except (ArithmeticError, KeyError, ValueError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
