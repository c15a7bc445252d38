"""Correctness checks on the outputs of a pass, run outside the timed region.

A block check returns the problems it found, none when the output is
correct, and the block's work counts, which depend only on the output.
Identities between matrices of Laurent polynomials and rational functions
are checked exactly in the integers modulo the prime PRIME at random points
q = r: a wrong entry passes a point only with probability about its degree
over PRIME.  qfold must be importable when these run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from spans import degree_and_bits, ldl_updates, matching_leaves

FIXTURES = (
    ("fixtures/A3/2,2,1.json", ["transition", "--fold", "A3->B2", "--weight", "2,2,1"]),
    ("fixtures/B2/2,1.json", ["transition", "--preset", "B2", "--weight", "2,1"]),
    ("fixtures/G2/2,1.json", ["transition", "--preset", "G2", "--weight", "2,1"]),
    ("fixtures/D4/2,2,2,1.json", ["transition", "--fold", "D4->G2", "--weight", "2,2,2,1"]),
)
LAMBDA_SAMPLES = 8          # Gram entries per block checked by the oracle route
PRIME = (1 << 61) - 1
POINTS = 2                  # random points per identity


def side(spec):
    """(datum, sequence, word constructor) of the basis the CLI uses by default."""
    from qfold.monomial import word_folded, word_modified
    from qfold.presets import get_folding, get_preset

    preset = get_folding(spec) if "->" in spec else get_preset(spec)
    fd = preset.fd
    if preset.is_quotient:
        return fd.quotient, preset.ulseq, lambda c: word_folded(fd, preset.ulseq, c)
    return fd.base, preset.seq, lambda c: word_modified(fd, preset.seq, c)


def _terms(text):
    """{exponent: coefficient} of a Laurent polynomial in the CLI's text form,
    such as ``-q^2 + 3 - 2q^-1``, optionally in parentheses."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out = {}
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        head, q, power = term.lstrip("-").partition("q")
        if q and power and not power.startswith("^"):
            raise ValueError(f"bad term {term!r}")
        exp = (int(power[1:]) if power else 1) if q else 0
        coeff = int(head) if head or not q else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def _fraction(text):
    """(numerator, denominator) terms of a rational function in text form."""
    num, _, den = text.partition(" / ")
    return _terms(num), (_terms(den) if den else {0: 1})


def _at(terms, r):
    return sum(c * pow(r, e, PRIME) for e, c in terms.items()) % PRIME


def _ratio_at(num, den, r):
    return _at(num, r) * pow(_at(den, r), -1, PRIME) % PRIME


def _qfold_at(value, r):
    """A qfold RationalFn at q = r."""
    return _ratio_at(value.num.coeffs, value.den.coeffs, r)


def _sample_pairs(rng, n, k):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return rng.sample(pairs, min(k, len(pairs)))


def _oracle(datum, word, index, pairs):
    """Sampled Gram entries by the coproduct route."""
    from qfold.gram import inner_shuffle

    return [inner_shuffle(datum, word(index[a]), word(index[b])) for a, b in pairs]


def _verified_index(op, data, seq):
    """The block's index, or None when the output has another one."""
    from qfold.rootsys import enumerate_block

    index = enumerate_block(seq, op["weight"])
    if data["weight"] != op["weight"] or [tuple(c) for c in data["index"]] != index:
        return None
    return index


def check_transition(op, text, rng):
    """The exact identities of a transition block, plus sampled Gram entries."""
    from qfold.gram import pbw_diag

    datum, seq, word = side(op["spec"])
    data = json.loads(text)
    index = _verified_index(op, data, seq)
    if index is None:
        return ["index differs from the block's enumeration"], None
    n = len(index)
    H, P, Q = ([[_terms(v) for v in row] for row in data[key]] for key in ("H", "P", "Q"))
    lam = [[_fraction(v) for v in row] for row in data["lambda"]]
    D = [_fraction(v) for v in data["D"]]
    problems = set()
    for name, M in (("H", H), ("P", P), ("Q", Q)):
        if any(M[i][j] != ({0: 1} if i == j else {}) for i in range(n) for j in range(i, n)):
            problems.add(f"{name} is not unit lower triangular")
    if not all(e >= 1 for i in range(n) for j in range(i) for e in P[i][j]):
        problems.add("P has an entry outside qZ[q]")
    if not all(t.get(-e) == c for row in Q for t in row for e, c in t.items()):
        problems.add("Q is not bar-invariant")
    diag = [pbw_diag(datum, seq, c) for c in index]
    pairs = _sample_pairs(rng, n, LAMBDA_SAMPLES)
    oracle = _oracle(datum, word, index, pairs)
    for _ in range(POINTS):
        r = rng.randrange(2, PRIME - 1)
        h, p, q = ([[_at(t, r) for t in row] for row in M] for M in (H, P, Q))
        lam_r = [[_ratio_at(*f, r) for f in row] for row in lam]
        d = [_ratio_at(*f, r) for f in D]
        if any(lam_r[a][b] != sum(h[e][a] * d[e] * h[e][b] for e in range(b, n)) % PRIME
               for a in range(n) for b in range(a, n)):
            problems.add("H^t D H does not reconstruct Lambda")
        if any(h[i][j] != sum(p[i][k] * q[k][j] for k in range(j, i + 1)) % PRIME
               for i in range(n) for j in range(i + 1)):
            problems.add("PQ != H")
        if d != [_qfold_at(v, r) for v in diag]:
            problems.add("D differs from pbw_diag")
        for (a, b), value in zip(pairs, oracle):
            if lam_r[a][b] != _qfold_at(value, r):
                problems.add(f"Gram entry ({a},{b}) differs from the coproduct route")
    degree, bits = degree_and_bits([t for row in H for t in row] + [t for f in D for t in f])
    work = {"n": n, "entries": n * (n + 1) // 2, "ldl_updates": ldl_updates(n),
            "entry_degree_max": degree, "coeff_bits_max": bits}
    return sorted(problems), work


def check_gram(op, text, rng):
    """Index and words of a Gram block, every entry against core / (delta *
    gamma_a * gamma_b), and sampled entries against the coproduct route."""
    from qfold.gram import expand_word

    datum, seq, word = side(op["spec"])
    data = json.loads(text)
    index = _verified_index(op, data, seq)
    if index is None:
        return ["index differs from the block's enumeration"], None
    words = [word(c) for c in index]
    if data["words"] != [str(w) for w in words]:
        return ["words differ from the monomial words of the index"], None
    n = len(index)
    lam = data["lambda"]
    if any(lam[a][b] != lam[b][a] for a in range(n) for b in range(a)):
        return ["Lambda is not symmetric"], None
    lam = [[_fraction(v) for v in row] for row in lam]
    core = [[_terms(v) for v in row] for row in data["core"]]
    delta = _terms(data["delta"])
    gammas = [_terms(g) for g in data["gamma_factors"]]
    pairs = _sample_pairs(rng, n, LAMBDA_SAMPLES)
    oracle = _oracle(datum, word, index, pairs)
    problems = set()
    for _ in range(POINTS):
        r = rng.randrange(2, PRIME - 1)
        lam_r = [[_ratio_at(*f, r) for f in row] for row in lam]
        g = [_at(t, r) * _at(delta, r) % PRIME for t in gammas]
        if any(lam_r[a][b] * g[a] * _at(gammas[b], r) % PRIME != _at(core[a][b], r)
               for a in range(n) for b in range(a, n)):
            problems.add("Lambda differs from core / (delta * gamma_a * gamma_b)")
        for (a, b), value in zip(pairs, oracle):
            if lam_r[a][b] != _qfold_at(value, r):
                problems.add(f"Gram entry ({a},{b}) differs from the coproduct route")
    letters = [expand_word(w, datum).labels for w in words]
    work = {"n": n, "entries": n * (n + 1) // 2,
            "matching_leaves": sum(matching_leaves(nu, t)
                                   for nu, row in zip(letters, core) for t in row)}
    return sorted(problems), work


def check_suite(op, code, instances):
    problems = []
    if code != 0:
        problems.append("suite reported failures")
    if instances != op["expect"]:
        problems.append(f"{instances} instances, expected {op['expect']}")
    return problems


def fixture_problems(root):
    """Each golden fixture must round-trip through the CLI byte for byte."""
    from qfold.cli import main

    out = []
    for path, argv in FIXTURES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            stored = fh.read()
        out.append([] if code == 0 and buf.getvalue() == stored
                   else [f"{path} does not round-trip"])
    return out
