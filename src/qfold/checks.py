"""Bulk verification sweeps over bounded-height weight blocks.

Each suite returns a CheckResult with the number of instances exercised
and a list of failure descriptions; an empty list means the property held
everywhere.  The CLI check command and the acceptance tests both run
these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .folding import fold_exponent, sigma_on_exponents, unfold_exponent
from .gram import (MismatchError, expand_word, inner_mackey,
                   inner_mackey_restricted, inner_shuffle, pbw_diag)
from .monomial import (MonomialWord, canonical_word, collapse_orbit_runs,
                       delta_codim, sigma_word, word_folded, word_modified)
from .presets import get_folding, get_preset, preset_with_folding
from .rootsys import vectors_up_to, weights_up_to
from .transition import (factor_gram, gram_block, matmul_laurent, mod_p_compare,
                         reconstruct_lam, sigma_submatrix)


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        head = f"{status}  {self.name}: {self.instances} instances"
        lines = [head] + [f"  ! {f}" for f in self.failures[:20]]
        if len(self.failures) > 20:
            lines.append(f"  ... {len(self.failures) - 20} more failures")
        lines += [f"  - {n}" for n in self.notes]
        return "\n".join(lines)


def _grams(preset, max_height, basis=None):
    """(gamma, its Gram block) for every nonempty block up to max_height."""
    datum, _seq, _word = preset.side(basis)
    for gamma in weights_up_to(datum, max_height):
        gram = gram_block(preset, gamma, basis)
        if gram.index:
            yield gamma, gram


def check_oracle(presets=("A3", "B2", "D4", "G2"), max_height=6,
                 random_pairs=500, seed=20260809):
    """Every Gram entry, as the gram and transition commands compute it,
    equals the coproduct-recursion route; so does the matching-sum route
    on random word pairs."""
    result = CheckResult(f"oracle equivalence (height <= {max_height})")
    built = {name: get_preset(name) for name in dict.fromkeys(presets)}
    for name in presets:
        preset = built[name]
        datum, _seq, _word = preset.side()
        for gamma, gram in _grams(preset, max_height):
            index, words = gram.index, gram.words
            for a in range(len(words)):
                for b in range(a, len(words)):
                    result.instances += 1
                    lhs = gram.lam[a][b]
                    rhs = inner_shuffle(datum, words[a], words[b])
                    if lhs != rhs:
                        result.fail(f"{name} {gamma} {index[a]} vs {index[b]}: "
                                    f"{lhs} != {rhs}")
    rng = random.Random(seed)
    names = list(presets)
    for _ in range(random_pairs):
        preset = built[rng.choice(names)]
        datum, _seq, _word = preset.side()
        w1 = _random_word(rng, datum, max_height)
        letters = list(expand_word(w1, datum).labels)
        rng.shuffle(letters)
        w2 = _regroup(rng, letters)
        result.instances += 1
        lhs = inner_mackey(datum, w1, w2)
        rhs = inner_shuffle(datum, w1, w2)
        if lhs != rhs:
            result.fail(f"random pair {w1} vs {w2} on {preset.name}: {lhs} != {rhs}")
    return result


def _random_word(rng, datum, max_height):
    budget = rng.randint(1, max_height)
    letters = []
    while budget > 0:
        e = rng.randint(1, min(2, budget))
        letters.append((rng.choice(datum.labels), e))
        budget -= e
    return MonomialWord(tuple(letters))


def _regroup(rng, letters):
    out = []
    pos = 0
    while pos < len(letters):
        run = 1
        while pos + run < len(letters) and letters[pos + run] == letters[pos] \
                and rng.random() < 0.5:
            run += 1
        out.append((letters[pos], run))
        pos += run
    return MonomialWord(tuple(out))


def check_factorization(presets=("A3", "B2", "D4", "G2"), max_height=8):
    """Reconstruction and shape invariants of every transition block."""
    result = CheckResult(f"factorization invariants (height <= {max_height})")
    for name in presets:
        preset = get_preset(name)
        datum, seq, _word = preset.side()
        for gamma, gram in _grams(preset, max_height):
            block = factor_gram(gram, gamma)
            result.instances += 1
            tag = f"{name} {gamma}"
            if reconstruct_lam(block.H, block.D) != block.lam:
                result.fail(f"{tag}: H^t D H does not reconstruct the Gram matrix")
            if matmul_laurent(block.P, block.Q) != block.H:
                result.fail(f"{tag}: PQ != H")
            n = len(block.index)
            for i in range(n):
                for j in range(i):
                    if not block.P[i][j].in_qZq():
                        result.fail(f"{tag}: P[{i}][{j}] = {block.P[i][j]} not in qZ[q]")
                for j in range(n):
                    if not block.Q[i][j].is_bar_invariant():
                        result.fail(f"{tag}: Q[{i}][{j}] not bar-invariant")
            for i, c in enumerate(block.index):
                if block.D[i] != pbw_diag(datum, seq, c):
                    result.fail(f"{tag}: D[{i}] differs from the orthogonal diagonal")
    return result


def check_delta(presets=("A3", "A5", "D4", "D5", "E6"), max_height=10):
    """Codimension statistic vanishes on every single-part exponent vector."""
    result = CheckResult(f"single-part codimension zero (height <= {max_height})")
    for name in presets:
        preset = preset_with_folding(name)
        seq = preset.seq
        for _orbit, positions in preset.orbit_parts():
            sizes = [sum(seq.betas[s]) for s in positions]
            for part in vectors_up_to(sizes, max_height):
                c = [0] * seq.N
                for s, ck in zip(positions, part):
                    c[s] = ck
                result.instances += 1
                if delta_codim(seq, preset.orientation, c) != 0:
                    result.fail(f"{name}: delta != 0 at {tuple(c)}")
    return result


def check_restriction(folds=("A3->B2", "D4->G2"), max_height=6):
    """Quotient matching sums survive unfolding with the statistic intact,
    and each restricted sum equals the quotient matching sum M[a][b] of the
    quotient Gram block, so it rebuilds the quotient Gram entry over the
    same denominator."""
    result = CheckResult(f"restricted matching sums (quotient height <= {max_height})")
    for spec in folds:
        preset = get_folding(spec)
        for gamma, gram in _grams(preset, max_height, "folded"):
            index, words = gram.index, gram.words
            for a in range(len(words)):
                for b in range(a, len(words)):
                    result.instances += 1
                    tag = f"{spec} {gamma} {index[a]} vs {index[b]}"
                    try:
                        total, _ = inner_mackey_restricted(preset.fd, words[a],
                                                           words[b])
                    except MismatchError as exc:
                        result.fail(f"{tag}: {exc}")
                        continue
                    if total != gram.M[a][b]:
                        result.fail(f"{tag}: restricted sum differs from the "
                                    f"quotient matching sum")
    return result


def check_congruence(folds=("A3->B2", "D4->G2"), max_height=6):
    """P restricted to fixed rows/columns is congruent mod p to quotient P.

    Also reports, without gating, how often the raw matching sums agree
    mod p between the two sides.
    """
    result = CheckResult(f"mod-p congruence of P (quotient height <= {max_height})")
    sums_same = sums_diff = 0
    for spec in folds:
        preset = get_folding(spec)
        fd = preset.fd
        p = fd.p
        for ulgamma, ul_gram in _grams(preset, max_height, "folded"):
            result.instances += 1
            ul_block = factor_gram(ul_gram, ulgamma)
            gamma = fd.expand_weight(ulgamma)
            gram = gram_block(preset, gamma, "modified")
            block = factor_gram(gram, gamma)
            sub_index, P_sigma = sigma_submatrix(fd, preset.seq, block.index, block.P)
            expected = [fold_exponent(fd, preset.ulseq, c) for c in ul_gram.index]
            tag = f"{spec} {ulgamma}"
            if sub_index != expected:
                result.fail(f"{tag}: fixed index set does not match the quotient block")
                continue
            report = mod_p_compare(P_sigma, ul_block.P, p)
            if not report.equal:
                result.fail(f"{tag}: {report}")
            _, M_sigma = sigma_submatrix(fd, preset.seq, gram.index, gram.M)
            n = len(sub_index)
            diffs = mod_p_compare(M_sigma, ul_gram.M, p).diffs
            diff = sum(1 for i, j, _, _ in diffs if i <= j)
            sums_same += n * (n + 1) // 2 - diff
            sums_diff += diff
    result.notes.append(
        f"experimental: raw matching sums congruent mod p on {sums_same} pairs, "
        f"different on {sums_diff} (not a gate)")
    return result


def check_equivariance(folds=("A3->B2", "D4->G2"), max_height=8):
    """The automorphism permutes modified monomials; fixed ones fold."""
    result = CheckResult(f"sigma-equivariance of modified monomials "
                         f"(height <= {max_height})")
    for spec in folds:
        preset = get_folding(spec)
        fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
        for c in vectors_up_to([sum(beta) for beta in seq.betas], max_height):
            result.instances += 1
            word = word_modified(fd, seq, c)
            sc = sigma_on_exponents(fd, seq, c)
            image = word if sc == c else word_modified(fd, seq, sc)
            lhs = canonical_word(fd, image)
            rhs = canonical_word(fd, sigma_word(fd, word))
            tag = f"{spec} {c}"
            if lhs != rhs:
                result.fail(f"{tag}: permutation law fails: {lhs} vs {rhs}")
            elif sc == c:
                ulc = unfold_exponent(fd, seq, ulseq, c)
                if collapse_orbit_runs(fd, word) != word_folded(fd, ulseq, ulc):
                    result.fail(f"{tag}: fixed word does not collapse to "
                                f"the folded word")
    return result


SUITES = {
    "oracle": check_oracle,
    "factorization": check_factorization,
    "delta": check_delta,
    "restriction": check_restriction,
    "congruence": check_congruence,
    "equivariance": check_equivariance,
}
