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
                       delta_codim, word_folded, word_modified)
from .presets import get_folding, get_preset, preset_with_folding
from .rootsys import vectors_up_to, weights_up_to
from .transition import (factor_gram, gram_block, matmul_laurent, mod_p_compare,
                         reconstruct_lam, sigma_submatrix)


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    # negative coefficients seen where no theorem makes them a failure; None
    # when the suite does not count them
    ungated_negatives: int | None = None

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
        if self.ungated_negatives is not None:
            lines.append(f"  {self.ungated_negatives} negative coefficients of P "
                         f"on quotient presets (not gated)")
        return "\n".join(lines)


def _grams(preset, max_height, basis=None, max_block=None):
    """(gamma, its Gram block) for every nonempty block up to max_height;
    a block of more than max_block vectors raises BlockTooLarge."""
    datum, _seq, _word = preset.side(basis)
    for gamma in weights_up_to(datum, max_height):
        gram = gram_block(preset, gamma, basis, max_block)
        if gram.index:
            yield gamma, gram


def check_oracle(presets=("A3", "B2", "D4", "G2"), max_height=6,
                 random_pairs=500, seed=20260809, max_block=None):
    """Every Gram entry, as the gram and transition commands compute it,
    equals the coproduct-recursion route; so does the matching-sum route
    on random word pairs.

    Each pair is one `inner_shuffle` call and one comparison of
    `RationalFn` normal forms, so an entry stored out of normal form fails
    even when its value is right.  The calls of one block share one dict,
    `inner_shuffle`'s block, which holds each word's expansion, the
    denominators and one reduced value per distinct fraction; the random
    pairs take none."""
    result = CheckResult(f"oracle equivalence (height <= {max_height})")
    built = {name: get_preset(name) for name in dict.fromkeys(presets)}
    for name in presets:
        preset = built[name]
        datum, _seq, _word = preset.side()
        for gamma, gram in _grams(preset, max_height, max_block=max_block):
            index, words = gram.index, gram.words
            shuffle = {}                 # inner_shuffle's dict for this block
            for a in range(len(words)):
                for b in range(a, len(words)):
                    result.instances += 1
                    lhs = gram.lam[a][b]
                    rhs = inner_shuffle(datum, words[a], words[b], shuffle)
                    if lhs != rhs:
                        result.fail(f"{name} {gamma} {index[a]} vs {index[b]}: "
                                    f"{lhs} != {rhs}")
    if max_height < 1:               # no nonzero word to draw a random pair from
        return result
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


def check_factorization(presets=("A3", "B2", "D4", "G2"), max_height=8,
                        max_block=None):
    """Reconstruction, shape and sign invariants of every transition block.

    Off the diagonal P has no negative coefficient on a symmetric preset:
    there P's entries are PBW coefficients of the canonical basis, which are
    dimensions of stalks of intersection cohomology (Lusztig), and the
    built-in words are adapted to a quiver orientation.  Such a coefficient
    fails the block, as an error in the Gram matrix that the factorization
    absorbs would.  On a quotient preset no such theorem is cited, so the
    suite counts the negative coefficients and does not gate on them.

    lam = H^t D H is decided by `reconstruct_lam` over the common
    denominator that `factor_gram` computed for `ldl` (the block's
    `common`), which it certifies with one product per denominator of lam.
    D is compared with `pbw_diag`, a product over the positions k with
    c_k > 0 that depends only on the multiset of (d_k, c_k); each such
    multiset's value is computed once per call.
    """
    result = CheckResult(f"factorization invariants (height <= {max_height})")
    diags = {}                      # multiset of (d_k, c_k), c_k > 0 -> pbw_diag
    for name in presets:
        preset = get_preset(name)
        datum, seq, _word = preset.side()
        ds = [datum.d(lab) for lab in seq.indices]
        if preset.is_quotient and result.ungated_negatives is None:
            result.ungated_negatives = 0
        for gamma, gram in _grams(preset, max_height, max_block=max_block):
            block = factor_gram(gram, gamma)
            result.instances += 1
            tag = f"{name} {gamma}"
            if not reconstruct_lam(block.H, block.D, block.lam, block.common):
                result.fail(f"{tag}: H^t D H does not reconstruct the Gram matrix")
            if matmul_laurent(block.P, block.Q) != block.H:
                result.fail(f"{tag}: PQ != H")
            n = len(block.index)
            for i in range(n):
                for j in range(i):
                    p = block.P[i][j]
                    if not p.in_qZq():
                        result.fail(f"{tag}: P[{i}][{j}] = {p} not in qZ[q]")
                    negatives = sum(c < 0 for c in p.coeffs.values())
                    if negatives and preset.is_quotient:
                        result.ungated_negatives += negatives
                    elif negatives:
                        result.fail(f"{tag}: P[{i}][{j}] = {p} has a negative "
                                    f"coefficient")
                for j in range(n):
                    if not block.Q[i][j].is_bar_invariant():
                        result.fail(f"{tag}: Q[{i}][{j}] not bar-invariant")
            for i, c in enumerate(block.index):
                key = tuple(sorted((d, ck) for d, ck in zip(ds, c) if ck))
                if key not in diags:
                    diags[key] = pbw_diag(datum, seq, c)
                if block.D[i] != diags[key]:
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


def check_restriction(folds=("A3->B2", "D4->G2"), max_height=6,
                      max_block=None):
    """Quotient matching sums survive unfolding with the statistic intact,
    and each restricted sum equals the quotient matching sum M[a][b] of the
    quotient Gram block, so it rebuilds the quotient Gram entry over the
    same denominator."""
    result = CheckResult(f"restricted matching sums (quotient height <= {max_height})")
    for spec in folds:
        preset = get_folding(spec)
        for gamma, gram in _grams(preset, max_height, "folded", max_block):
            index, words = gram.index, gram.words
            for a in range(len(words)):
                for b in range(a, len(words)):
                    result.instances += 1
                    tag = f"{spec} {gamma} {index[a]} vs {index[b]}"
                    try:
                        total = inner_mackey_restricted(preset.fd, words[a],
                                                        words[b])
                    except MismatchError as exc:
                        result.fail(f"{tag}: {exc}")
                        continue
                    if total != gram.M[a][b]:
                        result.fail(f"{tag}: restricted sum differs from the "
                                    f"quotient matching sum")
    return result


def check_congruence(folds=("A3->B2", "D4->G2"), max_height=6,
                     max_block=None):
    """H, P and Q restricted to fixed rows/columns are congruent mod p to
    the quotient's H, P and Q, and so are the raw matching sums M.

    The sums' congruence follows from the folding: sigma acts on the
    matchings of two sigma-fixed words and keeps their inversion statistic,
    its orbits off the fixed matchings have the prime size p, and the fixed
    matchings are the blockwise ones, whose sum the restriction suite
    equates with the quotient matching sum.

    The same orbit argument ties the three factors together.  sigma
    permutes the block, and P and Q are invariant under it (`ldl` and
    `pq_split` prove it).  For fixed i and j, the terms P[i][k] * Q[k][j]
    of H[i][j] at the k of one sigma-orbit are equal, so an orbit of k off
    the fixed set, of size p, adds a multiple of p: writing X^sigma for the
    fixed part of X, H^sigma = P^sigma Q^sigma mod p.  Over F_p the split
    of a unitriangular matrix into P with entries in qF_p[q] off the
    diagonal times a bar-invariant Q is unique, by `pq_split`'s argument,
    and the quotient has ul H = ul P ul Q, so H^sigma = ul H mod p holds
    iff both P^sigma = ul P and Q^sigma = ul Q do.  Each of the three is
    gated on its own, so that a fault in one factor shows where it is.
    The symmetric side's factors are computed with the block permutations
    that `gram_block` records, and the quotient block is computed on its
    own, so these gates check the rows that `ldl` and `pq_split` copy
    against an independent computation.
    """
    result = CheckResult(f"mod-p congruence of P (quotient height <= {max_height})")
    for spec in folds:
        preset = get_folding(spec)
        fd = preset.fd
        p = fd.p
        for ulgamma, ul_gram in _grams(preset, max_height, "folded", max_block):
            result.instances += 1
            ul_block = factor_gram(ul_gram, ulgamma)
            gamma = fd.expand_weight(ulgamma)
            gram = gram_block(preset, gamma, "modified", max_block)
            block = factor_gram(gram, gamma)
            sub_index = sigma_submatrix(fd, preset.seq, block.index, block.P)[0]
            expected = [fold_exponent(fd, preset.ulseq, c) for c in ul_gram.index]
            tag = f"{spec} {ulgamma}"
            if sub_index != expected:
                result.fail(f"{tag}: fixed index set does not match the quotient block")
                continue
            for name in ("H", "P", "Q"):
                _, X_sigma = sigma_submatrix(fd, preset.seq, block.index,
                                             getattr(block, name))
                report = mod_p_compare(X_sigma, getattr(ul_block, name), p)
                if not report.equal:
                    result.fail(f"{tag}: {name} {report}")
            _, M_sigma = sigma_submatrix(fd, preset.seq, gram.index, gram.M)
            diffs = mod_p_compare(M_sigma, ul_gram.M, p).diffs
            if diffs:
                at = ", ".join(f"({i},{j})" for i, j, _, _ in diffs)
                result.fail(f"{tag}: matching sums differ mod {p} from the "
                            f"quotient's at {at}")
    return result


def check_equivariance(folds=("A3->B2", "D4->G2"), max_height=8):
    """The automorphism permutes modified monomials; fixed ones fold."""
    result = CheckResult(f"sigma-equivariance of modified monomials "
                         f"(height <= {max_height})")
    for spec in folds:
        preset = get_folding(spec)
        fd, seq, ulseq = preset.fd, preset.seq, preset.ulseq
        sigma = dict(zip(fd.base.labels, fd.sigma))
        for c in vectors_up_to([sum(beta) for beta in seq.betas], max_height):
            result.instances += 1
            word = word_modified(fd, seq, c)
            sc = sigma_on_exponents(fd, seq, c)
            image = word if sc == c else word_modified(fd, seq, sc)
            lhs = canonical_word(fd.base, image)
            rhs = canonical_word(fd.base, word, sigma)
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
