"""Inner products of monomial words by two independent routes.

The closed route sums q^(-A) over the label-preserving matchings between
the two expanded letter sequences, A being the form-weighted inversion
statistic.  `matching_sum` computes that sum with one of two cores, chosen
per pair from the number of leaves the recursion would visit: a recursion
over target sets for short words, and a DP over the subsets of target
positions used so far for long repetitive ones, whose leaves it merges.
`matchings` and `inversion_stat` enumerate the sum term by term and are the
reference both cores are tested against.  The oracle route, `inner_shuffle`,
recurses through the coproduct, peeling the first letter of one word against
each equal letter of the other at a q-twist; it shares only `expand_word`
with `gram_block`.  Both routes sum Laurent numerators and build one
RationalFn per value, so nothing here combines Q(q) values; the coproduct
memo lives for one call, so this module keeps no memo that grows with use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .laurent import (ONE, ZERO, LaurentPoly, RationalFn, RF_ZERO, q_power,
                      qfact)


class MismatchError(ArithmeticError):
    """Raised when the restricted and quotient matching sums disagree."""


@dataclass(frozen=True)
class LetterSequence:
    """A word with divided powers expanded to single letters.

    ``prefactor`` is the product of the quantum factorials of the original
    exponents, each in the letter's own q-power.
    """

    labels: tuple
    prefactor: LaurentPoly


def expand_word(word, datum):
    labels = []
    prefactor = ONE
    for lab, e in word.letters:
        labels.extend([lab] * e)
        prefactor = prefactor * qfact(e, datum.d(lab))
    return LetterSequence(tuple(labels), prefactor)


def matchings(nu, nup):
    """All label-preserving bijections positions(nu) -> positions(nup).

    Empty when the label multisets differ; otherwise the count is the
    product of the multiplicity factorials.
    """
    if len(nu) != len(nup):
        return []
    groups = {}
    for pos, lab in enumerate(nu):
        groups.setdefault(lab, ([], []))[0].append(pos)
    for pos, lab in enumerate(nup):
        if lab not in groups:
            return []
        groups[lab][1].append(pos)
    per_label = []
    for lab, (src, dst) in sorted(groups.items(), key=lambda kv: kv[1][0][0]):
        if len(src) != len(dst):
            return []
        per_label.append([list(zip(src, perm))
                          for perm in itertools.permutations(dst)])
    out = []
    for combo in itertools.product(*per_label):
        w = [None] * len(nu)
        for pairs in combo:
            for s, t in pairs:
                w[s] = t
        out.append(tuple(w))
    return out


def inversion_stat(datum, nu, w):
    """A(w) = sum over inverted pairs k < l, w(k) > w(l) of (a_{nu_k}, a_{nu_l})."""
    idx = [datum.index(lab) for lab in nu]
    total = 0
    n = len(nu)
    for k in range(n):
        for l in range(k + 1, n):
            if w[k] > w[l]:
                total += datum.form[idx[k]][idx[l]]
    return total


# A pair goes to the subset DP when the recursion would visit at least this
# many leaves.  The two cores timed on every pair of the gram-wide and
# transition-large benchmark blocks and of every A3, B2, D4 and G2 block to
# height 6 (2-core x86 VM, Python 3.11; mean per pair): below 20 leaves the
# recursion is faster, 0.115 against 0.120 ms for 16-19 leaves and 0.076
# against 0.100 ms for 12-15; from 20 up the DP is, 0.25 against 0.14 ms
# for 24-31 leaves, 2.0 against 0.61 ms for 128-511 and 8.0 against
# 1.2 ms for 512-2047.
SUBSET_DP_MIN_LEAVES = 20


def _layout(nu, nup):
    """The runs of nu as (label, length) and the positions of each label in
    nup; None when no label-preserving bijection exists."""
    if len(nu) != len(nup):
        return None
    targets = {}
    for pos, lab in enumerate(nup):
        targets.setdefault(lab, []).append(pos)
    runs = [(lab, len(list(group))) for lab, group in itertools.groupby(nu)]
    counts = dict.fromkeys(targets, 0)
    for lab, r in runs:
        if lab not in counts:
            return None
        counts[lab] += r
    if any(m != len(targets[lab]) for lab, m in counts.items()):
        return None
    return runs, targets


def _leaves(runs, targets):
    """Leaves of the recursion: the ways to hand each label's m target
    positions to its runs, m! / prod r! per label."""
    return (math.prod(math.factorial(len(ps)) for ps in targets.values())
            // math.prod(math.factorial(r) for _, r in runs))


def _times_run_prefactor(datum, runs, total):
    """total times the run-internal inversions of one set of targets,
    summed over the r! orders in which a run of length r can take them:
    per run, with (a_x, a_x) = 2d, prod over j <= r of sum over k < j of
    q^(-2dk), which is q^(-d r(r-1)/2) [r]! in q^d."""
    for lab, r in runs:
        if r > 1:
            d = datum.d(lab)
            total = total * qfact(r, d).shift(-d * r * (r - 1) // 2)
    return total


def _cross_sums_by_recursion(datum, runs, targets):
    """{-cross: count} over target sets, one leaf per assignment, with
    ascending targets inside each run."""
    idx = datum.index
    form = datum.form
    rows, choices, run_start = [], [], []
    for lab, r in runs:
        for i in range(r):
            rows.append(form[idx(lab)])
            choices.append(targets[lab])
            run_start.append(i == 0)
    cols = [None] * len(rows)
    for lab, ps in targets.items():
        for t in ps:
            cols[t] = idx(lab)

    used = [False] * len(rows)
    placed = []                      # target positions chosen so far, in nu order
    acc = {}

    def rec(k, a_cross):
        if k == len(rows):
            acc[-a_cross] = acc.get(-a_cross, 0) + 1
            return
        row = rows[k]
        floor = -1 if run_start[k] else placed[k - 1]
        for t in choices[k]:
            if used[t] or t <= floor:
                continue
            delta = 0
            for t2 in placed:
                if t2 > t:
                    delta += row[cols[t2]]
            used[t] = True
            placed.append(t)
            rec(k + 1, a_cross + delta)
            placed.pop()
            used[t] = False

    rec(0, 0)
    return acc


def _cross_sums_by_subsets(datum, runs, targets):
    """{-cross: count} by a forward DP over the runs of nu.

    A state is the bitmask S of target positions used so far.  A run of
    label x and length r takes an r-subset T of the free positions of x;
    each t in T adds sum over labels y of form[x][y] * #(S_y above t), where
    S_y is the set of positions of S labelled y, so the cross term depends
    on S alone and states merge.

    A state's coefficient dict is packed into one integer, slot e holding
    the number of partial assignments with cross term base + e (Kronecker
    substitution), so merging two states is one shift and one add.  No
    slot overflows its width: each partial assignment extends to at least
    one leaf, so no count exceeds the leaves.  Before a run every state has
    used the same number of positions of each label, so lo, the sum over
    labels y with form[x][y] < 0 of form[x][y] * #S_y, bounds every
    target's cross term from below in all states alike; a target shifts
    by its cross term minus lo, which keeps slots nonnegative.
    """
    idx = datum.index
    masks = {lab: sum(1 << t for t in ps) for lab, ps in targets.items()}
    used = dict.fromkeys(targets, 0)
    width = _leaves(runs, targets).bit_length()
    states = {0: 1}
    base = 0
    for x, r in runs:
        row = datum.form[idx(x)]
        weighted = {}                # form value -> positions of its labels
        lo = 0
        for y, m in masks.items():
            f = row[idx(y)]
            if f:
                weighted[f] = weighted.get(f, 0) | m
                if f < 0:
                    lo += f * used[y]
        base += r * lo
        used[x] += r
        candidates = [(1 << t, [(m >> (t + 1) << (t + 1), f)
                                for f, m in weighted.items()])
                      for t in targets[x]]
        new = {}
        get = new.get
        for S, val in states.items():
            free = []
            for bit, above in candidates:
                if S & bit:
                    continue
                c = -lo
                for m, f in above:
                    c += f * (S & m).bit_count()
                free.append((bit, c))
            if r == 1:
                for bit, c in free:
                    T = S | bit
                    new[T] = get(T, 0) + (val << (width * c))
                continue
            for subset in itertools.combinations(free, r):
                T, c = S, 0
                for bit, ct in subset:
                    T |= bit
                    c += ct
                new[T] = get(T, 0) + (val << (width * c))
        states = new
    (packed,) = states.values()
    slot = (1 << width) - 1
    acc = {}
    e = -base
    while packed:
        if packed & slot:
            acc[e] = packed & slot
        packed >>= width
        e -= 1
    return acc


def matching_sum(datum, nu, nup):
    """Sum of q^(-A) over all matchings; a Laurent polynomial.

    Equal consecutive letters of nu are collapsed: the inversion statistic
    splits into run-internal inversions, which sum to a Gaussian factorial
    independently of everything else (`_times_run_prefactor`), and cross
    terms that depend only on the set of target positions each run takes.
    Two cores sum the cross terms.  The recursion enumerates the target sets
    one leaf at a time, with ascending targets inside each run; the subset
    DP merges partial assignments that used the same positions.  The
    recursion is faster on short words, the DP on long repetitive ones, so
    a pair whose recursion would visit at least SUBSET_DP_MIN_LEAVES leaves,
    prod over labels m! / prod over runs r!, goes to the DP.
    """
    layout = _layout(nu, nup)
    if layout is None:
        return ZERO
    runs, targets = layout
    if _leaves(runs, targets) >= SUBSET_DP_MIN_LEAVES:
        cross = _cross_sums_by_subsets(datum, runs, targets)
    else:
        cross = _cross_sums_by_recursion(datum, runs, targets)
    return _times_run_prefactor(datum, runs, LaurentPoly(cross))


def delta_weight(datum, word):
    """Product over letters of (1 - q_i^2)^exponent; depends only on the weight."""
    out = ONE
    for lab, e in word.letters:
        out = out * (ONE - q_power(2 * datum.d(lab))) ** e
    return out


def inner_mackey(datum, word, wordp):
    """Inner product via the matching sum; zero across distinct weights."""
    if word.weight(datum) != wordp.weight(datum):
        return RF_ZERO
    nu = expand_word(word, datum)
    nup = expand_word(wordp, datum)
    total = matching_sum(datum, nu.labels, nup.labels)
    return RationalFn(total,
                      delta_weight(datum, word) * nu.prefactor * nup.prefactor)


def inner_shuffle(datum, word, wordp):
    """Inner product via the coproduct recursion; agrees with inner_mackey.

    Each peeled letter's self-pairing 1/(1 - q_l^2) is the same on every
    branch, so the recursion sums numerators over one denominator.
    """
    if word.weight(datum) != wordp.weight(datum):
        return RF_ZERO
    nu = expand_word(word, datum)
    nup = expand_word(wordp, datum)
    memo = {((), ()): ONE}

    def pairing(nu, nup):
        key = (nu, nup)
        if key not in memo:
            head, rest = nu[0], nu[1:]
            hi = datum.index(head)
            total, twist = ZERO, 0
            for k, lab in enumerate(nup):
                if lab == head:
                    total = total + pairing(rest, nup[:k] + nup[k + 1:]).shift(-twist)
                twist += datum.form[datum.index(lab)][hi]
            memo[key] = total
        return memo[key]

    den = math.prod((ONE - q_power(2 * datum.d(lab)) for lab in nu.labels),
                    start=nu.prefactor * nup.prefactor)
    return RationalFn(pairing(nu.labels, nup.labels), den)


def pbw_diag(datum, seq, c):
    """Diagonal inner product of the PBW element indexed by c."""
    den = ONE
    for k, ck in enumerate(c):
        d = datum.d(seq.indices[k])
        for j in range(1, ck + 1):
            den = den * (ONE - q_power(2 * d * j))
    return RationalFn(1, den)


def inner_mackey_restricted(fd, ulword, ulwordp):
    """Quotient matching sum recomputed inside the unfolded sequences.

    Each quotient matching expands blockwise to a base matching (identity
    on every orbit block); the inversion statistic must be preserved and
    the two sums must agree.  Returns (sum, witness) where witness pairs
    each quotient matching with its expanded image.
    """
    quotient, base = fd.quotient, fd.base
    ulnu = expand_word(ulword, quotient).labels
    ulnup = expand_word(ulwordp, quotient).labels

    def expanded(labels):
        out, starts = [], []
        for lab in labels:
            starts.append(len(out))
            out.extend(fd.orbits[quotient.index(lab)])
        return tuple(out), starts

    nu, starts = expanded(ulnu)
    nup, startsp = expanded(ulnup)
    quotient_sum = ZERO
    restricted_sum = ZERO
    witness = []
    for w in matchings(ulnu, ulnup):
        a_quot = inversion_stat(quotient, ulnu, w)
        wp = [None] * len(nu)
        for s, lab in enumerate(ulnu):
            size = len(fd.orbits[quotient.index(lab)])
            for i in range(size):
                wp[starts[s] + i] = startsp[w[s]] + i
        wp = tuple(wp)
        a_base = inversion_stat(base, nu, wp)
        if a_base != a_quot:
            raise MismatchError(
                f"inversion statistic changed under unfolding: {a_quot} -> {a_base}")
        quotient_sum = quotient_sum + q_power(-a_quot)
        restricted_sum = restricted_sum + q_power(-a_base)
        witness.append((w, wp))
    if quotient_sum != restricted_sum:
        raise MismatchError("restricted matching sum differs from the quotient sum")
    return restricted_sum, witness
