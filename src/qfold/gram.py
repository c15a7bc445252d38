"""Inner products of monomial words by two independent routes.

The closed route sums q^(-A) over the label-preserving matchings between
the two expanded letter sequences, A being the form-weighted inversion
statistic.  The sum is symmetric in the two sequences, so `matching_sum`
takes as its source the one whose runs of equal letters have the larger
prod r!, which leaves fewer target sets to sum over.  It computes the sum
with one of two cores, chosen per pair from the number of leaves the
recursion would visit: a recursion over target sets for short words, and a
DP over the subsets of target positions used so far for long repetitive
ones, whose leaves it merges.  What a sum needs of one word (its runs,
the positions of each label, the run factor) is a `WordLayout`, which a
caller pairing each word with many others builds once per word.  Both
cores deliver the sum packed into one integer at q^-1 = 2^w, w the bit
length of the number of matchings; every coefficient is a nonnegative
count of matchings, so no slot can overflow, and the run factor
multiplies in packed before one unpacking.  `matchings`
and `inversion_stat` enumerate the sum term by term and are the reference
both cores are tested against.  The oracle route, `inner_shuffle`, recurses
through the coproduct, peeling the first letter of one word against each
equal letter of the other at a q-twist; it shares only `expand_word` with
`gram_block`.  Both routes sum Laurent numerators and build one
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
    """Raised when unfolding changes the inversion statistic of a matching."""


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
# many leaves.  The two cores timed on every oriented pair of the benchmark's
# 22 gram and transition pool blocks and of every A3, B2, D4 and G2 block to
# height 6 (2-core x86 VM, Python 3.11; mean per pair, recursion against
# DP): 0.044 against 0.050 ms for 8-11 leaves and 0.060 against 0.066 for
# 12-15, so below 16 the recursion is faster; from 16 up the DP is, 0.083
# against 0.061 ms for 16-19, 0.18 against 0.084 for 24-31, 1.4 against
# 0.36 for 128-511 and 4.5 against 0.57 for 512-2047.  Orientation moved
# the crossover down from 20, where it lay on unoriented pairs.
SUBSET_DP_MIN_LEAVES = 16


def _runs(labels):
    """The maximal runs of equal consecutive labels, as (label, length)."""
    return [(lab, len(list(group))) for lab, group in itertools.groupby(labels)]


def _run_factor(datum, runs, width):
    """The run-internal inversions of one set of targets, summed over the
    r! orders in which a run of length r can take them, packed at
    q^-1 = 2^width.

    Per run, with (a_x, a_x) = 2d, that is the product over j <= r of the
    sum over k < j of q^(-2dk), which is q^(-d r(r-1)/2) [r]! in q^d.  At
    q^-1 = 2^width each factor is the repunit (2^(sj) - 1) / (2^s - 1),
    s = 2d * width, with constant term 1, so multiplying a packed sum by
    it keeps the sum's top exponent.
    """
    factor = 1
    for lab, r in runs:
        if r > 1:
            step = 2 * datum.d(lab) * width
            unit = (1 << step) - 1
            for j in range(2, r + 1):
                factor *= ((1 << (step * j)) - 1) // unit
    return factor


class WordLayout:
    """What a matching sum needs of one letter sequence, built once per word.

    As a source: its runs of equal letters and their prod r!, the form row
    of each letter, which letters start a run, and the run factor packed
    at the width.  As a target: the positions of each label, the form
    column of each position, and for the subset DP, per label x, the
    positions of the labels y grouped by the form value (x, y) != 0, and
    the labels y with (x, y) < 0.  The count of matchings, prod over labels
    m!, and the width, its bit length, depend only on the label
    multiplicities, which all words of a weight block share.
    """

    __slots__ = ("labels", "counts", "runs", "run_factorials", "matchings",
                 "width", "run_factor", "rows", "run_start", "targets", "cols",
                 "weighted", "negatives")

    def __init__(self, datum, labels):
        idx, form = datum.index, datum.form
        self.labels = labels
        self.runs = _runs(labels)
        self.run_factorials = math.prod(math.factorial(r) for _, r in self.runs)
        targets = {}
        for pos, lab in enumerate(labels):
            targets.setdefault(lab, []).append(pos)
        self.targets = targets
        self.counts = {lab: len(ps) for lab, ps in targets.items()}
        self.matchings = math.prod(math.factorial(m) for m in self.counts.values())
        self.width = self.matchings.bit_length()
        self.run_factor = _run_factor(datum, self.runs, self.width)
        self.cols = [idx(lab) for lab in labels]
        self.rows = [form[i] for i in self.cols]
        self.run_start = [k == 0 or labels[k - 1] != lab
                          for k, lab in enumerate(labels)]
        masks = {lab: sum(1 << t for t in ps) for lab, ps in targets.items()}
        self.weighted, self.negatives = {}, {}
        for x in targets:
            row = form[idx(x)]
            weighted = {}                # form value -> positions of its labels
            negatives = []
            for y, m in masks.items():
                f = row[idx(y)]
                if f:
                    weighted[f] = weighted.get(f, 0) | m
                    if f < 0:
                        negatives.append((y, f))
            self.weighted[x] = list(weighted.items())
            self.negatives[x] = negatives


def _orient(layout, layoutp):
    """The pair as (source, target), or None when no label-preserving
    bijection exists.

    The sum is symmetric in its two sequences, so the source is the one
    whose runs have the larger prod r!, which leaves the recursion fewer
    leaves and the subset DP fewer states; the first on a tie.
    """
    if layout.counts != layoutp.counts:
        return None
    if layoutp.run_factorials > layout.run_factorials:
        return layoutp, layout
    return layout, layoutp


def _leaves(source):
    """Leaves of the recursion: the ways to hand each label's m target
    positions to the source's runs, m! / prod r! per label."""
    return source.matchings // source.run_factorials


def _unpack_counts(packed, top, width):
    """The Laurent polynomial whose coefficient of q^(top - k) is slot k of
    packed, a sum of nonnegative counts below 2^width at q^-1 = 2^width."""
    slot = (1 << width) - 1
    coeffs = {}
    e = top
    while packed:
        if packed & slot:
            coeffs[e] = packed & slot
        packed >>= width
        e -= 1
    return LaurentPoly(coeffs)


def _cross_sums_by_recursion(source, target):
    """The cross sums packed at q^-1 = 2^width, with the exponent of
    q in slot 0: one leaf per assignment of target sets, with ascending
    targets inside each run."""
    width = source.width
    rows, run_start, cols = source.rows, source.run_start, target.cols
    choices = [target.targets[lab] for lab in source.labels]
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
    rec = None    # rec's closure holds rec: without this the pair's state waits for gc
    top = max(acc)
    return sum(c << (width * (top - e)) for e, c in acc.items()), top


def _cross_sums_by_subsets(source, target):
    """The cross sums as `_cross_sums_by_recursion` packs them, by a forward
    DP over the runs of the source.

    A state is the bitmask S of target positions used so far.  A run of
    label x and length r takes an r-subset T of the free positions of x;
    each t in T adds sum over labels y of form[x][y] * #(S_y above t), where
    S_y is the set of positions of S labelled y, so the cross term depends
    on S alone and states merge.

    A state's coefficient dict is packed into one integer, slot e holding
    the number of partial assignments with cross term base + e (Kronecker
    substitution), so merging two states is one shift and one add.  No
    slot overflows its width: each partial assignment extends to at least
    one leaf, so no count exceeds the leaves, and the leaves are at most
    the matchings that the width holds.  Before a run every state has
    used the same number of positions of each label, so lo, the sum over
    labels y with form[x][y] < 0 of form[x][y] * #S_y, bounds every
    target's cross term from below in all states alike; a target shifts
    by its cross term minus lo, which keeps slots nonnegative.
    """
    width = source.width
    used = dict.fromkeys(target.targets, 0)
    states = {0: 1}
    base = 0
    for x, r in source.runs:
        lo = 0
        for y, f in target.negatives[x]:
            lo += f * used[y]
        base += r * lo
        used[x] += r
        weighted = target.weighted[x]
        candidates = [(1 << t, [(m >> (t + 1) << (t + 1), f) for f, m in weighted])
                      for t in target.targets[x]]
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
    return packed, -base


def matching_sum(datum, nu, nup, layout=None, layoutp=None):
    """Sum of q^(-A) over all matchings; a Laurent polynomial.

    layout and layoutp are the `WordLayout`s of nu and nup; a caller that
    pairs each word with many others, such as `gram_block`, builds them
    once per word, and they are built here when not given.

    The sum is symmetric in nu and nup: a matching and its inverse invert
    the same pairs of letters.  So the source, whose equal consecutive
    letters are collapsed, is the sequence whose runs have the larger
    prod r!, nu on a tie (`_orient`).  The inversion statistic splits into
    run-internal inversions, which sum to a Gaussian factorial
    independently of everything else (`_run_factor`), and cross terms
    that depend only on the set of target positions each run takes.
    Two cores sum the cross terms.  The recursion enumerates the target sets
    one leaf at a time, with ascending targets inside each run; the subset
    DP merges partial assignments that used the same positions.  The
    recursion is faster on short words, the DP on long repetitive ones, so
    a pair whose recursion would visit at least SUBSET_DP_MIN_LEAVES leaves,
    prod over labels m! / prod over runs r!, goes to the DP.

    The sum is carried packed at q^-1 = 2^width from the cores to the end,
    with width the bit length of prod over labels m!, the number of
    matchings.  That width is proved, not guessed: every coefficient of the
    cross sums, of each partial product with the run factors, and of the
    sum itself is a nonnegative count of (partial) matchings, and together
    they count at most all matchings, so no slot reaches 2^width.
    """
    pair = _orient(WordLayout(datum, nu) if layout is None else layout,
                   WordLayout(datum, nup) if layoutp is None else layoutp)
    if pair is None:
        return ZERO
    source, target = pair
    if _leaves(source) >= SUBSET_DP_MIN_LEAVES:
        packed, top = _cross_sums_by_subsets(source, target)
    else:
        packed, top = _cross_sums_by_recursion(source, target)
    return _unpack_counts(packed * source.run_factor, top, source.width)


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
    on every orbit block) whose inversion statistic must equal the quotient
    one, so the restricted sum equals the quotient matching sum term by
    term.  Returns the sum, whose coefficients count the matchings.
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
    counts = {}                      # -a_base -> matchings with that statistic
    for w in matchings(ulnu, ulnup):
        a_quot = inversion_stat(quotient, ulnu, w)
        wp = [None] * len(nu)
        for s, lab in enumerate(ulnu):
            size = len(fd.orbits[quotient.index(lab)])
            for i in range(size):
                wp[starts[s] + i] = startsp[w[s]] + i
        a_base = inversion_stat(base, nu, wp)
        if a_base != a_quot:
            raise MismatchError(
                f"inversion statistic changed under unfolding: {a_quot} -> {a_base}")
        counts[-a_base] = counts.get(-a_base, 0) + 1
    return LaurentPoly(counts)
