"""Inner products of monomial words by two independent routes.

The closed route sums q^(-A) over the label-preserving matchings between
the two expanded letter sequences, A being the form-weighted inversion
statistic.  The sum is symmetric in the two sequences, so `matching_sum`
takes as its source the one whose runs of equal letters have the larger
prod r!.  It scans the other sequence's letters left to right in a DP whose
state counts, per run of the source, the letters matched so far; states
that agree on these counts merge.  What a sum needs of one word (its runs,
the DP's tables, the run factor) is a `WordLayout`, which a caller pairing
each word with many others builds once per word.  The sum is carried
packed into one integer at q^-1 = 2^w, w the bit length of the number of
matchings; every coefficient is a nonnegative count of matchings, so no
slot can overflow, and the run factor multiplies in packed before one
unpacking.  A Gram entry M / (delta * g * g') is reduced from that packed
sum by `gram_entry`: the prefactor g of either word divides M, since its
run factor contains g, so one integer division cancels g, and the
quotient's coefficients, nonnegative and no larger than M's, are read off
its slots for the gcd against delta * g'.  `matchings` and
`inversion_stat` enumerate the sum term by term and are the reference the
DP is tested against.  The oracle route, `inner_shuffle`, recurses
through the coproduct, peeling the first letter of one word against each
equal letter of the other at a q-twist; it shares only `expand_word` with
`gram_block`.  Both routes sum Laurent numerators and build one
RationalFn per value, so nothing here combines Q(q) values; the coproduct
memo lives for one call, so this module keeps no memo that grows with use.

Two moves leave a matching sum unchanged, and `gram_block` runs one sum
per orbit of word pairs under them:
- one label permutation t with form[t i][t j] = form[i][j] applied to both
  sequences: it carries each matching to one of the images with the same
  inverted pairs, each weighted by the same form entry;
- a swap of two adjacent letters with orthogonal labels in one sequence:
  composing with that transposition is a bijection of the matchings that
  changes only whether that pair is inverted, which adds form[i][j] = 0.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .laurent import (ONE, ZERO, Factored, LaurentPoly, RationalFn, RF_ZERO,
                      _lowest_digit, _pack, q_power, qfact)


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
        if e > 1:    # [0]! = [1]! = 1
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


def _weighted_pairs(datum, nu):
    """(k, l, (a_{nu_k}, a_{nu_l})) for the positions k < l of nu whose
    labels are not orthogonal: the pairs that `inversion_stat` can weigh,
    listed once and read for every matching out of nu."""
    idx = [datum.index(lab) for lab in nu]
    return [(k, l, a) for k in range(len(nu)) for l in range(k + 1, len(nu))
            if (a := datum.form[idx[k]][idx[l]])]


def _inversions(pairs, w):
    """inversion_stat of the matching w, from its source's `_weighted_pairs`."""
    return sum(a for k, l, a in pairs if w[k] > w[l])


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


def _run_tables(datum, runs):
    """The run-count DP's tables for one source: (start, count mask,
    potential mask, moves), moves[y] = (lo, [(count shift, r, potential
    shift, offset, step)]) over the runs of label y.

    A state packs one field per run rho: the letters u_rho it has matched,
    and above them its potential, sum over later runs rho' of
    (x_rho, x_rho') * u_rho' minus lo_rho, the sum of the negative terms at
    full runs, so that no field is ever negative.  Matching a letter in run
    s raises u_s by one and the potential of each earlier run p by
    (x_p, x_s): one added step.  lo, the least lo_rho over the runs of y,
    bounds every cross term of a letter y from below, and offset is
    lo_rho - lo.
    """
    form, idx = datum.form, datum.index
    xs = [idx(lab) for lab, _ in runs]
    lows = []
    lo = {}                          # label -> the least lo_rho of its runs
    span = 0                         # the widest range of a potential
    for p, (lab, _) in enumerate(runs):
        row = form[xs[p]]
        low = high = 0
        for x, (_, r) in zip(xs[p + 1:], runs[p + 1:]):
            f = row[x] * r
            if f < 0:
                low += f
            else:
                high += f
        lows.append(low)
        span = max(span, high - low)
        if low < lo.get(lab, 1):
            lo[lab] = low
    count_bits = max(r for _, r in runs).bit_length() if runs else 0
    field = count_bits + span.bit_length()
    start = 0
    moves = {lab: (low, []) for lab, low in lo.items()}
    for s, (lab, r) in enumerate(runs):
        shift = s * field + count_bits
        start -= lows[s] << shift
        step = 1 << (s * field)
        for p in range(s):
            step += form[xs[p]][xs[s]] << (p * field + count_bits)
        moves[lab][1].append((s * field, r, shift, lows[s] - lo[lab], step))
    return start, (1 << count_bits) - 1, (1 << span.bit_length()) - 1, moves


class WordLayout:
    """What a matching sum needs of one letter sequence, built once per word.

    As a source: its runs of equal letters and their prod r!, the run
    factor packed at the width, and the run-count DP's tables
    (`_run_tables`).  As a target: its letters.  The count of matchings,
    prod over labels m!, and the width, its bit length, depend only on the
    label multiplicities, which all words of a weight block share.
    """

    __slots__ = ("labels", "counts", "runs", "run_factorials", "matchings",
                 "width", "run_factor", "tables")

    def __init__(self, datum, labels):
        self.labels = labels
        self.runs = _runs(labels)
        self.run_factorials = math.prod(math.factorial(r) for _, r in self.runs)
        self.counts = dict(Counter(labels))    # dict ==, not Counter.__eq__, in _orient
        self.matchings = math.prod(math.factorial(m) for m in self.counts.values())
        self.width = self.matchings.bit_length()
        self.run_factor = _run_factor(datum, self.runs, self.width)
        self.tables = _run_tables(datum, self.runs)


def _orient(layout, layoutp):
    """The pair as (source, target), or None when no label-preserving
    bijection exists.

    The sum is symmetric in its two sequences, so the source is the one
    whose runs have the larger prod r!, which leaves the DP fewer runs to
    count and fewer states; the first on a tie.
    """
    if layout.counts != layoutp.counts:
        return None
    if layoutp.run_factorials > layout.run_factorials:
        return layoutp, layout
    return layout, layoutp


def _slots(packed, width):
    """The slots of packed, lowest first: its unsigned base-2^width digits."""
    mask = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & mask)
        packed >>= width
    return out


def _unpack_counts(packed, top, width):
    """The Laurent polynomial whose coefficient of q^(top - k) is slot k of
    packed, a sum of nonnegative counts below 2^width at q^-1 = 2^width."""
    return LaurentPoly({top - k: c for k, c in enumerate(_slots(packed, width))})


def _split_counts(packed, top, width):
    """`laurent._split` of `_unpack_counts(packed, top, width)` for a packed
    whose slot 0 is nonzero, read off the slots: slot k is the coefficient
    of q^(top - k), so the primitive part, ascending in q, is the slots
    from the last down, and the step is the gcd of the nonzero slots'
    indices (their differences from the last one have the same gcd)."""
    slots = _slots(packed, width)
    content = math.gcd(*slots)
    step = math.gcd(*(k for k, c in enumerate(slots) if c))
    return (top - len(slots) + 1, content, step,
            [c // content for c in slots[::-(step or 1)]])


# The DP serves every pair, short words too.  Timed against a recursion
# over the target sets, one leaf per set (the tests' reference), on every
# oriented pair of the benchmark's 22 gram and transition pool blocks and
# of every A3, B2, D4 and G2 block to height 6 (2-core x86 VM, Python 3.11;
# mean per matching_sum call, DP against recursion): 0.015 against 0.022 ms
# for 1 leaf, 0.023 against 0.037 for 4-7, 0.040 against 0.090 for 12-15,
# 0.064 against 0.24 for 24-31 and 0.23 against 5.5 for 512-2047.
def _cross_sums_by_runs(source, target):
    """The sums over the source runs' target sets of q^(-cross term),
    packed at q^-1 = 2^width: (packed, top), the exponent of q in slot 0
    being top.  A DP over the target's letters, left to right.

    A state is the vector u, u_rho the letters of source run rho matched so
    far.  Matching the next target letter y to a run rho of label y inverts
    it with every letter matched so far from a later run, so it adds sum
    over rho' > rho of (x_rho, x_rho') * u_rho' to the cross term: that
    depends on u alone, so states merge.  A label with one run keeps one
    state where a DP over target subsets has C(m, k), and no state count
    exceeds that DP's.  `_run_tables` packs u and these sums into one
    integer, so a move is one add and two field reads.

    A state's counts are packed at q^-1 = 2^width, slot e holding the
    partial assignments with cross term base + e, so merging two states is
    one shift and one add.  No slot overflows: each label's remaining
    targets equal its runs' remaining capacity, so each partial assignment
    extends to at least one set of targets per run, and those are at most
    the matchings that the width holds.  Each letter shifts by its cross
    term minus a common lower bound lo, which keeps slots nonnegative; the
    slots below the least cross term are dropped at the end.
    """
    width = source.width
    start, count_mask, pot_mask, moves = source.tables
    states = {start: 1}
    base = 0
    for y in target.labels:
        lo, runs = moves[y]
        base += lo
        if len(runs) == 1:           # no capacity to test, no states to merge
            ((_, _, shift, _, step),) = runs         # and an offset of 0
            states = {K + step: val << (width * (K >> shift & pot_mask))
                      for K, val in states.items()}
            continue
        new = {}
        get = new.get
        for K, val in states.items():
            for count_shift, r, shift, offset, step in runs:
                if K >> count_shift & count_mask != r:
                    T = K + step
                    new[T] = get(T, 0) + (
                        val << (width * ((K >> shift & pot_mask) + offset)))
        states = new
    (packed,) = states.values()
    empty = _lowest_digit(packed, width)
    return packed >> (width * empty), -base - empty


def matching_sum(datum, nu, nup, layout=None, layoutp=None, sums=None):
    """Sum of q^(-A) over all matchings; a Laurent polynomial.

    layout and layoutp are the `WordLayout`s of nu and nup; a caller that
    pairs each word with many others, such as `gram_block`, builds them
    once per word, and they are built here when not given.  sums, a dict
    kept for one block, maps a packed sum, its top exponent and width to
    the one `LaurentPoly` unpacked from them, which every repeat shares;
    the caller reads each sum's key back from it, the packed form that
    `gram_entry` reduces.

    The sum is symmetric in nu and nup: a matching and its inverse invert
    the same pairs of letters.  So the source, whose equal consecutive
    letters are collapsed, is the sequence whose runs have the larger
    prod r!, nu on a tie (`_orient`).  The inversion statistic splits into
    run-internal inversions, which sum to a Gaussian factorial
    independently of everything else (`_run_factor`), and cross terms
    that depend only on the set of target positions each run takes, which
    `_cross_sums_by_runs` sums by a DP over the target's letters.

    The sum is carried packed at q^-1 = 2^width from the DP to the end,
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
    packed, top = _cross_sums_by_runs(source, target)
    key = (packed * source.run_factor, top, source.width)
    sums = {} if sums is None else sums
    if key not in sums:
        sums[key] = _unpack_counts(*key)
    return sums[key]


def packed_prefactor(g, width):
    """(g at q^-1 = 2^width over q^hi, hi) for a nonzero Laurent
    polynomial g, hi its top exponent: the packing of `matching_sum`'s
    sums."""
    hi = max(g.coeffs)
    return _pack(((hi - e, c) for e, c in g.coeffs.items()), width), hi


def gram_entry(key, cancelled, kept):
    """The Gram entry M / (g * kept) for a matching sum M given by its key
    in `matching_sum`'s sums, the `packed_prefactor` of one word's
    prefactor g at the key's width, and kept, the weight factor times the
    other word's prefactor as a `Factored`.

    g divides M.  Take g's word as the source: M is its run factor times
    the cross sums, and the run factor is the product of [r]! over its
    runs, up to a power of q, each a q-multinomial multiple of the
    factorials [e]! of the divided powers the run spans, whose product
    over the runs is g.  So the quotient M / g, the cross sums times those
    q-multinomials, has nonnegative coefficients, as g has with a lowest
    one of 1: no coefficient of M / g exceeds M's, which lie below
    2^width.  The exact integer quotient of the packed values is therefore
    M / g packed, with its coefficients as unsigned slots, and
    `_split_counts` reads them off.  A nonzero remainder proves that g does
    not divide M, which would break the argument: an ArithmeticError.
    """
    packed, top, width = key
    pg, hi = cancelled
    quotient, rem = divmod(packed, pg)
    if rem:
        raise ArithmeticError("a prefactor does not divide its matching sum")
    return RationalFn.reduced(_split_counts(quotient, top - hi, width), kept)


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
    sums = {}
    matching_sum(datum, nu.labels, nup.labels, None, None, sums)
    (key,) = sums
    return gram_entry(key, packed_prefactor(nup.prefactor, key[2]),
                      Factored(delta_weight(datum, word), nu.prefactor))


def inner_shuffle(datum, word, wordp):
    """Inner product via the coproduct recursion; agrees with inner_mackey.

    Each peeled letter's self-pairing 1/(1 - q_l^2) is the same on every
    branch, so the recursion sums numerators over one denominator: the
    prefactors times, for each distinct d among the letters' q_l = q^d,
    (1 - q^(2d))^m, m the number of such letters, expanded by the binomial
    theorem (`_binomial_power`), one polynomial per d, not one factor per
    letter.
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

    den = nu.prefactor * nup.prefactor
    for d, m in Counter(datum.d(lab) for lab in nu.labels).items():
        den = den * _binomial_power(d, m)
    total = pairing(nu.labels, nup.labels)
    del pairing                      # the closure's cell refers to itself
    return RationalFn(total, den)


def _binomial_power(d, m):
    """(1 - q^(2d))^m, each coefficient a signed binomial coefficient."""
    return LaurentPoly({2 * d * k: (-1) ** k * math.comb(m, k) for k in range(m + 1)})


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
    term.  Each statistic is `inversion_stat`'s, summed over the source's
    `_weighted_pairs`, which are listed once per word pair, so a matching
    costs one pass over the pairs with a nonzero form value on each side.
    Returns the sum, whose coefficients count the matchings.
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
    _, startsp = expanded(ulnup)
    blocks = [(s, starts[s], len(fd.orbits[quotient.index(lab)]))
              for s, lab in enumerate(ulnu)]
    ulpairs, pairs = _weighted_pairs(quotient, ulnu), _weighted_pairs(base, nu)
    counts = {}                      # -a_base -> matchings with that statistic
    for w in matchings(ulnu, ulnup):
        a_quot = _inversions(ulpairs, w)
        wp = [None] * len(nu)
        for s, start, size in blocks:
            for i in range(size):
                wp[start + i] = startsp[w[s]] + i
        a_base = _inversions(pairs, wp)
        if a_base != a_quot:
            raise MismatchError(
                f"inversion statistic changed under unfolding: {a_quot} -> {a_base}")
        counts[-a_base] = counts.get(-a_base, 0) + 1
    return LaurentPoly(counts)
