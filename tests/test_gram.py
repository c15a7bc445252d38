import gc
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, strategies as st

import qfold
from qfold import gram
from qfold.checks import _regroup, check_restriction
from qfold.gram import (delta_weight, expand_word, gram_entry, inner_mackey,
                        inner_mackey_restricted, inner_shuffle,
                        inversion_stat, matching_sum, matchings, packed_prefactor,
                        pbw_diag)
from qfold.laurent import (ONE, ZERO, Factored, RationalFn, _poly_div_exact,
                           parse_laurent, parse_rational, q_power, qfact)
from qfold.monomial import MonomialWord, word_folded, word_modified
from qfold.rootsys import enumerate_block, weights_up_to
from test_ldl import SETTINGS, coefficients

def cross_sums_by_recursion(datum, source, target):
    """The reference for `gram._cross_sums_by_runs`: one leaf per assignment
    of target sets to the source's runs, with ascending targets inside each
    run, packed at the source's width with the exponent of q in slot 0."""
    width = source.width
    rows = [datum.form[datum.index(lab)] for lab in source.labels]
    cols = [datum.index(lab) for lab in target.labels]
    run_start = [k == 0 or source.labels[k - 1] != lab
                 for k, lab in enumerate(source.labels)]
    targets = {}
    for pos, lab in enumerate(target.labels):
        targets.setdefault(lab, []).append(pos)
    choices = [targets[lab] for lab in source.labels]
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
            delta = sum(row[cols[t2]] for t2 in placed if t2 > t)
            used[t] = True
            placed.append(t)
            rec(k + 1, a_cross + delta)
            placed.pop()
            used[t] = False

    rec(0, 0)
    top = max(acc)
    return sum(c << (width * (top - e)) for e, c in acc.items()), top


CORES = (cross_sums_by_recursion,
         lambda datum, source, target: gram._cross_sums_by_runs(source, target))


def packed_cross_sums(core, datum, source, target):
    """(packed, top, width): a core's cross sums at the width of the count
    of matchings, as `matching_sum` calls it."""
    return (*core(datum, source, target), source.width)


def leaves(source):
    """The sets of targets the recursion visits: m! / prod r! per label."""
    return source.matchings // source.run_factorials


def oriented(datum, nu, nup):
    """(source, target) layouts of a pair as `matching_sum` orients it."""
    return gram._orient(gram.WordLayout(datum, nu), gram.WordLayout(datum, nup))


def W(*letters):
    return MonomialWord(tuple(letters))


def test_expand_word():
    b2 = qfold.get_preset("B2").fd.quotient
    seq = expand_word(W(("1", 2)), b2)
    assert seq.labels == ("1", "1")
    assert seq.prefactor == parse_laurent("q^2 + q^-2")
    a3 = qfold.get_preset("A3").fd.base
    seq = expand_word(W(("1", 1), ("2", 1), ("1", 1)), a3)
    assert seq.labels == ("1", "2", "1")
    assert seq.prefactor == ONE
    # two squared divided powers multiply their factorials
    seq = expand_word(W(("1'", 2), ("1", 2), ("2", 1)), a3)
    assert seq.prefactor == parse_laurent("(q + q^-1)^2")


def test_matchings_counts():
    nu = ("1'", "1", "1", "2", "1'")
    nup = ("1'", "1'", "1", "1", "2")
    found = matchings(nu, nup)
    assert len(found) == 4
    assert matchings(("1",), ("1",)) == [(0,)]
    assert matchings(("1",), ("2",)) == []
    assert len(matchings(("1", "1", "2", "2"), ("1", "2", "1", "2"))) == 4


def test_inversion_stat_worked_example():
    a3 = qfold.get_preset("A3").fd.base
    nu = ("1'", "1", "1", "2", "1'")
    nup = ("1'", "1'", "1", "1", "2")
    stats = sorted(inversion_stat(a3, nu, w) for w in matchings(nu, nup))
    assert stats == [-1, 1, 1, 3]
    ws = {w for w in matchings(nu, nup)}
    assert ws == {(0, 2, 3, 4, 1), (1, 2, 3, 4, 0),
                  (0, 3, 2, 4, 1), (1, 3, 2, 4, 0)}
    assert inversion_stat(a3, nu, tuple(range(5))) == 0
    assert inversion_stat(a3, ("1", "1"), (1, 0)) == 2
    total = matching_sum(a3, nu, nup)
    assert total == parse_laurent("q^-1 (q + q^-1)^2")


def test_delta_weight():
    a3 = qfold.get_preset("A3")
    word = word_modified(qfold.get_folding("A3->B2").fd, a3.seq,
                         (1, 1, 1, 0, 0, 0))
    assert delta_weight(a3.fd.base, word) == parse_laurent("(1 - q^2)^5")
    b2 = qfold.get_preset("B2")
    ulword = word_folded(b2.fd, b2.ulseq, (1, 1, 0, 0))
    assert delta_weight(b2.fd.quotient, ulword) == \
        parse_laurent("(1 - q^4)^2 (1 - q^2)")
    assert delta_weight(a3.fd.base, W()) == ONE


def test_inner_mackey_basics():
    a3 = qfold.get_preset("A3").fd.base
    assert inner_mackey(a3, W(("1", 1)), W(("1", 1))) == \
        parse_rational("1/(1 - q^2)")
    assert inner_mackey(a3, W(("1", 1)), W(("2", 1))).is_zero()
    # (divided square, plain square) = [2]! times the orthogonal diagonal
    assert inner_mackey(a3, W(("1", 2)), W(("1", 1), ("1", 1))) == \
        parse_rational("(q + q^-1)/((1 - q^2)(1 - q^4))")


def test_inner_product_worked_example():
    # two elements of the same weight block whose pairing collapses nicely
    fd = qfold.get_folding("A3->B2").fd
    seq = qfold.get_folding("A3->B2").seq
    w3 = word_modified(fd, seq, (2, 1, 0, 1, 0, 0))
    w4 = word_modified(fd, seq, (2, 2, 0, 0, 0, 1))
    expected = parse_rational("(1 + q^2)/((1 - q^2)^5 (1 + q^2)^2)")
    value = inner_mackey(fd.base, w3, w4)
    assert value == expected
    assert inner_mackey(fd.base, w4, w3) == expected
    assert inner_shuffle(fd.base, w3, w4) == expected


def test_inner_shuffle_basics():
    a3 = qfold.get_preset("A3").fd.base
    assert inner_shuffle(a3, W(("1", 1)), W(("1", 1))) == \
        parse_rational("1/(1 - q^2)")
    # pinned by running the two-letter recursion by hand
    assert inner_shuffle(a3, W(("1", 1), ("2", 1)), W(("2", 1), ("1", 1))) == \
        parse_rational("q/(1 - q^2)^2")
    assert inner_shuffle(a3, W(("1", 1)), W(("2", 1))).is_zero()


def test_inner_shuffle_on_long_words_equals_the_gram_block():
    # words of 10-12 letters with d = 2 and d = 3
    for name, gamma in (("G2", (6, 4)), ("B2", (7, 5))):
        preset = qfold.get_preset(name)
        datum = preset.side()[0]
        block = qfold.gram_block(preset, gamma)
        words = block.words
        assert len(words) in (12, 13)
        for a in range(len(words)):
            for b in range(a, len(words)):
                assert inner_shuffle(datum, words[a], words[b]) == \
                    block.lam[a][b], (name, a, b)


def test_inner_shuffle_leaves_no_garbage_cycle():
    """The coproduct memo is freed when inner_shuffle returns, not when the
    cyclic garbage collector next runs."""
    preset = qfold.get_preset("A3")
    words = qfold.gram_block(preset, (1, 2, 1)).words
    gc.collect()
    gc.disable()
    try:
        assert inner_shuffle(preset.side()[0], words[0], words[1])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_symmetry_of_the_pairing():
    import random

    rng = random.Random(23)
    g2 = qfold.get_preset("G2").fd.quotient
    labels = g2.labels
    for _ in range(40):
        w1 = W(*((rng.choice(labels), rng.randint(1, 2)) for _ in range(3)))
        w2 = W(*((rng.choice(labels), rng.randint(1, 2)) for _ in range(3)))
        assert inner_mackey(g2, w1, w2) == inner_mackey(g2, w2, w1)


def test_pbw_diag():
    a3 = qfold.get_preset("A3")
    datum, seq = a3.fd.base, a3.seq
    assert pbw_diag(datum, seq, (1, 1, 1, 0, 0, 0)) == \
        parse_rational("1/(1 - q^2)^3")
    assert pbw_diag(datum, seq, (2, 2, 0, 0, 0, 1)) == \
        parse_rational("1/((1 - q^2)^3 (1 - q^4)^2)")
    assert pbw_diag(datum, seq, (0,) * 6) == parse_rational("1")
    b2 = qfold.get_preset("B2")
    assert pbw_diag(b2.fd.quotient, b2.ulseq, (1, 1, 0, 0)) == \
        parse_rational("1/((1 - q^2)(1 - q^4))")


def test_restricted_matching_sums():
    b2 = qfold.get_preset("B2")
    one = word_folded(b2.fd, b2.ulseq, (0, 0, 0, 1))
    # the coefficients count the matchings: one here, two below
    assert inner_mackey_restricted(b2.fd, one, one) == ONE
    m1 = word_folded(b2.fd, b2.ulseq, (1, 1, 0, 0))
    m2 = word_folded(b2.fd, b2.ulseq, (2, 0, 0, 1))
    assert inner_mackey_restricted(b2.fd, m1, m2) == parse_laurent("q^2 + q^-2")
    g2 = qfold.get_preset("G2")
    m1 = word_folded(g2.fd, g2.ulseq, (1, 1, 0, 0, 0, 0))
    m2 = word_folded(g2.fd, g2.ulseq, (2, 0, 0, 0, 0, 1))
    assert inner_mackey_restricted(g2.fd, m1, m2) == parse_laurent("q^3 + q^-3")


FOLDINGS = ("A3->B2", "D4->G2", "A5->B3", "D4->C3", "D5->C4", "E6->F4")


@st.composite
def labelled_matchings(draw):
    """A label sequence of a symmetric datum (A3, A5, D4, D5, E6) or of a
    quotient one (B2, G2, B3, C3, C4, F4) and a matching out of it, a
    permutation of its positions."""
    fd = qfold.get_folding(draw(st.sampled_from(FOLDINGS))).fd
    datum = draw(st.sampled_from((fd.base, fd.quotient)))
    nu = tuple(draw(st.lists(st.sampled_from(datum.labels), max_size=9)))
    return datum, nu, tuple(draw(st.permutations(range(len(nu)))))


@SETTINGS
@given(labelled_matchings())
@example((qfold.get_folding("A3->B2").fd.base, ("1'", "1", "1", "2", "1'"),
          (0, 2, 3, 4, 1)))
def test_weighted_pairs_give_the_inversion_statistic(drawn):
    datum, nu, w = drawn
    pairs = gram._weighted_pairs(datum, nu)
    assert all(a for _, _, a in pairs)
    assert gram._inversions(pairs, w) == inversion_stat(datum, nu, w)


@pytest.mark.parametrize("spec, pairs", [
    ("A5->B3", 126), ("D4->C3", 128), ("D5->C4", 273), ("E6->F4", 281)])
def test_the_restriction_suite_sums_inversion_stat_over_weighted_pairs(
        spec, pairs, monkeypatch):
    """On every matching of every restriction pair at height 4, each side's
    statistic, summed over the pairs listed once per word, equals
    `inversion_stat` of that matching."""
    listed, seen = {}, []

    def weighted_pairs(datum, nu):
        found = real_pairs(datum, nu)
        listed[id(found)] = datum, nu, found      # found stays alive
        return found

    def inversions(found, w):
        datum, nu, _ = listed[id(found)]
        value = real_inversions(found, w)
        assert value == inversion_stat(datum, nu, w), (nu, w)
        seen.append(tuple(datum.labels))
        return value

    real_pairs, real_inversions = gram._weighted_pairs, gram._inversions
    monkeypatch.setattr(gram, "_weighted_pairs", weighted_pairs)
    monkeypatch.setattr(gram, "_inversions", inversions)
    result = check_restriction(folds=(spec,), max_height=4)
    assert result.ok, result.failures
    assert result.instances == pairs
    fd = qfold.get_folding(spec).fd
    half = len(seen) // 2                         # one statistic a side per matching
    assert half and Counter(seen) == {tuple(fd.quotient.labels): half,
                                      tuple(fd.base.labels): half}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_binomial_denominator_is_the_product_over_letters(d):
    for m in range(9):
        product = math.prod((ONE - q_power(2 * d) for _ in range(m)), start=ONE)
        assert gram._binomial_power(d, m) == product, m


def test_prefactor_identity_against_factorials():
    assert qfact(2, 2) == parse_laurent("q^2 + q^-2")
    assert qfact(2, 3) == parse_laurent("q^3 + q^-3")


@st.composite
def letter_pairs(draw):
    """A letter sequence and, mostly, a rearrangement of it, else another
    sequence of its length.  Short random words give the recursion few
    leaves; a pattern of distinct labels repeated three times gives it
    many; several runs of one label x, between runs of labels whose form
    with x is negative, give the source runs whose DP states merge."""
    datum = qfold.get_preset(draw(st.sampled_from(("A3", "B2", "D4", "G2")))).side()[0]
    label = st.sampled_from(datum.labels)
    shape = draw(st.integers(0, 2))
    if shape == 0:
        word = draw(st.lists(st.tuples(label, st.integers(1, 3)), max_size=4))
    elif shape == 1:
        pattern = draw(st.lists(label, min_size=2, max_size=3, unique=True))
        word = [(lab, draw(st.integers(1, 2))) for lab in pattern] * 3
    else:
        x = draw(label)
        row = datum.form[datum.index(x)]
        neighbour = st.sampled_from([y for y in datum.labels if row[datum.index(y)] < 0])
        word = [(x, draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 3))):
            word += [(draw(neighbour), draw(st.integers(1, 2))),
                     (x, draw(st.integers(1, 3)))]
    nu = tuple(lab for lab, r in word for _ in range(r))
    # the reference enumerates prod m! matchings
    assume(math.prod(math.factorial(m) for m in Counter(nu).values()) <= 5040)
    if draw(st.integers(0, 4)):
        nup = tuple(draw(st.permutations(nu)))
    else:
        nup = tuple(draw(st.lists(st.sampled_from(datum.labels), min_size=len(nu),
                                  max_size=len(nu))))
    return datum, nu, nup


@SETTINGS
@given(letter_pairs())
def test_both_cores_sum_q_to_the_inversions_over_matchings(pair):
    datum, nu, nup = pair
    expected = sum((q_power(-inversion_stat(datum, nu, w)) for w in matchings(nu, nup)),
                   ZERO)
    assert matching_sum(datum, nu, nup) == expected
    assert matching_sum(datum, nup, nu) == expected
    pair = oriented(datum, nu, nup)
    if pair is None:
        assert expected == ZERO
        return
    source, target = pair
    for core in CORES:
        packed, top, width = packed_cross_sums(core, datum, source, target)
        total = packed * source.run_factor
        assert gram._unpack_counts(total, top, width) == expected, core


def test_the_source_is_the_sequence_with_the_larger_run_factorials():
    a3 = qfold.get_preset("A3").fd.base
    source, target = oriented(a3, ("1", "2", "1", "2"), ("1", "1", "2", "2"))
    assert source.runs == [("1", 2), ("2", 2)]
    assert target.labels == ("1", "2", "1", "2")
    source, _ = oriented(a3, ("2", "1"), ("1", "2"))     # a tie keeps nu
    assert source.runs == [("2", 1), ("1", 1)]
    # A3 (4,4,4) has pairs of either orientation, and the sum is the same
    block = qfold.gram_block(qfold.get_preset("A3"), (4, 4, 4))
    letters = [expand_word(w, a3).labels for w in block.words]
    swapped = 0
    for a, nu in enumerate(letters):
        for nup in letters[a + 1:]:
            source, _ = oriented(a3, nu, nup)
            if source.runs != gram._runs(nu):
                swapped += 1
                assert matching_sum(a3, nup, nu) == matching_sum(a3, nu, nup)
    assert swapped > 0


def test_matching_sums_at_q_1_count_the_matchings():
    # every coefficient is a count of matchings, which the packed width holds
    for name, gamma in (("G2", (6, 4)), ("B2", (7, 5))):
        block = qfold.gram_block(qfold.get_preset(name), gamma)
        datum = qfold.get_preset(name).side()[0]
        for word, row in zip(block.words, block.M):
            count = math.prod(math.factorial(m) for m in
                              Counter(expand_word(word, datum).labels).values())
            assert [sum(m.coeffs.values()) for m in row] == [count] * len(row)
            assert all(c > 0 for m in row for c in m.coeffs.values())


def test_both_cores_agree_on_whole_blocks():
    """Every pair of G2 (6,4), B2 (7,5) and the D4->G2 modified blocks to
    height 6, with few and with many leaves of the recursion."""
    def letter_blocks():
        for name, gamma in (("G2", (6, 4)), ("B2", (7, 5))):
            yield qfold.get_preset(name).side(), [gamma]
        side = qfold.get_folding("D4->G2").side("modified")
        yield side, weights_up_to(side[0], 6)

    sides = Counter()
    for (datum, seq, word), gammas in letter_blocks():
        for gamma in gammas:
            layouts = [gram.WordLayout(datum, expand_word(word(c), datum).labels)
                       for c in enumerate_block(seq, gamma)]
            for a, layout in enumerate(layouts):
                for layoutp in layouts[a:]:
                    source, target = gram._orient(layout, layoutp)
                    by_recursion, by_runs = (
                        gram._unpack_counts(*packed_cross_sums(core, datum, source,
                                                               target))
                        for core in CORES)
                    assert by_recursion == by_runs, \
                        (gamma, layout.labels, layoutp.labels)
                    sides[leaves(source) >= 16] += 1
    assert sides[True] and sides[False]


def test_precomputed_layouts_give_the_same_sums():
    """matching_sum with the layouts gram_block builds equals the call that
    builds them itself: on pairs either orientation takes, on a tie, on a
    pair of sequences of different multisets and on the empty word."""
    a3 = qfold.get_preset("A3").fd.base
    block = qfold.gram_block(qfold.get_preset("A3"), (4, 4, 4))
    letters = [expand_word(w, a3).labels for w in block.words]
    layouts = [gram.WordLayout(a3, nu) for nu in letters]
    kinds = Counter()
    for a in range(0, len(letters), 3):
        for b in range(len(letters)):
            nu, nup = letters[a], letters[b]
            source, _ = gram._orient(layouts[a], layouts[b])
            kinds[source is layouts[a]] += 1
            assert matching_sum(a3, nu, nup, layouts[a], layouts[b]) == \
                matching_sum(a3, nu, nup) == block.M[a][b]
    assert kinds[True] and kinds[False]
    tie = (("2", "1"), ("1", "2"))
    assert gram.WordLayout(a3, tie[0]).run_factorials == \
        gram.WordLayout(a3, tie[1]).run_factorials
    for nu, nup in (tie, tie[::-1], (("1", "2"), ("1", "1")), ((), ())):
        assert matching_sum(a3, nu, nup, gram.WordLayout(a3, nu),
                            gram.WordLayout(a3, nup)) == matching_sum(a3, nu, nup)
    assert matching_sum(a3, (), ()) == ONE
    assert matching_sum(a3, ("1", "2"), ("1", "1")) == ZERO


def test_either_prefactor_divides_its_matching_sum():
    """`gram_entry` rests on this: both words' prefactors divide their
    matching sum, and the quotient has nonnegative coefficients, none
    larger than the sum's (the prefactors' lowest coefficient is 1), so the
    sums' width holds them.  Every pair of every block of A3, B2, D4 and
    G2 to height 6, and of the modified and folded bases of A3->B2 and
    D4->G2 to quotient height 4.  No two adjacent divided powers of these
    words share a label, so each run of equal letters is one divided
    power; `regrouped_pairs` covers the runs that span several."""
    def blocks():
        for name in ("A3", "B2", "D4", "G2"):
            preset = qfold.get_preset(name)
            for gamma in weights_up_to(preset.side()[0], 6):
                yield preset, gamma, None
        for spec in ("A3->B2", "D4->G2"):
            preset = qfold.get_folding(spec)
            for ulgamma in weights_up_to(preset.side("folded")[0], 4):
                yield preset, ulgamma, "folded"
                yield preset, preset.fd.expand_weight(ulgamma), "modified"

    pairs = 0
    for preset, gamma, basis in blocks():
        block = qfold.gram_block(preset, gamma, basis)
        n = len(block.index)
        for a in range(n):
            for b in range(a, n):
                M = block.M[a][b]
                M = coefficients(M.shift(-M.min_exp()))
                for g in (block.g[a], block.g[b]):
                    g = coefficients(g.shift(-g.min_exp()))
                    assert g[0] == 1
                    quotient = _poly_div_exact(M, g)
                    assert all(0 <= h <= m for h, m in zip(quotient, M)), \
                        (preset.name, gamma, basis, a, b)
                pairs += 1
    assert pairs > 4000


@st.composite
def regrouped_pairs(draw):
    """Two words of one weight, each a letter sequence cut into divided
    powers as `check_oracle` cuts its random pairs (`checks._regroup`), the
    second a rearrangement of the first.  Two labels make runs of equal
    letters long, so a run often spans several divided powers: there the
    run factor over the prefactor is a q-multinomial, not a power of q."""
    name = draw(st.sampled_from(("A3", "B2", "D4", "G2", "A5", "E6")))
    datum = qfold.get_preset(name).side()[0]
    labels = draw(st.lists(st.sampled_from(datum.labels), min_size=2, max_size=2,
                           unique=True))
    nu = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
    nup = draw(st.permutations(nu))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return datum, _regroup(rng, nu), _regroup(rng, nup)


A3 = qfold.get_preset("A3").side()[0]


@SETTINGS
@given(regrouped_pairs())
@example((A3, W(("1", 2), ("1", 1), ("2", 1)), W(("2", 1), ("1", 1), ("1", 2))))
@example((A3, W(("1", 3), ("2", 2)), W(("2", 1), ("1", 2), ("2", 1), ("1", 1))))
def test_a_gram_entry_is_the_same_whichever_prefactor_is_cancelled(pair):
    datum, word, wordp = pair
    nu, nup = expand_word(word, datum), expand_word(wordp, datum)
    delta = delta_weight(datum, word)
    sums = {}
    core = matching_sum(datum, nu.labels, nup.labels, None, None, sums)
    (key,) = sums
    expected = RationalFn(core, delta * nu.prefactor * nup.prefactor)
    for cancelled, kept in ((nu.prefactor, nup.prefactor),
                            (nup.prefactor, nu.prefactor)):
        value = gram_entry(key, packed_prefactor(cancelled, key[2]),
                           Factored(delta, kept))
        assert (value.num, value.den) == (expected.num, expected.den)
    assert inner_mackey(datum, word, wordp) == expected
