"""Per-weight assembly of the monomial Gram matrix, its symmetric
unitriangular factorization, the bar-splitting of the triangular factor,
and the comparison machinery between a folding's two sides.

Matrix convention: columns hold basis expansions, rows and columns are
sorted ascending in the lex order on exponent vectors, so the factor
accumulation runs from the bottom-right corner upward.

`gram_block` reduces each distinct Gram entry once, by `gram.gram_entry`:
from its packed matching sum with one word's prefactor cancelled, over
the weight factor times the other's, one `Factored` denominator per
distinct prefactor.

`ldl` eliminates on Kronecker-packed integers: each Laurent numerator is
its value at q = 2^w over a power of q, at one width per block, which a
norm bound certifies before each row, so that every value the elimination
reads back has its coefficients below 2^(w-1).  The packed format is
laurent.py's: its packer, norms, product bound, width rule and certified
division `packed_div_exact` serve `ldl`, which keeps no packing code of
its own.  `pq_split` and `matmul_laurent` form each product of two shared
objects once.

An automorphism of the form that fixes gamma permutes the block's words,
and `gram_block` runs one matching sum per orbit of word pairs.  When it
also fixes the reduced word up to commuting letters, and its permutation
of the words is the one it induces on exponent vectors, it maps the PBW
basis of the block to itself, so H, D, P and Q are invariant under that
permutation (`ldl` proves it).  The Gram record lists those permutations;
`ldl` then eliminates one row per orbit and copies the rest, and
`pq_split` solves one entry per orbit of pairs.

`factor_gram` numbers lam's entries and reads their common denominator C
off the Gram record once per block (`_numbering`): delta times the lcm of
the block's few distinct prefactors, with each cofactor a product, and no
gcd per denominator of lam.  It hands them to `ldl` and C, as the block's
`common`, to `reconstruct_lam`, which certifies it with one product per
denominator of lam and checks lam = H^t D H as one identity
of numerators over C, which every denominator of D must divide, on
coefficient dicts: no fraction is reduced, and no entry of H^t D H is
built as a fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .folding import sigma_on_exponents
from .gram import (WordLayout, delta_weight, expand_word, gram_entry, matching_sum,
                   packed_prefactor)
from .laurent import (ONE, ZERO, Factored, LaurentPoly, RationalFn, SharedDenominators,
                      _gcd_cofactors, _laurent, _lowest_digit, _norms, _pack,
                      _poly_div_exact, _product_norms, _unpack, _width, packed_div_exact,
                      parse_laurent, parse_rational)
from .monomial import MonomialWord, canonical_word
from .rootsys import automorphisms, enumerate_block


class SingularPivot(ArithmeticError):
    pass


class NotIntegral(ArithmeticError):
    pass


class IndexMismatch(ValueError):
    pass


class BlockTooLarge(ValueError):
    pass


@dataclass
class TransitionBlock:
    """The factors of one weight block.  `factor_gram` also sets common,
    the (C, cofactor) that `ldl` eliminated over, for `reconstruct_lam`;
    it is no dataclass field, so equality, repr and the JSON record do
    not see it, and a block built otherwise has no common."""

    weight: tuple
    index: list
    lam: list
    H: list
    D: list
    P: list
    Q: list


class GramBlock(NamedTuple):
    """A weight block of monomial words and their Gram matrix.

    lam[a][b] = M[a][b] / (delta * g[a] * g[b]): M holds the raw matching
    sums, g each word's prefactor and delta the block's weight factor.
    perms lists the block permutations pi, each a list with pi[a] the
    image of word a, under which the factorization is invariant,
    X[pi a][pi b] = X[a][b] for X = H, D, P and Q (`_pbw_permutations`);
    `factor_gram` hands them to `ldl` and `pq_split`.  dens lists lam's
    distinct denominators, each one object, as (den, p, delta * p / den)
    for a prefactor p of the block such that den divides delta * p;
    `factor_gram` reads lam's common denominator off them.
    """

    index: list
    words: list
    M: list
    g: list
    delta: LaurentPoly
    lam: list
    perms: list
    dens: list


def gram_block(preset, gamma, basis=None, max_block=None):
    """Index, words and Gram matrix of a monomial family at weight gamma,
    on the preset's default basis unless one is named.

    Everything that depends on one word or one prefactor is built once per
    block, so the loop over pairs does only the work of the pair: at most
    one matching sum and at most one gcd.  Every word has weight gamma, so
    the weight factor is computed once; each word's letters, prefactor and
    `WordLayout` once per index; and, per distinct prefactor g, of which a
    block has far fewer than words, its `packed_prefactor` and the
    denominator delta * g, kept `Factored`: delta and g are split once,
    and the product is packed once per gcd width for every entry over it,
    never expanded unless a gcd needs it.

    The matching sum is symmetric in its two letter sequences, and it is
    unchanged by an automorphism t of the form applied to both and by
    swaps of adjacent commuting letters (the gram module's docstring
    proves both), so M[a][b] = M[pa][pb] whenever words pa and pb have the
    normal forms (`canonical_word`) of t applied to words a and b.  For
    each t that fixes gamma, `_block_permutations` maps each word to that
    image, or to None when the image is no block word, as happens on an
    identity folding, whose per-position factors do not commute letter by
    letter.  So the sum runs once per orbit of unordered pairs, not once
    per pair, and each result is written to every image pair that exists
    (D4->G2 (2,2,2,2): 172 sums for 703 pairs).  A gamma that no t but the
    identity fixes has no permutations and one sum per unordered pair.
    The permutations that `_pbw_permutations` shows to leave the
    factorization invariant are the record's perms.

    An entry M / (delta * g[a] * g[b]) is reduced by `gram_entry`, which
    cancels one prefactor first.  Each of g[a] and g[b] divides M, since
    the run factor of its word contains it, and the quotient, one integer
    division of M's key in the block's sums, has nonnegative coefficients
    no larger than M's, so the sums' width holds them as unsigned slots.
    The gcd then runs on M over the pair's prefactor of larger degree
    against delta times the other.  Values repeat far more than symmetry
    explains (A5->B3 (2,2,2,2,1): 1 275 pairs, 77 distinct sums), so each
    is one object: equal sums are one `LaurentPoly`, a gcd runs once per
    shared sum and pair of prefactors, and equal entries are one
    `RationalFn`, which `ldl` and `formatter` read once.  Equal reduced
    denominators are one object too, kept in the record's dens with the
    prefactor p they were reduced over and delta * p over them, the gcd
    content and gcd that the reduction took (`laurent.SharedDenominators`).
    These caches go with the block.  When max_block is given, a block of
    more vectors raises BlockTooLarge as soon as its index is counted,
    before any word is built.
    """
    datum, seq, word = preset.side(basis)
    index = enumerate_block(seq, gamma)
    if max_block is not None and len(index) > max_block:
        raise BlockTooLarge(
            f"the block at weight {','.join(map(str, gamma))} has "
            f"n = {len(index)} vectors, more than max-block {max_block}")
    words = [word(c) for c in index]
    letters = [expand_word(w, datum) for w in words]
    layouts = [WordLayout(datum, lt.labels) for lt in letters]
    g = [lt.prefactor for lt in letters]
    delta = delta_weight(datum, words[0]) if words else ONE
    n = len(index)
    moves = _block_permutations(datum, gamma, words)
    M = [[None] * n for _ in range(n)]
    sums = {}
    for a in range(n):
        for b in range(a, n):
            if M[a][b] is None:
                m = M[a][b] = M[b][a] = matching_sum(
                    datum, letters[a].labels, letters[b].labels, layouts[a], layouts[b],
                    sums)
                for _, perm in moves:
                    pa, pb = perm[a], perm[b]
                    if pa is not None and pb is not None:
                        M[pa][pb] = M[pb][pa] = m
    key = {id(core): k for k, core in sums.items()}
    # the distinct prefactors, numbered by degree: a pair cancels its larger one
    kinds = {p: k for k, p in enumerate(sorted(
        dict.fromkeys(g), key=lambda p: max(p.coeffs) - min(p.coeffs)))}
    kind = [kinds[p] for p in g]
    # every word has gamma's letters, so one width packs every sum
    cancel = [packed_prefactor(p, layouts[0].width) for p in kinds]
    split_delta = Factored(delta)
    kept = [Factored(split_delta, p) for p in kinds]
    lam = [[None] * n for _ in range(n)]
    fractions, values, shared = {}, {}, SharedDenominators()
    for a in range(n):
        for b in range(a, n):
            core = M[a][b]
            i, j = kind[a], kind[b]
            if i > j:
                i, j = j, i
            pair = (id(core), i, j)              # the sum lives as long as the block
            if pair not in fractions:
                value = gram_entry(key[id(core)], cancel[j], kept[i], shared)
                fractions[pair] = values.setdefault(value, value)
            lam[a][b] = lam[b][a] = fractions[pair]
    prefactor = {id(f): p for f, p in zip(kept, kinds)}
    dens = [(den, prefactor[id(f)], quotient)
            for den, f, quotient in shared.quotients.values()]
    return GramBlock(index, words, M, g, delta, lam,
                     _pbw_permutations(datum, seq, index, moves), dens)


def _block_permutations(datum, gamma, words):
    """For each automorphism t of datum's form other than the identity that
    fixes gamma, the pair (t, perm): perm[a] is the index of the block word
    with the normal form of t applied to words[a] (`canonical_word`), or
    None when that image is no block word.  A block of fewer than two
    words has none: it takes no automorphism search."""
    if len(words) < 2:               # no pair to share, no row to copy
        return []
    fixing = automorphisms(datum, gamma)[1:]     # the identity comes first
    if not fixing:
        return []
    where = {canonical_word(datum, w): a for a, w in enumerate(words)}
    moves = []
    for t in fixing:
        relabel = _relabel(datum, t)
        moves.append((t, [where.get(canonical_word(datum, w, relabel)) for w in words]))
    return moves


def _relabel(datum, t):
    """The label map of a permutation t of datum's label positions."""
    labels = datum.labels
    return {lab: labels[k] for lab, k in zip(labels, t)}


def _pbw_permutations(datum, seq, index, moves):
    """The block permutations of moves under which H, D, P and Q are
    invariant (`ldl` proves it): perm for each (t, perm) such that
    1. perm is total, no image being None;
    2. t fixes seq's reduced word up to swaps of commuting letters, its
       normal form (`canonical_word`) being that of the word itself;
    3. perm is the permutation rho that t induces on the index: position k
       of the word goes to the position of t(beta_k), and the exponent
       vector c to rho(c) with rho(c)[rho k] = c[k].
    A move that fails one still shares matching sums in `gram_block`."""
    total = [(t, perm) for t, perm in moves if None not in perm]
    if not total:
        return []
    reduced = MonomialWord(tuple((lab, 1) for lab in seq.indices))
    normal = canonical_word(datum, reduced)
    position = {beta: k for k, beta in enumerate(seq.betas)}
    where = {c: a for a, c in enumerate(index)}
    safe = []
    for t, perm in total:
        if canonical_word(datum, reduced, _relabel(datum, t)) != normal:
            continue
        gather = [None] * len(seq.betas)       # gather[rho k] = k
        for k, beta in enumerate(seq.betas):
            image = [0] * len(beta)
            for i, x in enumerate(beta):
                image[t[i]] = x
            gather[position[tuple(image)]] = k
        if all(where.get(tuple([c[k] for k in gather])) == pa
               for c, pa in zip(index, perm)):
            safe.append(perm)
    return safe


class _Numbering(NamedTuple):
    """lam's distinct entries on and below the diagonal, numbered by
    identity; kind[k] numbers the denominator of entries[k] among kinds,
    lam's distinct denominators; C is a common multiple of them and
    cofactors[k] = C / kinds[k], each a polynomial; common = (C, cofactor),
    cofactor[den] = C / den, as `reconstruct_lam` takes it."""
    entries: list
    kind: list
    kinds: list
    cofactors: list
    common: tuple


def _numbering(lam, gram=None):
    """The `_Numbering` of lam.  With gram, the Gram record lam is read
    from, no gcd is taken per denominator: each of lam's denominators is one
    of the record's dens, found by identity, over which C = delta * L for L
    the lcm of the distinct prefactors (`_record_common`).  A lam without
    its record, or one whose entries are not all over the record's dens (a
    record whose lam was replaced), is numbered with one hash per distinct
    entry's denominator and C the lcm of its distinct denominators, one gcd
    per denominator after the first (`_common_denominator`)."""
    entries = list({id(x): x for i, row in enumerate(lam) for x in row[:i + 1]}.values())
    if gram is not None:
        kinds = [den for den, _, _ in gram.dens]
        number = {id(den): k for k, den in enumerate(kinds)}
        kind = [number.get(id(x.den)) for x in entries]
        if None not in kind:
            C, cofactors = _record_common(gram.delta, gram.dens)
            return _Numbering(entries, kind, kinds, cofactors,
                              (C, dict(zip(kinds, cofactors))))
    kinds = {}                      # distinct denominator -> its number
    kind = [kinds.setdefault(x.den, len(kinds)) for x in entries]
    C, cofactor = _common_denominator(kinds)
    return _Numbering(entries, kind, list(kinds), [cofactor[den] for den in kinds],
                      (C, cofactor))


def _record_common(delta, dens):
    """(C, [C / den for each den]) for the (den, p, delta * p / den) of a
    Gram record: C = delta * L, L the lcm of the distinct prefactors p, so
    C / den = (L / p) * (delta * p / den), one product per den.  The
    prefactors are Laurent polynomials; L is taken over each one's
    polynomial q^-m * p, m its lowest exponent, and the result is shifted
    so that C / den is a polynomial for every den with a constant term for
    one of them, and C has a positive leading coefficient: the C that
    `_common_denominator` gives whenever the two agree up to a unit, as on
    every block measured.

    Why den divides delta * p: `gram_entry` reduces M / g over delta * p,
    g the other word's prefactor, which divides M; the reduced denominator
    divides the one it was reduced over, and `_normalize` keeps the
    quotient.
    """
    prefactors = list({id(p): p for _, p, _ in dens}.values())
    polys = [p.shift(-p.min_exp()) for p in prefactors]
    L, cofactor = _common_denominator(polys)
    over = {id(p): cofactor[f].shift(-p.min_exp()) for p, f in zip(prefactors, polys)}
    cofactors = [over[id(p)] * quotient for _, p, quotient in dens]
    C = delta * L
    low = min((c.min_exp() for c in cofactors), default=0)
    sign = -1 if C.coeffs[max(C.coeffs)] < 0 else 1
    if low or sign < 0:
        unit = LaurentPoly({-low: sign})
        C, cofactors = C * unit, [c * unit for c in cofactors]
    return C, cofactors


def _common_denominator(dens):
    """The lcm C of some denominators and the cofactor C / den of each
    distinct one, read off one gcd per den after the first, which is C
    with cofactor 1: with g = gcd(C, den), C grows to C * (den / g), which
    multiplies every earlier cofactor, and den's is C / g."""
    C, cofactor = ONE, {}
    for den in dens:
        if not cofactor:
            C, cofactor[den] = den, ONE
        elif den not in cofactor:
            _, c, d = _gcd_cofactors(C, den)
            if d != ONE:
                C = C * d
                cofactor = {k: v * d for k, v in cofactor.items()}
            cofactor[den] = c
    return C, cofactor


class _TooNarrow(Exception):
    """A bound of the elimination reached the digit range of its width; the
    argument is the width to restart at."""


def ldl(lam, perms=(), numbering=None):
    """Solve lam = H^t D H for unit lower triangular H and diagonal D.

    The elimination runs over one common denominator instead of in Q(q).
    numbering is lam's `_numbering`: its distinct entries, a common
    multiple C of their denominators and the polynomial C / den for each;
    `factor_gram` reads it off the Gram record once per block, and ldl
    takes the lcm of lam's denominators when it is not given.  So
    A = C * lam is a Laurent matrix, and row i computes
    the numerators
    S[i][j] = C * D[i] * H[i][j] (so S[i][i] = C * D[i]) for j <= i:

        S[i][j] = A[i][j] - sum over e > i of H[e][i] * S[e][j].

    With ascending index order the corner entry is already a pivot, so rows
    are processed from the bottom up.  Every S stays Laurent by induction:
    A is Laurent, and each row of H is certified Laurent by one exact
    division H[i][j] = S[i][j] / S[i][i] before a higher row uses it.  No
    fraction is reduced during the elimination; D[i] = S[i][i] / C is
    normalised once per row, but for the first: S[n-1][n-1] = A[n-1][n-1],
    so D[n-1] is the entry lam[n-1][n-1] itself.

    The numerators are Kronecker-packed (Harvey, J. Symbolic Comput. 44,
    2009): `_eliminate` keeps each as its value at q = 2^w over a power of
    q, with one width w for the block, so an update H[e][i] * S[e][j] is
    one integer product and H[i][j] one `divmod` by the packed pivot.  The
    width is certified, not guessed.  Before row i is eliminated, every
    entry of it is bounded by

        |S[i][j]| <= max over j of |A[i][j]|
                     + sum over e > i of |H[e][i]|_1 * SB[e],

    where SB[e] >= |S[e][j]| for every j is the largest `_product_norms`
    bound of pivot_e * H[e][j], |.| being the largest coefficient and
    |.|_1 their sum.  That bound must lie below 2^(w-1), so that the pivot and
    every S entry of the row are read back exactly from their balanced
    base-2^w digits.  The block starts at the `_width` of A's largest
    bound and restarts at that of a row bound that does not fit; the bounds
    do not depend on w, so the restarts end.  Each H entry is one
    `packed_div_exact`; H and the pivots are unpacked once each.  Entries
    are numbered by identity: an object that `gram_block` shares has its
    denominator, bound and packed A computed once, equal H entries are one
    object, and a lam that shares nothing (parsed JSON) gives the same H, D.

    perms are block permutations pi, each a list, under which H and D are
    invariant: H[pi i][pi j] = H[i][j] and D[pi i] = D[i].  Row r is
    eliminated when no pi maps a larger eliminated row to it; each row
    i = pi(r) < r of an eliminated r is then copied, not eliminated:
    H[i][j] = H[r][pi^-1 j], and likewise its packed S row, which keeps
    r's lowest exponent, its bound SB, D and its H entries.  A copied row
    takes no bound check and no division: its values are r's, certified
    when r was eliminated.  On D4->G2 (2,2,2,2) 14 of 37 rows are
    eliminated.  Without perms every row is.

    Why `gram_block`'s perms are invariant.  Each comes from an
    automorphism t of the form fixing gamma that fixes the reduced word
    i_1 ... i_N up to swaps of commuting letters.  t acts on U^- by
    F_i -> F_{t i}, preserving the form and commuting with the bar
    involution, and Lusztig's braid action commutes with it,
    t T_i = T_{t i} t, so t(E_{beta_k}) = T_{t i_1} ... T_{t i_(k-1)}
    (E_{t i_k}) is the root vector of t(beta_k) for the word t(i).  That
    word differs from i only by swaps of commuting letters, which change
    no root vector (T_i T_j = T_j T_i and T_i(E_j) = E_j when
    (a_i, a_j) = 0) and reorder only root vectors that commute, so
    t(E_c) = E_{rho c} for the permutation rho of exponent vectors that
    moves position k to the position of t(beta_k).  t also sends the
    monomial m_c to m_{pi c}, a word with the same normal form, and the
    guard asks pi = rho.  Applying t to m_a = sum over c of H[c][a] E_c
    gives m_{pi a} = sum over c of H[c][a] E_{pi c}, and by uniqueness of
    the PBW expansion, equivalently of this LDL, H[pi c][pi a] = H[c][a].
    D[c] = (E_c, E_c) = (t E_c, t E_c) = D[pi c], since t preserves the
    form.  P and Q follow in `pq_split`.
    """
    entries, kind, _, cofactors, (C, _) = numbering or _numbering(lam)
    number = {id(x): k for k, x in enumerate(entries)}
    at = [[number[id(x)] for x in row[:i + 1]] for i, row in enumerate(lam)]
    C = Factored(C)                 # packed once per gcd width for every D[i]
    norms = [_norms(c.coeffs.values()) for c in cofactors]
    bounds = [_product_norms(_norms(x.num.coeffs.values()), norms[k])[0]
              for x, k in zip(entries, kind)]            # |A| of each entry
    a_bound = [max(bounds[k] for k in row) for row in at]  # of |A[i][j]|, j <= i
    copies = _row_copies(len(at), perms)
    w = _width(max(a_bound, default=0))
    while True:
        try:
            return _eliminate(entries, kind, at, C, cofactors, a_bound, copies, w)
        except _TooNarrow as exc:
            (w,) = exc.args


def _row_copies(n, perms):
    """copies[i] = (r, pi^-1) for a row i = pi(r) < r that `ldl` copies
    from row r, r itself being eliminated; None for an eliminated row."""
    backs = []
    for perm in perms:
        back = [0] * n
        for a, pa in enumerate(perm):
            back[pa] = a
        backs.append((perm, back))
    copies = [None] * n
    for r in range(n - 1, -1, -1):
        if copies[r] is None:
            for perm, back in backs:
                i = perm[r]
                if i < r and copies[i] is None:
                    copies[i] = r, back
    return copies


def _eliminate(entries, kind, at, C, cofactors, a_bound, copies, w):
    """`ldl` on values at q = 2^w; raises _TooNarrow with a wider width when
    a row's bound reaches 2^(w-1).  Row i of lam is entries[k] for k in
    at[i], and kind[k] numbers the denominator of entries[k]; a row with
    copies[i] = (r, pi^-1) is copied from row r.

    S[e] holds the values of S[e][j], j <= e, over q^t[e], t[e] the lowest
    exponent in row e, and SB[e] bounds their coefficients.  A nonzero H
    entry is kept as (lowest exponent, value over that power of q, sum of
    absolute coefficients), built once per distinct first two.
    """
    n = len(at)
    half = 1 << (w - 1)
    packed = [_pack(c.coeffs.items(), w) for c in cofactors]
    A = [_pack(x.num.coeffs.items(), w) * packed[k] for x, k in zip(entries, kind)]
    shared = {}                     # (lowest exponent, value) -> H entry, row tuple, norms
    H = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    D = [None] * n
    HP = [None] * n
    S, t, SB = [None] * n, [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        if copies[i]:
            r, back = copies[i]     # entries right of r's diagonal are zero
            H[i][:i] = [H[r][k] for k in back[:i]]
            S[i] = [S[r][k] if k <= r else 0 for k in back[:i + 1]]
            HP[i] = [HP[r][k] if k < r else None for k in back[:i]]
            D[i], t[i], SB[i] = D[r], t[r], SB[r]
            continue
        column = [(e, HP[e][i]) for e in range(i + 1, n) if HP[e][i]]
        bound = a_bound[i] + sum(h[2] * SB[e] for e, h in column)
        if bound >= half:
            raise _TooNarrow(_width(bound))
        # every value of row i is taken over q^base, which divides each term
        base = min([0] + [h[0] + t[e] for e, h in column])
        shift = -w * base
        acc = [A[k] << shift for k in at[i]]
        for e, (low, value, _) in column:
            hv = value << w * (low + t[e] - base)
            acc = [a - hv * s for a, s in zip(acc, S[e])]
        pivot = acc[i]
        if not pivot:
            if i:
                raise SingularPivot(f"zero pivot at block position {i}")
            D[i] = RationalFn(0)
            break
        zeros = _lowest_digit(pivot, w)
        pv, pl = pivot >> w * zeros, base + zeros
        P = _unpack(pv, w)
        p_norms = _norms(P)
        # the last pivot is C * lam[n-1][n-1], so D[n-1] is that entry
        D[i] = entries[at[i][i]] if i == n - 1 else RationalFn(_laurent(P, pl, 1), C)
        row, lows, sb = [None] * i, [0], p_norms[0]
        for j in range(i):
            value = acc[j]
            if not value:
                continue
            try:
                q, digits = packed_div_exact(value, bound, pv, P, p_norms[0], w)
            except ArithmeticError:
                raise NotIntegral(
                    f"H[{i}][{j}] = ({_laurent(_unpack(value, w), base, 1)}) / "
                    f"({_laurent(P, pl, 1)}) is not a Laurent polynomial") from None
            # the lowest digit of H times P[0] != 0 is S's, so it is in range
            # and q's lowest set bit lies in it, long division or not
            z = _lowest_digit(q, w)
            key = (base - pl + z, q >> w * z)
            if key not in shared:
                h_norms = _norms(digits)
                shared[key] = _laurent(digits, base - pl, 1), key + h_norms[1:], h_norms
            H[i][j], row[j], h_norms = shared[key]
            lows.append(key[0])
            sb = max(sb, _product_norms(p_norms, h_norms)[0])
        t[i] = pl + min(lows)
        shift = w * (t[i] - base)
        S[i] = [a >> shift for a in acc] if shift else acc
        SB[i], HP[i] = sb, row
    return H, D


def _product(products, x, y):
    """The terms of x * y, once per pair of objects, which outlive products."""
    key = (id(x), id(y))
    terms = products.get(key)
    if terms is None:
        terms = products[key] = tuple((x * y).coeffs.items())
    return terms


def pq_split(H, perms=()):
    """Split unit lower triangular H as H = PQ with P strictly positive in q
    off the diagonal and Q bar-invariant.

    Entries are solved in increasing band distance i - j; within a band
    every entry depends only on strictly smaller bands.  Each entry's
    H[i][j] - sum of P[i][k] * Q[k][j] is accumulated in one coefficient
    dict acc, and P and Q are read off it: P has the coefficient
    acc[e] - acc[-e] at each e > 0, and Q is acc[0] plus acc[e] * (q^e + q^-e)
    for each e < 0.  Equal P or Q values are one object (D4->G2 (2,2,2,2):
    357 nonzero P entries below the diagonal, 23 objects), and each product
    P[i][k] * Q[k][j] is formed once per pair of objects, for this call.

    perms are block permutations pi under which H is invariant, as
    `ldl` takes them; then so are P and Q, and each entry is computed once
    per orbit of pairs: the band loop solves (i, j) only if no earlier
    entry filled it, and writes its P and Q to every image (pi i, pi j) not
    filled yet.  A filled entry joins its column's list of nonzero Q
    entries when the band loop reaches it, so each list stays in band
    order and holds only rows above the entry being solved.  Why P and Q
    are invariant: P^pi Q^pi = H^pi = H, P^pi - 1 is nilpotent with
    entries in qZ[q] and Q^pi is bar-invariant, so X = (P^pi)^-1 P, with
    entries in Z[q], equals Q^pi Q^-1, which is bar-invariant; X - 1 has
    entries in qZ[q], and a bar-invariant one is zero, so X = 1.
    """
    n = len(H)
    P = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    Q = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    values, products = {ZERO: ZERO, ONE: ONE}, {}  # value -> its one object
    columns = [[] for _ in range(n)]  # (k, Q[k][j]) for nonzero Q[k][j], k > j
    filled = [[False] * n for _ in range(n)] if perms else None
    for dist in range(1, n):
        for i in range(dist, n):
            j = i - dist
            if perms and filled[i][j]:
                q = Q[i][j]
            else:
                row, acc = P[i], dict(H[i][j].coeffs)
                for k, y in columns[j]:      # k < i: smaller bands only
                    if row[k] is not ZERO:
                        for e, c in _product(products, row[k], y):
                            acc[e] = acc.get(e, 0) - c
                p = q = ZERO                 # unless acc is nonzero
                if any(acc.values()):
                    p, q = {}, {0: acc.get(0, 0)}
                    for e, c in acc.items():
                        if e > 0:
                            p[e] = p.get(e, 0) + c
                        elif e < 0:
                            p[-e] = p.get(-e, 0) - c
                            q[e] = q[-e] = c
                    p, q = LaurentPoly(p), LaurentPoly(q)
                    P[i][j] = p = values.setdefault(p, p)
                    Q[i][j] = q = values.setdefault(q, q)
                for perm in perms:
                    a, b = perm[i], perm[j]
                    if not filled[a][b]:
                        filled[a][b] = True
                        P[a][b], Q[a][b] = p, q
            if q is not ZERO:
                columns[j].append((i, q))
    return P, Q


def _exact_quotient(a, b):
    """a / b for nonzero a, b in Z[q], or None when it is not in Z[q, 1/q]:
    with the powers of q split off, b's constant term is nonzero, so b
    divides a in the Laurent ring iff it does in Z[q]."""
    def dense(p):
        low = min(p.coeffs)
        return low, [p.coeffs.get(e, 0) for e in range(low, max(p.coeffs) + 1)]

    (la, xa), (lb, xb) = dense(a), dense(b)
    try:
        return _laurent(_poly_div_exact(xa, xb), la - lb, 1)
    except ArithmeticError:
        return None


def reconstruct_lam(H, D, lam, common):
    """Whether H^t D H = lam, for unit lower triangular Laurent H and
    diagonal D and lam over Q(q), with no fraction reduced.

    common is (C, cofactor), C a common multiple of the denominators of
    lam and cofactor[den] = C / den for each of them, as `_numbering`
    gives them; `factor_gram` computes it once per block for `ldl` and
    keeps it as the block's `common`.  The check does
    not trust it: it certifies cofactor[den] * den == C, one product per
    distinct denominator of lam, and a denominator with no cofactor or a
    wrong one decides the check, False.  The identity needs only some common
    multiple C, so a C that is not the lcm can only fail the block.  Then
    A[a][b] = C * lam[a][b] is Laurent by its cofactor.  If the identity
    holds, D = H^-t lam H^-1 with H^-1 Laurent, so C * D is Laurent too:
    each distinct denominator of D divides C, and one exact division gives
    its cofactor.  One that does not divide C therefore decides the check,
    False.  Otherwise CD[e] = C * D[e], and the identity holds iff, for
    every a <= b, the numerator

        sum over e >= b of H[e][a] * H[e][b] * CD[e]

    accumulated in one coefficient dict, has A[a][b]'s and A[b][a]'s
    coefficients.  Entries are numbered by identity, so a lam that
    `gram_block` shares has each target C * lam[a][b] built once.
    """
    n = len(H)
    entries = {id(x): x for row in lam for x in row}.values()
    C, given = common
    cofactor = {}
    for x in entries:
        if x.den not in cofactor:
            c = cofactor[x.den] = given.get(x.den)
            if c is None or c * x.den != C:
                return False
    for d in D:
        if d.den not in cofactor:
            cofactor[d.den] = _exact_quotient(C, d.den)
            if cofactor[d.den] is None:
                return False
    target = {id(x): (x.num * cofactor[x.den]).coeffs for x in entries}
    CD = [d.num * cofactor[d.den] for d in D]
    HCD = [[(H[e][b] * CD[e]).coeffs.items() for b in range(e + 1)] for e in range(n)]
    for a in range(n):
        column = [(e, H[e][a].coeffs.items()) for e in range(a, n) if H[e][a].coeffs]
        for b in range(a, n):
            acc = {}
            for e, xs in column:
                if e < b:
                    continue
                ys = HCD[e][b]
                for e1, c1 in xs:
                    for e2, c2 in ys:
                        k = e1 + e2
                        acc[k] = acc.get(k, 0) + c1 * c2
            num = {k: c for k, c in acc.items() if c}
            if num != target[id(lam[a][b])] or num != target[id(lam[b][a])]:
                return False
    return True


def matmul_laurent(A, B):
    """The product AB of two square Laurent matrices, summed over the
    nonzero entries of A and B.  Each product is formed once per pair of
    objects: P and Q from `pq_split` share their values, so PQ has few."""
    rows_a, rows_b = ([[(k, x) for k, x in enumerate(row) if x.coeffs] for row in M]
                      for M in (A, B))
    products, out = {}, []
    for row in rows_a:
        acc = [{} for _ in A]
        for k, x in row:
            for j, y in rows_b[k]:
                for e, c in _product(products, x, y):
                    acc[j][e] = acc[j].get(e, 0) + c
        out.append([LaurentPoly(a) if a else ZERO for a in acc])
    return out


def sigma_submatrix(fd, seq, index, M):
    """Rows and columns at sigma-fixed exponent vectors.

    The surviving order is the one inherited from the quotient block, which
    coincides with the ascending order of the fixed vectors themselves.
    """
    keep = [a for a, c in enumerate(index)
            if sigma_on_exponents(fd, seq, c) == c]
    sub_index = [index[a] for a in keep]
    sub = [[M[a][b] for b in keep] for a in keep]
    return sub_index, sub


@dataclass
class CompareReport:
    equal: bool
    p: int
    diffs: list

    def __str__(self):
        if self.equal:
            return f"congruent mod {self.p}"
        lines = [f"NOT congruent mod {self.p}:"]
        lines += [f"  ({i},{j}): {a} vs {b}" for i, j, a, b in self.diffs]
        return "\n".join(lines)


def _mod_p(lp, p):
    return tuple(sorted((e, c % p) for e, c in lp.coeffs.items() if c % p))


def mod_p_compare(P_sigma, ulP, p):
    """Entrywise comparison of two Laurent matrices over Z/p."""
    n = len(ulP)
    if len(P_sigma) != n or any(len(row) != n for row in P_sigma):
        raise IndexMismatch("matrices have different index sets")
    diffs = []
    for i in range(n):
        for j in range(n):
            if _mod_p(P_sigma[i][j], p) != _mod_p(ulP[i][j], p):
                diffs.append((i, j, P_sigma[i][j], ulP[i][j]))
    return CompareReport(not diffs, p, diffs)


def factor_gram(gram, gamma):
    """ldl -> pq_split on a Gram record, both given its block permutations:
    the transition block at gamma.

    lam's entries are numbered, and the common denominator C of lam and
    the cofactor C / den of each of its distinct denominators read off the
    record's dens, once per block, by `_numbering`.  `ldl` eliminates over
    them, and the block keeps (C, cofactor) as its `common` for
    `reconstruct_lam`, which certifies them with one product per
    denominator instead of computing them again.
    """
    numbering = _numbering(gram.lam, gram)
    if gram.index:
        H, D = ldl(gram.lam, gram.perms, numbering)
        P, Q = pq_split(H, gram.perms)
    else:
        H, D, P, Q = [], [], [], []
    block = TransitionBlock(tuple(gamma), gram.index, gram.lam, H, D, P, Q)
    block.common = numbering.common
    return block


def pipeline(preset, gamma, basis=None, max_block=None):
    """gram_block -> ldl -> pq_split, with all artifacts attached."""
    return factor_gram(gram_block(preset, gamma, basis, max_block), gamma)


# -- serialization ----------------------------------------------------------


def formatter():
    """str for values that stay alive while it is used, computed once per
    object: lam[a][b] and lam[b][a] are one value, the zeros and ones of H,
    P and Q are shared, and a fraction's text takes that of its
    denominator, which the fractions of a Gram block share (`gram_block`),
    from here."""
    text = {}

    def fmt(v):
        s = text.get(id(v))
        if s is None:
            s = text[id(v)] = v.text(fmt) if isinstance(v, RationalFn) else str(v)
        return s
    return fmt


def block_to_json(block, labels):
    fmt = formatter()
    return {
        "weight": list(block.weight),
        "labels": list(labels),
        "index": [list(c) for c in block.index],
        "lambda": [[fmt(v) for v in row] for row in block.lam],
        "H": [[fmt(v) for v in row] for row in block.H],
        "D": [fmt(v) for v in block.D],
        "P": [[fmt(v) for v in row] for row in block.P],
        "Q": [[fmt(v) for v in row] for row in block.Q],
    }


def block_from_json(data):
    return TransitionBlock(
        weight=tuple(data["weight"]),
        index=[tuple(c) for c in data["index"]],
        lam=[[parse_rational(v) for v in row] for row in data["lambda"]],
        H=[[parse_laurent(v) for v in row] for row in data["H"]],
        D=[parse_rational(v) for v in data["D"]],
        P=[[parse_laurent(v) for v in row] for row in data["P"]],
        Q=[[parse_laurent(v) for v in row] for row in data["Q"]],
    )


def block_to_tsv(data):
    """A block_to_json record laid out as TSV sections, reusing its strings."""
    weight = ", ".join(f"{n}*a[{lab}]"
                       for lab, n in zip(data["labels"], data["weight"]) if n)
    lines = [f"# weight\t{weight or '0'}", "# index"]
    lines += ["\t".join(str(x) for x in c) for c in data["index"]]
    for name in ("lambda", "H", "P", "Q"):
        lines.append(f"# {name}")
        lines += ["\t".join(row) for row in data[name]]
    lines += ["# D", "\t".join(data["D"])]
    return "\n".join(lines) + "\n"
