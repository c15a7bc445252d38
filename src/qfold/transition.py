"""Per-weight assembly of the monomial Gram matrix, its symmetric
unitriangular factorization, the bar-splitting of the triangular factor,
and the comparison machinery between a folding's two sides.

Matrix convention: columns hold basis expansions, rows and columns are
sorted ascending in the lex order on exponent vectors, so the factor
accumulation runs from the bottom-right corner upward.

`ldl` eliminates on Kronecker-packed integers: each Laurent numerator is
its value at q = 2^w over a power of q, at one width per block, which a
norm bound certifies before each row: every value the elimination reads
back has its coefficients below 2^(w-1), and every quotient it accepts
passes the GCDHEU rule of `laurent.packed_quotient`.  `pq_split`,
`reconstruct_lam` and `matmul_laurent` still multiply coefficient dicts,
through `_add_products`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .folding import sigma_on_exponents
from .gram import WordLayout, delta_weight, expand_word, matching_sum
from .laurent import (ONE, ZERO, Factored, LaurentPoly, RationalFn,
                      _dense, _laurent, _poly_div_exact, _unpack, laurent_div_exact,
                      packed_quotient, parse_laurent, parse_rational, poly_lcm)
from .rootsys import enumerate_block


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
    """

    index: list
    words: list
    M: list
    g: list
    delta: LaurentPoly
    lam: list


def gram_block(preset, gamma, basis=None, max_block=None):
    """Index, words and Gram matrix of a monomial family at weight gamma,
    on the preset's default basis unless one is named.

    Everything that depends on one word or one prefactor is built once per
    block, so the loop over pairs does only the work of the pair: one
    matching sum and one gcd.  Every word has weight gamma, so the weight
    factor is computed once; each word's letters, prefactor and
    `WordLayout` once per index; and each denominator delta * g[a] * g[b]
    once per pair of distinct prefactors, of which a block has far fewer
    than pairs of words.  A denominator is kept `Factored`: delta and each
    prefactor are split once, and the product is packed once per gcd
    width for every entry over it, never expanded unless a gcd needs it.
    The matching sum is symmetric in its two letter sequences, so it runs
    once per unordered pair.  These caches go with the block.  When
    max_block is given, a block of more vectors raises BlockTooLarge as
    soon as its index is counted, before any word is built.
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
    kinds = {}                       # distinct prefactor -> its number
    kind = [kinds.setdefault(p, len(kinds)) for p in g]
    split_delta = Factored(delta)
    prefactors = [Factored(p) for p in kinds]
    dens = [[None] * len(kinds) for _ in kinds]
    for i, p in enumerate(prefactors):
        for j in range(i, len(kinds)):
            dens[i][j] = dens[j][i] = Factored(split_delta, p, prefactors[j])
    n = len(index)
    M = [[None] * n for _ in range(n)]
    lam = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            core = matching_sum(datum, letters[a].labels, letters[b].labels,
                                layouts[a], layouts[b])
            M[a][b] = M[b][a] = core
            lam[a][b] = lam[b][a] = RationalFn(core, dens[kind[a]][kind[b]])
    return GramBlock(index, words, M, g, delta, lam)


def _common_denominator(dens):
    """The lcm C of some denominators and the cofactor C / den of each
    distinct one, by exact division."""
    dens = dict.fromkeys(dens)
    C = ONE
    for den in dens:
        C = poly_lcm(C, den)
    return C, {den: laurent_div_exact(C, den) for den in dens}


# Bits the first width of `ldl` leaves above the largest bound of A for the
# bounds of S, and a restart above the bound that refused the width.  The
# bounds of S exceed A's by at most 5 bits on the benchmark's 15 pool
# blocks, so none of them restarts.  A restart adds at least this many bits
# plus one, so it must not be negative.
_WIDTH_SLACK = 8


class _TooNarrow(Exception):
    """A bound of the elimination reached the digit range of its width."""

    def __init__(self, width):
        super().__init__(width)
        self.width = width


def _norms(xs):
    """(largest absolute value, sum of absolute values) of some integers."""
    xs = [abs(x) for x in xs]
    return max(xs, default=0), sum(xs)


def _evaluate(lp, w):
    """The value at q = 2^w of a polynomial lp in Z[q]."""
    return sum(c << (w * e) for e, c in lp.coeffs.items())


def ldl(lam):
    """Solve lam = H^t D H for unit lower triangular H and diagonal D.

    The elimination runs over one common denominator instead of in Q(q).
    C is the lcm of the denominators of lam, so A = C * lam is a Laurent
    matrix, and row i computes the numerators S[i][j] = C * D[i] * H[i][j]
    (so S[i][i] = C * D[i]) for j <= i:

        S[i][j] = A[i][j] - sum over e > i of H[e][i] * S[e][j].

    With ascending index order the corner entry is already a pivot, so rows
    are processed from the bottom up.  Every S stays Laurent by induction:
    A is Laurent, and each row of H is certified Laurent by one exact
    division H[i][j] = S[i][j] / S[i][i] before a higher row uses it.  No
    fraction is reduced during the elimination; D[i] = S[i][i] / C is
    normalised once per row.

    The numerators are Kronecker-packed (Harvey, J. Symbolic Comput. 44,
    2009): `_eliminate` keeps each as its value at q = 2^w over a power of
    q, with one width w for the block, so an update H[e][i] * S[e][j] is
    one integer product and H[i][j] one `divmod` by the packed pivot.  The
    width is certified, not guessed.  Before row i is eliminated, every
    entry of it is bounded by

        |S[i][j]| <= max over j of |A[i][j]|
                     + sum over e > i of |H[e][i]|_1 * SB[e],

    where SB[e] >= |S[e][j]| for every j is the largest of
    min(|pivot_e|_1 * |H[e][j]|, |pivot_e| * |H[e][j]|_1), |.| being the
    largest coefficient and |.|_1 their sum.  That bound must lie below
    2^(w-1), so that the pivot and every S entry of the row are read back
    exactly from their balanced base-2^w digits.  A row whose bound does
    not fit restarts the block at a width that holds it.  The bounds come
    from A, H and the pivots, none of which depends on w, so the restarts
    end.  A quotient is accepted only under the rule of `packed_quotient`,
    and an entry that the rule leaves uncertified takes the exact long
    division `_poly_div_exact`.  H and the pivots are unpacked once each,
    for the output.
    """
    kinds = {}                      # distinct denominator -> its number
    kind = [[kinds.setdefault(x.den, len(kinds)) for x in row[:i + 1]]
            for i, row in enumerate(lam)]
    C, cofactor = _common_denominator(kinds)
    cofactors = [cofactor[den] for den in kinds]
    C = Factored(C)                 # packed once per gcd width for every D[i]
    norms = [_norms(c.coeffs.values()) for c in cofactors]
    a_bound = []                    # the largest bound of |A[i][j]| over j <= i
    for row, kind_row in zip(lam, kind):
        bound = 0
        for x, k in zip(row, kind_row):
            num_max, num_sum = _norms(x.num.coeffs.values())
            cof_max, cof_sum = norms[k]
            bound = max(bound, min(num_max * cof_sum, num_sum * cof_max))
        a_bound.append(bound)
    w = max(a_bound, default=0).bit_length() + 1 + _WIDTH_SLACK
    while True:
        try:
            return _eliminate(lam, kind, C, cofactors, a_bound, w)
        except _TooNarrow as exc:
            w = exc.width


def _eliminate(lam, kind, C, cofactors, a_bound, w):
    """`ldl` on values at q = 2^w; raises _TooNarrow with a wider width when
    a row's bound reaches 2^(w-1).

    S[e] holds the values of S[e][j], j <= e, over q^t[e], t[e] the lowest
    exponent in row e, and SB[e] bounds their coefficients.  A nonzero H
    entry is kept as (lowest exponent, value over that power of q, sum of
    absolute coefficients).
    """
    n = len(lam)
    half = 1 << (w - 1)
    packed = [_evaluate(c, w) for c in cofactors]
    H = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    D = [None] * n
    HP = [None] * n
    S, t, SB = [None] * n, [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        column = [(e, HP[e][i]) for e in range(i + 1, n) if HP[e][i]]
        bound = a_bound[i] + sum(h[2] * SB[e] for e, h in column)
        if bound >= half:
            raise _TooNarrow(bound.bit_length() + 1 + _WIDTH_SLACK)
        # every value of row i is taken over q^base, which divides each term
        base = min([0] + [h[0] + t[e] for e, h in column])
        shift = -w * base
        acc = [_evaluate(x.num, w) * packed[k] << shift
               for x, k in zip(lam[i], kind[i])]
        for e, (low, value, _) in column:
            hv = value << w * (low + t[e] - base)
            acc = [a - hv * s for a, s in zip(acc, S[e])]
        pivot = acc[i]
        if not pivot:
            if i:
                raise SingularPivot(f"zero pivot at block position {i}")
            D[i] = RationalFn(0)
            break
        zeros = ((pivot & -pivot).bit_length() - 1) // w    # digits below it
        pv, pl = pivot >> w * zeros, base + zeros
        P = _unpack(pv, w)
        p_max, p_sum = _norms(P)
        D[i] = RationalFn(_laurent(P, pl, 1), C)
        row, lows, sb = [None] * i, [0], p_max
        for j in range(i):
            value = acc[j]
            if not value:
                continue
            try:
                found = packed_quotient(value, bound, pv, p_max, len(P), w)
                if found is None:
                    digits = _dense(_poly_div_exact(_laurent(_unpack(value, w), 0, 1),
                                                    _laurent(P, 0, 1)))
                    found = value // pv, digits
            except ArithmeticError:
                raise NotIntegral(
                    f"H[{i}][{j}] = ({_laurent(_unpack(value, w), base, 1)}) / "
                    f"({_laurent(P, pl, 1)}) is not a Laurent polynomial") from None
            q, digits = found
            z = next(k for k, c in enumerate(digits) if c)
            h_max, h_sum = _norms(digits)
            H[i][j] = _laurent(digits, base - pl, 1)
            row[j] = (base - pl + z, q >> w * z, h_sum)
            lows.append(base - pl + z)
            sb = max(sb, min(p_sum * h_max, p_max * h_sum))
        t[i] = pl + min(lows)
        shift = w * (t[i] - base)
        S[i] = [a >> shift for a in acc] if shift else acc
        SB[i], HP[i] = sb, row
    return H, D


def _add_products(acc, pairs, sign=1):
    """Add sign * x * y into the coefficient dict acc for every Laurent pair
    (x, y), skipping zero operands; returns acc."""
    for x, y in pairs:
        if not x or not y:
            continue
        ys = y.coeffs.items()
        for e1, c1 in x.coeffs.items():
            c1 *= sign
            for e2, c2 in ys:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def pq_split(H):
    """Split unit lower triangular H as H = PQ with P strictly positive in q
    off the diagonal and Q bar-invariant.

    Entries are solved in increasing band distance i - j; within a band
    every entry depends only on strictly smaller bands.  Each entry's
    H[i][j] - sum of P[i][k] * Q[k][j] is accumulated in one coefficient
    dict acc, and P and Q are read off it: P has the coefficient
    acc[e] - acc[-e] at each e > 0, and Q is acc[0] plus acc[e] * (q^e + q^-e)
    for each e < 0.
    """
    n = len(H)
    P = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    Q = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for dist in range(1, n):
        for i in range(dist, n):
            j = i - dist
            acc = _add_products(dict(H[i][j].coeffs),
                                ((P[i][k], Q[k][j]) for k in range(j + 1, i)), -1)
            p, q = {}, {0: acc.get(0, 0)}
            for e, c in acc.items():
                if e > 0:
                    p[e] = p.get(e, 0) + c
                elif e < 0:
                    p[-e] = p.get(-e, 0) - c
                    q[e] = q[-e] = c
            P[i][j], Q[i][j] = LaurentPoly(p), LaurentPoly(q)
    return P, Q


def reconstruct_lam(H, D):
    """H^t D H for unit lower triangular Laurent H and diagonal D over Q(q).

    The sum runs over one common denominator: C is the lcm of the
    denominators of D, so CD[e] = C * D[e] is Laurent and the numerator
    N[a][b] = sum over e >= max(a, b) of H[e][a] * H[e][b] * CD[e] is
    accumulated in one coefficient dict.  Each entry N[a][b] / C is
    normalised once.
    """
    n = len(H)
    C, cofactor = _common_denominator(d.den for d in D)
    CD = [d.num * cofactor[d.den] for d in D]
    C = Factored(C)                 # packed once per gcd width for every entry
    HCD = [[H[e][b] * CD[e] for b in range(e + 1)] for e in range(n)]
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = _add_products({}, ((H[e][a], HCD[e][b]) for e in range(b, n)))
            out[a][b] = out[b][a] = RationalFn(LaurentPoly(acc), C)
    return out


def matmul_laurent(A, B):
    """The product AB of two square Laurent matrices."""
    n = len(A)
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in A]
    return [[LaurentPoly(_add_products({}, ((x, B[k][j]) for k, x in rows[i])))
             for j in range(n)] for i in range(n)]


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
    """ldl -> pq_split on a Gram record: the transition block at gamma."""
    if not gram.index:
        return TransitionBlock(tuple(gamma), [], [], [], [], [], [])
    H, D = ldl(gram.lam)
    P, Q = pq_split(H)
    return TransitionBlock(tuple(gamma), gram.index, gram.lam, H, D, P, Q)


def pipeline(preset, gamma, basis=None, max_block=None):
    """gram_block -> ldl -> pq_split, with all artifacts attached."""
    return factor_gram(gram_block(preset, gamma, basis, max_block), gamma)


# -- serialization ----------------------------------------------------------


def formatter():
    """str for values that stay alive while it is used, computed once per
    object: lam[a][b] and lam[b][a] are one value, and the zeros and ones
    of H, P and Q are shared."""
    text = {}

    def fmt(v):
        s = text.get(id(v))
        if s is None:
            s = text[id(v)] = str(v)
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
