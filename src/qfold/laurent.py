"""Exact arithmetic in Z[q, q^-1], and the values of its fraction field Q(q).

LaurentPoly is an integer Laurent polynomial in a single variable q, stored
sparsely as {exponent: coefficient}.  RationalFn is a reduced quotient of two
ordinary integer polynomials in q; it is the value type for Gram-matrix
entries and for the diagonal of the symmetric factorization, and has no
arithmetic of its own: the pipeline computes on Laurent numerators.

Both types are immutable, hashable, and in canonical normal form, so equality
of values is equality of representations.  Each RationalFn is built once,
from a Laurent numerator over a denominator, or from the numerator's split
(`RationalFn.reduced`, which `gram` reads off a packed matching sum), and
then only compared, hashed or printed.  Building it reduces one fraction
by a polynomial gcd: the heuristic gcd GCDHEU on Kronecker-packed integers
(Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989), which CPython's
big-integer gcd and division carry, with the primitive-PRS gcd as its
fallback.  Both run in x = q^s, s the gcd of the steps of the exponents,
since gcd(N(q^s), D(q^s)) = gcd(N, D)(q^s): a Gram entry, q^k times a
polynomial in q^2, packs to half the digits.  The denominator is a
Laurent polynomial or a `Factored` product of them, which many fractions
can share: it is split and packed once per width for all of them and
expanded at most once.  The gcd's
cofactors are exact quotients: `transition` reads its common denominators
off them, and a `SharedDenominators` keeps, beside each reduced
denominator that many fractions share, the gcd that divided it out.  The
packed format, which `transition.ldl` uses too, lives here
alone: one packer, one width rule, and one certified division,
`packed_div_exact`, which takes the digits of an integer quotient when
`packed_quotient` proves them the polynomial quotient, else divides long.
The memo of `qfact`, one entry per (n, d), is this module's only one; a
`Factored` keeps its packed values, and the cofactor of each gcd it has
met, and a `SharedDenominators` its denominators, for as long as its owner
keeps it.
"""

from __future__ import annotations

import math
import re
from functools import reduce


class LaurentPoly:
    """Integer Laurent polynomial in q.

    Built from an int or from a dict of int exponents to int coefficients;
    ``coeffs`` keeps the nonzero ones, so absent means 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, int):
            coeffs = {0: coeffs}
        object.__setattr__(self, "coeffs", {e: c for e, c in coeffs.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):                   # copy and pickle rebuild by __init__
        return LaurentPoly, (self.coeffs,)

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def in_qZq(self):
        """True when every exponent is >= 1 (member of q*Z[q])."""
        return all(e >= 1 for e in self.coeffs)

    def is_bar_invariant(self):
        return all(self.coeffs.get(-e) == c for e, c in self.coeffs.items())

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly powers must be nonnegative integers")
        result = LaurentPoly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- display ----------------------------------------------------------

    def __str__(self):
        """Terms by descending exponent, "+ " or "- " before each after the
        first: "q^2 - 2q + 3 + q^-1"."""
        d = self.coeffs
        if not d:
            return "0"
        out = []
        for e in sorted(d, reverse=True):
            c = d[e]
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            if e == 0:
                out.append(str(c))
            elif e == 1:
                out.append("q" if c == 1 else f"{c}q")
            else:
                out.append(f"q^{e}" if c == 1 else f"{c}q^{e}")
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly(x)
    return NotImplemented


ZERO = LaurentPoly(0)
ONE = LaurentPoly(1)
Q = LaurentPoly({1: 1})


def q_power(e):
    return LaurentPoly({e: 1})


def qint(n, d=1):
    """Quantum integer [n] evaluated in q^d: (q^(nd) - q^(-nd)) / (q^d - q^(-d))."""
    if d <= 0:
        raise ValueError("d must be a positive integer")
    if n == 0:
        return ZERO
    if n < 0:
        return -qint(-n, d)
    return LaurentPoly({d * (n - 1 - 2 * k): 1 for k in range(n)})


_QFACT_CACHE = {}


def qfact(n, d=1):
    """Quantum factorial [n]! = [1][2]...[n] in q^d; qfact(0, d) = 1."""
    if n < 0:
        raise ValueError("quantum factorial needs a nonnegative integer")
    key = (n, d)
    if key not in _QFACT_CACHE:
        out = ONE
        for k in range(1, n + 1):
            out = out * qint(k, d)
        _QFACT_CACHE[key] = out
    return _QFACT_CACHE[key]


# -- ordinary-polynomial helpers (dense integer lists, ascending) ----------


def _strip(xs):
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def _primitive(xs):
    g = math.gcd(*xs)
    if g > 1:
        return [v // g for v in xs]
    return xs


def _pseudo_rem(a, b):
    """Remainder of lc(b)^k * a by b, computed over the integers."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        la = a[-1]
        if lb != 1:
            a = [c * lb for c in a]
        k = len(a) - 1 - db
        for i in range(db + 1):
            a[k + i] -= la * b[i]
        _strip(a)
    return a


def _poly_gcd(fa, fb):
    """Primitive gcd of dense polynomials in Z[q], leading coefficient > 0."""
    fa, fb = _primitive(_strip(fa[:])), _primitive(_strip(fb[:]))
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    if fa and fa[-1] < 0:
        fa = [-v for v in fa]
    return fa


def _poly_div_exact(fa, fb):
    """Exact quotient of dense polynomials fa / fb in Z[q]; raises if inexact."""
    fa, fb = _strip(fa[:]), _strip(fb[:])
    if not fb:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(fa) - len(fb) + 1, 0)
    db, lb = len(fb) - 1, fb[-1]
    while len(fa) - 1 >= db and fa:
        la = fa[-1]
        if la % lb:
            raise ArithmeticError("inexact polynomial division")
        f = la // lb
        k = len(fa) - 1 - db
        quot[k] = f
        for i in range(db + 1):
            fa[k + i] -= f * fb[i]
        _strip(fa)
    if fa:
        raise ArithmeticError("inexact polynomial division")
    return quot


def _prs_gcd_cofactors(fa, fb):
    """(g, fa / g, fb / g) as dense lists by the primitive-PRS gcd and two
    exact divisions: the fallback of the heuristic gcd and its reference."""
    g = _poly_gcd(fa, fb)
    return g, _poly_div_exact(fa, g), _poly_div_exact(fb, g)


# -- Kronecker packing (Harvey, J. Symbolic Comput. 44, 2009): a polynomial
# in Z[x], x = q or a power q^s, is carried as its value at x = 2^w, whose
# balanced base-2^w digits are its coefficients while they lie in
# [-2^(w-1), 2^(w-1)).

# Bits a first width leaves above its bound for coefficient growth.  With
# 8, all but 12 of the 37 876 gcds that the check suites and `gram` and
# `transition` on the benchmark's blocks take are accepted at the first
# width, and those 12 at the second; no block of the benchmark's 15
# transition pool blocks restarts `ldl` (its bounds of S exceed A's by at
# most 5 bits).  A restart adds this plus one bit, so it must not be < 0.
_WIDTH_SLACK = 8


def _pack(terms, w):
    """The value at q = 2^w of the polynomial with these (exponent >= 0,
    coefficient) terms: a dense list's `enumerate` or a dict's items."""
    return sum(c << (w * e) for e, c in terms)


def _unpack(v, w):
    """The dense polynomial whose balanced base-2^w digits, each in
    [-2^(w-1), 2^(w-1)), make up the integer v; the inverse of `_pack` on
    polynomials with coefficients in that range."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    xs = []
    while v:
        c = ((v + half) & mask) - half
        xs.append(c)
        v = (v - c) >> w
    return xs


def _lowest_digit(v, w):
    """The index of the lowest nonzero base-2^w digit, balanced or unsigned,
    of a nonzero integer v: such a digit is nonzero mod 2^w."""
    return ((v & -v).bit_length() - 1) // w


def _norms(xs):
    """(|xs|, |xs|_1): the largest absolute value of some integers and the
    sum of their absolute values."""
    xs = list(map(abs, xs))
    return max(xs, default=0), sum(xs)


def _product_norms(f, g):
    """Bounds (min(|f| * |g|_1, |f|_1 * |g|), |f|_1 * |g|_1) on the `_norms`
    of f * g, given those of f and g.  Folded over factors f_k from (1, 1),
    the first is min over k of |f_k| * prod over j != k of |f_j|_1."""
    (mf, sf), (mg, sg) = f, g
    return min(mf * sg, sf * mg), sf * sg


def _width(bound, length=0):
    """The first width whose digit range holds bound * length (bound alone
    when length is 0) with `_WIDTH_SLACK` bits to spare."""
    return bound.bit_length() + length.bit_length() + 1 + _WIDTH_SLACK


def packed_quotient(pa, bound_a, pb, norm_b, len_b, w):
    """(a / b at q = 2^w, the digits of a / b) for polynomials a and b in
    Z[q] given by their values pa and pb at q = 2^w, b with a nonzero
    constant term, norm_b = |b| and len_b its length, and bound_a >= |a|
    (|.| the largest coefficient); None when the width does not certify
    the quotient.  Raises ArithmeticError when b does not divide a.

    If b divides a, the quotient h is a polynomial, since b(0) != 0, and
    pa = h(2^w) * pb exactly, so a nonzero integer remainder proves the
    division inexact at any width.  A zero remainder proves nothing by
    itself: the balanced digits h of the integer quotient are accepted
    only when |a| and min(len(h), len_b) * |h| * |b| >= |h * b| are both
    below 2^(w-1), for then h * b and a have the same value and digits in
    that range, so they are the same polynomial (the GCDHEU rule of Char,
    Geddes and Gonnet).  A b whose value is 0 certifies nothing.
    """
    if not pb:
        return None
    q, r = divmod(pa, pb)
    if r:
        raise ArithmeticError("inexact polynomial division")
    half = 1 << (w - 1)
    if bound_a >= half:
        return None
    h = _unpack(q, w)
    if min(len(h), len_b) * _norms(h)[0] * norm_b >= half:
        return None
    return q, h


def packed_div_exact(pa, bound_a, pb, B, norm_b, w):
    """(a / b at q = 2^w, the digits of a / b) for a given by its value pa
    and bound_a >= |a| below 2^(w-1), and b by its value pb, its digits B
    and norm_b = |b|, with a nonzero constant term: `packed_quotient`'s
    quotient, else the long division of a's digits by B.  Raises
    ArithmeticError when b does not divide a."""
    found = packed_quotient(pa, bound_a, pb, norm_b, len(B), w)
    if found is None:
        found = pa // pb, _poly_div_exact(_unpack(pa, w), B)
    return found


def _split(lp):
    """(lowest exponent, integer content, step, primitive part) of a nonzero
    Laurent polynomial.  The step s is the gcd of its exponent differences,
    0 for a monomial, and the primitive part is dense in x = q^s, ascending
    from a nonzero constant term."""
    d = lp.coeffs
    g = math.gcd(*d.values())
    lo = min(d)
    s = math.gcd(*[e - lo for e in d])
    return lo, g, s, [d.get(e, 0) // g for e in range(lo, max(d) + 1, s or 1)]


def _restep(xs, r):
    """xs(x^r) for a dense xs in x; r is 0 only for a constant xs."""
    if r <= 1:
        return xs
    out = [0] * (r * (len(xs) - 1) + 1)
    out[::r] = xs
    return out


# GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): evaluate at
# x = 2^w, take the integer gcd, read it back as a polynomial.  Each try
# doubles w, and after the last one the PRS gcd takes over.
_HEURISTIC_TRIES = 4


def _heuristic_gcd_cofactors(A, B, r):
    """(g, A / g, B / g) as dense lists in x for a primitive dense A in x
    and the primitive part of a `Factored` B in x^r, both of degree >= 1
    with nonzero constant terms, g their gcd with positive leading
    coefficient; None when the heuristic gives up.  With x = q^s for the
    gcd s of the two steps, gcd(N(q^s), D(q^s)) = gcd(N, D)(q^s), so the
    lists read back with stride s are the gcd and cofactors in q.

    The candidate g is the primitive part of the balanced digits of
    gcd(A(x), B(x)) at x = 2^w (a positive integer, so the leading digit
    is positive too), whose value g(x) is that gcd over the digits'
    content, and the cofactors are the digits of the exact integer
    quotients A(x) / g(x) and B(x) / g(x); B keeps its cofactor per
    (w, r, g(x)), since many numerators over one denominator share a gcd.
    With every coefficient of A, B and of the products g * cofactor below
    x / 2 in absolute value, the packed identities A(x) = g(x) * (A / g)(x)
    are polynomial identities (balanced digits are unique), and since
    x >= 2 * min(|A|, |B|) + 2, a candidate dividing both is the gcd.
    B enters only by its value at x, `pack(w * r)`, and by B.bound >= |B|,
    so the width serves a product of factors that is never expanded.  The
    first width is the `_width` of the larger norm and the longer length.
    """
    w = _width(max(_norms(A)[0], B.bound), max(len(A), r * (B.length - 1) + 1))
    for _ in range(_HEURISTIC_TRIES):
        pa = _pack(enumerate(A), w)
        pg = math.gcd(pa, B.pack(w * r))
        g = _unpack(pg, w)
        content = math.gcd(*g)
        if content > 1:
            g = [v // content for v in g]
            pg //= content
        qa, ra = divmod(pa, pg)
        found = B.cofactor(w, r, pg)
        if not ra and found is not None:
            (cb, norm_cb), ca = found, _unpack(qa, w)
            bound = (1 << (w - 1)) // _norms(g)[0]
            if (min(len(g), len(ca)) * _norms(ca)[0] < bound
                    and min(len(g), len(cb)) * norm_cb < bound):
                return g, ca, cb
        w *= 2
    return None


class Factored:
    """A nonzero Laurent polynomial kept as a product of factors, each
    split once by `_split`: q^low * content * the product of the
    primitive dense parts, which is primitive by Gauss's lemma.  Each part
    keeps its step; the product is a polynomial in x = q^step, step the gcd
    of the parts' steps (0 with none), with length coefficients in x.

    A denominator shared by many fractions, such as delta * g[a] * g[b]
    in a Gram block, is never expanded for the heuristic gcd: its value
    at x = 2^w is the product of the parts' values, a part in x^r packed
    at 2^(w * r), kept per width, and the parts' `_product_norms` bound the
    coefficients of the product.  The expanded primitive part is built
    only on demand, at most once.
    """

    __slots__ = ("low", "content", "parts", "step", "length", "bound", "_packs",
                 "_dense", "_cofactors")

    def __init__(self, *factors):
        low, content, parts = 0, 1, []
        for f in factors:
            if isinstance(f, Factored):
                low, content = low + f.low, content * f.content
                parts.extend(f.parts)
                continue
            if f.is_zero():
                raise ZeroDivisionError("zero denominator in Q(q)")
            lo, c, s, P = _split(f)
            low += lo
            if len(P) == 1:                   # a monomial: its sign joins the content
                content *= c * P[0]
            else:
                content *= c
                parts.append((s, P))
        self.low, self.content, self.parts = low, content, parts
        self.step = math.gcd(*(s for s, _ in parts))
        self.length = sum((len(P) - 1) * s for s, P in parts) // (self.step or 1) + 1
        self.bound = reduce(_product_norms, (_norms(P) for _, P in parts), (1, 1))[0]
        self._packs, self._cofactors = {}, {}
        self._dense = parts[0][1] if len(parts) == 1 else None

    def pack(self, w):
        """The primitive part's value at x = q^step = 2^w."""
        v = self._packs.get(w)
        if v is None:
            v = self._packs[w] = math.prod(_pack(enumerate(P), w * s // self.step)
                                           for s, P in self.parts)
        return v

    def cofactor(self, w, r, pg):
        """(digits at 2^w, largest absolute digit) of `pack(w * r)` over pg,
        or None when pg does not divide it; kept per (w, r, pg)."""
        key = (w, r, pg)
        if key not in self._cofactors:
            q, rem = divmod(self.pack(w * r), pg)
            cb = _unpack(q, w)
            self._cofactors[key] = None if rem else (cb, _norms(cb)[0])
        return self._cofactors[key]

    def dense(self):
        """The primitive part as a dense list in q^step: read off its value
        at a width whose digits hold every coefficient, since each is at
        most bound."""
        if self._dense is None:
            w = self.bound.bit_length() + 1
            self._dense = _unpack(self.pack(w), w)
        return self._dense


def _laurent(xs, shift, scale, step=1):
    """q^shift * scale * xs(q^step) as a LaurentPoly, scale nonzero."""
    return LaurentPoly({i * step + shift: c * scale for i, c in enumerate(xs)})


def _dense_gcd_cofactors(A, a_step, B):
    """(s, g, A / g, B / g), the last three dense in x = q^s, for the split
    primitive part A in q^a_step of a numerator (see `_split`) and a
    `Factored` B, s the gcd of their steps: the heuristic gcd, else the
    PRS gcd on the expanded primitive part of B."""
    s = math.gcd(a_step, B.step) or 1
    A, r = _restep(A, a_step // s), B.step // s
    if len(A) == 1 or B.length == 1:
        return s, [1], A, _restep(B.dense(), r)
    return s, *(_heuristic_gcd_cofactors(A, B, r)
                or _prs_gcd_cofactors(A, _restep(B.dense(), r)))


def _gcd_cofactors(a, b):
    """(g, a / g, b / g) for nonzero a, b in Z[q], g their primitive gcd
    with positive leading coefficient (the value of `_poly_gcd`).

    Powers of q and the integer contents are split off first; the rest is
    reduced in q^s, s the gcd of the two steps, by the heuristic gcd on
    packed integers, or by the PRS gcd when the heuristic gives up.
    """
    (la, ca, sa, A), B = _split(a), Factored(b)
    if la < 0 or B.low < 0:
        raise ValueError("a polynomial in Z[q] has no negative exponents")
    low = min(la, B.low)
    s, g, ga, gb = _dense_gcd_cofactors(A, sa, B)
    return (_laurent(g, low, 1, s), _laurent(ga, la - low, ca, s),
            _laurent(gb, B.low - low, B.content, s))


class RationalFn:
    """Element of Q(q) as a reduced fraction of integer polynomials in q.

    A value type: built once from a numerator and a denominator, then
    compared, hashed and printed.  It has no field operations; equality
    holds only between two RationalFn values.

    Normal form: num and den are ordinary polynomials (no negative
    exponents) with gcd(num, den) = 1 over Q, gcd of the two integer
    contents equal to 1, and den with positive leading coefficient.
    Powers of q migrate freely into num or den during reduction, since q
    is a unit of the Laurent ring.  Each construction costs one gcd of
    the primitive parts, by `_dense_gcd_cofactors`, whose cofactors are
    the reduced num and den.  The denominator may be given as a
    `Factored` product, which many fractions can share; a plain one is
    the product of one factor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_laurent(num)
        if not isinstance(den, Factored):
            den = _as_laurent(den)
            if den is not NotImplemented:
                den = Factored(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFn takes integers or Laurent polynomials")
        self._store(*((ZERO, ONE) if num.is_zero() else _normalize(_split(num), den)))

    @classmethod
    def reduced(cls, split, den, shared=None):
        """num / den for a nonzero num given by its `_split` and a
        `Factored` den: the value `RationalFn(num, den)` builds, for a
        caller that reads the split off a packed numerator.  shared is a
        `SharedDenominators` that the caller keeps for many fractions."""
        self = cls.__new__(cls)
        self._store(*_normalize(split, den, shared))
        return self

    def _store(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def __reduce__(self):                   # copy and pickle rebuild by __init__
        return RationalFn, (self.num, self.den)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.text(str)

    def text(self, den_text):
        """The text of the fraction, den_text giving that of its
        denominator, which many fractions can share: "num / den", each in
        parentheses unless a single term, or num alone over 1."""
        num = str(self.num)
        if self.den == ONE:
            return num
        den = den_text(self.den)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        if len(self.den.coeffs) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalFn({self})"


def _normalize(split, den, shared=None):
    """The normal form (num, den) of a fraction with a nonzero numerator
    given by its `_split` and a `Factored` denominator.

    q is a unit, so splitting off each side's lowest power of q and its
    integer content leaves primitive parts N and D whose cofactors by their
    gcd G, taken in q^s for the gcd s of their steps, are coprime and
    primitive.  Only the difference of the powers and the two contents over
    their gcd c go back, with the sign making the denominator's leading
    coefficient positive.  So the given denominator over the reduced one
    is q^min(low of den, low of num) * (+-c) * G(q^s); with shared, that
    quotient is kept beside the reduced denominator (`SharedDenominators`).
    """
    (ln, cn, sn, N), ld, cd = split, den.low, den.content
    s, G, N, D = _dense_gcd_cofactors(N, sn, den)
    c = math.gcd(cn, cd)
    cn, cd = cn // c, cd // c
    if (D[-1] < 0) != (cd < 0):
        cn, cd, c = -cn, -cd, -c
    num = _laurent(N, max(ln - ld, 0), cn, s)
    if shared is None:
        return num, _laurent(D, max(ld - ln, 0), cd, s)
    return num, shared.get(den, s, D, max(ld - ln, 0), cd, (G, min(ld, ln), c))


class SharedDenominators:
    """The reduced denominators of fractions over a few `Factored`
    denominators, kept by a caller for all of them (`transition.gram_block`
    for a Gram block): one LaurentPoly per distinct value, which every
    fraction with that denominator shares, so that it is built, printed and
    numbered once.

    quotients maps each to (itself, the `Factored` it was first reduced
    from, that Factored over it), the quotient being q^k * c * G(q^s) from
    the gcd that the reduction took (`_normalize`): a common multiple of
    the `Factored`s is one of every denominator here, and its cofactors
    follow from these quotients with no gcd.
    """

    __slots__ = ("_reductions", "quotients")

    def __init__(self):
        self._reductions = {}       # (Factored, s, D, power of q, content) -> den
        self.quotients = {}

    def get(self, source, s, D, shift, content, quotient):
        """The reduced denominator q^shift * content * D(q^s) of a fraction
        over source, (G, k, c) giving the quotient q^k * c * G(q^s)."""
        key = (source, s, tuple(D), shift, content)
        den = self._reductions.get(key)
        if den is None:
            den = _laurent(D, shift, content, s)
            G, k, c = quotient
            den = self._reductions[key] = self.quotients.setdefault(
                den, (den, source, _laurent(G, k, c, s)))[0]
        return den


RF_ZERO = RationalFn(0)


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|q|\^|\+|-|\*|/|\(|\))")


def _tokenize(s):
    out, i = [], 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(s, i)
        if not m:
            raise ValueError(f"bad character in polynomial string: {s[i:]!r}")
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    """Recursive-descent parser for the textual form.

    Accepts sums of juxtaposed factors with integer ^-powers (possibly
    negative on q), e.g. ``q^2 + 2 + q^-2`` or ``4(1+q^2)^2``, and a single
    top-level ``/`` for rational values.
    """

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse_sum(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
        total = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
            total = total + self.parse_term() * sign
        return total

    def parse_term(self):
        value = self.parse_factor()
        while True:
            t = self.peek()
            if t == "*":
                self.next()
                value = value * self.parse_factor()
            elif t is not None and (t.isdigit() or t in ("q", "(")):
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() in ("+", "-"):
                sign = -1 if self.next() == "-" else 1
            t = self.next()
            if t is None or not t.isdigit():
                raise ValueError("expected integer exponent after ^")
            e = sign * int(t)
            if base == Q:
                return q_power(e)
            if e < 0:
                raise ValueError("negative power of a non-monomial")
            return base ** e
        return base

    def parse_atom(self):
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of polynomial string")
        if t.isdigit():
            return LaurentPoly(int(t))
        if t == "q":
            return Q
        if t == "(":
            inner = self.parse_sum()
            if self.next() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        raise ValueError(f"unexpected token {t!r}")


def parse_laurent(s):
    """Parse the textual form of a Laurent polynomial."""
    p = _Parser(_tokenize(s))
    value = p.parse_sum()
    if p.peek() is not None:
        raise ValueError(f"trailing input in {s!r}")
    return value


def parse_rational(s):
    """Parse ``num / den`` (den optional); factored denominators allowed."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return RationalFn(parse_laurent(s[:i]), parse_laurent(s[i + 1:]))
    return RationalFn(parse_laurent(s))
