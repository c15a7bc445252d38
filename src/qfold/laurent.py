"""Exact arithmetic in Z[q, q^-1], and the values of its fraction field Q(q).

LaurentPoly is an integer Laurent polynomial in a single variable q, stored
sparsely as {exponent: coefficient}.  RationalFn is a reduced quotient of two
ordinary integer polynomials in q; it is the value type for Gram-matrix
entries and for the diagonal of the symmetric factorization, and has no
arithmetic of its own: the pipeline computes on Laurent numerators.

Both types are immutable, hashable, and in canonical normal form, so equality
of values is equality of representations.  Each RationalFn is built once,
from a Laurent numerator over a denominator, and then only compared, hashed
or printed.  Building it reduces one fraction by a polynomial gcd: the
heuristic gcd GCDHEU on Kronecker-packed integers (Char, Geddes and Gonnet,
J. Symbolic Comput. 7, 1989), which CPython's big-integer gcd and division
carry, with the primitive-PRS gcd as its fallback.  The denominator is a
Laurent polynomial or a `Factored` product of them, which many fractions can
share: it is split and packed once per width for all of them and expanded
at most once.  Exact division, `laurent_div_exact`, also divides packed
integers: `packed_quotient` accepts the digits of an integer quotient only
when a norm bound proves that they are the polynomial quotient, and the
long division `_poly_div_exact` serves whatever it leaves uncertified.
The memo of `qfact`, one entry per (n, d), is this module's only one; a
`Factored` keeps its packed values, and the cofactor of each gcd it has
met, for as long as its owner keeps it.
"""

from __future__ import annotations

import math
import re


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
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                base = "q" if e == 1 else f"q^{e}"
                body = base if abs(c) == 1 else f"{abs(c)}{base}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

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


def _dense(lp):
    d = lp.coeffs
    if not d:
        return []
    n = max(d)
    if min(d) < 0:
        raise ValueError("a polynomial in Z[q] has no negative exponents")
    return [d.get(i, 0) for i in range(n + 1)]


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


def _poly_gcd(a, b):
    """Primitive gcd in Z[q] with positive leading coefficient."""
    fa = _primitive(_strip(_dense(a)))
    fb = _primitive(_strip(_dense(b)))
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    if fa and fa[-1] < 0:
        fa = [-v for v in fa]
    return LaurentPoly({i: c for i, c in enumerate(fa)})


def _poly_div_exact(a, b):
    """Exact quotient a / b in Z[q]; raises if the division is inexact."""
    fa, fb = _strip(_dense(a)), _strip(_dense(b))
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
    return LaurentPoly({i: c for i, c in enumerate(quot) if c})


def _prs_gcd_cofactors(a, b):
    """(g, a / g, b / g) by the primitive-PRS gcd and two exact divisions:
    the fallback of `_gcd_cofactors` and its reference."""
    g = _poly_gcd(a, b)
    return g, _poly_div_exact(a, g), _poly_div_exact(b, g)


# GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): evaluate at
# x = 2^w, take the integer gcd, read it back as a polynomial.  Each try
# doubles w, and after the last one the PRS gcd takes over.
_HEURISTIC_TRIES = 4
# Bits the first width adds for the cofactors' coefficient growth: with 8,
# all but 12 of the 37 876 gcds that the check suites and `gram` and
# `transition` on the benchmark's blocks take are accepted at the first
# width, and those 12 at the second.
_WIDTH_SLACK = 8


def _pack(xs, w):
    """The value at q = 2^w of the dense polynomial xs (Kronecker packing)."""
    v = 0
    for c in reversed(xs):
        v = (v << w) + c
    return v


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


def _norm(xs):
    return max(map(abs, xs), default=0)


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
    Geddes and Gonnet).
    """
    q, r = divmod(pa, pb)
    if r:
        raise ArithmeticError("inexact polynomial division")
    half = 1 << (w - 1)
    if bound_a >= half:
        return None
    h = _unpack(q, w)
    if min(len(h), len_b) * _norm(h) * norm_b >= half:
        return None
    return q, h


def laurent_div_exact(a, b):
    """Exact quotient a / b in Z[q, q^-1]; raises ArithmeticError when the
    quotient is not a Laurent polynomial with integer coefficients.

    Dividing out the lowest power of q leaves polynomials with nonzero
    constant terms, whose quotient is Laurent exactly when it is an
    ordinary polynomial.  Their values at q = 2^w are divided as integers
    by `packed_quotient`, at a width that holds both and leaves
    `_WIDTH_SLACK` bits for the quotient's coefficients; when the quotient
    is not certified at that width, `_poly_div_exact` divides instead.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    lo_a, lo_b = a.min_exp(), b.min_exp()
    A, B = _dense(a.shift(-lo_a)), _dense(b.shift(-lo_b))
    norm_a, norm_b = _norm(A), _norm(B)
    w = (max(norm_a, norm_b).bit_length() + 1
         + min(len(A), len(B)).bit_length() + _WIDTH_SLACK)
    found = packed_quotient(_pack(A, w), norm_a, _pack(B, w), norm_b, len(B), w)
    if found is None:
        return _poly_div_exact(a.shift(-lo_a), b.shift(-lo_b)).shift(lo_a - lo_b)
    return _laurent(found[1], lo_a - lo_b, 1)


def _split(lp):
    """(lowest exponent, integer content, primitive part) of a nonzero
    Laurent polynomial; the primitive part is dense, ascending from a
    nonzero constant term."""
    d = lp.coeffs
    g = math.gcd(*d.values())
    lo = min(d)
    return lo, g, [d.get(e, 0) // g for e in range(lo, max(d) + 1)]


def _heuristic_gcd_cofactors(A, B):
    """(g, A / g, B / g) as dense lists for a primitive dense polynomial A
    and the primitive part of a `Factored` B, both of degree >= 1 with
    nonzero constant terms, g their gcd with positive leading coefficient;
    None when the heuristic gives up.

    The candidate g is the primitive part of the balanced digits of
    gcd(A(x), B(x)) at x = 2^w (a positive integer, so the leading digit
    is positive too), whose value g(x) is that gcd over the digits'
    content, and the cofactors are the digits of the exact integer
    quotients A(x) / g(x) and B(x) / g(x); B keeps its cofactor per
    (w, g(x)), since many numerators over one denominator share a gcd.
    With every coefficient of A, B and of the products g * cofactor below
    x / 2 in absolute value, the packed identities A(x) = g(x) * (A / g)(x)
    are polynomial identities (balanced digits are unique), and since
    x >= 2 * min(|A|, |B|) + 2, a candidate dividing both is the gcd.
    B enters only by its value at x and by B.bound >= |B|, so the width
    serves a product of factors that is never expanded.  The first width
    leaves room for the cofactors' coefficient growth.
    """
    w = (max(_norm(A), B.bound).bit_length() + 1
         + max(len(A), B.length).bit_length() + _WIDTH_SLACK)
    for _ in range(_HEURISTIC_TRIES):
        pa = _pack(A, w)
        pg = math.gcd(pa, B.pack(w))
        g = _unpack(pg, w)
        content = math.gcd(*g)
        if content > 1:
            g = [v // content for v in g]
            pg //= content
        qa, ra = divmod(pa, pg)
        cb = B.cofactor(w, pg)
        if not ra and cb is not None:
            ca = _unpack(qa, w)
            bound = (1 << (w - 1)) // _norm(g)
            if (min(len(g), len(ca)) * _norm(ca) < bound
                    and min(len(g), len(cb)) * _norm(cb) < bound):
                return g, ca, cb
        w *= 2
    return None


class Factored:
    """A nonzero Laurent polynomial kept as a product of factors, each
    split once by `_split`: q^low * content * the product of the
    primitive dense parts, which is primitive by Gauss's lemma.

    A denominator shared by many fractions, such as delta * g[a] * g[b]
    in a Gram block, is never expanded for the heuristic gcd: its value
    at 2^w is the product of the parts' values, kept per width, and
    bound = min over k of |f_k| * prod over j != k of |f_j|_1 bounds the
    coefficients of the product (|.| the largest coefficient, |.|_1
    their sum).  For one factor the bound is |f| itself.  The expanded
    primitive part is built only on demand, at most once.
    """

    __slots__ = ("low", "content", "parts", "length", "bound", "_packs", "_dense",
                 "_cofactors")

    def __init__(self, *factors):
        low, content, parts = 0, 1, []
        for f in factors:
            if isinstance(f, Factored):
                low, content = low + f.low, content * f.content
                parts.extend(f.parts)
                continue
            if f.is_zero():
                raise ZeroDivisionError("zero denominator in Q(q)")
            lo, c, P = _split(f)
            low += lo
            if len(P) == 1:                   # a monomial: its sign joins the content
                content *= c * P[0]
            else:
                content *= c
                parts.append(P)
        self.low, self.content, self.parts = low, content, parts
        self.length = sum(map(len, parts)) - len(parts) + 1
        if len(parts) == 1:
            self.bound = _norm(parts[0])
        else:
            ones = [sum(map(abs, P)) for P in parts]
            total = math.prod(ones)
            self.bound = min((total // one * _norm(P) for one, P in zip(ones, parts)),
                             default=1)
        self._packs = {}
        self._dense = None
        self._cofactors = {}

    def pack(self, w):
        """The primitive part's value at q = 2^w."""
        v = self._packs.get(w)
        if v is None:
            v = self._packs[w] = math.prod(_pack(P, w) for P in self.parts)
        return v

    def cofactor(self, w, pg):
        """The digits of the primitive part's value at q = 2^w over pg, or
        None when pg does not divide it; kept per (w, pg)."""
        key = (w, pg)
        if key not in self._cofactors:
            q, r = divmod(self.pack(w), pg)
            self._cofactors[key] = None if r else _unpack(q, w)
        return self._cofactors[key]

    def dense(self):
        """The primitive part as a dense list: read off its value at a width
        whose digits hold every coefficient, since each is at most bound."""
        if self._dense is None:
            if len(self.parts) <= 1:
                self._dense = self.parts[0] if self.parts else [1]
            else:
                w = self.bound.bit_length() + 1
                self._dense = _unpack(self.pack(w), w)
        return self._dense


def _laurent(xs, shift, scale):
    """q^shift * scale * xs as a LaurentPoly, xs dense and scale nonzero."""
    return LaurentPoly({i + shift: c * scale for i, c in enumerate(xs)})


def _dense_gcd_cofactors(A, B):
    """(g, A / g, B / g) for the split primitive part A of a numerator (see
    `_split`) and a `Factored` B: the heuristic gcd, else the PRS gcd on
    the expanded primitive part of B."""
    if len(A) == 1 or B.length == 1:
        return [1], A, B.dense()
    found = _heuristic_gcd_cofactors(A, B)
    if found is None:
        found = [_dense(p) for p in _prs_gcd_cofactors(
            _laurent(A, 0, 1), _laurent(B.dense(), 0, 1))]
    return found


def _gcd_cofactors(a, b):
    """(g, a / g, b / g) for polynomials a, b in Z[q], g their primitive gcd
    with positive leading coefficient (the value of `_poly_gcd`).

    Powers of q and the integer contents are split off first; the rest is
    reduced by the heuristic gcd on packed integers, or by the PRS gcd when
    the heuristic gives up.
    """
    if not a or not b:
        return _prs_gcd_cofactors(a, b)
    (la, ca, A), B = _split(a), Factored(b)
    if la < 0 or B.low < 0:
        raise ValueError("a polynomial in Z[q] has no negative exponents")
    low = min(la, B.low)
    g, ga, gb = _dense_gcd_cofactors(A, B)
    return (_laurent(g, low, 1), _laurent(ga, la - low, ca),
            _laurent(gb, B.low - low, B.content))


def poly_lcm(a, b):
    """A common multiple a * b / gcd(a, b) of two polynomials in Z[q]."""
    return a * _gcd_cofactors(a, b)[2]


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
        n, d = _normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

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
        if self.den == ONE:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        if len(self.den.coeffs) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalFn({self})"


def _normalize(num, den):
    """The normal form of num / den for a Laurent polynomial num and a
    `Factored` den.

    q is a unit, so splitting off each side's lowest power of q and its
    integer content leaves primitive parts N and D whose cofactors by their
    gcd are coprime and primitive.  Only the difference of the powers and
    the two contents over their gcd go back, with the sign making the
    denominator's leading coefficient positive.
    """
    if num.is_zero():
        return ZERO, ONE
    (ln, cn, N), ld, cd = _split(num), den.low, den.content
    _, N, D = _dense_gcd_cofactors(N, den)
    c = math.gcd(cn, cd)
    cn, cd = cn // c, cd // c
    if (D[-1] < 0) != (cd < 0):
        cn, cd = -cn, -cd
    return _laurent(N, max(ln - ld, 0), cn), _laurent(D, max(ld - ln, 0), cd)


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
