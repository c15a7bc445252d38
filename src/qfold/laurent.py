"""Exact arithmetic in Z[q, q^-1] and its fraction field Q(q).

LaurentPoly is an integer Laurent polynomial in a single variable q, stored
sparsely as {exponent: coefficient}.  RationalFn is a reduced quotient of two
ordinary integer polynomials in q; it is the value type for Gram-matrix
entries and for the diagonal of the symmetric factorization.

Both types are immutable, hashable, and in canonical normal form, so equality
of values is equality of representations.  Outside this module each
RationalFn is built once, from a Laurent numerator and denominator, and then
only compared or printed, since every Q(q) operation costs a polynomial
gcd.  The memo of `qfact`, one entry per (n, d), is this module's only one.
"""

from __future__ import annotations

import math
import re


class LaurentPoly:
    """Integer Laurent polynomial in q.

    ``coeffs`` maps exponent -> nonzero integer coefficient; absent means 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, LaurentPoly):
            object.__setattr__(self, "coeffs", coeffs.coeffs)
            return
        if isinstance(coeffs, int):
            coeffs = {0: coeffs} if coeffs else {}
        cleaned = {int(e): int(c) for e, c in dict(coeffs).items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

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

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_laurent(other) - self

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

    __rmul__ = __mul__

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


def bar(a):
    """The bar involution q -> q^-1; a ring involution fixing integers."""
    return LaurentPoly({-e: c for e, c in a.coeffs.items()})


def split_bar_parts(a):
    """Split a = plus + zero + minus by exponent sign.

    plus carries the strictly positive exponents, minus the strictly
    negative ones, zero is the integer constant term.
    """
    plus = {e: c for e, c in a.coeffs.items() if e > 0}
    minus = {e: c for e, c in a.coeffs.items() if e < 0}
    return LaurentPoly(plus), a.coeffs.get(0, 0), LaurentPoly(minus)


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
    assert min(d) >= 0
    return [d.get(i, 0) for i in range(n + 1)]


def _strip(xs):
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def _primitive(xs):
    g = 0
    for v in xs:
        g = math.gcd(g, v)
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


def laurent_div_exact(a, b):
    """Exact quotient a / b in Z[q, q^-1]; raises ArithmeticError when the
    quotient is not a Laurent polynomial with integer coefficients.

    Dividing out the lowest power of q leaves polynomials with nonzero
    constant terms, whose quotient is Laurent exactly when it is an
    ordinary polynomial.
    """
    lo_a, lo_b = a.min_exp(), b.min_exp()
    return _poly_div_exact(a.shift(-lo_a), b.shift(-lo_b)).shift(lo_a - lo_b)


def poly_lcm(a, b):
    """A common multiple a * b / gcd(a, b) of two polynomials in Z[q]."""
    return a * _poly_div_exact(b, _poly_gcd(a, b))


def _content(lp):
    g = 0
    for c in lp.coeffs.values():
        g = math.gcd(g, c)
    return g


class RationalFn:
    """Element of Q(q) as a reduced fraction of integer polynomials in q.

    Normal form: num and den are ordinary polynomials (no negative
    exponents) with gcd(num, den) = 1 over Q, gcd of the two integer
    contents equal to 1, and den with positive leading coefficient.
    Powers of q migrate freely into num or den during reduction, since q
    is a unit of the Laurent ring.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_laurent(num), _as_laurent(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFn takes integers or Laurent polynomials")
        n, d = _normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def to_laurent(self):
        """The equal LaurentPoly, or None when the value is not Laurent.

        In normal form a value lies in Z[q, q^-1] exactly when den is a
        plain power of q.
        """
        d = self.den.coeffs
        if len(d) != 1:
            return None
        (e, c), = d.items()
        if c != 1:
            return None
        return self.num.shift(-e)

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        g = _poly_gcd(self.den, other.den)
        db = _poly_div_exact(other.den, g)
        num = self.num * db + other.num * _poly_div_exact(self.den, g)
        return RationalFn(num, self.den * db)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFn)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rational(other) - self

    def __mul__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rational(other) / self

    def __eq__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
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


def _as_rational(x):
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RationalFn(x)
    return NotImplemented


def _normalize(num, den):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Q(q)")
    if num.is_zero():
        return ZERO, ONE
    if den == ONE:
        if num.min_exp() >= 0:
            return num, ONE
        return num.shift(-num.min_exp()), LaurentPoly({-num.min_exp(): 1})
    shift = -min(num.min_exp(), den.min_exp(), 0)
    num, den = num.shift(shift), den.shift(shift)
    drop = min(num.min_exp(), den.min_exp())
    if drop:
        num, den = num.shift(-drop), den.shift(-drop)
    g = _poly_gcd(num, den)
    if g != ONE:
        num, den = _poly_div_exact(num, g), _poly_div_exact(den, g)
    c = math.gcd(_content(num), _content(den))
    if c > 1:
        num = LaurentPoly({e: v // c for e, v in num.coeffs.items()})
        den = LaurentPoly({e: v // c for e, v in den.coeffs.items()})
    if den.coeffs[den.max_exp()] < 0:
        num, den = -num, -den
    return num, den


RF_ZERO = RationalFn(0)
RF_ONE = RationalFn(1)


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
