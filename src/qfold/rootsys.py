"""Cartan data, simple reflections, reduced sequences for the longest
Weyl-group element, and weight-block enumeration of exponent vectors.

Root-lattice vectors are plain integer tuples over the datum's label order.
The label order of a CartanDatum is meaningful: it is the total order used
by the monomial constructions, so presets list labels in their sink/source
order rather than in diagram order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


class RootSystemError(ValueError):
    pass


class NotReduced(RootSystemError):
    pass


class WrongLength(RootSystemError):
    pass


class InvalidColoring(RootSystemError):
    pass


class NotFiniteType(RootSystemError):
    pass


@dataclass(frozen=True)
class CartanDatum:
    """Finite index set with a symmetric bilinear form on the root lattice.

    ``form[i][j]`` is the pairing of the i-th and j-th simple roots in
    label order.  Diagonal entries are positive even integers and
    2*form[i][j]/form[i][i] is a nonpositive integer off the diagonal.
    ``neighbours[i]`` is the bit mask of the positions j != i with
    form[i][j] != 0, the Dynkin neighbours of position i.
    """

    labels: tuple
    form: tuple

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise RootSystemError("duplicate labels")
        if len(self.form) != n or any(len(row) != n for row in self.form):
            raise RootSystemError("form matrix shape does not match labels")
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != self.form[j][i]:
                    raise RootSystemError("form matrix is not symmetric")
            if self.form[i][i] <= 0 or self.form[i][i] % 2:
                raise RootSystemError(
                    f"(a_{self.labels[i]}, a_{self.labels[i]}) must be a positive even integer")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                twice = 2 * self.form[i][j]
                if twice > 0 or twice % self.form[i][i]:
                    raise RootSystemError(
                        f"Cartan condition fails at ({self.labels[i]}, {self.labels[j]})")
        # not fields: equality and hashing stay on labels and form
        object.__setattr__(self, "_positions",
                           {lab: i for i, lab in enumerate(self.labels)})
        object.__setattr__(self, "neighbours", tuple(
            sum(1 << j for j, f in enumerate(row) if f and j != i)
            for i, row in enumerate(self.form)))

    @property
    def rank(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._positions[label]
        except KeyError:
            raise RootSystemError(f"unknown label {label!r}") from None

    def d(self, label):
        """Half the squared length of the simple root: q_i = q^d."""
        i = self.index(label)
        return self.form[i][i] // 2

    def cartan(self, i, j):
        return 2 * self.form[i][j] // self.form[i][i]

    def is_symmetric(self):
        n = self.rank
        return all(self.cartan(i, j) == self.cartan(j, i)
                   for i in range(n) for j in range(n))

    def simple_root(self, label):
        i = self.index(label)
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def pair_root_label(self, v, label):
        j = self.index(label)
        return sum(vi * self.form[i][j] for i, vi in enumerate(v) if vi)

    def edges(self):
        """Unordered Dynkin edges: label pairs with nonzero off-diagonal form."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.form[i][j]:
                    out.append((self.labels[i], self.labels[j]))
        return tuple(out)


def cartan_datum(labels, form):
    return CartanDatum(tuple(labels), tuple(tuple(row) for row in form))


def automorphisms(datum, weight):
    """Every permutation t of the label positions that preserves the form
    and fixes the weight, form[t[i]][t[j]] = form[i][j] and weight[t[i]] =
    weight[i], as a tuple; the identity first.  The zero weight gives the
    whole automorphism group of the form.

    A backtracking search over the positions in label order: position i
    takes an unused image only if the weight and the form agree on i and
    every position mapped before it, so a partial map that no such
    automorphism extends dies as soon as it breaks one of them, and no
    permutation of all the labels is ever listed.
    """
    form, rank = datum.form, datum.rank
    found, image = [], []

    def extend():
        i = len(image)
        if i == rank:
            found.append(tuple(image))
            return
        row = form[i]
        for t in range(rank):
            if (t not in image and weight[t] == weight[i] and form[t][t] == row[i]
                    and all(form[t][image[j]] == row[j] for j in range(i))):
                image.append(t)
                extend()
                image.pop()

    extend()
    del extend                       # the closure's cell refers to itself
    return found


def reflect(datum, label, v):
    """Simple reflection s_label on a root-lattice vector."""
    i = datum.index(label)
    coeff = 2 * datum.pair_root_label(v, label) // datum.form[i][i]
    return tuple(vk - coeff if k == i else vk for k, vk in enumerate(v))


def is_positive(v):
    """Positivity in finite type: all coordinates >= 0 and some > 0."""
    return all(x >= 0 for x in v) and any(v)


@lru_cache(maxsize=None)
def positive_roots(datum):
    """All positive roots, by closing the simple roots under reflections."""
    roots = {datum.simple_root(lab) for lab in datum.labels}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for lab in datum.labels:
                w = reflect(datum, lab, v)
                if w not in roots and -min(w) < 10 ** 6:
                    roots.add(w)
                    new.add(w)
        frontier = new
        if len(roots) > 10 ** 5:
            raise NotFiniteType("reflection closure did not terminate")
    return frozenset(v for v in roots if is_positive(v))


def coxeter_number(datum):
    """h = 2|positive roots| / rank, valid for irreducible data."""
    n2 = 2 * len(positive_roots(datum))
    if n2 % datum.rank:
        raise RootSystemError("Coxeter number is not an integer; datum not irreducible?")
    return n2 // datum.rank


@dataclass(frozen=True)
class ReducedSequence:
    """A reduced word for w0 together with its induced order on positive roots.

    betas[k] = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}); validated positive,
    distinct, and of full length N = |positive roots|.
    """

    datum: CartanDatum
    indices: tuple
    betas: tuple = field(compare=False)

    @property
    def N(self):
        return len(self.indices)


def betas_from_sequence(datum, indices):
    indices = tuple(indices)
    betas = []
    for k, lab in enumerate(indices):
        v = datum.simple_root(lab)
        for j in range(k - 1, -1, -1):
            v = reflect(datum, indices[j], v)
        betas.append(v)
    for k, b in enumerate(betas):
        if not is_positive(b):
            raise NotReduced(f"word is not reduced: beta_{k + 1} is not positive")
    if len(set(betas)) != len(betas):
        raise NotReduced("word is not reduced: repeated root")
    n_pos = len(positive_roots(datum))
    if len(betas) != n_pos:
        raise WrongLength(f"word has length {len(betas)}, expected {n_pos}")
    return ReducedSequence(datum, indices, tuple(betas))


def bipartite_w0(datum, parts):
    """Alternating word c0 c1 c0 ... with h block factors.

    parts = (I0, I1) must 2-color the Dynkin graph; each block lists its
    part in the order given in ``parts``.  For even Coxeter number h the
    result is (c0 c1)^(h/2).  The output is validated through
    betas_from_sequence.
    """
    part0, part1 = (tuple(p) for p in parts)
    seen = set(part0) | set(part1)
    if len(part0) + len(part1) != datum.rank or seen != set(datum.labels):
        raise InvalidColoring("parts do not partition the label set")
    for a, b in datum.edges():
        if (a in part0) == (b in part0):
            raise InvalidColoring(f"edge ({a}, {b}) has both ends in one part")
    h = coxeter_number(datum)
    word = []
    for r in range(h):
        word.extend(part0 if r % 2 == 0 else part1)
    betas_from_sequence(datum, word)
    return tuple(word)


def weight_of(seq, c):
    """Sum of c_k * beta_k as a root-lattice vector."""
    if len(c) != seq.N:
        raise WrongLength("exponent vector length does not match the sequence")
    out = [0] * seq.datum.rank
    for ck, beta in zip(c, seq.betas):
        if ck:
            for i, bi in enumerate(beta):
                out[i] += ck * bi
    return tuple(out)


def enumerate_block(seq, gamma):
    """All exponent vectors of weight gamma, ascending in lex order.

    Root-lattice vectors are packed into one int, a lane per simple root
    wide enough for gamma_i plus any beta coefficient, topped by a guard
    bit, so ``v <= gamma`` in every lane iff subtracting v from packed
    gamma with its guard bits set keeps every guard bit.  ``reach[k]``
    holds the packed sums <= gamma that positions k..N-1 can spend; the
    walk from gamma takes c_k only when the remainder lies in
    ``reach[k + 1]``, so every prefix it visits completes.
    """
    gamma = tuple(gamma)
    if len(gamma) != seq.datum.rank:
        raise WrongLength("weight has the wrong number of coordinates")
    if any(g < 0 for g in gamma):
        return []
    bits = (max(gamma) + max(max(b) for b in seq.betas)).bit_length()

    def pack(v):
        return sum(x << (i * (bits + 1)) for i, x in enumerate(v))

    guards = pack([1 << bits] * len(gamma))
    top = pack(gamma) | guards
    betas = [pack(b) for b in seq.betas]
    n = len(betas)
    reach = [None] * n + [{0}]
    for k in range(n - 1, 0, -1):
        beta, spent = betas[k], set()
        for s in reach[k + 1]:
            while (top - s) & guards == guards:
                spent.add(s)
                s += beta
        reach[k] = spent
    out, prefix = [], [0] * n

    def walk(k, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        beta, later = betas[k], reach[k + 1]
        c = 0
        while True:
            if rest in later:
                prefix[k] = c
                walk(k + 1, rest)
            rest = (rest | guards) - beta
            if rest & guards != guards:
                break
            rest ^= guards
            c += 1
        prefix[k] = 0

    walk(0, top ^ guards)
    return out


def vectors_up_to(sizes, height):
    """All nonzero c >= 0 with sum(c[k] * sizes[k]) <= height, ascending in
    lex order.  The sizes must be positive."""
    out = []

    def rec(k, left, prefix):
        if k == len(sizes):
            if any(prefix):
                out.append(tuple(prefix))
            return
        for v in range(left // sizes[k] + 1):
            rec(k + 1, left - v * sizes[k], prefix + [v])

    rec(0, height, [])
    return out


def weights_up_to(datum, height):
    """All nonzero gamma in the positive root lattice with |gamma| <= height."""
    return vectors_up_to([1] * datum.rank, height)
