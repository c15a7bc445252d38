"""Quiver orientations, divided-power monomial words, and the orbit-closure
codimension statistic.

Three word constructions are provided: the plain construction on a
symmetric datum (one factor per position of the reduced word), the folded
construction on a quotient datum, and the modified construction on a
symmetric datum with one factor per orbit part.  Every factor lists its
generators in descending label order, so words are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .folding import orbit_blocks
from .rootsys import RootSystemError


@dataclass(frozen=True)
class Orientation:
    """An orientation of the Dynkin edges: (source, target) pairs."""

    edges: tuple


def validate_orientation(datum, orientation):
    oriented = {frozenset(e) for e in orientation.edges}
    plain = {frozenset(e) for e in datum.edges()}
    if oriented != plain or len(orientation.edges) != len(plain):
        raise RootSystemError("orientation does not match the Dynkin edges")
    return orientation


@dataclass(frozen=True)
class MonomialWord:
    """Product of divided powers: ((label, exponent), ...), zero exponents dropped."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters",
                           tuple((lab, e) for lab, e in self.letters if e))

    def weight(self, datum):
        out = [0] * datum.rank
        for lab, e in self.letters:
            out[datum.index(lab)] += e
        return tuple(out)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(f"f[{lab}]^({e})" for lab, e in self.letters)


def dvec(seq, c, k):
    """Coordinates of c_k * beta_k over the simple roots, as label -> N."""
    datum = seq.datum
    ck = c[k]
    beta = seq.betas[k]
    return {lab: ck * beta[i] for i, lab in enumerate(datum.labels)}


def _word(seq, parts, c):
    """One descending factor per part of the positions: generators in
    descending label order, exponents the part's sum of c_s * beta_s over
    the simple roots."""
    labels, betas = seq.datum.labels, seq.betas
    letters = []
    for positions in parts:
        dv = [0] * len(labels)
        for s in positions:
            if c[s]:
                for i, x in enumerate(betas[s]):
                    dv[i] += c[s] * x
        letters.extend((labels[i], dv[i])
                       for i in range(len(labels) - 1, -1, -1) if dv[i])
    return MonomialWord(tuple(letters))


def word_sym(seq, c):
    """The monomial with one descending factor per position of the word."""
    return _word(seq, [(k,) for k in range(seq.N) if c[k]], c)


def word_folded(fd, ulseq, ulc):
    """The quotient-side monomial; same construction over the induced order."""
    if ulseq.datum is not fd.quotient and ulseq.datum != fd.quotient:
        raise RootSystemError("folded words need the quotient reduced sequence")
    return word_sym(ulseq, ulc)


def word_modified(fd, seq, c):
    """The orbit-aware monomial: one descending factor per orbit part of c."""
    return _word(seq, [positions for _, positions in orbit_blocks(fd, seq)], c)


def delta_codim(seq, orientation, c):
    """Codimension of the quiver orbit attached to c inside its
    representation space: -sum_{h<k;i} d_i^h d_i^k + sum_{h<k;i->j} d_j^h d_i^k.
    """
    datum = seq.datum
    if not datum.is_symmetric():
        raise RootSystemError("the codimension statistic needs a symmetric datum")
    validate_orientation(datum, orientation)
    ds = [dvec(seq, c, k) for k in range(seq.N)]
    nonzero = [k for k in range(seq.N) if c[k]]
    total = 0
    for a, h in enumerate(nonzero):
        for k in nonzero[a + 1:]:
            dh, dk = ds[h], ds[k]
            total -= sum(dh[lab] * dk[lab] for lab in datum.labels)
            total += sum(dh[j] * dk[i] for i, j in orientation.edges)
    return total


def canonical_word(datum, word, relabel=None):
    """Normal form modulo commuting-letter rearrangement of the word over
    datum, each letter's label first sent to its image under relabel, a
    dict (the identity when None): so canonical_word(datum, word, sigma)
    is the normal form of sigma applied letterwise.

    Two letters commute when they carry the same generator or orthogonal
    simple roots, so words up to such swaps form a trace monoid, and the
    lexicographic normal form of traces is a normal form for them
    (Anisimov and Knuth, Int. J. Comput. Inf. Sci., 1979): repeatedly
    take the least letter, by (label position, exponent), among those that
    commute with every letter before them.
    """
    neighbours = datum.neighbours     # the letters a letter does not commute with
    rest = [(datum.index(lab if relabel is None else relabel[lab]), e)
            for lab, e in word.letters]
    out = []
    while rest:
        least, blocked = None, 0
        for k, (i, _) in enumerate(rest):
            if not blocked >> i & 1 and (least is None or rest[k] < rest[least]):
                least = k
            blocked |= neighbours[i]
        i, e = rest.pop(least)
        out.append((datum.labels[i], e))
    return MonomialWord(tuple(out))


def collapse_orbit_runs(fd, word):
    """Replace each full-orbit run of equal exponents by its quotient letter.

    This is the letter-level shadow of the fixed-point bijection: defined
    exactly on words whose runs cover whole orbits with constant exponent.
    """
    letters = list(word.letters)
    out = []
    pos = 0
    while pos < len(letters):
        k = fd.orbit_index(letters[pos][0])
        size = len(fd.orbits[k])
        chunk = letters[pos:pos + size]
        if len(chunk) != size or {lab for lab, _ in chunk} != set(fd.orbits[k]):
            raise ValueError("word does not decompose into full orbit runs")
        exps = {e for _, e in chunk}
        if len(exps) != 1:
            raise ValueError("orbit run has non-constant exponents")
        out.append((fd.quotient.labels[k], exps.pop()))
        pos += size
    return MonomialWord(tuple(out))
