"""Admissible diagram automorphisms, the induced Cartan datum, lifting of
reduced sequences, and the orbit action/bijections on exponent vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rootsys import (CartanDatum, NotReduced, betas_from_sequence,
                      cartan_datum)


class NotAdmissible(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


@dataclass(frozen=True)
class FoldingDatum:
    """A symmetric Cartan datum with an admissible automorphism.

    ``orbits`` lists the sigma-orbits in the order induced by the base
    label order, each orbit in its fixed internal order; the quotient
    datum is indexed by the orbits, each named after its first member.
    """

    base: CartanDatum
    sigma: tuple            # sigma image of base.labels[k] at position k
    orbits: tuple
    quotient: CartanDatum
    p: int                  # order of sigma

    def is_trivial(self):
        return self.p == 1

    def sigma_label(self, label):
        return self.sigma[self.base.index(label)]

    def sigma_root(self, v):
        """Sigma acting on a base root-lattice vector."""
        out = [0] * self.base.rank
        for i, vi in enumerate(v):
            if vi:
                out[self.base.index(self.sigma[i])] = vi
        return tuple(out)

    def orbit_index(self, label):
        for k, orb in enumerate(self.orbits):
            if label in orb:
                return k
        raise KeyError(label)

    def expand_weight(self, ul_gamma):
        """Quotient weight -> sigma-fixed base weight (alpha_j -> sum over j)."""
        out = [0] * self.base.rank
        for k, coeff in enumerate(ul_gamma):
            if coeff:
                for lab in self.orbits[k]:
                    out[self.base.index(lab)] += coeff
        return tuple(out)

    def project_weight(self, gamma):
        """Sigma-fixed base weight -> quotient weight; None if not fixed."""
        out = []
        for orb in self.orbits:
            vals = {gamma[self.base.index(lab)] for lab in orb}
            if len(vals) != 1:
                return None
            out.append(vals.pop())
        return tuple(out)


def validate_admissible(base, sigma):
    """Build the FoldingDatum for a label permutation, or raise NotAdmissible.

    sigma is a dict label -> label; labels it omits are fixed.
    """
    image = dict(sigma)
    for lab in base.labels:
        image.setdefault(lab, lab)
    if set(image) != set(base.labels) or set(image.values()) != set(base.labels):
        raise NotAdmissible("sigma is not a bijection of the label set")
    n = base.rank
    idx = {lab: i for i, lab in enumerate(base.labels)}
    for a in base.labels:
        for b in base.labels:
            if base.form[idx[a]][idx[b]] != base.form[idx[image[a]]][idx[image[b]]]:
                raise NotAdmissible(f"sigma does not preserve the form at ({a}, {b})")

    orbits = []
    seen = set()
    for lab in base.labels:
        if lab in seen:
            continue
        orb = [lab]
        cur = image[lab]
        while cur != lab:
            orb.append(cur)
            cur = image[cur]
        seen.update(orb)
        orbits.append(tuple(sorted(orb, key=idx.get)))
    for orb in orbits:
        for a in orb:
            for b in orb:
                if a != b and base.form[idx[a]][idx[b]] != 0:
                    raise NotAdmissible(f"orbit members {a}, {b} are joined")

    p = 1
    for orb in orbits:
        k = len(orb)
        p = p * k // math.gcd(p, k)
    if p > 1 and not _is_prime(p):
        raise NotAdmissible(f"sigma order {p} is not prime")

    ul_labels = tuple(orb[0] for orb in orbits)
    form = []
    for oa in orbits:
        row = []
        for ob in orbits:
            if oa == ob:
                row.append(base.form[idx[oa[0]]][idx[oa[0]]] * len(oa))
            else:
                row.append(sum(base.form[idx[a]][idx[b]] for a in oa for b in ob))
        form.append(tuple(row))
    quotient = cartan_datum(ul_labels, form)
    return FoldingDatum(base, tuple(image[lab] for lab in base.labels),
                        tuple(orbits), quotient, p)


def identity_folding(base):
    return validate_admissible(base, {lab: lab for lab in base.labels})


def lift_sequence(fd, ul_indices):
    """Replace each quotient letter by its orbit members (fixed order).

    The input must be a reduced word for the quotient's w0 and the output
    is validated as a reduced word for the base; NotReduced propagates.
    """
    betas_from_sequence(fd.quotient, ul_indices)
    word = []
    for j in ul_indices:
        word.extend(fd.orbits[fd.quotient.index(j)])
    betas_from_sequence(fd.base, word)
    return tuple(word)


def orbit_blocks(fd, seq):
    """Partition of [0, N) into consecutive orbit parts of the lifted word.

    Returns a tuple of (orbit_index, positions) pairs, one per quotient
    letter; raises NotReduced when the word does not group into orbits.
    """
    blocks = []
    pos = 0
    indices = seq.indices
    while pos < len(indices):
        k = fd.orbit_index(indices[pos])
        size = len(fd.orbits[k])
        part = indices[pos:pos + size]
        if sorted(part) != sorted(fd.orbits[k]):
            raise NotReduced("word positions do not group into sigma-orbits")
        blocks.append((k, tuple(range(pos, pos + size))))
        pos += size
    return tuple(blocks)


def quotient_sequence(fd, seq):
    """The quotient reduced sequence a lifted word comes from: one letter
    per orbit part, named after its orbit.  NotReduced propagates when the
    word does not group into orbits or the letters are not reduced."""
    return betas_from_sequence(fd.quotient, tuple(
        fd.quotient.labels[k] for k, _ in orbit_blocks(fd, seq)))


def sigma_on_exponents(fd, seq, c):
    """Permute the coordinates of c inside each orbit part.

    Position s goes to the position t of the same part with
    beta_t = sigma(beta_s); this matches the action on PBW indices.
    """
    c = tuple(c)
    out = [None] * len(c)
    for _, positions in orbit_blocks(fd, seq):
        betas = {seq.betas[s]: s for s in positions}
        for s in positions:
            image = fd.sigma_root(seq.betas[s])
            if image not in betas:
                raise NotReduced("sigma does not stabilize an orbit part of the word")
            out[betas[image]] = c[s]
    return tuple(out)


def fold_exponent(fd, ulseq, ulc):
    """Quotient exponent vector -> sigma-fixed base exponent vector.

    Each coordinate is repeated |orbit| times along its part of the lifted
    word; the image is exactly the sigma-fixed set.
    """
    if len(ulc) != ulseq.N:
        raise NotReduced("exponent vector length does not match the quotient word")
    out = []
    for j, ck in zip(ulseq.indices, ulc):
        out.extend([ck] * len(fd.orbits[fd.quotient.index(j)]))
    return tuple(out)


def unfold_exponent(fd, seq, ulseq, c):
    """Inverse of fold_exponent on sigma-fixed vectors; None otherwise."""
    out = []
    pos = 0
    for j in ulseq.indices:
        size = len(fd.orbits[fd.quotient.index(j)])
        part = set(c[pos:pos + size])
        if len(part) != 1:
            return None
        out.append(part.pop())
        pos += size
    if pos != seq.N:
        return None
    return tuple(out)
