"""Built-in Cartan data: the simply-laced families carrying an admissible
automorphism, their bipartite orientations and reduced words, and the
folded targets reached from them.

Label order is always the sink part followed by the source part, so it is
simultaneously the descending-factor order of the monomial constructions
and the order inducing the quotient labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .folding import (FoldingDatum, identity_folding, lift_sequence,
                      orbit_blocks, quotient_sequence, validate_admissible)
from .monomial import (Orientation, validate_orientation, word_folded,
                       word_modified, word_sym)
from .rootsys import (RootSystemError, betas_from_sequence, bipartite_w0,
                      cartan_datum)


class UnsupportedPreset(RootSystemError):
    pass


BASES = ("modified", "folded", "symmetric")


@dataclass(frozen=True)
class Preset:
    """A ready-to-use setup: base and quotient data with matching words."""

    name: str
    fd: FoldingDatum
    seq: ReducedSequence          # base reduced sequence (lifted word)
    ulseq: ReducedSequence        # quotient reduced sequence
    orientation: Orientation      # bipartite orientation of the base
    parts: tuple                  # (I0, I1) with I0 sinks and I1 sources
    is_quotient: bool             # True when the preset names the folded target

    @property
    def default_basis(self):
        """The folded basis on a folded target, the modified one otherwise."""
        return "folded" if self.is_quotient else "modified"

    def orbit_parts(self):
        """(orbit, positions) for each orbit part of the base word."""
        return [(self.fd.orbits[k], positions)
                for k, positions in orbit_blocks(self.fd, self.seq)]

    def side(self, basis=None):
        """(datum, sequence, word of an exponent vector) a basis lives on;
        the default basis when none is named.  The folded basis needs a
        quotient or a nontrivial folding, the plain symmetric one a
        symmetric base that is not a quotient."""
        basis = basis or self.default_basis
        fd = self.fd
        if basis == "folded":
            if fd.is_trivial() and not self.is_quotient:
                raise UnsupportedPreset(
                    "the folded basis needs a folded preset or a folding")
            return fd.quotient, self.ulseq, lambda c: word_folded(fd, self.ulseq, c)
        if basis == "modified":
            return fd.base, self.seq, lambda c: word_modified(fd, self.seq, c)
        if basis == "symmetric":
            if self.is_quotient or not fd.base.is_symmetric():
                raise UnsupportedPreset(
                    "the plain symmetric basis needs a symmetric datum")
            return fd.base, self.seq, lambda c: word_sym(self.seq, c)
        raise UnsupportedPreset(
            f"basis must be one of {', '.join(BASES)}, got {basis!r}")


def _datum_from_edges(labels, edges):
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        form[i][i] = 2
    for a, b in edges:
        form[idx[a]][idx[b]] = -1
        form[idx[b]][idx[a]] = -1
    return cartan_datum(labels, form)


def _build(name, labels, edges, sigma, part0, part1):
    """Assemble a Preset from diagram data; validates everything."""
    datum = _datum_from_edges(labels, edges)
    fd = validate_admissible(datum, sigma)
    word = bipartite_w0(datum, (part0, part1))
    seq = betas_from_sequence(datum, word)
    ulseq = quotient_sequence(fd, seq)
    if lift_sequence(fd, ulseq.indices) != word:
        raise RootSystemError("lifted quotient word does not match the base word")
    orientation = Orientation(tuple(
        (b, a) if a in part0 else (a, b) for a, b in datum.edges()))
    validate_orientation(datum, orientation)
    for i, j in orientation.edges:
        if datum.index(j) >= datum.index(i):
            raise RootSystemError("label order is not compatible with the orientation")
    return Preset(name, fd, seq, ulseq, orientation,
                  (tuple(part0), tuple(part1)), False)


def custom_preset(labels, form, sigma=None, word=None, parts=None):
    """A preset on user data: a Cartan datum by labels and form, an
    automorphism as a label map (the identity when None), and the base word,
    given as is or as the bipartite word of parts = (I0, I1).  The quotient
    word is read off the word's orbit parts; no orientation is attached."""
    datum = cartan_datum(labels, form)
    fd = validate_admissible(datum, sigma or {})
    if word is None:
        word = bipartite_w0(datum, parts)
    seq = betas_from_sequence(datum, word)
    return Preset("custom", fd, seq, quotient_sequence(fd, seq), None,
                  ((), ()), False)


def _preset_a(rank):
    """A_{2n-1} with the flip i <-> i'; folds onto B_n."""
    if rank < 3 or rank % 2 == 0:
        raise UnsupportedPreset(
            f"type A preset needs an odd rank >= 3, got A{rank}")
    n = (rank + 1) // 2
    chain = [str(i) for i in range(1, n + 1)] + [f"{i}'" for i in range(n - 1, 0, -1)]
    edges = list(zip(chain, chain[1:]))
    sigma = {}
    for i in range(1, n):
        sigma[str(i)] = f"{i}'"
        sigma[f"{i}'"] = str(i)
    sigma[str(n)] = str(n)
    part0, part1 = [], []
    for i in range(1, n):
        target = part0 if i % 2 else part1
        target += [str(i), f"{i}'"]
    (part0 if n % 2 else part1).append(str(n))
    return _build(f"A{rank}", tuple(part0 + part1), edges, sigma, part0, part1)


def _preset_d(n):
    """D_n with the fork flip; folds onto C_{n-1}."""
    if n < 4:
        raise UnsupportedPreset(f"type D preset needs rank >= 4, got D{n}")
    chain = [str(i) for i in range(1, n - 1)]
    fork = [str(n), f"{n}'"]
    edges = list(zip(chain, chain[1:])) + [(chain[-1], fork[0]), (chain[-1], fork[1])]
    sigma = {fork[0]: fork[1], fork[1]: fork[0]}
    part0 = [lab for lab in chain if int(lab) % 2]
    part1 = [lab for lab in chain if int(lab) % 2 == 0]
    ((part0 if (n - 2) % 2 == 0 else part1)).extend(fork)
    return _build(f"D{n}", tuple(part0 + part1), edges, sigma, part0, part1)


def _preset_d4_triality():
    """D_4 with the order-3 rotation of the outer nodes; folds onto G_2."""
    labels = ("1", "1'", "1''", "2")
    edges = [("2", "1"), ("2", "1'"), ("2", "1''")]
    sigma = {"1": "1'", "1'": "1''", "1''": "1", "2": "2"}
    return _build("D4", labels, edges, sigma, ["1", "1'", "1''"], ["2"])


def _preset_e6():
    """E_6 with the flip of the two long arms; folds onto F_4."""
    labels = ("1", "1'", "3", "2", "2'", "4")
    edges = [("1", "2"), ("2", "3"), ("3", "2'"), ("2'", "1'"), ("3", "4")]
    sigma = {"1": "1'", "1'": "1", "2": "2'", "2'": "2", "3": "3", "4": "4"}
    return _build("E6", labels, edges, sigma, ["1", "1'", "3"], ["2", "2'", "4"])


_SOURCE_OF = {"B": lambda n: _preset_a(2 * n - 1),
              "C": lambda n: _preset_d(n + 1),
              "F": lambda n: _preset_e6(),
              "G": lambda n: _preset_d4_triality()}


def symmetric_preset(name):
    m = re.fullmatch(r"([ADE])(\d+)", name)
    if not m:
        raise UnsupportedPreset(f"unknown preset {name!r}")
    family, rank = m.group(1), int(m.group(2))
    if family == "A":
        return _preset_a(rank)
    if family == "D":
        return _preset_d4_triality() if rank == 4 else _preset_d(rank)
    if family == "E" and rank == 6:
        return _preset_e6()
    raise UnsupportedPreset(f"unknown preset {name!r}")


def _source(name):
    """The validated symmetric preset a quotient name (B/C/F/G) folds from."""
    m = re.fullmatch(r"([BCFG])(\d+)", name)
    if not m:
        raise UnsupportedPreset(f"unknown preset {name!r}")
    family, rank = m.group(1), int(m.group(2))
    checks = {"B": rank >= 2, "C": rank >= 3, "F": rank == 4, "G": rank == 2}
    if not checks[family]:
        raise UnsupportedPreset(f"unknown preset {name!r}")
    src = _SOURCE_OF[family](rank)
    if src.fd.quotient.rank != rank:
        raise UnsupportedPreset(f"{name} is not reachable by folding")
    return src


def folded_preset(name):
    return replace(_source(name), name=name, is_quotient=True)


def preset_with_folding(name):
    """The preset a name carries with its folding: a quotient name on its
    source, a symmetric name with its admissible automorphism."""
    name = name.strip()
    if re.fullmatch(r"[BCFG]\d+", name):
        return folded_preset(name)
    return symmetric_preset(name)


def get_preset(name):
    """Resolve a preset by name; symmetric names give a trivial folding."""
    name = name.strip()
    preset = preset_with_folding(name)
    if preset.is_quotient:
        return preset
    fd = identity_folding(preset.fd.base)
    return replace(preset, name=name, fd=fd,
                   ulseq=quotient_sequence(fd, preset.seq))


def get_folding(spec):
    """Resolve a folding like ``A3->B2`` to its preset with nontrivial sigma."""
    m = re.fullmatch(r"\s*([A-G]\d+)\s*->\s*([A-G]\d+)\s*", spec)
    if not m:
        raise UnsupportedPreset(f"bad folding spec {spec!r}")
    src_name, dst_name = m.group(1), m.group(2)
    preset = _source(dst_name)
    if preset.name != src_name:
        raise UnsupportedPreset(f"{src_name} does not fold onto {dst_name}")
    return preset
