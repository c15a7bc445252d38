"""Exact transition matrices between PBW, monomial and canonical bases of
finite-type quantum groups, including the comparison between a symmetric
datum with admissible automorphism and its folded quotient."""

from .laurent import (LaurentPoly, RationalFn, bar, parse_laurent,
                      parse_rational, q_power, qfact, qint, split_bar_parts)
from .rootsys import (CartanDatum, ReducedSequence, betas_from_sequence,
                      bipartite_w0, cartan_datum, enumerate_block, lex_compare,
                      reflect, weight_of, weights_up_to)
from .folding import (FoldingDatum, fold_exponent, identity_folding,
                      lift_sequence, quotient_sequence, sigma_on_exponents,
                      unfold_exponent, validate_admissible)
from .monomial import (MonomialWord, Orientation, canonical_word,
                       collapse_orbit_runs, delta_codim, dvec, sigma_word,
                       word_folded, word_modified, word_sym)
from .gram import (LetterSequence, expand_word, delta_weight, inner_mackey,
                   inner_mackey_restricted, inner_shuffle, inversion_stat,
                   matching_sum, matchings, pbw_diag)
from .presets import Preset, custom_preset, get_folding, get_preset
from .transition import (GramBlock, TransitionBlock, block_from_json,
                         block_to_json, factor_gram, gram_block, ldl,
                         mod_p_compare, pipeline, pq_split, sigma_submatrix)

__version__ = "0.1.0"
