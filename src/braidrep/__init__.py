"""Exact braid group representations, string link invariants and the
Long-Moody construction."""

from .ring import (ContextMismatch, LaurentPoly, NotAUnit, PolyParseError,
                   PrimeField, RingContext, poly_render, specialize)
from .matrices import Permutation, RingMatrix, ShapeMismatch, direct_sum
from .words import (BraidWord, FreeWord, GroupRingElement, LinkingProfile,
                    WordParseError, artin_action, chi, commutator,
                    fox_derivative)
from .reps import (GenRep, make_burau, make_one_dim, make_tym, make_wtym,
                   tensor_one_dim)
from .stringlinks import (Crossing, Diagram, DiagramError, LambdaRelation,
                          NormalForm, add_kink, compose, ctx_for_mode,
                          diagram_from_word, eliminate, kernel_predicate,
                          linking_profile_diagram, linking_profile_word,
                          relations_of, tym_matrix)
from .longmoody import (block_formula_lm_q_tym, check_semidirect,
                        decompose_check, identify_trivial_burau,
                        intertwining_check, irreducibility_probe,
                        kernel_experiment, kernel_words, lm_apply, lm_q,
                        lm_semidirect, make_eta, reduced_lm3)

__all__ = [name for name in dir() if not name.startswith("_")]
