"""katoforge: exact computer algebra for characteristic-p fields.

Finite fields and rational function fields with exact arithmetic; Witt
vectors with cached universal structure polynomials; Kaehler differentials
with both Cartier directions; Milnor symbols mod p through the differential
symbol; level-i Witt-symbol classes with Schmid-Witt local invariants,
reciprocity over F_q(t), and the residue decomposition over F_q((t)).
"""

from .errors import (ConfigMismatch, CorruptCache, DegreeMismatch,
                     DegreeOverflow, DivisionByZero, DlogOfZero,
                     IntegralityViolation,
                     KatoforgeError, LevelDecrease, NonPrime,
                     NormShapeUnsupported, NotClosed, NotConstant,
                     PrecisionExhausted,
                     ResourceLimit, ScriptError, UnknownName,
                     UnsupportedDegree, UnsupportedField, VerifyMismatch,
                     WildClass, ZeroPolynomial)
from .forms import DiffForm, d_of_function, dlog, form_from_terms
from .gf import GF, GFElem, gf
from .gring import GaloisRing, galois_ring
from .kato import (ColimitClass, HClass, LaurentField, LocalInvariant,
                   colimit_equal, decompose_local, h_zero_test, laurent_field,
                   level_shift, local_invariant, local_symbol, pair,
                   reciprocity_check, witt_standard_form)
from .laurent import Laurent
from .milnor import (ASExtension, MilnorElement, d_symbol, kn_equal,
                     symbol_expand)
from .mpoly import MPoly, mpoly_gcd
from .places import (Place, from_rational, place_context, place_order,
                     residue_at, residue_table, support_places)
from .poly import Poly, factor, is_irreducible, squarefree_decomposition
from .rational import (FuncField, RatFunc, func_field, p_power_component,
                       p_power_decompose, p_power_rebuild)
from .witt import (WittStructure, WittVector, int_to_witt, set_cache_dir,
                   verify_ghost_identities, witt_as_solve, witt_structure,
                   witt_to_int)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
