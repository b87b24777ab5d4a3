"""Exact operator calculus on the q-quadratic lattice.

Everything is computed over Q with fractions.Fraction; there is no
floating point anywhere. The layers, bottom up:

  scalars       v = q^(1/2) contexts and the q-number zoo
  qpoly         dense polynomials in x, symmetric Laurent form, resultants
  qoperators    the divided-difference and averaging operators D and S,
                plus their structural identities as named checks
  askey_wilson  monic families solving f D^2 y + g SD y = lambda_n y
  proof_engine  derived families D^k and the full verification chain for
                their own second-order equations
  cli           the awcalc command

The package namespace exports what the demos and the README's library
examples use, plus the AWCalcError base class. Everything else is imported
from its module, e.g. awcalc.askey_wilson.family_to_dict.
"""

from .errors import AWCalcError
from .scalars import gamma, make_qcontext
from .qpoly import PolyX
from .qoperators import (
    IDENTITIES,
    OperatorImages,
    apply_Dq,
    apply_Sq,
    structural_polys,
    verify_identity,
    verify_k_fold_rule,
)
from .askey_wilson import build_family, params_from_roots, params_from_sigmas
from .proof_engine import (
    ChainWorkspace,
    chain_coeffs,
    derived_family,
    extract_rn_fg,
    run_chain_verification,
    verify_final_matches_aw,
)

__version__ = "0.1.0"
