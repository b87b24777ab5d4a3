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
"""

from .errors import (
    AWCalcError,
    DegenerateParams,
    DependencyError,
    DomainError,
    EigenvalueCollision,
    InternalError,
    NoRationalMatch,
    OrthogonalityBroken,
    ProportionalityFailure,
    UsageError,
)
from .scalars import (
    QContext,
    Rational,
    alpha_k,
    format_rational,
    gamma,
    gamma_factorial,
    make_qcontext,
    parse_rational,
)
from .qpoly import (
    LaurentSym,
    PolyX,
    from_laurent,
    random_poly,
    resultant,
    to_laurent,
)
from .qoperators import (
    IDENTITIES,
    OperatorCheckResult,
    apply_Dq,
    apply_Dq_power,
    apply_Sq,
    structural_polys,
    verify_identity,
    verify_k_fold_rule,
)
from .askey_wilson import (
    AWFamily,
    AWParams,
    build_family,
    eigenvalue,
    equation_coeffs,
    family_from_dict,
    family_to_dict,
    make_params,
    params_from_roots,
    params_from_sigmas,
    solve_operator_equation,
    three_term_data,
)
from .proof_engine import (
    CHAIN_EQUATIONS,
    AWMatch,
    ChainCoeffs,
    ChainWorkspace,
    CheckRecord,
    DerivedFamily,
    ExtractionResult,
    ProofReport,
    chain_coeffs,
    chain_coeffs_by_elimination,
    check_no_common_zeros,
    check_nonvanishing,
    coeff_F,
    derived_family,
    extract_rn_fg,
    record_sort_key,
    report_to_dict,
    run_chain_verification,
    verify_chain_equation,
    verify_final_matches_aw,
)

__version__ = "0.1.0"
