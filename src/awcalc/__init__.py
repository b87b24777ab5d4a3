"""Exact operator calculus on the q-quadratic lattice.

Everything is computed over Q with fractions.Fraction; there is no
floating point anywhere. The layers, bottom up:

  scalars       v = q^(1/2) contexts and the q-number zoo
  qpoly         dense polynomials in x, symmetric Laurent form, resultants
  qoperators    the divided-difference and averaging operators D and S,
                plus their structural identities as named checks and the
                report records every check becomes
  askey_wilson  monic families solving f D^2 y + g SD y = lambda_n y
  proof_engine  derived families D^k and the full verification chain for
                their own second-order equations
  cli           the awcalc command

The package namespace exports what the demos and the README's library
examples use, plus the AWCalcError base class. Everything else is imported
from its module, e.g. awcalc.askey_wilson.family_to_dict.

The namespace is lazy (PEP 562): `import awcalc` loads only the errors
module, and a name's submodule is imported the first time the name is
read. So a command such as `awcalc --help` loads none of the computational
modules, and `verify-identities` never loads askey_wilson or proof_engine.
"""

import importlib

from .errors import AWCalcError

__version__ = "0.1.0"

# each public name and the submodule that defines it; AWCalcError is
# imported above, since every command loads the errors module anyway
_SUBMODULES = {
    "AWCalcError": "errors",
    "gamma": "scalars",
    "make_qcontext": "scalars",
    "PolyX": "qpoly",
    "IDENTITIES": "qoperators",
    "OperatorImages": "qoperators",
    "apply_Dq": "qoperators",
    "apply_Sq": "qoperators",
    "structural_polys": "qoperators",
    "verify_identity": "qoperators",
    "verify_k_fold_rule": "qoperators",
    "build_family": "askey_wilson",
    "params_from_roots": "askey_wilson",
    "params_from_sigmas": "askey_wilson",
    "ChainWorkspace": "proof_engine",
    "chain_coeffs": "proof_engine",
    "derived_family": "proof_engine",
    "extract_rn_fg": "proof_engine",
    "run_chain_verification": "proof_engine",
    "verify_final_matches_aw": "proof_engine",
}


def __getattr__(name: str):
    # called only for names not yet in the module's globals
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULES[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULES))
