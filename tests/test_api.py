"""The package namespace: what `import awcalc` offers without a submodule."""

import types

import awcalc

# the names the demos and the README's library examples use, plus the base
# error class; adding one here is a deliberate API change
PUBLIC_NAMES = {
    "make_qcontext", "params_from_sigmas", "params_from_roots", "build_family",
    "derived_family", "run_chain_verification", "IDENTITIES", "PolyX",
    "apply_Dq", "apply_Sq", "gamma", "structural_polys", "verify_identity",
    "verify_k_fold_rule", "ChainWorkspace", "chain_coeffs", "extract_rn_fg",
    "verify_final_matches_aw", "AWCalcError", "OperatorImages",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(awcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
