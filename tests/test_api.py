"""The package namespace: what `import awcalc` offers without a submodule,
and which modules each command loads."""

import importlib
import json
import subprocess
import sys
import types

import pytest

import awcalc
from helpers import checkout_env

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
        name for name in dir(awcalc)
        if not name.startswith("_")
        and not isinstance(getattr(awcalc, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_each_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"awcalc.{awcalc._SUBMODULES[name]}")
    value = getattr(awcalc, name)
    assert value is getattr(module, name)
    # IDENTITIES is a tuple and has no __module__
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        awcalc.no_such_name
    # defined in a submodule, but not part of the namespace
    assert not hasattr(awcalc, "family_to_dict")
    with pytest.raises(ImportError):
        from awcalc import family_to_dict  # noqa: F401


def loaded_modules(argv):
    """(exit code, sorted awcalc modules) of cli.main(argv) in a fresh
    process."""
    script = (
        "import json, sys\n"
        "from awcalc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'awcalc')]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=checkout_env())
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, modules


BARE = ["awcalc", "awcalc.cli", "awcalc.errors"]
ARITHMETIC = BARE + ["awcalc.qoperators", "awcalc.qpoly", "awcalc.scalars"]
FLAT = ["--qsqrt", "1/2", "--sigmas=0,0,0,0"]


@pytest.mark.parametrize("argv, code, modules", [
    (["--help"], 0, BARE),
    (["verify-chain", "--nmax", "-1"], 2, BARE),
    (["verify-chain", *FLAT, "--out", "{missing}/x.json"], 2, BARE),
    (["verify-identities", "--qsqrt", "1/2", "--trials", "1"], 0, ARITHMETIC),
    (["build-family", *FLAT, "--nmax", "3"], 0,
     sorted(ARITHMETIC + ["awcalc.askey_wilson"])),
    (["verify-chain", *FLAT, "--nmax", "2"], 0,
     sorted(ARITHMETIC + ["awcalc.askey_wilson", "awcalc.proof_engine"])),
], ids=["help", "usage-error", "unwritable-out", "verify-identities",
        "build-family", "verify-chain"])
def test_each_command_loads_only_the_modules_it_runs(argv, code, modules, tmp_path):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert loaded_modules(argv) == (code, sorted(modules))
