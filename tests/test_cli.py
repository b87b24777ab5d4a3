"""Command-line interface: wire formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from awcalc import build_family, family_to_dict, make_qcontext, params_from_sigmas
from awcalc.cli import main
from fractions import Fraction


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestVerifyIdentities:
    def test_happy_path(self, capsys):
        code, out, err = run(
            ["verify-identities", "--qsqrt", "1/2", "--trials", "3", "--seed", "7"],
            capsys,
        )
        assert code == 0 and err == ""
        blob = json.loads(out)
        assert blob["context"] == {"v": "1/2", "trials": 3, "seed": 7, "max_degree": 10}
        assert len(blob["checks"]) == 3 * 9  # 4 identities + 5 k-fold per trial
        assert all(c["passed"] for c in blob["checks"])

    def test_deterministic_output(self, capsys):
        argv = ["verify-identities", "--qsqrt", "1/3", "--trials", "4", "--seed", "11"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_zero_trials_is_a_usage_error(self, capsys):
        code, out, err = run(
            ["verify-identities", "--qsqrt", "1/2", "--trials", "0"], capsys
        )
        assert code == 2 and out == "" and "--trials" in err

    def test_bad_v_is_a_usage_error(self, capsys):
        code, out, err = run(["verify-identities", "--qsqrt", "2"], capsys)
        assert code == 2 and out == "" and err != ""

    def test_negative_trials_rejected(self, capsys):
        code, _, _ = run(
            ["verify-identities", "--qsqrt", "1/2", "--trials", "-1"], capsys
        )
        assert code == 2


class TestBuildFamily:
    def test_matches_the_library(self, capsys):
        code, out, _ = run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "4"],
            capsys,
        )
        assert code == 0
        fam = build_family(make_qcontext(Fraction(1, 2)), params_from_sigmas(0, 0, 0, 0), 4)
        assert json.loads(out) == family_to_dict(fam)

    def test_roots_and_sigmas_spell_the_same_family(self, capsys):
        _, by_roots, _ = run(
            ["build-family", "--qsqrt", "1/3", "--params", "1/2,1/3,-1/4,1/5"],
            capsys,
        )
        _, by_sigmas, _ = run(
            ["build-family", "--qsqrt", "1/3", "--sigmas", "47/60,3/40,-1/20,-1/120"],
            capsys,
        )
        assert by_roots == by_sigmas

    @pytest.mark.parametrize("flag,values", [
        ("--sigmas", "-1/2,1/3,1/5,1/7"),
        ("--params", "-1/2,1/3,-1/4,1/5"),
    ])
    def test_negative_first_value_after_a_space(self, flag, values, capsys):
        head = ["build-family", "--qsqrt", "1/2", "--nmax", "3"]
        spaced = run(head + [flag, values], capsys)
        glued = run(head + [f"{flag}={values}"], capsys)
        assert spaced[0] == 0 and spaced == glued

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        target = tmp_path / "fam.json"
        code, out, _ = run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "3", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["N"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-family", "--qsqrt", "1/2"],  # no parameters at all
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--params", "1,2,3,4"],
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0"],
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,4"],  # degenerate
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "-1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and err != ""


class TestVerifyChain:
    def test_fresh_parameters(self, capsys):
        code, out, _ = run(
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "3", "--k", "1,2"],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["context"]["k"] == [1, 2]
        assert blob["context"]["N"] == 3 + 2 + 2
        assert all(c["passed"] for c in blob["checks"])

    def test_family_file_round_trip(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "11/30,-2/15,-1/30,0",
             "--nmax", "7", "--out", str(fam_path)],
            capsys,
        )
        code, out, _ = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "4"], capsys
        )
        assert code == 0
        assert all(c["passed"] for c in json.loads(out)["checks"])

    def test_corrupt_family_fails_checks_not_usage(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "7", "--out", str(fam_path)],
            capsys,
        )
        blob = json.loads(fam_path.read_text())
        blob["C"][2] = "1/7"
        fam_path.write_text(json.dumps(blob))
        code, out, _ = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "4",
             "--format", "text"],
            capsys,
        )
        assert code == 1
        assert "FAIL [" in out

    def test_eq6_checks_its_own_residual(self, tmp_path, capsys):
        # C_6 enters the eq6 displays at n + k - 1 = 6 but not eq3a there
        fam_path = tmp_path / "fam.json"
        run(
            ["build-family", "--qsqrt", "1/2", "--sigmas=1/2,-1,3/4,2",
             "--nmax", "12", "--out", str(fam_path)],
            capsys,
        )
        blob = json.loads(fam_path.read_text())
        blob["C"][5] = str(Fraction(blob["C"][5]) + 1)  # C_6
        fam_path.write_text(json.dumps(blob))
        code, out, _ = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "7",
             "--k", "1,2,3"],
            capsys,
        )
        assert code == 1
        recs = {(c["name"], c["k"], c["n"]): c for c in json.loads(out)["checks"]}
        for k, n in ((1, 6), (2, 5), (3, 4)):
            assert recs[("eq3a", k, n)]["passed"]
            assert recs[("eq3a", k, n)]["witness"] == "0"
            eq6 = recs[("eq6", k, n)]
            assert not eq6["passed"]
            deg, lead = eq6["witness"].split(";")
            assert deg == f"deg={n - 2}"
            assert lead.startswith("lead=") and Fraction(lead[5:]) != 0

    def test_text_format(self, capsys):
        code, out, _ = run(
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "2", "--format", "text"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# {")
        assert lines[-1].endswith("checks passed")
        assert any(": PASS [" in line for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-chain", "--sigmas", "0,0,0,0"],  # no --qsqrt, no --family
            ["verify-chain", "--family", "x.json", "--qsqrt", "1/2"],
            ["verify-chain", "--family", "/nonexistent/fam.json"],
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--k", "0"],
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--k", "a"],
            # no eq_final degree: nothing would be verified
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "0"],
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2 and err != ""

    def test_family_too_small_for_k_is_rejected(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "4", "--out", str(fam_path)],
            capsys,
        )
        # N = 4 = max(k) + 2: no eq_final degree exists at k = 2
        code, out, err = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "4",
             "--k", "1,2"],
            capsys,
        )
        assert code == 2 and out == "" and "nothing to verify" in err

    def test_bool_size_in_family_file(self, tmp_path, capsys):
        blob = family_to_dict(
            build_family(make_qcontext(Fraction(1, 2)), params_from_sigmas(0, 0, 0, 0), 1)
        )
        blob["N"] = True
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps(blob))
        code, out, err = run(["verify-chain", "--family", str(fam_path)], capsys)
        assert code == 2 and out == "" and "N must be an int" in err

    def test_malformed_family_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["verify-chain", "--family", str(bad)], capsys)
        assert code == 2 and "cannot read family file" in err


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["verify-identities", "--qsqrt", "1/2", "--wat"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2


def test_module_entrypoint_is_byte_deterministic(tmp_path):
    argv = [sys.executable, "-m", "awcalc", "verify-identities",
            "--qsqrt", "1/2", "--trials", "2", "--seed", "3"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
