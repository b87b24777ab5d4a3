"""Command-line interface: wire formats, determinism, exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awcalc import (
    PolyX,
    askey_wilson,
    build_family,
    cli,
    make_qcontext,
    params_from_sigmas,
    proof_engine,
    qoperators,
    qpoly,
    run_chain_verification,
)
from awcalc.askey_wilson import family_to_dict
from awcalc.cli import main
from awcalc.errors import InternalError, OrthogonalityBroken
from awcalc.qpoly import random_poly
from awcalc.scalars import format_rational
from helpers import (
    cached_family,
    checkout_env,
    qsqrts,
    record_operator_inputs,
    sigma_vectors,
)
from fractions import Fraction


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def tampered_file(tmp_path, capsys, vtext, sigtext, N, edit):
    """Path of the build-family file of (vtext, sigtext, N) after
    edit(blob) has changed its JSON object in place."""
    fam_path = tmp_path / "fam.json"
    assert run(["build-family", "--qsqrt", vtext, f"--sigmas={sigtext}",
                "--nmax", str(N), "--out", str(fam_path)], capsys)[0] == 0
    blob = json.loads(fam_path.read_text())
    edit(blob)
    fam_path.write_text(json.dumps(blob))
    return fam_path


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

    def test_one_trial_applies_each_operator_once_per_image(self, monkeypatch, capsys):
        # D and S each of f, g and D f .. D^4 f, the images the right sides
        # multiply; the left sides D(fg), S(fg), S S f, D S f and the
        # ladder D^k (x f) are only compared, in the Laurent basis, and
        # never pass through apply_Dq or apply_Sq
        inputs = record_operator_inputs(monkeypatch)
        argv = ["verify-identities", "--qsqrt", "1/3", "--trials", "1", "--seed", "3"]
        assert run(argv, capsys)[0] == 0
        assert {name: len(seen) for name, seen in inputs.items()} == {
            "apply_Dq": 6, "apply_Sq": 6}
        for seen in inputs.values():
            assert len(set(seen)) == len(seen)

    def test_one_trial_converts_thirteen_polynomials_once_each(
            self, monkeypatch, capsys):
        # f, g, f g, x f and the nine right sides; every operator image,
        # S f among them, leaves its kernel with its Laurent form, and the
        # two product rules share one f g. Horner runs on the monomials
        # that from_laurent peels happen outside these calls.
        horner, runs = qpoly._horner, []

        def counting(p):
            runs.append(p)
            return horner(p)

        converted = []

        def converting(p, _to=qoperators.to_laurent):
            before = len(runs)
            lp = _to(p)
            converted.extend(runs[before:])
            return lp

        monkeypatch.setattr(qpoly, "_horner", counting)
        monkeypatch.setattr(qoperators, "to_laurent", converting)
        argv = ["verify-identities", "--qsqrt", "1/3", "--trials", "1", "--seed", "3"]
        assert run(argv, capsys)[0] == 0
        assert len(converted) == 13
        assert len({id(p) for p in converted}) == 13

    def test_no_image_table_outlives_its_trial(self, monkeypatch, capsys):
        # every trial redraws the first trial's f and g, so a table kept
        # from one trial would answer every image of the next
        drawn = []

        def first_pair_again(rng, max_degree):
            i = len(drawn)
            drawn.append(random_poly(rng, max_degree) if i < 2 else drawn[i - 2])
            return drawn[-1]

        monkeypatch.setattr(qpoly, "random_poly", first_pair_again)
        counts = {}
        for trials in (1, 2):
            drawn.clear()
            with monkeypatch.context() as patch:
                inputs = record_operator_inputs(patch)
                argv = ["verify-identities", "--qsqrt", "1/3",
                        "--trials", str(trials), "--seed", "3"]
                assert run(argv, capsys)[0] == 0
            counts[trials] = {name: len(seen) for name, seen in inputs.items()}
        assert counts[2] == {name: 2 * n for name, n in counts[1].items()}

    def test_corrupt_shared_image_fails_the_checks(self, monkeypatch, capsys):
        # the table hands out D f + x for every read of D f in a trial: the
        # records built on it must fail, not pass on a consistent wrong value
        drawn = []

        def recorded_draw(rng, max_degree):
            drawn.append(random_poly(rng, max_degree))
            return drawn[-1]

        class CorruptDf(qoperators.OperatorImages):
            def D(self, p):
                image = super().D(p)
                return image + PolyX.x() if p == drawn[-2] else image

        monkeypatch.setattr(qpoly, "random_poly", recorded_draw)
        monkeypatch.setattr(qoperators, "OperatorImages", CorruptDf)
        argv = ["verify-identities", "--qsqrt", "1/3", "--trials", "1", "--seed", "3"]
        code, out, err = run(argv, capsys)
        assert code == 1 and err == ""
        witness = {rec["name"]: rec["witness"]
                   for rec in json.loads(out)["checks"] if not rec["passed"]}
        for name in ("product_D", "DS_commute"):
            assert re.fullmatch(r"deg=\d+;lead=-?\d+(/\d+)?", witness[name])

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
        code, _, err = run(
            ["verify-identities", "--qsqrt", "1/2", "--trials", "-1"], capsys
        )
        assert code == 2
        assert "argument --trials: must be >= 0, got -1" in err


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

    def test_rationals_past_the_int_str_digit_limit(self, capsys):
        ones = "1" * 5000
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", f"0,0,0,{ones}",
             "--nmax", "2"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(out)["sigmas"] == ["0", "0", "0", ones]
        # rendering big rationals must not lift the interpreter-wide limit
        assert sys.get_int_max_str_digits() == limit

    def test_sigma4_one_is_refused_only_past_degree_0(self, capsys):
        # sigma4 = q^0 makes lambda_1 = lambda_0; lambda_0 alone meets nothing
        head = ["build-family", "--qsqrt", "1/2", "--sigmas=0,0,0,1", "--nmax"]
        code, out, err = run(head + ["0"], capsys)
        assert code == 0, err
        assert json.loads(out)["polys"] == [["1"]]
        code, out, err = run(head + ["1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: sigma4 = q^(-0) collides eigenvalues up to degree 1\n"

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        target = tmp_path / "fam.json"
        code, out, _ = run(
            ["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "3", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["N"] == 3

    USAGE_ERRORS = [
        (["build-family", "--qsqrt", "1/2"],  # no parameters at all
         "error: give exactly one of --params or --sigmas"),
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
          "--params", "1,2,3,4"],
         "error: give exactly one of --params or --sigmas"),
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0"],
         "error: expected 4 comma-separated rationals, got '0,0,0'"),
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,4"],  # degenerate
         "error: sigma4 = q^(-1) collides eigenvalues"),
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "-1"],
         "argument --nmax: must be >= 0, got -1"),
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0", "--nmax", "1",
          "--out", "/nonexistent/dir/fam.json"],
         "error: cannot write output file: "),
        # a family has no text form, so build-family takes no --format
        (["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
          "--format", "text"],
         "unrecognized arguments: --format text"),
    ]

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
    def test_usage_errors(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and message in err


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

    def test_family_file_gives_the_report_of_fresh_parameters(self, tmp_path, capsys):
        # a loaded family and a built one meet here: both runs have N = 7
        fam_path = tmp_path / "fam.json"
        run(
            ["build-family", "--qsqrt", "1/2", "--sigmas=11/30,-2/15,-1/30,0",
             "--nmax", "7", "--out", str(fam_path)],
            capsys,
        )
        loaded = run(["verify-chain", "--family", str(fam_path), "--nmax", "4",
                      "--k", "1"], capsys)
        fresh = run(["verify-chain", "--qsqrt", "1/2",
                     "--sigmas=11/30,-2/15,-1/30,0", "--nmax", "4", "--k", "1"],
                    capsys)
        assert fresh[0] == 0
        assert loaded == fresh

    # A tampered family file is refused at load time (FamilyMismatch, exit 1)
    # before any record is made, so each of these tests also runs the chain
    # on the same tampered family built in memory: the records and
    # derived_family must still catch a family that lies.
    def test_corrupt_family_fails_checks_not_usage(self, tmp_path, capsys):
        fam_path = tampered_file(
            tmp_path, capsys, "1/2", "0,0,0,0", 7,
            lambda blob: blob["C"].__setitem__(2, "1/7"))
        code, out, err = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "4",
             "--format", "text"],
            capsys,
        )
        assert code == 1 and out == "" and "C[2]" in err

        fam = cached_family("1/2", "0,0,0,0", 7)
        bad = replace(fam, C=fam.C[:2] + (Fraction(1, 7),) + fam.C[3:])
        report = run_chain_verification(bad, [1], 4)
        assert not report.all_passed
        assert "FAIL [" in cli._render(report, "text")

    def test_eq6_checks_its_own_residual(self, tmp_path, capsys):
        # C_6 enters the eq6 displays at n + k - 1 = 6 but not eq3a there
        def bump_c6(blob):
            blob["C"][5] = str(Fraction(blob["C"][5]) + 1)

        fam_path = tampered_file(tmp_path, capsys, "1/2", "1/2,-1,3/4,2", 12,
                                 bump_c6)
        code, out, err = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "7",
             "--k", "1,2,3"],
            capsys,
        )
        assert code == 1 and out == "" and "C[5]" in err

        fam = cached_family("1/2", "1/2,-1,3/4,2", 12)
        bad = replace(fam, C=fam.C[:5] + (fam.C[5] + 1,) + fam.C[6:])
        report = run_chain_verification(bad, [1, 2, 3], 7)
        assert not report.all_passed
        recs = {(c.name, c.k, c.n): c for c in report.checks}
        for k, n in ((1, 6), (2, 5), (3, 4)):
            assert recs[("eq3a", k, n)].passed
            assert recs[("eq3a", k, n)].witness == "0"
            eq6 = recs[("eq6", k, n)]
            assert not eq6.passed
            deg, lead = eq6.witness.split(";")
            assert deg == f"deg={n - 2}"
            assert lead.startswith("lead=") and Fraction(lead[5:]) != 0

    # D^2 x = 0, so the changed x coefficient of p_3 breaks P^[1] only;
    # a run at k = 3 alone still builds P^[3] through P^[1] and P^[2]
    @pytest.mark.parametrize("ks", ["1,2,3", "3"])
    def test_broken_ladder_names_its_order(self, ks, tmp_path, capsys):
        def bump_p3(blob):
            blob["polys"][3][1] = str(Fraction(blob["polys"][3][1]) + 1)

        fam_path = tampered_file(tmp_path, capsys, "1/2", "1/2,-1,3/4,2", 12,
                                 bump_p3)
        code, out, err = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "7",
             "--k", ks],
            capsys,
        )
        assert code == 1 and out == "" and "polys[3]" in err

        fam = cached_family("1/2", "1/2,-1,3/4,2", 12)
        polys = list(fam.polys)
        polys[3] = polys[3] + PolyX.x()
        bad = replace(fam, polys=tuple(polys))
        with pytest.raises(OrthogonalityBroken, match="derived family k=1:"):
            run_chain_verification(bad, [int(k) for k in ks.split(",")], 7)

    # the family of the relabelling found in the ROADMAP (item 12)
    ITEM12 = ("1/3", "-3/2,2,1/4,-1", 10)

    def test_relabelled_sigmas_are_refused(self, tmp_path, capsys):
        fam_path = tampered_file(tmp_path, capsys, *self.ITEM12, lambda blob: None)
        argv = ["verify-chain", "--family", str(fam_path), "--nmax", "7",
                "--k", "1,2,3"]
        assert run(argv, capsys)[0] == 0
        blob = json.loads(fam_path.read_text())
        blob["sigmas"] = ["1/2", "-1", "3/4", "2"]
        fam_path.write_text(json.dumps(blob))
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == ("error: polys[1] differs from the family that v, "
                       "sigmas and N determine\n")

    def test_changed_b0_is_refused(self, tmp_path, capsys):
        # no chain record reads B_0, so only the load-time rebuild sees this
        fam_path = tampered_file(tmp_path, capsys, *self.ITEM12,
                                 lambda blob: blob["B"].__setitem__(0, "12345"))
        code, out, err = run(
            ["verify-chain", "--family", str(fam_path), "--nmax", "7",
             "--k", "1,2,3"],
            capsys,
        )
        assert code == 1 and out == "" and "error: B[0] differs" in err

    def test_equal_but_non_canonical_entry_is_refused(self, tmp_path, capsys):
        # the stored lists must be exactly what build-family writes
        def double_terms(blob):
            value = Fraction(blob["B"][1])
            blob["B"][1] = f"{2 * value.numerator}/{2 * value.denominator}"
            assert Fraction(blob["B"][1]) == value

        fam_path = tampered_file(tmp_path, capsys, *self.ITEM12, double_terms)
        code, out, err = run(["verify-chain", "--family", str(fam_path),
                              "--nmax", "7"], capsys)
        assert code == 1 and out == "" and "error: B[1] differs" in err

    def test_huge_n_is_a_usage_error_before_any_build(
            self, tmp_path, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("a family was built before the header check")

        monkeypatch.setattr(askey_wilson, "solve_operator_equation", no_build)
        monkeypatch.setattr(askey_wilson, "_recurrence_data", no_build)
        blob = json.loads(json.dumps(FAMILY_BLOB))
        blob["N"] = 10**30
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps(blob))
        assert len(blob["polys"]) == 7
        code, out, err = run(["verify-chain", "--family", str(fam_path)], capsys)
        assert code == 2 and out == "" and "polys must be a list of" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob.update(N=28, polys=[["x"]] * 29),
         "not a rational literal: 'x'"),
        (lambda blob: blob["polys"].__setitem__(2, "1"),
         "polys[2] must be a list of rational strings"),
        (lambda blob: blob["B"].__setitem__(0, 0.5),
         "not a rational literal: 0.5"),
        (lambda blob: blob.update(C="0"), "C must be a list of rational strings"),
    ], ids=["polys-literal", "polys-entry", "B-literal", "C-list"])
    def test_malformed_entries_are_usage_errors_before_any_build(
            self, edit, message, tmp_path, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("a family was built before the entry check")

        monkeypatch.setattr(askey_wilson, "solve_operator_equation", no_build)
        monkeypatch.setattr(askey_wilson, "_recurrence_data", no_build)
        blob = json.loads(json.dumps(FAMILY_BLOB))
        edit(blob)
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps(blob))
        code, out, err = run(["verify-chain", "--family", str(fam_path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_rejected_before_the_run(
            self, where, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the chain ran before --out was checked")

        monkeypatch.setattr(proof_engine, "run_chain_verification", no_run)
        target = tmp_path / "no" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run(
            ["verify-chain", "--qsqrt", "1/2", "--sigmas", "0,0,0,0",
             "--nmax", "3", "--out", str(target)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output file: ")
        assert str(target) in err

    def test_malformed_family_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for content in (b"{not json", b"\xff\xfe{"):  # not JSON; not UTF-8
            bad.write_bytes(content)
            code, _, err = run(["verify-chain", "--family", str(bad)], capsys)
            assert code == 2 and err.startswith("error: cannot read family file: ")


@pytest.mark.parametrize("error, code, line", [
    (RuntimeError, 3, "error: internal fault: RuntimeError: boom\n"),
    (InternalError, 3, "error: internal fault: InternalError: boom\n"),
    (OrthogonalityBroken, 1, "error: boom\n"),
], ids=["RuntimeError", "InternalError", "OrthogonalityBroken"])
def test_runner_error_exit_code(monkeypatch, capsys, error, code, line):
    # a bug, raised by awcalc (InternalError) or not, exits 3 on one line;
    # the other AWCalcErrors are verification errors and keep exit 1
    def broken(args):
        raise error("boom")
    monkeypatch.setattr(cli, "_run_build", broken)
    assert run(["build-family", "--qsqrt", "1/2", "--sigmas", "0,0,0,0"],
               capsys) == (code, "", line)


# argv fuzz. Caps keep every call short: --nmax at most 6 (a chain run then
# builds N <= 11), --trials at most 2, --k at most 3, family files of N = 6.


def mostly(valid, malformed):
    """Draw from valid three times in four, else from malformed."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else malformed)


RATIONAL_TEXTS = st.one_of(
    st.sampled_from(["1/2", "2/3", "0", "1", "-1/3", "7/5", "1/0", "0/0", "3/-4",
                     "+1/2", "1.5", "1e3", " 1/2", "1//2", "", "-", "/",
                     "10" * 30, "-1/" + "7" * 40]),
    st.text(alphabet="0123456789/-+.e ", max_size=6),
)
MALFORMED_COUNTS = st.sampled_from(["", "x", "2.5", "1e1", "-1", "-0", " 3", "+1",
                                    "0", "1"])
FOUR_TEXTS = mostly(
    sigma_vectors.map(lambda s: ",".join(format_rational(x) for x in s)),
    st.lists(RATIONAL_TEXTS, min_size=3, max_size=5).map(",".join),
)
FAMILY_BLOB = family_to_dict(
    build_family(make_qcontext(Fraction(1, 2)), params_from_sigmas(0, 0, 0, 0), 6))
# copied, so that no drawn list is shared between examples or with itself
MISTYPED = st.sampled_from(
    [None, True, -1, 0, 7, 10**30, 1.5, "x", "1/2", "1/3", [], ["1/2"], {}, [[]]]
).map(copy.deepcopy)


@st.composite
def family_files(draw):
    """Bytes of a family file: FAMILY_BLOB with keys dropped, added or
    retyped, list entries retyped, and sometimes cut short or not UTF-8."""
    blob = json.loads(json.dumps(FAMILY_BLOB))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(FAMILY_BLOB) + ["extra"]))
        action = draw(st.sampled_from(["drop", "retype", "entry", "nested"]))
        value = draw(MISTYPED)
        target = blob.get(key)
        if action == "drop":
            blob.pop(key, None)
        elif action == "retype" or not isinstance(target, list) or not target:
            blob[key] = value
        else:
            i = draw(st.integers(0, len(target) - 1))
            if action == "nested" and isinstance(target[i], list) and target[i]:
                target[i][draw(st.integers(0, len(target[i]) - 1))] = value
            else:
                target[i] = value
    data = json.dumps(blob).encode()
    return draw(st.sampled_from([data, data, data[: len(data) // 2], b"\xff" + data]))


FLAG_VALUES = {
    "--qsqrt": mostly(qsqrts.map(format_rational), RATIONAL_TEXTS),
    "--sigmas": FOUR_TEXTS,
    "--params": FOUR_TEXTS,
    "--nmax": mostly(st.integers(2, 6).map(str), MALFORMED_COUNTS),
    "--trials": mostly(st.integers(1, 2).map(str), MALFORMED_COUNTS),
    "--seed": mostly(st.integers(0, 10**30).map(str), MALFORMED_COUNTS),
    "--k": mostly(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda ks: ",".join(map(str, ks))),
        st.one_of(st.sampled_from(["", "a", "0", "-1", "1,,2", ",", " 1", "1.0", "+2"]),
                  st.lists(st.integers(-1, 3), max_size=3).map(
                      lambda ks: ",".join(map(str, ks))))),
    "--format": mostly(st.sampled_from(["json", "text"]), st.sampled_from(["xml", ""])),
    # bytes stand for a family file with that content
    "--family": mostly(family_files(), st.just("no/such/family.json")),
}
# where the parameters come from, malformed combinations included
SOURCES = {
    "verify-identities": [("--qsqrt",)],
    "build-family": [("--qsqrt", "--sigmas"), ("--qsqrt", "--params"),
                     ("--qsqrt", "--params", "--sigmas")],
    "verify-chain": [("--qsqrt", "--sigmas"), ("--qsqrt", "--params"),
                     ("--family",), ("--family", "--qsqrt"),
                     ("--qsqrt", "--params", "--sigmas")],
}
# always given, since the defaults (20 trials, nmax 8) are past the caps
CAPPED = {
    "verify-identities": ("--trials",),
    "build-family": ("--nmax",),
    "verify-chain": ("--nmax",),
}
OPTIONS = {
    "verify-identities": ("--seed", "--format"),
    "build-family": (),
    "verify-chain": ("--k", "--format"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SOURCES)))
    names = list(draw(st.sampled_from(SOURCES[command]))) + list(CAPPED[command])
    names += [name for name in OPTIONS[command] if draw(st.booleans())]
    argv = [command]
    for name in names:
        argv += [name, draw(FLAG_VALUES[name])]
    return argv


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("families")


@given(argv=argvs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_no_input_is_an_internal_fault(family_dir, argv):
    for i, value in enumerate(argv):
        if isinstance(value, bytes):
            path = family_dir / "family.json"
            path.write_bytes(value)
            argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    lines = err.splitlines()
    errors = [line for line in lines if "error: " in line]
    # main prints one "error: " line; argparse prints its usage lines first
    assert err == "" or (len(errors) == 1 and lines[-1] == errors[0] and (
        len(lines) == 1 or lines[0].startswith("usage: "))), (argv, err)


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["verify-identities", "--qsqrt", "1/2", "--wat"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2

    def test_non_integer_count_names_the_flag(self, capsys):
        code, _, err = run(["build-family", "--qsqrt", "1/2", "--nmax", "2.5"], capsys)
        assert code == 2 and "argument --nmax: expected an integer, got '2.5'" in err

    @pytest.mark.parametrize("command, shared", [
        ("verify-identities", ("--qsqrt",)),
        ("build-family", ("--qsqrt", "--params", "--sigmas")),
        ("verify-chain", ("--qsqrt", "--params", "--sigmas")),
    ])
    def test_shared_options_carry_the_same_help(self, command, shared, capsys):
        helps = {"--qsqrt": "rational v = q^(1/2), 0 < v < 1, e.g. 1/2",
                 "--params": "four rational roots",
                 "--sigmas": "four elementary symmetric functions"}
        code, out, _ = run([command, "--help"], capsys)
        text = " ".join(out.split())  # argparse wraps to the terminal width
        assert code == 0
        for flag in shared:
            assert helps[flag] in text, flag


# sha256 of stdout, recorded when each degree was still solved by its own
# triangular system (build, chain; a build now generates p_n by the
# three-term recurrence read off L) and before the identity checks shared
# their images (identities); any change to the output bytes shows here. The
# chain digest was re-recorded when no_common_zeros became a resultant mod a
# prime and the aw_shift records were added.
GOLDEN_OUTPUTS = [
    (["build-family", "--qsqrt", "1/2", "--sigmas=11/30,-2/15,-1/30,0",
      "--nmax", "12"],
     "00ccf731c79b2b9b68573814620fa462693352cb79fbad32f46adcc0f720e2cd"),
    (["verify-chain", "--qsqrt", "1/3", "--sigmas=-3/2,2,1/4,-1", "--nmax", "7",
      "--k", "1,2,3"],
     "0dff421c2103c2713275c70f2722f52d372b292b32fcd35d54c104da40d1415a"),
    (["verify-identities", "--qsqrt", "2/3", "--trials", "3", "--seed", "5"],
     "85c317fd45a8cf6e9f0ca6fe6da055075d5b56b769162bc4c27c2b57112e06ad"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_OUTPUTS,
                         ids=[argv[0] for argv, _ in GOLDEN_OUTPUTS])
def test_output_bytes_are_pinned(argv, digest):
    done = subprocess.run([sys.executable, "-m", "awcalc", *argv],
                          capture_output=True, env=checkout_env())
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_chain_on_a_base_smaller_than_its_window(tmp_path):
    # the golden chain's window is N = 7 + 3 + 2 = 12; on a base of N = 6
    # the ladder, chain and nonvanishing windows of k = 3 (M = 3) are
    # 1..3, 2..2 and empty, where the golden run reaches n_max in all three
    fam_path = tmp_path / "fam6.json"
    env = checkout_env()
    built = subprocess.run(
        [sys.executable, "-m", "awcalc", "build-family", "--qsqrt", "1/3",
         "--sigmas=-3/2,2,1/4,-1", "--nmax", "6", "--out", str(fam_path)],
        capture_output=True, env=env)
    assert built.returncode == 0, built.stderr
    done = subprocess.run(
        [sys.executable, "-m", "awcalc", "verify-chain", "--family",
         str(fam_path), "--nmax", "7", "--k", "1,2,3"],
        capture_output=True, env=env)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "b4b775e932c8202f10cdee80933536257789b4df3a2daee58dfa1dc4ab267285")
    checks = json.loads(done.stdout)["checks"]
    assert len(checks) == 100
    keys = {}
    for rec in checks:
        if rec["k"] == 3:
            keys.setdefault(rec["name"], []).append(rec["n"])
    assert keys == {
        "eq1a": [1, 2, 3], "no_common_zeros": [1, 2, 3],
        "eq1b": [2, 3], "eq7": [3],
        "eq3": [2], "eq4": [2], "eq3b": [2], "eq3a": [2], "eq6": [2],
        "eq_final": [2], "proportionality": [2], "lambda_formula": [2],
        "aw_form_match": [None], "aw_shift": [None],
    }


def test_chain_runs_past_the_int_str_digit_limit():
    # a sigma of 5,001 digits is read, echoed in the context, and carried
    # into nonzero_* witnesses that run past 4,300 digits
    sigma1 = f"1{'0' * 4999}1/3"
    done = subprocess.run(
        [sys.executable, "-m", "awcalc", "verify-chain", "--qsqrt", "1/3",
         f"--sigmas={sigma1},3/40,-1/20,-1/120", "--nmax", "3", "--k", "1"],
        capture_output=True, env=checkout_env())
    assert done.returncode == 0, done.stderr
    blob = json.loads(done.stdout)
    assert blob["context"]["sigmas"][0] == sigma1
    checks = blob["checks"]
    assert all(c["passed"] for c in checks)
    digits = [len(part) for c in checks if c["name"].startswith("nonzero_")
              for part in c["witness"].lstrip("-").split("/")]
    assert max(digits) > 4300


def test_module_entrypoint_is_byte_deterministic(tmp_path):
    argv = [sys.executable, "-m", "awcalc", "verify-identities",
            "--qsqrt", "1/2", "--trials", "2", "--seed", "3"]
    env = checkout_env()
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
