"""Command line front end.

Three subcommands:

  verify-identities   seeded random trials of the operator identities and
                      the k-fold rule at a given v
  build-family        solve the operator equation up to degree nmax and
                      emit the family as JSON
  verify-chain        run the full equation chain for one or more k, on a
                      freshly built family or on a family file

Exit codes: 0 when every check passed; 1 when a check failed or a family
file differs from the family its v, sigmas and N determine; 2 for bad
input or parameters, an unreadable family file, an unwritable --out path
or a run that would check nothing; 3 for an InternalError or any other
unexpected exception, on one line. Output is byte-deterministic per argv.

Each runner imports the computational modules it uses when it runs, so a
process loads only what its subcommand needs: --help, a usage error or an
unwritable --out load none of them, verify-identities loads scalars, qpoly
and qoperators, build-family adds askey_wilson, and only verify-chain loads
proof_engine.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import AWCalcError, DomainError, InternalError, UsageError

if TYPE_CHECKING:
    from .qoperators import ProofReport

# identity trials draw polynomials up to this degree
MAX_TRIAL_DEGREE = 10
KFOLD_MAX = 5
# argparse reads "--sigmas -1/2,1,1,1" as two flags; _glue_negative_values
# rewrites such a pair to "--sigmas=-1/2,1,1,1"
_FLAG_RE = re.compile(r"--[a-z][a-z-]*")
_NEGATIVE_RE = re.compile(r"-\d")


def _nonneg_int(text: str) -> int:
    # argparse prints an ArgumentTypeError's own message after the flag name
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_four(text: str) -> tuple:
    from .scalars import parse_rational

    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected 4 comma-separated rationals, got {text!r}")
    return tuple(parse_rational(p) for p in parts)


def _parse_klist(text: str) -> list[int]:
    try:
        ks = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad k list {text!r}") from exc
    return ks


def _glue_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and _FLAG_RE.fullmatch(out[-1]) and _NEGATIVE_RE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _params_from_args(args) -> object:
    from .askey_wilson import params_from_roots, params_from_sigmas

    if (args.params is None) == (args.sigmas is None):
        raise UsageError("give exactly one of --params or --sigmas")
    if args.params is not None:
        return params_from_roots(*_parse_four(args.params))
    return params_from_sigmas(*_parse_four(args.sigmas))


def _check_out(path: str) -> None:
    """Raise the OSError that writing the output to path would raise, for
    a missing parent directory or a directory target, before any work."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not target.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output file: {exc}", file=sys.stderr)
    return 2


def _run_identities(args) -> tuple[str, bool]:
    from .qoperators import (
        IDENTITIES,
        CheckRecord,
        OperatorImages,
        ProofReport,
        verify_identity,
        verify_k_fold_rule,
    )
    from .qpoly import random_poly
    from .scalars import format_rational, make_qcontext, parse_rational

    if args.trials == 0:
        raise UsageError("--trials 0 runs no checks; need at least 1")
    ctx = make_qcontext(parse_rational(args.qsqrt))
    rng = random.Random(args.seed)
    records: list[CheckRecord] = []
    for t in range(args.trials):
        f = random_poly(rng, MAX_TRIAL_DEGREE)
        g = random_poly(rng, MAX_TRIAL_DEGREE)
        # the nine checks of a trial share one image table; the next trial
        # draws new polynomials and starts a new one
        images = OperatorImages(ctx)
        checks = [(None, verify_identity(images, which, f, g))
                  for which in IDENTITIES]
        checks += enumerate(verify_k_fold_rule(images, f, KFOLD_MAX), 1)
        records.extend(CheckRecord.of(res, k, t) for k, res in checks)
    context = {
        "v": format_rational(ctx.v),
        "trials": args.trials,
        "seed": args.seed,
        "max_degree": MAX_TRIAL_DEGREE,
    }
    report = ProofReport(context=context, checks=tuple(records))
    return _render(report, args.format), report.all_passed


def _run_build(args) -> tuple[str, bool]:
    from .askey_wilson import build_family, family_to_dict
    from .scalars import make_qcontext, parse_rational

    ctx = make_qcontext(parse_rational(args.qsqrt))
    params = _params_from_args(args)
    family = build_family(ctx, params, args.nmax)
    return json.dumps(family_to_dict(family), indent=2) + "\n", True


def _run_chain(args) -> tuple[str, bool]:
    from .askey_wilson import build_family, family_from_dict
    from .proof_engine import chain_orders, chain_window, run_chain_verification
    from .scalars import make_qcontext, parse_rational

    ks = _parse_klist(args.k)
    if args.family is not None:
        if args.qsqrt or args.params or args.sigmas:
            raise UsageError(
                "--family already fixes v and the parameters; drop "
                "--qsqrt/--params/--sigmas"
            )
        try:
            data = json.loads(Path(args.family).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read family file: {exc}") from exc
        base = family_from_dict(data)
    else:
        if args.qsqrt is None:
            raise UsageError("--qsqrt is required unless --family is given")
        ctx = make_qcontext(parse_rational(args.qsqrt))
        params = _params_from_args(args)
        N = chain_window(ks, args.nmax)
        chain_orders(ks, N, args.nmax)
        base = build_family(ctx, params, N)
    report = run_chain_verification(base, ks, args.nmax)
    return _render(report, args.format), report.all_passed


def _render(report: ProofReport, fmt: str) -> str:
    # dataclasses loads inspect; here it is only needed once there is a report
    from dataclasses import asdict

    if fmt == "json":
        return json.dumps(asdict(report), indent=2) + "\n"
    lines = [f"# {json.dumps(report.context)}"]
    for rec in report.checks:
        kpart = f" k={rec.k}" if rec.k is not None else ""
        npart = f" n={rec.n}" if rec.n is not None else ""
        status = "PASS" if rec.passed else "FAIL"
        lines.append(f"{rec.name}{kpart}{npart}: {status} [{rec.witness}]")
    good = sum(1 for rec in report.checks if rec.passed)
    lines.append(f"{good}/{len(report.checks)} checks passed")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awcalc",
        description="exact operator calculus on the q-quadratic lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pi = sub.add_parser(
        "verify-identities",
        help="check the operator identities on seeded random polynomials",
    )
    pb = sub.add_parser(
        "build-family",
        help="solve the operator equation up to degree nmax; emits JSON",
    )
    pc = sub.add_parser(
        "verify-chain",
        help="verify the equation chain for the derived families",
    )
    # verify-chain takes v from --family when one is given
    for p in (pi, pb, pc):
        p.add_argument("--qsqrt", required=p is not pc, default=None,
                       metavar="R",
                       help="rational v = q^(1/2), 0 < v < 1, e.g. 1/2")
    for p in (pb, pc):
        p.add_argument("--params", default=None, metavar="A,B,C,D",
                       help="four rational roots")
        p.add_argument("--sigmas", default=None, metavar="S1,S2,S3,S4",
                       help="four elementary symmetric functions")
    pi.add_argument("--trials", type=_nonneg_int, default=20,
                    help="number of random polynomial pairs (default 20)")
    pi.add_argument("--seed", type=_nonneg_int, default=0,
                    help="RNG seed (default 0)")
    pb.add_argument("--nmax", type=_nonneg_int, default=8,
                    help="largest degree to build (default 8)")
    pc.add_argument("--family", default=None, metavar="PATH",
                    help="verify a stored family file instead of building one")
    pc.add_argument("--nmax", type=_nonneg_int, default=8,
                    help="largest degree to verify (default 8)")
    pc.add_argument("--k", default="1", metavar="LIST",
                    help="comma-separated derivation orders (default 1)")
    # a family has no text form, so build-family takes no --format
    for p in (pi, pc):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default json)")
    for p in (pi, pb, pc):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    runner = {
        "verify-identities": _run_identities,
        "build-family": _run_build,
        "verify-chain": _run_chain,
    }[args.command]
    if args.out is not None:
        try:
            _check_out(args.out)
        except OSError as exc:
            return _cannot_write(exc)
    try:
        text, all_passed = runner(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, AWCalcError) and not isinstance(exc, InternalError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # exit 1 must keep meaning "a check failed", so a bug gets its own code
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            return _cannot_write(exc)
    else:
        sys.stdout.write(text)
    return 0 if all_passed else 1
