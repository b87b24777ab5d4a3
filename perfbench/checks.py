"""Output checks that do not trust the program.

Nothing here imports awcalc. Families are rechecked with plain Fractions:
each p_n must be monic of degree n, and

    x p_n = p_(n+1) + B_n p_n + C_n p_(n-1)

must hold exactly, coefficient by coefficient. Reports must be non-empty,
every record must have passed, and the context must echo what the op asked
for. ``check_output`` returns a list of problems; empty means the op passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import IDENTITY_RECORDS_PER_TRIAL, Op, fmt

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_RATIONAL_IN_TEXT_RE = re.compile(r"-?\d+(?:/\d+)?")
_RECORD_KEYS = {"name", "k", "n", "passed", "witness"}


def _rational(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def _poly(items) -> list[Fraction]:
    if not isinstance(items, list):
        raise ValueError(f"polynomial is not a list: {items!r}")
    return [_rational(c) for c in items]


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _scale(c: Fraction, p: list) -> list:
    return [c * a for a in p]


def check_family(data, op: Op) -> list[str]:
    """Shape, echo, monicity and the exact three-term recurrence."""
    if not isinstance(data, dict):
        return ["family is not a JSON object"]
    missing = {"v", "sigmas", "N", "polys", "B", "C"} - set(data)
    if missing:
        return [f"family misses keys {sorted(missing)}"]
    problems = []
    N = data["N"]
    if type(N) is not int or N != op.N:
        problems.append(f"N is {N!r}, requested {op.N}")
    if data["v"] != fmt(op.v):
        problems.append(f"v is {data['v']!r}, requested {fmt(op.v)}")
    if data["sigmas"] != [fmt(s) for s in op.sigmas]:
        problems.append(f"sigmas {data['sigmas']!r} do not echo the request")
    if problems:
        return problems
    try:
        polys = [_poly(p) for p in data["polys"]]
        bs = [_rational(b) for b in data["B"]]
        cs = [_rational(c) for c in data["C"]]
    except (TypeError, ValueError) as exc:
        return [f"malformed family: {exc}"]
    if len(polys) != N + 1 or len(bs) != N or len(cs) != max(N - 1, 0):
        return [f"family lists have lengths {len(polys)}, {len(bs)}, "
                f"{len(cs)} for N={N}"]
    for n, p in enumerate(polys):
        if len(p) != n + 1 or p[-1] != 1:
            problems.append(f"p_{n} is not monic of degree {n}")
    if problems:
        return problems
    for n in range(N):
        # x p_n - p_(n+1) - B_n p_n - C_n p_(n-1) must vanish identically
        res = _sub([Fraction(0)] + polys[n], polys[n + 1])
        res = _sub(res, _scale(bs[n], polys[n]))
        if n >= 1:
            res = _sub(res, _scale(cs[n - 1], polys[n - 1]))
        if any(res):
            problems.append(f"recurrence fails at n={n}")
    return problems


def _check_records(checks) -> list[str]:
    if not isinstance(checks, list) or not checks:
        return ["report has no checks"]
    problems = []
    for rec in checks:
        if not isinstance(rec, dict) or set(rec) != _RECORD_KEYS:
            problems.append(f"malformed record {rec!r}")
        elif rec["passed"] is not True:
            problems.append(f"record {rec['name']} k={rec['k']} n={rec['n']} "
                            f"failed: {rec['witness']}")
    return problems


def check_report(data, op: Op) -> list[str]:
    """Non-empty checks, all passed, and a context echoing the request."""
    if not isinstance(data, dict) or set(data) != {"context", "checks"}:
        return ["report is not an object with context and checks"]
    ctx = data["context"]
    if not isinstance(ctx, dict):
        return ["report context is not an object"]
    if op.kind == "identities":
        want = {"v": fmt(op.v), "trials": op.trials, "seed": op.seed}
    else:
        want = {"v": fmt(op.v), "sigmas": [fmt(s) for s in op.sigmas],
                "N": op.N, "n_max": op.nmax, "k": list(op.ks)}
    problems = [f"context {key}={ctx.get(key)!r}, requested {value!r}"
                for key, value in want.items() if ctx.get(key) != value]
    problems += _check_records(data["checks"])
    if op.kind == "identities" and not problems:
        expected = op.trials * IDENTITY_RECORDS_PER_TRIAL
        if len(data["checks"]) != expected:
            problems.append(f"{len(data['checks'])} records, expected {expected}")
    return problems


def check_output(op: Op, returncode: int, stdout: bytes) -> list[str]:
    """Every problem with one op's result; empty means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if op.kind == "build":
        return check_family(data, op)
    return check_report(data, op)


def work_done(op: Op, stdout: bytes) -> int:
    """Completed work of a passed op: records for reports, polynomials
    emitted for families."""
    data = json.loads(stdout)
    if op.kind == "build":
        return len(data["polys"])
    return len(data["checks"])


def max_coeff_bits(stdout: bytes) -> int:
    """Largest numerator or denominator bit length among the rationals an
    output prints: coefficients, recurrence values, sigmas, v and the
    rationals inside witnesses. JSON integers (N, n, k, seed, trials) and
    record names are not coefficients and are skipped."""
    best = 0

    def walk(node) -> None:
        nonlocal best
        if isinstance(node, dict):
            for key, value in node.items():
                if key != "name":
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, str):
            for token in _RATIONAL_IN_TEXT_RE.findall(node):
                for part in token.lstrip("-").split("/"):
                    best = max(best, int(part).bit_length())

    walk(json.loads(stdout))
    return best
