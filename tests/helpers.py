"""Shared fixtures and independent oracles for the test suite.

The operator oracles here deliberately avoid the library's Laurent
machinery: they expand f((z + 1/z)/2) as a raw exponent -> coefficient
dict, apply the z-shifts straight from the operator definitions, and
divide out the denominator by exact long division on dicts. Agreement
with apply_Dq / apply_Sq is then a genuine two-route check rather than
the library testing itself.

The other oracles live here for the same reason, since nothing but the
tests reads them: evaluate (Horner evaluation, against which the ring
operations of PolyX are checked), laurent_product (the product of two
Laurent forms on exponent dicts, which LaurentSym itself lacks),
gamma_factorial and dq_power (the normalisation and the k-fold D of the
derived families' definition), and chain_coeffs_by_elimination, which
re-derives every chain display by anchored elimination on the ladder rows,
with no closed forms, and must agree with proof_engine.chain_coeffs
exactly.

sylvester_resultant is the resultant as a determinant: it clears
denominators, lays out the Sylvester matrix and runs fraction-free
(Bareiss) elimination on it. qpoly.resultant gets the same value from
Euclid's remainder sequence, so the two share no step past the input
coefficients. The determinant costs O(n^3) big-integer operations, which
is why it lives here and not in src/.

is_mersenne_prime is the Lucas-Lehmer test, which proves 2^e - 1 prime or
composite; it checks the primes of the no_common_zeros certificate.

kls_recurrence is the recurrence of the Askey-Wilson polynomials from
Koekoek, Lesky and Swarttouw, "Hypergeometric Orthogonal Polynomials and
Their q-Analogues" (2010), section 14.1, in closed form in the four roots.
It reads no D, S, operator equation or ladder, so it is the ground truth
for build_family's recurrence data, and through family_from_dict for what
a family file must store. kls_polys runs that recurrence forward from
p_0 = 1, which gives the ground truth for the polynomials themselves.

record_operator_inputs patches qoperators.apply_Dq and apply_Sq, which
every image table calls, to record each input polynomial; the operator
counting tests of every module share it.

qsqrts and sigma_vectors are the Hypothesis strategies for random
parameter points: v = q^(1/2) in (0, 1) and sigma vectors, both with small
numerators and denominators so that a family of modest size builds fast.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from awcalc import build_family, make_qcontext, params_from_sigmas, qoperators
from awcalc.errors import DomainError, InternalError
from awcalc.proof_engine import ChainCoeffs
from awcalc.qoperators import apply_Dq, structural_polys
from awcalc.qpoly import LaurentSym, PolyX
from awcalc.scalars import alpha_k, gamma, parse_rational

# (v, sigmas) of the standard test families
QHERMITE = ("1/2", "0,0,0,0")
SET_B = ("1/2", "11/30,-2/15,-1/30,0")
SET_C = ("1/3", "47/60,3/40,-1/20,-1/120")  # roots 1/2, 1/3, -1/4, 1/5
PARAM_SETS = (QHERMITE, SET_B, SET_C)
SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict[str, str]:
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    child process imports the awcalc under test, not an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def record_operator_inputs(monkeypatch) -> dict[str, list[PolyX]]:
    """Patch qoperators.apply_Dq/apply_Sq, which every image table calls,
    to record each input polynomial, in call order, per operator name."""
    inputs = {"apply_Dq": [], "apply_Sq": []}
    for name, seen in inputs.items():
        def recording(ctx, p, _apply=getattr(qoperators, name), _seen=seen):
            _seen.append(p)
            return _apply(ctx, p)
        monkeypatch.setattr(qoperators, name, recording)
    return inputs


qsqrts = st.integers(2, 7).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den)))
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nonzero_rationals = st.builds(Fraction, st.integers(-6, -1) | st.integers(1, 6),
                              st.integers(1, 6))
sigma_vectors = st.tuples(small_rationals, small_rationals, small_rationals,
                          small_rationals)


@lru_cache(maxsize=None)
def cached_family(vtext: str, sigtext: str, N: int):
    ctx = make_qcontext(parse_rational(vtext))
    sigmas = tuple(parse_rational(s) for s in sigtext.split(","))
    return build_family(ctx, params_from_sigmas(*sigmas), N)


def kls_recurrence(a, b, c, d, q, N: int) -> tuple[tuple, tuple]:
    """(B_0..B_(N-1), C_1..C_(N-1)) of the monic Askey-Wilson polynomials
    in x = (z + 1/z)/2 with roots a, b, c, d and base q, from KLS 14.1:

        x p_n = p_(n+1) + (a + 1/a - A_n - C_n)/2 p_n + A_(n-1) C_n/4 p_(n-1)

    with KLS's A_n and C_n. a must be nonzero unless all four roots are
    zero, the continuous q-Hermite limit B_n = 0, C_n = (1 - q^n)/4. A
    vanishing denominator raises ZeroDivisionError."""
    a, b, c, d, q = (Fraction(t) for t in (a, b, c, d, q))
    if not (a or b or c or d):
        return (Fraction(0),) * N, tuple((1 - q ** n) / 4 for n in range(1, N))
    abcd = a * b * c * d

    def big_a(n):
        return ((1 - a * b * q ** n) * (1 - a * c * q ** n) * (1 - a * d * q ** n)
                * (1 - abcd * q ** (n - 1))
                / (a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n))))

    def big_c(n):
        if n == 0:
            return Fraction(0)
        return (a * (1 - q ** n) * (1 - b * c * q ** (n - 1))
                * (1 - b * d * q ** (n - 1)) * (1 - c * d * q ** (n - 1))
                / ((1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1))))

    bs = tuple((a + 1 / a - big_a(n) - big_c(n)) / 2 for n in range(N))
    cs = tuple(big_a(n - 1) * big_c(n) / 4 for n in range(1, N))
    return bs, cs


def kls_polys(a, b, c, d, q, N: int) -> tuple[PolyX, ...]:
    """p_0..p_N regenerated from kls_recurrence by
    p_(n+1) = (x - B_n) p_n - C_n p_(n-1), with p_(-1) = 0 and p_0 = 1.
    Ring arithmetic only: no D, S, operator equation or ladder."""
    bs, cs = kls_recurrence(a, b, c, d, q, N)
    x = PolyX.x()
    polys = [PolyX.constant(1)]
    for n in range(N):
        nxt = (x - PolyX.constant(bs[n])) * polys[n]
        if n:
            nxt = nxt - cs[n - 1] * polys[n - 1]
        polys.append(nxt)
    return tuple(polys)


def breve(p) -> dict[int, Fraction]:
    """f((z + 1/z)/2) as a dict z-exponent -> coefficient; Horner."""
    acc: dict[int, Fraction] = {}
    for c in reversed(p.coeffs):
        nxt: dict[int, Fraction] = {}
        for e, val in acc.items():
            nxt[e + 1] = nxt.get(e + 1, Fraction(0)) + val / 2
            nxt[e - 1] = nxt.get(e - 1, Fraction(0)) + val / 2
        nxt[0] = nxt.get(0, Fraction(0)) + c
        acc = {e: v for e, v in nxt.items() if v != 0}
    return acc


def laurent_product(a, b):
    """a * b for two LaurentSym forms, multiplied as z-exponent dicts and
    folded back to c_0, c_1, ...; qpoly has no product in this basis."""
    da, db = ({e: c for j, c in enumerate(lp.coeffs) for e in (j, -j)}
              for lp in (a, b))
    out: dict[int, Fraction] = {}
    for ea, va in da.items():
        for eb, vb in db.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + va * vb
    assert all(out[-e] == v for e, v in out.items())
    return LaurentSym(tuple(out[j] for j in range(max(out, default=-1) + 1)))


def _shift(d: dict, v: Fraction, sign: int) -> dict:
    """Substitute z -> z * v^sign."""
    return {e: val * v ** (sign * e) for e, val in d.items()}


def _sub(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for e, val in d2.items():
        out[e] = out.get(e, Fraction(0)) - val
    return {e: v for e, v in out.items() if v != 0}


def _add(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for e, val in d2.items():
        out[e] = out.get(e, Fraction(0)) + val
    return {e: v for e, v in out.items() if v != 0}


def _divide_z_minus_zinv(d: dict) -> dict:
    """Exact division by (z - 1/z), by long division from the top exponent.

    The quotient of an antisymmetric input lives on exponents in
    (-top, top), so falling below -top means the division is not exact.
    """
    out: dict[int, Fraction] = {}
    work = dict(d)
    live = [e for e, v in work.items() if v != 0]
    if not live:
        return out
    floor = -max(live)
    while True:
        live = [e for e, v in work.items() if v != 0]
        if not live:
            return out
        e = max(live)
        assert e > floor, "division by (z - 1/z) not exact"
        val = work[e]
        out[e - 1] = out.get(e - 1, Fraction(0)) + val
        work[e] = Fraction(0)
        work[e - 2] = work.get(e - 2, Fraction(0)) + val


def dq_oracle(ctx, p) -> dict[int, Fraction]:
    """(f-breve(vz) - f-breve(z/v)) / ((v - 1/v)(z - 1/z)/2), as a dict."""
    b = breve(p)
    num = _sub(_shift(b, ctx.v, +1), _shift(b, ctx.v, -1))
    quot = _divide_z_minus_zinv(num)
    scalar = (ctx.v - 1 / ctx.v) / 2
    return {e: val / scalar for e, val in quot.items() if val != 0}


def sq_oracle(ctx, p) -> dict[int, Fraction]:
    """(f-breve(vz) + f-breve(z/v)) / 2, as a dict."""
    b = breve(p)
    tot = _add(_shift(b, ctx.v, +1), _shift(b, ctx.v, -1))
    return {e: val / 2 for e, val in tot.items() if val != 0}


def evaluate(p, x) -> Fraction:
    """p(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def gamma_factorial(ctx, n: int) -> Fraction:
    """gamma_n! = product of gamma_1 .. gamma_n; empty product is 1."""
    if n < 0:
        raise DomainError(f"gamma factorial needs n >= 0, got {n}")
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= gamma(ctx, j)
    return out


def dq_power(ctx, p, k: int):
    """D applied k times to p, one apply_Dq at a time."""
    for _ in range(k):
        p = apply_Dq(ctx, p)
    return p


def _srow_a(dfam, m: int) -> dict:
    """S-image of the first ladder relation at index m, written over the
    slots ("U2D2", m), ("xSD", m), ("P", m), ("SD", m-1..m+1); the relation
    says the slot-weighted sum is identically zero on P[k-1]_m data."""
    base, k = dfam.base, dfam.k
    ctx = base.ctx
    al = ctx.alpha
    return {
        ("U2D2", m): gamma(ctx, k) * al + alpha_k(ctx, k),
        ("xSD", m): gamma(ctx, k) * (al * al - 1) + alpha_k(ctx, k) * al,
        ("P", m): gamma(ctx, k),
        ("SD", m + 1): -gamma(ctx, m + k) / gamma(ctx, m + 1),
        ("SD", m): -base.recurrence_B(m + k - 1),
        ("SD", m - 1): -gamma(ctx, m) * base.recurrence_C(m + k - 1)
        / gamma(ctx, m + k - 1),
    }


def _srow_b(dfam, m: int) -> dict:
    """S-image of the second ladder relation at index m, same slots."""
    ctx = dfam.base.ctx
    gm = gamma(ctx, m)
    return {
        ("U2D2", m): 1 / gm,
        ("xSD", m): ctx.alpha / gm,
        ("SD", m + 1): -1 / gamma(ctx, m + 1),
        ("SD", m): -dfam.recurrence_B(m - 1) / gm,
        ("SD", m - 1): -dfam.recurrence_C(m - 1) / gamma(ctx, m - 1),
    }


def _combine(c1, row1: dict, c2, row2: dict) -> dict:
    keys = set(row1) | set(row2)
    return {
        key: c1 * row1.get(key, Fraction(0)) + c2 * row2.get(key, Fraction(0))
        for key in keys
    }


def chain_coeffs_by_elimination(dfam, n: int) -> ChainCoeffs:
    """Independent oracle for proof_engine.chain_coeffs.

    Rebuilds the displays by anchored linear elimination on the raw ladder
    rows: no gamma/alpha product identities, no closed forms, just row
    arithmetic on the family's own recurrence data.
    """
    ctx = dfam.base.ctx
    ra, rb = _srow_a(dfam, n), _srow_b(dfam, n)
    if rb[("SD", n - 1)] == 0:
        raise DomainError(
            "derived recurrence coefficient vanishes; elimination impossible"
        )
    c1 = dfam.recurrence_C(n - 1) / gamma(ctx, n - 1)
    c2 = -c1 * ra[("SD", n - 1)] / rb[("SD", n - 1)]
    row3 = _combine(c1, ra, c2, rb)
    if row3[("SD", n - 1)] != 0:
        raise InternalError("low-slot elimination left a remainder")
    en = row3[("U2D2", n)]
    dn = PolyX((row3[("SD", n)], row3[("xSD", n)]))
    fn_scalar = -row3[("SD", n + 1)]

    ra1, rb1 = _srow_a(dfam, n + 1), _srow_b(dfam, n + 1)
    c1p = Fraction(-1) / gamma(ctx, n + 2)
    c2p = -c1p * ra1[("SD", n + 2)] / rb1[("SD", n + 2)]
    row4 = _combine(c1p, ra1, c2p, rb1)
    if row4[("SD", n + 2)] != 0:
        raise InternalError("high-slot elimination left a remainder")
    dtilde = PolyX((row4[("SD", n + 1)], row4[("xSD", n + 1)]))
    etilde = -row4[("U2D2", n + 1)]
    fnext = -row4[("SD", n)]

    _, u2 = structural_polys(ctx)
    fn = en * etilde * u2 - dn * dtilde + PolyX.constant(fn_scalar * fnext)
    gn = etilde * dn - en * dtilde
    return ChainCoeffs(
        Dn=dn, En=en, Fn=fn_scalar, Fnext=fnext,
        Dtilde=dtilde, Etilde=etilde, fn=fn, gn=gn,
    )


def _lcm_denominator(p: PolyX) -> int:
    d = 1
    for c in p.coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_resultant(p: PolyX, r: PolyX) -> Fraction:
    """Independent oracle for qpoly.resultant, with the same arguments and
    value.

    Sylvester layout: deg(p) shifted rows of r's descending coefficients,
    then deg(r) shifted rows of p's. Constants are handled by the usual
    convention value^(degree of the other); two constants give 1.
    """
    if not p or not r:
        raise DomainError("resultant of the zero polynomial is undefined")
    dp, dr = p.degree, r.degree
    if dp == 0:
        return p.coeffs[0] ** dr
    if dr == 0:
        return r.coeffs[0] ** dp
    mp = _lcm_denominator(p)
    mr = _lcm_denominator(r)
    pint = [int(c * mp) for c in reversed(p.coeffs)]
    rint = [int(c * mr) for c in reversed(r.coeffs)]
    size = dp + dr
    rows: list[list[int]] = []
    for shift in range(dp):
        rows.append([0] * shift + rint + [0] * (size - shift - len(rint)))
    for shift in range(dr):
        rows.append([0] * shift + pint + [0] * (size - shift - len(pint)))
    det = _bareiss_det(rows)
    return Fraction(det, mr ** dp * mp ** dr)


def is_mersenne_prime(m: int) -> bool:
    """Lucas-Lehmer: m = 2^e - 1 with e an odd prime is prime exactly when
    s_(e-2) = 0 mod m, where s_0 = 4 and s_(i+1) = s_i^2 - 2. Any m not of
    that form is rejected."""
    e = m.bit_length()
    if m != 2**e - 1 or e < 3 or any(e % d == 0 for d in range(2, math.isqrt(e) + 1)):
        return False
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0
