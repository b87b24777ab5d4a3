"""Verification engine for second-order equations of derived families.

Starting from a base family p_0..p_N, the k-th derived family is

    P[k]_n = (gamma_n! / gamma_(n+k)!) * D^k p_(n+k),

monic of degree n. The engine certifies in exact arithmetic that each
derived family again satisfies a second-order D/S equation of the base
shape, walking the same elimination chain every time:

  eq1a, eq1b   two ladder relations tying SD and D images of consecutive
               P[k-1] polynomials to the recurrence data of the base and
               the derived family;
  eq3, eq4     the S-images of those, with the (n-1) resp. (n+2) slot
               eliminated; their coefficients are the chain displays
               D_n, E_n, F_n, Dtilde_n, Etilde_n computed by chain_coeffs;
  eq3b, eq3a   the D-image counterparts, same coefficients;
  eq6          eq3b and eq3 substituted into eq3a, which leaves a single
               second-order relation for P[k-1]_n with the composite
               coefficients of chain_coeffs at n:
                 f_n D^2 P_n + g_n SD P_n
                   + Etilde_n (gamma_k / gamma_(n-1)) C'_(n-1) P_n = 0,
               C' being the derived family's recurrence data;
  eq7          the same relation for P[k-1]_n from the displays at n-1:
                 f_(n-1) D^2 P_n + g_(n-1) SD P_n
                   + (gamma_k / gamma_(n+1)) E_(n-1) P_n = 0;
  eq_final     after extract_rn_fg divides out the degree-dependent scale
               r_n, one fixed pair (f, g) annihilates every degree.

Each tag maps to its own residual function, so an unknown tag is rejected
rather than checked as another. The tags are also the record names in the
JSON report, so they are part of the wire format.

The derived families form a ladder, D P[k-1]_m = gamma_m P[k]_(m-1), and
derived_family builds each order from the one below with one step of the
base's OperatorImages table per polynomial, P[k]_n = step(P[k-1]_(n+1)),
where step(p) = D p / gamma_(deg p). So every image a residual at order k
reads is a scaled ladder member and is never computed again:

    D P[k-1]_m   = gamma_m P[k]_(m-1)
    D^2 P[k-1]_m = gamma_m gamma_(m-1) P[k+1]_(m-2)
    SD P[k-1]_m  = gamma_m S P[k]_(m-1)

The images no_common_zeros certifies at order k are ladder reads too:
D P[k]_n = gamma_n P[k+1]_(n-1), and S P[k]_n is the S image that
SD P[k-1]_(n+1) reads. A ChainWorkspace serves every P, S, D, D^2 and SD
image of one run by (order, index): P from derived_family, S from the
base's table, and D, D^2 and SD off the ladder. run_chain_verification
creates one per run, and verify_chain_equation requires it.

The build recheck feeds the bottom of the ladder. It took step(p_n),
step(step p_n) and S(step p_n) of every p_n through the same table
(AWFamily.images), which are P[1]_(n-1), P[2]_(n-2) and S P[1]_(n-1). So
orders 1 and 2 and the S images of order 1 are table reads, and only the
orders above, and the S images of orders 0 and >= 2, apply an operator.
The table is keyed by object identity, so a family rebuilt around other
polynomials (dataclasses.replace) derives from those, and a second run on
one family applies no operator at all.

no_common_zeros is certified modulo a prime: D p and S p are scaled to
integer polynomials, and their resultant is taken over GF(P) for the first
listed prime P that divides neither leading coefficient. A nonzero residue
proves the exact resultant nonzero; if every listed prime gives 0, the
exact resultant over Q decides, so a failure always means it is exactly 0.

chain_coeffs gives the closed-form displays. The test suite re-derives
every one of them by anchored elimination on the ladder rows, without the
closed forms (tests/helpers.py); the two must agree exactly. Note the x
slot of Dtilde_n is alpha_n * gamma_k / (gamma_(n+1) gamma_(n+2)) (indices
in that order); the elimination pins it and the eq4 residual breaks within
two degrees if it is swapped.

verify_final_matches_aw closes the loop: the extracted (f, g) pair is
matched, by an exact linear solve, to the four-parameter coefficient form
of askey_wilson.equation_coeffs, recovering the parameter vector of the
derived family together with the overall scale. It applies no operator:
the eigenvalues it checks are the ones eq_final read off. The aw_shift
record then compares the recovered vector with the base's, shifted to
sigma_j v^(j(k-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping

from .askey_wilson import (
    AWFamily,
    AWParams,
    Ladder,
    eigenvalue,
    equation_coeffs,
    params_from_sigmas,
    three_term_data,
)
from .errors import (
    DomainError,
    InternalError,
    NoRationalMatch,
    OrthogonalityBroken,
    ProportionalityFailure,
    UsageError,
)
# apply_Dq and apply_Sq are not called here, but perfbench/tracing.py
# reads them from this module to count the operators' inputs
from .qoperators import (
    CheckRecord,
    OperatorCheckResult,
    ProofReport,
    apply_Dq,
    apply_Sq,
    structural_polys,
)
from .qpoly import PolyX, resultant, resultant_mod
from .scalars import QContext, Rational, alpha_k, format_rational, gamma

@dataclass(frozen=True, eq=False)
class DerivedFamily(Ladder):
    """P[k]_0..P[k]_M with the recurrence data extracted from the
    polynomials themselves (same layout as AWFamily). Hashed and compared
    by identity, like AWFamily."""

    k: int
    base: AWFamily
    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]

    @property
    def M(self) -> int:
        return len(self.polys) - 1


@lru_cache(maxsize=None)
def derived_family(base: AWFamily, k: int) -> DerivedFamily:
    """Build the k-th derived family P[k]_0..P[k]_(N-k), the most the base
    supports. k = 0 wraps the base itself, so code walking the ladder can
    treat P[0] uniformly. Order k >= 1 is built from order k-1 as
    P[k]_n = step(P[k-1]_(n+1)) = D P[k-1]_(n+1) / gamma_(n+1), through
    base.images, which already holds orders 1 and 2 from the build
    recheck; a ladder that breaks the three-term recurrence raises
    OrthogonalityBroken naming its order.

    Cached per (base, k), with the base keyed by identity: a lookup costs
    O(1) whatever the size of the base, and a second family built from
    equal arguments gets entries of its own."""
    if k < 0:
        raise UsageError(f"derivation order must be >= 0, got {k}")
    top = base.N - k
    if top < 0:
        raise UsageError(
            f"cannot build {top + 1} derived polynomials from a base of size "
            f"{base.N + 1} at k={k}"
        )
    if k == 0:
        polys = base.polys[: top + 1]
        bs = base.B[:top]
        cs = base.C[: max(top - 1, 0)]
        return DerivedFamily(k=0, base=base, polys=polys, B=bs, C=cs)
    prev = derived_family(base, k - 1)
    polys = tuple(base.images.step(prev.polys[n + 1]) for n in range(top + 1))
    for n, pol in enumerate(polys):
        if pol.degree != n or pol.leading != 1:
            raise InternalError(f"derived polynomial at n={n} is not monic")
    try:
        bs, cs = three_term_data(polys) if top >= 1 else ((), ())
    except OrthogonalityBroken as exc:
        raise OrthogonalityBroken(f"derived family k={k}: {exc}") from exc
    return DerivedFamily(k=k, base=base, polys=polys, B=bs, C=cs)


@dataclass(frozen=True)
class ChainCoeffs:
    """Coefficient displays of eq3/eq4 (and their eq3b/eq3a twins) at one
    degree n, plus the composites f_n, g_n entering eq6/eq7."""

    Dn: PolyX
    En: Rational
    Fn: Rational
    Fnext: Rational
    Dtilde: PolyX
    Etilde: Rational
    fn: PolyX
    gn: PolyX


def _coeff_F(dfam: DerivedFamily, m: int) -> Rational:
    base, k = dfam.base, dfam.k
    ctx = base.ctx
    return (
        gamma(ctx, m + k) * dfam.recurrence_C(m - 1)
        / (gamma(ctx, m + 1) * gamma(ctx, m - 1))
        - gamma(ctx, m) * base.recurrence_C(m + k - 1)
        / (gamma(ctx, m + 1) * gamma(ctx, m + k - 1))
    )


# keyed by the identity of the derived family, never by a ChainWorkspace,
# so that no run is pinned here
@lru_cache(maxsize=None)
def chain_coeffs(dfam: DerivedFamily, n: int) -> ChainCoeffs:
    """Closed-form chain displays; valid for 2 <= n <= min(M-1, N-1-k)."""
    base, k = dfam.base, dfam.k
    ctx = base.ctx
    al = ctx.alpha
    ck1 = dfam.recurrence_C(n - 1)
    cnk1 = base.recurrence_C(n + k - 1)
    d1 = alpha_k(ctx, k + 1) * ck1 / gamma(ctx, n - 1) \
        - al * cnk1 / gamma(ctx, n + k - 1)
    d0 = -base.recurrence_B(n + k - 1) * ck1 / gamma(ctx, n - 1) \
        + dfam.recurrence_B(n - 1) * cnk1 / gamma(ctx, n + k - 1)
    dn = PolyX((d0, d1))
    en = gamma(ctx, k + 1) * ck1 / gamma(ctx, n - 1) \
        - cnk1 / gamma(ctx, n + k - 1)
    fn_scalar = _coeff_F(dfam, n)
    fnext = _coeff_F(dfam, n + 1)
    # x slot is alpha_n * gamma_k, not alpha_k * gamma_n; the elimination
    # oracle of the test suite pins this order, and eq4 fails with an x^3
    # residual under the swap.
    dt1 = alpha_k(ctx, n) * gamma(ctx, k) / (gamma(ctx, n + 1) * gamma(ctx, n + 2))
    dt0 = (
        base.recurrence_B(n + k)
        - gamma(ctx, n + k + 1) * dfam.recurrence_B(n) / gamma(ctx, n + 1)
    ) / gamma(ctx, n + 2)
    dtilde = PolyX((dt0, dt1))
    etilde = gamma(ctx, n) * gamma(ctx, k) / (gamma(ctx, n + 1) * gamma(ctx, n + 2))
    _, u2 = structural_polys(ctx)
    fn = en * etilde * u2 - dn * dtilde + PolyX.constant(fn_scalar * fnext)
    gn = etilde * dn - en * dtilde
    return ChainCoeffs(
        Dn=dn, En=en, Fn=fn_scalar, Fnext=fnext,
        Dtilde=dtilde, Etilde=etilde, fn=fn, gn=gn,
    )


@dataclass
class ExtractionResult:
    """Canonical coefficient pair and the per-degree scales r_n with
    f_n = r_n f and g_n = r_n g exactly."""

    f: PolyX
    g: PolyX
    r: dict[int, Rational]


def _extract_proportional(
    pairs: Mapping[int, tuple[PolyX, PolyX]]
) -> ExtractionResult:
    """Core of extract_rn_fg, usable on manufactured pairs.

    Normalizes at the smallest index by the first nonzero coefficient
    (f constant term upward, then g), then verifies every other pair is an
    exact nonzero rational multiple of the anchor.
    """
    if not pairs:
        raise UsageError("no coefficient pairs to extract from")
    n0 = min(pairs)
    f0, g0 = pairs[n0]
    anchor = None
    for which, poly, limit in (("f", f0, 3), ("g", g0, 2)):
        for i in range(limit):
            if poly.coeff(i) != 0:
                anchor = (which, i)
                break
        if anchor:
            break
    if anchor is None:
        raise ProportionalityFailure(f"pair at n={n0} is identically zero")
    which, slot = anchor
    scale = (f0 if which == "f" else g0).coeff(slot)
    f = f0 / scale
    g = g0 / scale
    r: dict[int, Rational] = {}
    for n in sorted(pairs):
        fn, gn = pairs[n]
        rn = (fn if which == "f" else gn).coeff(slot)
        if rn == 0:
            raise ProportionalityFailure(f"scale r_{n} vanishes")
        if fn != rn * f or gn != rn * g:
            raise ProportionalityFailure(
                f"pair at n={n} is not proportional to the pair at n={n0}"
            )
        r[n] = rn
    return ExtractionResult(f=f, g=g, r=r)


def extract_rn_fg(
    dfam: DerivedFamily, n_range: Iterable[int]
) -> ExtractionResult:
    """Extract the common (f, g) of eq6 across a range of degrees."""
    ns = sorted(set(n_range))
    if not ns:
        raise UsageError("empty extraction range")
    pairs = {}
    for n in ns:
        cc = chain_coeffs(dfam, n)
        pairs[n] = (cc.fn, cc.gn)
    return _extract_proportional(pairs)


class ChainWorkspace:
    """Every family and operator image one chain run reads, by (j, m).

    P(j, m) is the ladder member P[j]_m, from derived_family; S(j, m) its
    S image, from the base's OperatorImages table; D, D2 and SD are read
    off the ladder without applying D (see the module docstring), with
    explicit zeros where the index leaves the ladder. A workspace belongs
    to one base family and lives for one run; run_chain_verification
    creates it.
    """

    def __init__(self, base: AWFamily):
        self.base = base

    def family(self, j: int) -> DerivedFamily:
        return derived_family(self.base, j)

    def P(self, j: int, m: int) -> PolyX:
        return self.family(j).poly(m)

    def S(self, j: int, m: int) -> PolyX:
        return self.base.images.S(self.P(j, m))

    def D(self, j: int, m: int) -> PolyX:
        if m < 1:
            return PolyX.zero()
        return gamma(self.base.ctx, m) * self.P(j + 1, m - 1)

    def D2(self, j: int, m: int) -> PolyX:
        if m < 2:
            return PolyX.zero()
        ctx = self.base.ctx
        return gamma(ctx, m) * gamma(ctx, m - 1) * self.P(j + 2, m - 2)

    def SD(self, j: int, m: int) -> PolyX:
        if m < 1:
            return PolyX.zero()
        return gamma(self.base.ctx, m) * self.S(j + 1, m - 1)


# A residual at order k reads P = P[k-1] and its images; the recurrence
# data come from the base and from the derived family P[k].

def _eq1a(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    base, j = ws.base, k - 1
    ctx = base.ctx
    return (
        gamma(ctx, k) * ws.S(j, n)
        + alpha_k(ctx, k) * PolyX.x() * ws.D(j, n)
        - (gamma(ctx, n + k) / gamma(ctx, n + 1)) * ws.D(j, n + 1)
        - base.recurrence_B(n + k - 1) * ws.D(j, n)
        - (gamma(ctx, n) / gamma(ctx, n + k - 1))
        * base.recurrence_C(n + k - 1) * ws.D(j, n - 1)
    )


def _eq1b(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    ctx, dfam, j = ws.base.ctx, ws.family(k), k - 1
    return (
        (1 / gamma(ctx, n)) * PolyX.x() * ws.D(j, n)
        - (1 / gamma(ctx, n + 1)) * ws.D(j, n + 1)
        - (dfam.recurrence_B(n - 1) / gamma(ctx, n)) * ws.D(j, n)
        - (dfam.recurrence_C(n - 1) / gamma(ctx, n - 1)) * ws.D(j, n - 1)
    )


def _eq3(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    ctx, dfam, j = ws.base.ctx, ws.family(k), k - 1
    cc = chain_coeffs(dfam, n)
    _, u2 = structural_polys(ctx)
    return (
        cc.Dn * ws.SD(j, n) + cc.En * u2 * ws.D2(j, n)
        + (gamma(ctx, k) / gamma(ctx, n - 1)) * dfam.recurrence_C(n - 1)
        * ws.P(j, n)
        - cc.Fn * ws.SD(j, n + 1)
    )


def _eq4(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    ctx, j = ws.base.ctx, k - 1
    cc = chain_coeffs(ws.family(k), n)
    _, u2 = structural_polys(ctx)
    return (
        cc.Dtilde * ws.SD(j, n + 1) - cc.Etilde * u2 * ws.D2(j, n + 1)
        - (gamma(ctx, k) / gamma(ctx, n + 2)) * ws.P(j, n + 1)
        - cc.Fnext * ws.SD(j, n)
    )


def _eq3b(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    j = k - 1
    cc = chain_coeffs(ws.family(k), n)
    return cc.Dn * ws.D2(j, n) + cc.En * ws.SD(j, n) - cc.Fn * ws.D2(j, n + 1)


def _eq3a(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    j = k - 1
    cc = chain_coeffs(ws.family(k), n)
    return (cc.Dtilde * ws.D2(j, n + 1) - cc.Etilde * ws.SD(j, n + 1)
            - cc.Fnext * ws.D2(j, n))


def _eq6(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    ctx, dfam, j = ws.base.ctx, ws.family(k), k - 1
    cc = chain_coeffs(dfam, n)
    return (
        cc.fn * ws.D2(j, n) + cc.gn * ws.SD(j, n)
        + cc.Etilde * (gamma(ctx, k) / gamma(ctx, n - 1))
        * dfam.recurrence_C(n - 1) * ws.P(j, n)
    )


def _eq7(ws: ChainWorkspace, k: int, n: int) -> PolyX:
    ctx, j = ws.base.ctx, k - 1
    cc = chain_coeffs(ws.family(k), n - 1)
    return (
        cc.fn * ws.D2(j, n) + cc.gn * ws.SD(j, n)
        + (gamma(ctx, k) / gamma(ctx, n + 1)) * cc.En * ws.P(j, n)
    )


# residual of each chain equation but eq_final, which also reads the
# extracted pair and reports an eigenvalue
_RESIDUALS = {
    "eq1a": _eq1a, "eq1b": _eq1b, "eq3": _eq3, "eq4": _eq4,
    "eq3b": _eq3b, "eq3a": _eq3a, "eq6": _eq6, "eq7": _eq7,
}
CHAIN_EQUATIONS = (*_RESIDUALS, "eq_final")


def verify_chain_equation(
    ws: ChainWorkspace,
    k: int,
    which: str,
    n: int,
    extraction: ExtractionResult | None = None,
) -> OperatorCheckResult:
    """Residual check of one chain equation of the order-k family at one
    degree, on the images of ws.

    The residual is an exact polynomial; passed means it is identically
    zero. eq_final additionally reports the eigenvalue it read off the
    leading coefficient in the witness field, and without the extraction
    it is a UsageError.
    """
    if which not in CHAIN_EQUATIONS:
        raise UsageError(f"unknown chain equation {which!r}")
    if which == "eq_final":
        if extraction is None:
            raise UsageError("eq_final needs the extracted coefficient pair")
        j = k - 1
        h = extraction.f * ws.D2(j, n) + extraction.g * ws.SD(j, n)
        mu = -h.coeff(n)
        res = h + mu * ws.P(j, n)
        return OperatorCheckResult(
            name=which, passed=not res, residual=res, witness=mu
        )
    res = _RESIDUALS[which](ws, k, n)
    return OperatorCheckResult(name=which, passed=not res, residual=res)


# the primes check_no_common_zeros tries, in order: the Mersenne primes
# 2^61 - 1, 2^89 - 1, 2^107 - 1 and 2^127 - 1
CERTIFICATE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def _integer_scaled(p: PolyX) -> PolyX:
    """p times the lcm of its coefficients' denominators."""
    return p * math.lcm(*(c.denominator for c in p.coeffs))


def check_no_common_zeros(dp: PolyX, sp: PolyX) -> OperatorCheckResult:
    """Certify that the images dp = D p and sp = S p of a polynomial p share
    no zero, via their resultant.

    S keeps the degree, so p has degree >= 1 exactly when sp does. When dp
    is a nonzero constant the claim is vacuous and the constant itself is
    the witness. Otherwise dp and sp are scaled to integer polynomials and
    the first prime P of CERTIFICATE_PRIMES that divides neither leading
    coefficient and gives a nonzero residue r of their resultant mod P
    passes the check with the witness "mod=<P>;res=<r>". If no prime does,
    the witness is the exact resultant of dp and sp, and the check passes
    exactly when it is nonzero.
    """
    if not sp or sp.degree < 1:
        raise DomainError("need the images of a polynomial of degree >= 1")
    if dp.degree == 0:
        return OperatorCheckResult(
            name="no_common_zeros", passed=True, witness=dp.coeffs[0]
        )
    di, si = _integer_scaled(dp), _integer_scaled(sp)
    for prime in CERTIFICATE_PRIMES:
        if di.leading % prime and si.leading % prime:
            residue = resultant_mod(di, si, prime)
            if residue:
                return OperatorCheckResult(
                    name="no_common_zeros", passed=True,
                    witness=f"mod={prime};res={residue}")
    w = resultant(dp, sp)
    return OperatorCheckResult(name="no_common_zeros", passed=w != 0, witness=w)


def check_nonvanishing(dfam: DerivedFamily, n: int) -> tuple[CheckRecord, ...]:
    """Nonvanishing certificates the chain divides by at degree n.

    Needs the chain displays at n-1 and n, so 3 <= n <= chain window - 1.
    """
    base, k = dfam.base, dfam.k
    ctx = base.ctx
    cc = chain_coeffs(dfam, n)
    ccp = chain_coeffs(dfam, n - 1)
    values = (
        ("nonzero_F", cc.Fn),
        ("nonzero_F_next", cc.Fnext),
        ("nonzero_E_prev", ccp.En),
        ("nonzero_Etilde", cc.Etilde),
        ("nonzero_lambda", eigenvalue(ctx, base.params, n)),
        ("nonzero_C", base.recurrence_C(n)),
        ("nonzero_C_derived", dfam.recurrence_C(n)),
    )
    return tuple(
        CheckRecord(name=name, k=k, n=n, passed=value != 0,
                    witness=format_rational(value))
        for name, value in values
    )


@dataclass(frozen=True)
class AWMatch:
    """Recovered parameter vector and overall scale of the final form."""

    params: AWParams
    c: Rational


def verify_final_matches_aw(
    ctx: QContext, extraction: ExtractionResult, mu: Mapping[int, Rational]
) -> AWMatch:
    """Match the extracted (f, g) to c * (coefficient form at some sigma).

    The five coefficients of (f, g) determine (c, c*sigma_j) by a linear
    solve; c = 0 or any round-trip discrepancy means no rational parameter
    vector fits and raises NoRationalMatch. As a final consistency check
    mu[n], the eigenvalue eq_final read off at degree n, must equal -c
    times the operator-equation eigenvalue at the recovered parameters, for
    every extracted degree; with the solve above this pins the display
    formula of eigenvalue() against the operator algebra.
    """
    v, q = ctx.v, ctx.q
    f, g = extraction.f, extraction.g
    if f.degree > 2 or g.degree > 1:
        raise NoRationalMatch("extracted pair exceeds the quadratic/linear form")
    f2, f1, f0 = f.coeff(2), f.coeff(1), f.coeff(0)
    g1, g0 = g.coeff(1), g.coeff(0)
    s_plus = -v * f2 / 2          # c + c*sigma4
    s_minus = (1 - q) * g1 / 4    # c*sigma4 - c
    c = (s_plus - s_minus) / 2
    if c == 0:
        raise NoRationalMatch("matching scale factor is zero")
    u4 = (s_plus + s_minus) / 2
    u1 = (v * f1 + (1 - q) * g0 / 2) / 2
    u3 = (v * f1 - (1 - q) * g0 / 2) / 2
    u2 = c + u4 - v * f0
    params = params_from_sigmas(u1 / c, u2 / c, u3 / c, u4 / c)
    faw, gaw = equation_coeffs(ctx, params)
    if c * faw != f or c * gaw != g:
        raise NoRationalMatch("round trip through the coefficient form mismatched")
    for n in sorted(extraction.r):
        if mu[n] != -c * eigenvalue(ctx, params, n):
            raise NoRationalMatch(f"eigenvalue mismatch at degree {n}")
    return AWMatch(params=params, c=c)


def _verify_one_k(ws: ChainWorkspace, k: int, n_max: int) -> list[CheckRecord]:
    ctx = ws.base.ctx
    records: list[CheckRecord] = []
    dfam = ws.family(k)
    # windows, from dfam.M = N - k: the ladder relations, eq7 and
    # no_common_zeros; the chain displays; the nonvanishing certificates
    hi_ladder = min(dfam.M, n_max)
    hi_chain = min(dfam.M - 1, n_max)
    hi_nonzero = min(dfam.M - 2, n_max)

    def add(name: str, n: int | None, passed: bool, witness: str) -> None:
        records.append(CheckRecord(name=name, k=k, n=n, passed=passed,
                                   witness=witness))

    def run_eq(which: str, n: int, extraction=None) -> OperatorCheckResult:
        res = verify_chain_equation(ws, k, which, n, extraction=extraction)
        records.append(CheckRecord.of(res, k, n))
        return res

    for n in range(1, hi_ladder + 1):
        run_eq("eq1a", n)
    for n in range(2, hi_ladder + 1):
        run_eq("eq1b", n)

    for n in range(2, hi_chain + 1):
        for which in ("eq3", "eq4", "eq3b", "eq3a", "eq6"):
            run_eq(which, n)
    for n in range(3, hi_ladder + 1):
        run_eq("eq7", n)

    extraction = None
    ext_error = None
    if hi_chain >= 2:
        try:
            extraction = extract_rn_fg(dfam, range(2, hi_chain + 1))
        except ProportionalityFailure as exc:
            ext_error = str(exc)
        if extraction is None:
            add("proportionality", None, False, ext_error)
            add("aw_form_match", None, False,
                "unavailable: proportionality failed")
            add("aw_shift", None, False, "unavailable: proportionality failed")
            for n in range(2, hi_chain + 1):
                add("eq_final", n, False, "unavailable: proportionality failed")
                add("lambda_formula", n, False,
                    "unavailable: proportionality failed")
        else:
            gk = gamma(ctx, k)
            mu = {}
            for n in range(2, hi_chain + 1):
                add("proportionality", n, True,
                    format_rational(extraction.r[n]))
                res = run_eq("eq_final", n, extraction=extraction)
                cc = chain_coeffs(dfam, n)
                expected = gk * cc.Etilde * dfam.recurrence_C(n - 1) \
                    / (extraction.r[n] * gamma(ctx, n - 1))
                mu[n] = res.witness
                ok = mu[n] == expected
                add("lambda_formula", n, ok,
                    format_rational(mu[n]) if ok
                    else f"{format_rational(mu[n])} != {format_rational(expected)}")
            try:
                match = verify_final_matches_aw(ctx, extraction, mu)
            except NoRationalMatch as exc:
                add("aw_form_match", None, False, str(exc))
                add("aw_shift", None, False, "unavailable: aw_form_match failed")
            else:
                sig = ",".join(format_rational(s) for s in match.params.sigmas)
                add("aw_form_match", None, True,
                    f"c={format_rational(match.c)};sigmas={sig}")
                # P[k-1] has the base's sigma_j times v^(j(k-1)); the
                # witness is the first index j that differs, or "0"
                shifted = (ctx.v ** (j * (k - 1)) * s
                           for j, s in enumerate(ws.base.params.sigmas, 1))
                first = next((j for j, (got, want) in enumerate(
                    zip(match.params.sigmas, shifted), 1) if got != want), 0)
                add("aw_shift", None, first == 0, str(first))

    for n in range(3, hi_nonzero + 1):
        records.extend(check_nonvanishing(dfam, n))

    for n in range(1, hi_ladder + 1):
        records.append(CheckRecord.of(
            check_no_common_zeros(ws.D(k, n), ws.S(k, n)), k, n))

    return records


def chain_orders(k_list: Iterable[int], N: int, n_max: int) -> list[int]:
    """Validate a chain run on a base of size N; return its sorted orders.

    eq_final is checked at 2 <= n <= min(n_max, N - k - 1), so a run with
    n_max < 2 or N < k + 3 for some k would certify nothing for that k and
    is rejected instead."""
    ks = list(k_list)
    if not ks:
        raise UsageError("need at least one derivation order k")
    for k in ks:
        # checked before set(): True == 1 would merge with a genuine 1
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise UsageError(f"derivation orders must be ints >= 1, got {k!r}")
    ks = sorted(set(ks))
    if n_max < 2 or N < ks[-1] + 3:
        raise UsageError(
            f"n_max={n_max} and N={N} leave nothing to verify at k={ks[-1]}; "
            f"need n_max >= 2 and N >= {ks[-1] + 3}"
        )
    return ks


def chain_window(ks: Iterable[int], n_max: int) -> int:
    """n_max + max(k) + 2: the base size a chain run reads, and the N a
    fresh verify-chain builds. The record windows stop growing there, so a
    larger base gives the same records."""
    return n_max + max(ks) + 2


def _window(base: AWFamily, cap: int) -> AWFamily:
    """The base cut to degree cap, from the same polynomial objects and
    image table; the base itself when it is no larger."""
    if base.N <= cap:
        return base
    return replace(base, N=cap, polys=base.polys[: cap + 1], B=base.B[:cap],
                   C=base.C[: cap - 1])


def run_chain_verification(
    base: AWFamily, k_list: Iterable[int], n_max: int
) -> ProofReport:
    """Run the whole chain for each k and collect the report.

    The chain runs on the base cut to chain_window(k_list, n_max): a
    larger base gives the same records, and only the context reports its
    own N.

    A chain equation or certificate that does not hold becomes a failed
    record. Two things raise instead: bad arguments, including runs that
    would verify nothing (UsageError), and a derived family whose
    polynomials break the three-term recurrence, so that no recurrence data
    exist to check against (OrthogonalityBroken, naming the order k)."""
    ks = chain_orders(k_list, base.N, n_max)
    ws = ChainWorkspace(_window(base, chain_window(ks, n_max)))
    records: list[CheckRecord] = []
    for k in ks:
        records.extend(_verify_one_k(ws, k, n_max))
    context = {
        "v": format_rational(base.ctx.v),
        "sigmas": [format_rational(s) for s in base.params.sigmas],
        "N": base.N,
        "n_max": n_max,
        "k": ks,
    }
    return ProofReport(context=context, checks=tuple(records))
