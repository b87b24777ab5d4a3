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

A run computes each D, D^2 and SD image of a P[k-1]_m once: the residuals
read them from a ChainWorkspace that run_chain_verification creates and
passes down, and a direct call without one builds a throwaway workspace.

chain_coeffs gives the closed-form displays. chain_coeffs_by_elimination
re-derives every one of them by brute-force anchored elimination on the
ladder rows, without the closed forms; the two must agree exactly, and the
test suite insists on it. Note the x slot of Dtilde_n is
alpha_n * gamma_k / gamma_(n+1) (indices in that order); the elimination
pins it and the eq4 residual breaks within two degrees if it is swapped.

verify_final_matches_aw closes the loop: the extracted (f, g) pair is
matched, by an exact linear solve, to the four-parameter coefficient form
of askey_wilson.equation_coeffs, recovering the parameter vector of the
derived family together with the overall scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    DependencyError,
    DomainError,
    InternalError,
    NoRationalMatch,
    ProportionalityFailure,
    UsageError,
)
from .qoperators import (
    OperatorCheckResult,
    apply_Dq,
    apply_Dq_power,
    apply_Sq,
    structural_polys,
)
from .qpoly import PolyX, resultant
from .scalars import (
    QContext,
    Rational,
    alpha_k,
    format_rational,
    gamma,
    gamma_factorial,
)

@dataclass(frozen=True)
class DerivedFamily(Ladder):
    """P[k]_0..P[k]_M with the recurrence data extracted from the
    polynomials themselves (same layout as AWFamily)."""

    k: int
    base: AWFamily
    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]

    @property
    def M(self) -> int:
        return len(self.polys) - 1


@lru_cache(maxsize=None)
def derived_family(base: AWFamily, k: int, M: int | None = None) -> DerivedFamily:
    """Build the k-th derived family; M defaults to base.N - k, the most
    the base supports. k = 0 wraps the base itself, so code walking the
    ladder can treat P[0] uniformly."""
    if k < 0:
        raise UsageError(f"derivation order must be >= 0, got {k}")
    top = base.N - k if M is None else M
    if top < 0 or top > base.N - k:
        raise UsageError(
            f"cannot build {top + 1} derived polynomials from a base of size "
            f"{base.N + 1} at k={k}"
        )
    if k == 0:
        polys = base.polys[: top + 1]
        bs = base.B[:top]
        cs = base.C[: max(top - 1, 0)]
        return DerivedFamily(k=0, base=base, polys=polys, B=bs, C=cs)
    ctx = base.ctx
    out = []
    for n in range(top + 1):
        scale = gamma_factorial(ctx, n) / gamma_factorial(ctx, n + k)
        pol = scale * apply_Dq_power(ctx, base.polys[n + k], k)
        if pol.degree != n or pol.leading != 1:
            raise InternalError(f"derived polynomial at n={n} is not monic")
        out.append(pol)
    polys = tuple(out)
    bs, cs = three_term_data(polys) if top >= 1 else ((), ())
    return DerivedFamily(k=k, base=base, polys=polys, B=bs, C=cs)


@dataclass(frozen=True)
class ChainCoeffs:
    """Coefficient displays of eq3/eq4 (and their eq3b/eq3a twins) at one
    degree n, plus the composites f_n, g_n entering eq6/eq7."""

    n: int
    Dn: PolyX
    En: Rational
    Fn: Rational
    Fnext: Rational
    Dtilde: PolyX
    Etilde: Rational
    fn: PolyX
    gn: PolyX


def coeff_F(base: AWFamily, dfam: DerivedFamily, m: int) -> Rational:
    ctx, k = base.ctx, dfam.k
    return (
        gamma(ctx, m + k) * dfam.recurrence_C(m - 1)
        / (gamma(ctx, m + 1) * gamma(ctx, m - 1))
        - gamma(ctx, m) * base.recurrence_C(m + k - 1)
        / (gamma(ctx, m + 1) * gamma(ctx, m + k - 1))
    )


@lru_cache(maxsize=None)
def chain_coeffs(base: AWFamily, dfam: DerivedFamily, n: int) -> ChainCoeffs:
    """Closed-form chain displays; valid for 2 <= n <= min(M-1, N-1-k)."""
    ctx, k = base.ctx, dfam.k
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
    fn_scalar = coeff_F(base, dfam, n)
    fnext = coeff_F(base, dfam, n + 1)
    # x slot is alpha_n * gamma_k, not alpha_k * gamma_n; the anchored
    # elimination in chain_coeffs_by_elimination pins this order, and eq4
    # fails with an x^3 residual under the swap.
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
        n=n, Dn=dn, En=en, Fn=fn_scalar, Fnext=fnext,
        Dtilde=dtilde, Etilde=etilde, fn=fn, gn=gn,
    )


def _srow_a(base: AWFamily, dfam: DerivedFamily, m: int) -> dict:
    """S-image of the first ladder relation at index m, written over the
    slots ("U2D2", m), ("xSD", m), ("P", m), ("SD", m-1..m+1); the relation
    says the slot-weighted sum is identically zero on P[k-1]_m data."""
    ctx, k = base.ctx, dfam.k
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


def _srow_b(base: AWFamily, dfam: DerivedFamily, m: int) -> dict:
    """S-image of the second ladder relation at index m, same slots."""
    ctx = base.ctx
    gm = gamma(ctx, m)
    return {
        ("U2D2", m): 1 / gm,
        ("xSD", m): ctx.alpha / gm,
        ("SD", m + 1): -1 / gamma(ctx, m + 1),
        ("SD", m): -dfam.recurrence_B(m - 1) / gm,
        ("SD", m - 1): -dfam.recurrence_C(m - 1) / gamma(ctx, m - 1),
    }


def _combine(c1: Rational, row1: dict, c2: Rational, row2: dict) -> dict:
    keys = set(row1) | set(row2)
    return {
        key: c1 * row1.get(key, Fraction(0)) + c2 * row2.get(key, Fraction(0))
        for key in keys
    }


def chain_coeffs_by_elimination(
    base: AWFamily, dfam: DerivedFamily, n: int
) -> ChainCoeffs:
    """Independent oracle for chain_coeffs.

    Rebuilds the displays by anchored linear elimination on the raw ladder
    rows: no gamma/alpha product identities, no closed forms, just row
    arithmetic on the family's own recurrence data. Agreement with
    chain_coeffs is asserted by the acceptance suite.
    """
    ctx, k = base.ctx, dfam.k
    ra, rb = _srow_a(base, dfam, n), _srow_b(base, dfam, n)
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

    ra1, rb1 = _srow_a(base, dfam, n + 1), _srow_b(base, dfam, n + 1)
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
        n=n, Dn=dn, En=en, Fn=fn_scalar, Fnext=fnext,
        Dtilde=dtilde, Etilde=etilde, fn=fn, gn=gn,
    )


@dataclass
class ExtractionResult:
    """Canonical coefficient pair and the per-degree scales r_n with
    f_n = r_n f and g_n = r_n g exactly."""

    f: PolyX
    g: PolyX
    r: dict[int, Rational]
    n0: int


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
    return ExtractionResult(f=f, g=g, r=r, n0=n0)


def extract_rn_fg(
    base: AWFamily, dfam: DerivedFamily, n_range: Iterable[int]
) -> ExtractionResult:
    """Extract the common (f, g) of eq6 across a range of degrees."""
    ns = sorted(set(n_range))
    if not ns:
        raise UsageError("empty extraction range")
    pairs = {}
    for n in ns:
        cc = chain_coeffs(base, dfam, n)
        pairs[n] = (cc.fn, cc.gn)
    return _extract_proportional(pairs)


class ChainWorkspace:
    """Operator images of the P[j]_m that one chain run reads.

    Every residual at order k is built from D, D^2 and SD of the
    polynomials P[k-1]_m, and a run asks for the same images at many tags
    and degrees. The workspace computes each one on first use, through
    apply_Dq and apply_Sq, and keeps it indexed by (j, m). It belongs to one
    base family and lives for one run; run_chain_verification creates it.
    """

    def __init__(self, base: AWFamily):
        self.base = base
        self._D: dict[tuple[int, int], PolyX] = {}
        self._D2: dict[tuple[int, int], PolyX] = {}
        self._SD: dict[tuple[int, int], PolyX] = {}

    def D(self, fam: DerivedFamily, m: int) -> PolyX:
        key = (fam.k, m)
        if key not in self._D:
            self._D[key] = apply_Dq(self.base.ctx, fam.polys[m])
        return self._D[key]

    def D2(self, fam: DerivedFamily, m: int) -> PolyX:
        key = (fam.k, m)
        if key not in self._D2:
            self._D2[key] = apply_Dq(self.base.ctx, self.D(fam, m))
        return self._D2[key]

    def SD(self, fam: DerivedFamily, m: int) -> PolyX:
        key = (fam.k, m)
        if key not in self._SD:
            self._SD[key] = apply_Sq(self.base.ctx, self.D(fam, m))
        return self._SD[key]


def _workspace_for(
    base: AWFamily, workspace: ChainWorkspace | None
) -> ChainWorkspace:
    """The caller's workspace, or a throwaway one for a single call."""
    if workspace is None:
        return ChainWorkspace(base)
    if workspace.base is not base:
        raise UsageError("the workspace belongs to another base family")
    return workspace


@dataclass(frozen=True)
class _Terms:
    """What a chain residual at order k reads: the base and derived
    families, and P = P[k-1] with its images from the workspace."""

    base: AWFamily
    dfam: DerivedFamily
    prev: DerivedFamily
    ws: ChainWorkspace

    def P(self, m: int) -> PolyX:
        return self.prev.polys[m]

    def D(self, m: int) -> PolyX:
        return self.ws.D(self.prev, m)

    def D2(self, m: int) -> PolyX:
        return self.ws.D2(self.prev, m)

    def SD(self, m: int) -> PolyX:
        return self.ws.SD(self.prev, m)


def _eq1a(t: _Terms, n: int) -> PolyX:
    base, ctx, k = t.base, t.base.ctx, t.dfam.k
    return (
        gamma(ctx, k) * apply_Sq(ctx, t.P(n))
        + alpha_k(ctx, k) * PolyX.x() * t.D(n)
        - (gamma(ctx, n + k) / gamma(ctx, n + 1)) * t.D(n + 1)
        - base.recurrence_B(n + k - 1) * t.D(n)
        - (gamma(ctx, n) / gamma(ctx, n + k - 1))
        * base.recurrence_C(n + k - 1) * t.D(n - 1)
    )


def _eq1b(t: _Terms, n: int) -> PolyX:
    ctx, dfam = t.base.ctx, t.dfam
    return (
        (1 / gamma(ctx, n)) * PolyX.x() * t.D(n)
        - (1 / gamma(ctx, n + 1)) * t.D(n + 1)
        - (dfam.recurrence_B(n - 1) / gamma(ctx, n)) * t.D(n)
        - (dfam.recurrence_C(n - 1) / gamma(ctx, n - 1)) * t.D(n - 1)
    )


def _eq3(t: _Terms, n: int) -> PolyX:
    ctx, dfam = t.base.ctx, t.dfam
    cc = chain_coeffs(t.base, dfam, n)
    _, u2 = structural_polys(ctx)
    return (
        cc.Dn * t.SD(n) + cc.En * u2 * t.D2(n)
        + (gamma(ctx, dfam.k) / gamma(ctx, n - 1)) * dfam.recurrence_C(n - 1)
        * t.P(n)
        - cc.Fn * t.SD(n + 1)
    )


def _eq4(t: _Terms, n: int) -> PolyX:
    ctx = t.base.ctx
    cc = chain_coeffs(t.base, t.dfam, n)
    _, u2 = structural_polys(ctx)
    return (
        cc.Dtilde * t.SD(n + 1) - cc.Etilde * u2 * t.D2(n + 1)
        - (gamma(ctx, t.dfam.k) / gamma(ctx, n + 2)) * t.P(n + 1)
        - cc.Fnext * t.SD(n)
    )


def _eq3b(t: _Terms, n: int) -> PolyX:
    cc = chain_coeffs(t.base, t.dfam, n)
    return cc.Dn * t.D2(n) + cc.En * t.SD(n) - cc.Fn * t.D2(n + 1)


def _eq3a(t: _Terms, n: int) -> PolyX:
    cc = chain_coeffs(t.base, t.dfam, n)
    return cc.Dtilde * t.D2(n + 1) - cc.Etilde * t.SD(n + 1) - cc.Fnext * t.D2(n)


def _eq6(t: _Terms, n: int) -> PolyX:
    ctx, dfam = t.base.ctx, t.dfam
    cc = chain_coeffs(t.base, dfam, n)
    return (
        cc.fn * t.D2(n) + cc.gn * t.SD(n)
        + cc.Etilde * (gamma(ctx, dfam.k) / gamma(ctx, n - 1))
        * dfam.recurrence_C(n - 1) * t.P(n)
    )


def _eq7(t: _Terms, n: int) -> PolyX:
    ctx = t.base.ctx
    cc = chain_coeffs(t.base, t.dfam, n - 1)
    return (
        cc.fn * t.D2(n) + cc.gn * t.SD(n)
        + (gamma(ctx, t.dfam.k) / gamma(ctx, n + 1)) * cc.En * t.P(n)
    )


# residual of each chain equation but eq_final, which also reads the
# extracted pair and reports an eigenvalue
_RESIDUALS = {
    "eq1a": _eq1a, "eq1b": _eq1b, "eq3": _eq3, "eq4": _eq4,
    "eq3b": _eq3b, "eq3a": _eq3a, "eq6": _eq6, "eq7": _eq7,
}
CHAIN_EQUATIONS = (*_RESIDUALS, "eq_final")


def verify_chain_equation(
    base: AWFamily,
    dfam: DerivedFamily,
    which: str,
    n: int,
    extraction: ExtractionResult | None = None,
    workspace: ChainWorkspace | None = None,
) -> OperatorCheckResult:
    """Residual check of one chain equation at one degree.

    The residual is an exact polynomial; passed means it is identically
    zero. eq_final additionally reports the eigenvalue it read off the
    leading coefficient in the witness field. Operator images come from
    workspace, or from a throwaway one when it is None.
    """
    if which not in CHAIN_EQUATIONS:
        raise UsageError(f"unknown chain equation {which!r}")
    if which == "eq_final" and extraction is None:
        raise DependencyError("eq_final needs the extracted coefficient pair")
    t = _Terms(base=base, dfam=dfam, prev=derived_family(base, dfam.k - 1),
               ws=_workspace_for(base, workspace))
    if which == "eq_final":
        h = extraction.f * t.D2(n) + extraction.g * t.SD(n)
        mu = -h.coeff(n)
        res = h + mu * t.P(n)
        return OperatorCheckResult(
            name=which, passed=not res, residual=res, witness=mu
        )
    res = _RESIDUALS[which](t, n)
    return OperatorCheckResult(name=which, passed=not res, residual=res)


def check_no_common_zeros(ctx: QContext, p: PolyX) -> OperatorCheckResult:
    """Certify that D p and S p share no zero, via an exact resultant.

    When D p is a nonzero constant the claim is vacuous and the constant
    itself is the witness; otherwise the witness is the resultant, and the
    check passes exactly when it is nonzero.
    """
    if not p or p.degree < 1:
        raise DomainError("need a polynomial of degree >= 1")
    dp = apply_Dq(ctx, p)
    sp = apply_Sq(ctx, p)
    if dp.degree == 0:
        return OperatorCheckResult(
            name="no_common_zeros", passed=True, witness=dp.coeffs[0]
        )
    w = resultant(dp, sp)
    return OperatorCheckResult(name="no_common_zeros", passed=w != 0, witness=w)


@dataclass(frozen=True)
class CheckRecord:
    """One line of a proof report; k and n are None where they do not
    apply. witness is already rendered to text for the wire format."""

    name: str
    k: int | None
    n: int | None
    passed: bool
    witness: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "n": self.n,
            "passed": self.passed,
            "witness": self.witness,
        }


def check_nonvanishing(
    base: AWFamily, dfam: DerivedFamily, n: int
) -> tuple[CheckRecord, ...]:
    """Nonvanishing certificates the chain divides by at degree n.

    Needs the chain displays at n-1 and n, so 3 <= n <= chain window - 1.
    """
    ctx, k = base.ctx, dfam.k
    cc = chain_coeffs(base, dfam, n)
    ccp = chain_coeffs(base, dfam, n - 1)
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
    base: AWFamily,
    dfam: DerivedFamily,
    extraction: ExtractionResult,
    workspace: ChainWorkspace | None = None,
) -> AWMatch:
    """Match the extracted (f, g) to c * (coefficient form at some sigma).

    The five coefficients of (f, g) determine (c, c*sigma_j) by a linear
    solve; c = 0 or any round-trip discrepancy means no rational parameter
    vector fits and raises NoRationalMatch. As a final consistency check
    the eigenvalue read off eq_final must equal -c times the
    operator-equation eigenvalue at the recovered parameters, for every
    extracted degree; with the solve above this pins the display formula
    of eigenvalue() against the operator algebra. The operator images come
    from workspace, as in verify_chain_equation.
    """
    ctx = base.ctx
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
    ws = _workspace_for(base, workspace)
    prev = derived_family(base, dfam.k - 1)
    for n in sorted(extraction.r):
        h = f * ws.D2(prev, n) + g * ws.SD(prev, n)
        if -h.coeff(n) != -c * eigenvalue(ctx, params, n):
            raise NoRationalMatch(f"eigenvalue mismatch at degree {n}")
    return AWMatch(params=params, c=c)


@dataclass(frozen=True)
class ProofReport:
    context: dict
    checks: tuple[CheckRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def record_sort_key(rec: CheckRecord):
    return (
        rec.name,
        rec.k if rec.k is not None else -1,
        rec.n if rec.n is not None else -1,
    )


def residual_witness(res: OperatorCheckResult) -> str:
    """Report witness of a residual check: "0", or the degree and leading
    coefficient of the nonzero residual."""
    if res.passed:
        return "0"
    lead = format_rational(res.residual.leading)
    return f"deg={res.residual.degree};lead={lead}"


def report_to_dict(report: ProofReport) -> dict:
    return {
        "context": dict(report.context),
        "checks": [c.to_dict() for c in report.checks],
    }


def _verify_one_k(
    base: AWFamily, k: int, n_max: int, ws: ChainWorkspace
) -> list[CheckRecord]:
    ctx = base.ctx
    records: list[CheckRecord] = []
    dfam = derived_family(base, k)
    chain_max = min(dfam.M - 1, base.N - 1 - k)

    def add(name: str, n: int | None, passed: bool, witness: str) -> None:
        records.append(CheckRecord(name=name, k=k, n=n, passed=passed,
                                   witness=witness))

    def run_eq(which: str, n: int, extraction=None) -> OperatorCheckResult:
        res = verify_chain_equation(base, dfam, which, n,
                                    extraction=extraction, workspace=ws)
        add(which, n, res.passed, residual_witness(res))
        return res

    hi_ladder = min(base.N - k, n_max)
    for n in range(1, hi_ladder + 1):
        run_eq("eq1a", n)
    for n in range(2, hi_ladder + 1):
        run_eq("eq1b", n)

    hi_chain = min(chain_max, n_max)
    for n in range(2, hi_chain + 1):
        for which in ("eq3", "eq4", "eq3b", "eq3a", "eq6"):
            run_eq(which, n)
    for n in range(3, min(chain_max + 1, n_max) + 1):
        run_eq("eq7", n)

    extraction = None
    ext_error = None
    if hi_chain >= 2:
        try:
            extraction = extract_rn_fg(base, dfam, range(2, hi_chain + 1))
        except ProportionalityFailure as exc:
            ext_error = str(exc)
        if extraction is None:
            add("proportionality", None, False, ext_error)
            add("aw_form_match", None, False,
                "unavailable: proportionality failed")
            for n in range(2, hi_chain + 1):
                add("eq_final", n, False, "unavailable: proportionality failed")
                add("lambda_formula", n, False,
                    "unavailable: proportionality failed")
        else:
            gk = gamma(ctx, k)
            for n in range(2, hi_chain + 1):
                add("proportionality", n, True,
                    format_rational(extraction.r[n]))
                res = run_eq("eq_final", n, extraction=extraction)
                cc = chain_coeffs(base, dfam, n)
                expected = gk * cc.Etilde * dfam.recurrence_C(n - 1) \
                    / (extraction.r[n] * gamma(ctx, n - 1))
                mu = res.witness
                ok = mu == expected
                add("lambda_formula", n, ok,
                    format_rational(mu) if ok
                    else f"{format_rational(mu)} != {format_rational(expected)}")
            try:
                match = verify_final_matches_aw(base, dfam, extraction,
                                                workspace=ws)
                sig = ",".join(format_rational(s) for s in match.params.sigmas)
                add("aw_form_match", None, True,
                    f"c={format_rational(match.c)};sigmas={sig}")
            except NoRationalMatch as exc:
                add("aw_form_match", None, False, str(exc))

    for n in range(3, min(chain_max - 1, n_max) + 1):
        records.extend(check_nonvanishing(base, dfam, n))

    for n in range(1, min(dfam.M, n_max) + 1):
        res = check_no_common_zeros(ctx, dfam.polys[n])
        add("no_common_zeros", n, res.passed, format_rational(res.witness))

    return records


def chain_orders(k_list: Iterable[int], N: int, n_max: int) -> list[int]:
    """Validate a chain run on a base of size N; return its sorted orders.

    eq_final is checked at 2 <= n <= min(n_max, N - k - 1), so a run with
    n_max < 2 or N < k + 3 for some k would certify nothing for that k and
    is rejected instead."""
    ks = sorted(set(k_list))
    if not ks:
        raise UsageError("need at least one derivation order k")
    for k in ks:
        if not isinstance(k, int) or k < 1:
            raise UsageError(f"derivation orders must be ints >= 1, got {k!r}")
    if n_max < 2 or N < ks[-1] + 3:
        raise UsageError(
            f"n_max={n_max} and N={N} leave nothing to verify at k={ks[-1]}; "
            f"need n_max >= 2 and N >= {ks[-1] + 3}"
        )
    return ks


def run_chain_verification(
    base: AWFamily, k_list: Iterable[int], n_max: int
) -> ProofReport:
    """Run the whole chain for each k and collect a sorted report.

    Verification failures become failed records, never exceptions; bad
    arguments, including runs that would verify nothing, still raise."""
    ks = chain_orders(k_list, base.N, n_max)
    ws = ChainWorkspace(base)
    records: list[CheckRecord] = []
    for k in ks:
        records.extend(_verify_one_k(base, k, n_max, ws))
    records.sort(key=record_sort_key)
    context = {
        "v": format_rational(base.ctx.v),
        "sigmas": [format_rational(s) for s in base.params.sigmas],
        "N": base.N,
        "n_max": n_max,
        "k": ks,
    }
    return ProofReport(context=context, checks=tuple(records))
