"""The divided-difference operator D and the averaging operator S.

Both act on polynomials in x through the substitution x = (z + 1/z)/2.
Writing f-breve for the symmetric Laurent form of f and shifting z by
v = q^(1/2),

    (D f)-breve (z) = (f-breve(vz) - f-breve(z/v)) / (e(vz) - e(z/v)),
    (S f)-breve (z) = (f-breve(vz) + f-breve(z/v)) / 2,

with e(z) = (z + 1/z)/2. On the basis element z^j + z^(-j) these come out
in closed form: S is diagonal with multiplier alpha_j, and D maps it to
2*gamma_j*(z^(j-1) + z^(j-3) + ... + z^(1-j)), dropping the degree by one.
That is what apply_Dq and apply_Sq implement; the defining quotient above
is re-derived independently in the test suite and checked against them.

D lowers degree by exactly one and scales the leading coefficient by
gamma_n; S preserves degree and scales it by alpha_n.

The four structural identities these operators satisfy (product rules and
the two second-order compositions) are bundled here as named checks, since
the whole verification engine downstream rests on them:

    product_D:  D(fg) = Df Sg + Sf Dg
    product_S:  S(fg) = U2 Df Dg + Sf Sg
    S_squared:  S^2 f = alpha U2 D^2 f + U1 SD f + f
    DS_commute: DS f  = alpha SD f + U1 D^2 f

where U1(x) = (alpha^2 - 1) x and U2(x) = (alpha^2 - 1)(x^2 - 1).

The checks read their D and S images from an OperatorImages table, which
applies each operator to each distinct polynomial once. One table serves
the identity and k-fold checks of one trial, which share f, D f, S f and
D^j f; a new trial starts a new table.

A check's outcome is an OperatorCheckResult. CheckRecord.of turns it into
one line of a report and ProofReport holds a run's lines in report order;
both live here, beside the result type, so that verify-identities reports
its checks without loading the chain engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .qpoly import LaurentSym, PolyX, from_laurent, to_laurent
from .scalars import QContext, Rational, alpha_k, format_rational, gamma

IDENTITIES = ("product_D", "product_S", "S_squared", "DS_commute")


def apply_Dq(ctx: QContext, p: PolyX) -> PolyX:
    """Divided-difference operator; degree n goes to n - 1.

    >>> from awcalc.scalars import make_qcontext
    >>> ctx = make_qcontext(Fraction(1, 2))
    >>> apply_Dq(ctx, PolyX.monomial(2))        # D x^2 = 2*alpha*x
    PolyX(5/2*x)
    """
    lp = to_laurent(p)
    if lp.top <= 0:
        return PolyX.zero()
    out = [Fraction(0)] * lp.top
    for j in range(1, lp.top + 1):
        cj = lp.c[j]
        if cj == 0:
            continue
        w = 2 * cj * gamma(ctx, j)
        m = j - 1
        while m >= 0:
            out[m] += w
            m -= 2
    return from_laurent(LaurentSym(tuple(out)))


def apply_Sq(ctx: QContext, p: PolyX) -> PolyX:
    """Averaging operator; diagonal in the Laurent basis, multiplier alpha_j.

    >>> from awcalc.scalars import make_qcontext
    >>> ctx = make_qcontext(Fraction(1, 2))
    >>> apply_Sq(ctx, PolyX.monomial(2))
    PolyX(-9/16 + 17/8*x^2)
    """
    lp = to_laurent(p)
    scaled = tuple(alpha_k(ctx, j) * lp.c[j] for j in range(lp.top + 1))
    return from_laurent(LaurentSym(scaled))


def structural_polys(ctx: QContext) -> tuple[PolyX, PolyX]:
    """The companion polynomials U1 = (alpha^2 - 1) x and
    U2 = (alpha^2 - 1)(x^2 - 1) appearing in every composition rule."""
    s = ctx.alpha * ctx.alpha - 1
    u1 = PolyX((Fraction(0), s))
    u2 = PolyX((-s, Fraction(0), s))
    return u1, u2


class OperatorImages:
    """D and S images at one context, each computed once per polynomial.

    D(p) and S(p) call apply_Dq/apply_Sq on the first request for a given
    p.coeffs and return the stored image afterwards. The table grows with
    every distinct input, so it is meant to live for one batch of checks
    on the same few polynomials, such as one verify-identities trial.

    >>> from awcalc.scalars import make_qcontext
    >>> images = OperatorImages(make_qcontext(Fraction(1, 2)))
    >>> x2 = PolyX.monomial(2)
    >>> images.D(x2) is images.D(PolyX((0, 0, 1)))
    True
    """

    def __init__(self, ctx: QContext) -> None:
        self.ctx = ctx
        self._d: dict[tuple, PolyX] = {}
        self._s: dict[tuple, PolyX] = {}

    def D(self, p: PolyX) -> PolyX:
        image = self._d.get(p.coeffs)
        if image is None:
            image = self._d[p.coeffs] = apply_Dq(self.ctx, p)
        return image

    def S(self, p: PolyX) -> PolyX:
        image = self._s.get(p.coeffs)
        if image is None:
            image = self._s[p.coeffs] = apply_Sq(self.ctx, p)
        return image


@dataclass(frozen=True)
class OperatorCheckResult:
    """Outcome of one verification.

    For residual-style checks `passed` holds exactly when `residual` is the
    zero polynomial and `witness` is None. Value-style checks (resultants,
    nonvanishing scalars) put the deciding scalar in `witness` instead, or
    a certificate already rendered as text, such as a resultant mod a
    prime.
    """

    name: str
    passed: bool
    residual: PolyX | None = None
    witness: Rational | str | None = None


@dataclass(frozen=True)
class CheckRecord:
    """One line of a proof report; k and n are None where they do not
    apply. witness is already rendered to text for the wire format, and
    dataclasses.asdict gives the record's JSON object."""

    name: str
    k: int | None
    n: int | None
    passed: bool
    witness: str

    @classmethod
    def of(cls, result: OperatorCheckResult, k: int | None,
           n: int | None) -> CheckRecord:
        """The record of one check result. A residual check, eq_final
        included, is witnessed by "0" or by the degree and leading
        coefficient of its nonzero residual; a value check by its deciding
        rational, or by its certificate text."""
        if isinstance(result.witness, str):
            witness = result.witness
        elif result.residual is None:
            witness = format_rational(result.witness)
        elif result.passed:
            witness = "0"
        else:
            lead = format_rational(result.residual.leading)
            witness = f"deg={result.residual.degree};lead={lead}"
        return cls(name=result.name, k=k, n=n, passed=result.passed,
                   witness=witness)


@dataclass(frozen=True)
class ProofReport:
    """A run's context and its check records, held in report order: by
    name, then k, then n, with None before every number. The sort is
    stable, so records that tie keep the order they were given in.
    dataclasses.asdict gives the report's JSON object."""

    context: dict
    checks: tuple[CheckRecord, ...]

    def __post_init__(self) -> None:
        # k and n are never negative, so -1 puts None first
        object.__setattr__(self, "checks", tuple(sorted(
            self.checks,
            key=lambda rec: (rec.name,
                             -1 if rec.k is None else rec.k,
                             -1 if rec.n is None else rec.n),
        )))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _residual_result(name: str, residual: PolyX) -> OperatorCheckResult:
    return OperatorCheckResult(name=name, passed=not residual, residual=residual)


def verify_identity(
    images: OperatorImages, which: str, f: PolyX, g: PolyX | None = None
) -> OperatorCheckResult:
    """Check one of the four structural identities on concrete input.

    product_D and product_S need both f and g; the composition identities
    use f alone. Every D and S image comes from `images`, so the four
    identities of one trial apply each operator to f, g, f*g, D f and S f
    once between them. The returned residual is left-hand side minus
    right-hand side, exactly.
    """
    if which not in IDENTITIES:
        raise UsageError(f"unknown identity {which!r}; known: {IDENTITIES}")
    if which in ("product_D", "product_S") and g is None:
        raise UsageError(f"identity {which} needs a second polynomial")
    ctx, D, S = images.ctx, images.D, images.S
    u1, u2 = structural_polys(ctx)
    df, sf = D(f), S(f)
    if which == "product_D":
        residual = D(f * g) - (df * S(g) + sf * D(g))
    elif which == "product_S":
        residual = S(f * g) - (u2 * df * D(g) + sf * S(g))
    elif which == "S_squared":
        residual = S(sf) - (ctx.alpha * u2 * D(df) + u1 * S(df) + f)
    else:
        residual = D(sf) - (ctx.alpha * S(df) + u1 * D(df))
    return _residual_result(which, residual)


def verify_k_fold_rule(
    images: OperatorImages, f: PolyX, kmax: int
) -> tuple[OperatorCheckResult, ...]:
    """The k-fold image of x*f, for k = 1..kmax in that order:

        D^k(x f) = gamma_k SD^(k-1) f + alpha_k x D^k f.

    k = 1 is the plain product rule applied to x*f; induction on k rides on
    DS_commute, which is why this is checked for a range of k. D^j f and
    D^j (x f) are built one D per rung and S is taken once per k, all from
    `images`, so the rungs the identity checks already made are reused.
    """
    if kmax < 1:
        raise UsageError(f"k-fold rule needs k >= 1, got {kmax}")
    ctx = images.ctx
    x = PolyX.x()
    d_f, d_xf = [f], [x * f]
    for _ in range(kmax):
        d_f.append(images.D(d_f[-1]))
        d_xf.append(images.D(d_xf[-1]))
    return tuple(
        _residual_result(f"kfold_k{k}", d_xf[k] - (
            gamma(ctx, k) * images.S(d_f[k - 1])
            + alpha_k(ctx, k) * x * d_f[k]))
        for k in range(1, kmax + 1)
    )
