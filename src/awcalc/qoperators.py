"""The divided-difference operator D and the averaging operator S.

Both act on polynomials in x through the substitution x = (z + 1/z)/2.
Writing f-breve for the symmetric Laurent form of f and shifting z by
v = q^(1/2),

    (D f)-breve (z) = (f-breve(vz) - f-breve(z/v)) / (e(vz) - e(z/v)),
    (S f)-breve (z) = (f-breve(vz) + f-breve(z/v)) / 2,

with e(z) = (z + 1/z)/2. On the basis element z^j + z^(-j) these come out
in closed form: S is diagonal with multiplier alpha_j, and D maps it to
2*gamma_j*(z^(j-1) + z^(j-3) + ... + z^(1-j)), dropping the degree by one.
The kernels _dq_laurent and _sq_laurent implement these on Laurent
coefficients, and apply_Dq and apply_Sq wrap them between to_laurent and
from_laurent; the defining quotient above is re-derived independently in
the test suite and checked against them. Every image leaves from_laurent
remembering the kernel's output as its Laurent form (qpoly), so an image
fed to the next operator, or compared in the Laurent basis, is not
converted forward again.

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

The checks compare the two sides in the Laurent basis. Each left side is
an operator image that is only compared, never multiplied, so it is kept
there: D(fg), S(fg), S^2 f, DS f and the ladder D^k(x f) of the k-fold
rule. Each right side is formed in x, as PolyX products of D and S images,
and converted forward once. to_laurent is a linear bijection, so the
residual brought back by from_laurent is exactly LHS - RHS in x, and the
products are never taken in the Laurent ring the operators are defined in.
A trial converts 13 polynomials forward, each once: f, g, f g, x f and
the nine right sides.

Every D and S image the program reads in x comes from an OperatorImages
table, keyed by object identity, which applies each operator to each
polynomial once. One table serves the checks of one identity trial, which
share f, g, f g, D f, S f and D^j f. A family keeps the table its build
recheck filled (askey_wilson), and the chain ladder steps through it
(proof_engine).

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


def _dq_laurent(ctx: QContext, lp: LaurentSym) -> LaurentSym:
    """D in the Laurent basis: z^j + z^(-j) goes to
    2*gamma_j*(z^(j-1) + z^(j-3) + ... + z^(1-j))."""
    if lp.top <= 0:
        return LaurentSym.zero()
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
    return LaurentSym(tuple(out))


def _sq_laurent(ctx: QContext, lp: LaurentSym) -> LaurentSym:
    """S in the Laurent basis: diagonal, multiplier alpha_j at level j."""
    return LaurentSym(tuple(alpha_k(ctx, j) * lp.c[j]
                            for j in range(lp.top + 1)))


def apply_Dq(ctx: QContext, p: PolyX) -> PolyX:
    """Divided-difference operator; degree n goes to n - 1.

    >>> from awcalc.scalars import make_qcontext
    >>> ctx = make_qcontext(Fraction(1, 2))
    >>> apply_Dq(ctx, PolyX.monomial(2))        # D x^2 = 2*alpha*x
    PolyX(5/2*x)
    """
    return from_laurent(_dq_laurent(ctx, to_laurent(p)))


def apply_Sq(ctx: QContext, p: PolyX) -> PolyX:
    """Averaging operator; diagonal in the Laurent basis, multiplier alpha_j.

    >>> from awcalc.scalars import make_qcontext
    >>> ctx = make_qcontext(Fraction(1, 2))
    >>> apply_Sq(ctx, PolyX.monomial(2))
    PolyX(-9/16 + 17/8*x^2)
    """
    return from_laurent(_sq_laurent(ctx, to_laurent(p)))


def structural_polys(ctx: QContext) -> tuple[PolyX, PolyX]:
    """The companion polynomials U1 = (alpha^2 - 1) x and
    U2 = (alpha^2 - 1)(x^2 - 1) appearing in every composition rule."""
    s = ctx.alpha * ctx.alpha - 1
    u1 = PolyX((Fraction(0), s))
    u2 = PolyX((-s, Fraction(0), s))
    return u1, u2


class OperatorImages:
    """D and S images at one context, each computed once per polynomial.

    D(p) and S(p) call apply_Dq/apply_Sq on the first request for the
    object p and return the stored image afterwards; step(p) is the stored
    D p / gamma_n for p of degree n >= 1, and D p = 0 for a constant.
    product(f, g) is the stored f g of a pair of objects, which the two
    product rules of an identity trial share. An equal polynomial built
    anew is a new key. Each entry holds its key, so no id is reused while
    the table lives: one identity trial, or one family.

    >>> from awcalc.scalars import make_qcontext
    >>> images = OperatorImages(make_qcontext(Fraction(1, 2)))
    >>> x2 = PolyX.monomial(2)
    >>> images.D(x2) is images.D(x2), images.D(x2) is images.D(PolyX((0, 0, 1)))
    (True, False)
    >>> images.step(x2)                        # D x^2 / gamma_2
    PolyX(1*x)
    """

    def __init__(self, ctx: QContext) -> None:
        self.ctx = ctx
        # id(p) -> (p, image): the stored p keeps its id from being reused
        self._d: dict[int, tuple[PolyX, PolyX]] = {}
        self._s: dict[int, tuple[PolyX, PolyX]] = {}
        self._step: dict[int, tuple[PolyX, PolyX]] = {}
        self._product: dict[tuple[int, int], tuple[PolyX, PolyX, PolyX]] = {}

    def D(self, p: PolyX) -> PolyX:
        entry = self._d.get(id(p))
        if entry is None:
            entry = self._d[id(p)] = (p, apply_Dq(self.ctx, p))
        return entry[1]

    def S(self, p: PolyX) -> PolyX:
        entry = self._s.get(id(p))
        if entry is None:
            entry = self._s[id(p)] = (p, apply_Sq(self.ctx, p))
        return entry[1]

    def step(self, p: PolyX) -> PolyX:
        entry = self._step.get(id(p))
        if entry is None:
            dp = self.D(p)
            image = dp / gamma(self.ctx, p.degree) if p.degree >= 1 else dp
            entry = self._step[id(p)] = (p, image)
        return entry[1]

    def product(self, f: PolyX, g: PolyX) -> PolyX:
        entry = self._product.get((id(f), id(g)))
        if entry is None:
            entry = self._product[id(f), id(g)] = (f, g, f * g)
        return entry[2]


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


def _residual_result(name: str, lhs: LaurentSym,
                     rhs: PolyX) -> OperatorCheckResult:
    """The check lhs = rhs, with lhs in the Laurent basis and rhs in x.

    to_laurent is a linear bijection, so the residual brought back to x
    is exactly LHS - RHS as both sides would read in x."""
    residual = from_laurent(lhs - to_laurent(rhs))
    return OperatorCheckResult(name=name, passed=not residual, residual=residual)


def verify_identity(
    images: OperatorImages, which: str, f: PolyX, g: PolyX | None = None
) -> OperatorCheckResult:
    """Check one of the four structural identities on concrete input.

    product_D and product_S need both f and g; the composition identities
    use f alone. The left side, D(fg), S(fg), S(Sf) or D(Sf), is only
    compared, so it stays in the Laurent basis; fg is the table's product,
    one per trial, and S f arrives with its Laurent form. The right side
    is formed in x: PolyX products of D and S images from `images`, so the
    four identities of one trial apply each operator to f, g and D f once
    between them. It is converted to the Laurent basis once, and the
    returned residual is left-hand side minus right-hand side in x,
    exactly.
    """
    if which not in IDENTITIES:
        raise UsageError(f"unknown identity {which!r}; known: {IDENTITIES}")
    if which in ("product_D", "product_S") and g is None:
        raise UsageError(f"identity {which} needs a second polynomial")
    ctx, D, S = images.ctx, images.D, images.S
    u1, u2 = structural_polys(ctx)
    df, sf = D(f), S(f)
    if which == "product_D":
        lhs = _dq_laurent(ctx, to_laurent(images.product(f, g)))
        rhs = df * S(g) + sf * D(g)
    elif which == "product_S":
        lhs = _sq_laurent(ctx, to_laurent(images.product(f, g)))
        rhs = u2 * df * D(g) + sf * S(g)
    elif which == "S_squared":
        lhs = _sq_laurent(ctx, to_laurent(sf))
        rhs = ctx.alpha * u2 * D(df) + u1 * S(df) + f
    else:
        lhs = _dq_laurent(ctx, to_laurent(sf))
        rhs = ctx.alpha * S(df) + u1 * D(df)
    return _residual_result(which, lhs, rhs)


def verify_k_fold_rule(
    images: OperatorImages, f: PolyX, kmax: int
) -> tuple[OperatorCheckResult, ...]:
    """The k-fold image of x*f, for k = 1..kmax in that order:

        D^k(x f) = gamma_k SD^(k-1) f + alpha_k x D^k f.

    k = 1 is the plain product rule applied to x*f; induction on k rides on
    DS_commute, which is why this is checked for a range of k. The left
    side is only compared, so the ladder D^k(x f) stays in the Laurent
    basis, one D per rung. The right side is formed in x: D^j f one D per
    rung and S once per k, all from `images`, so the rungs the identity
    checks already made are reused.
    """
    if kmax < 1:
        raise UsageError(f"k-fold rule needs k >= 1, got {kmax}")
    ctx = images.ctx
    x = PolyX.x()
    d_f, d_xf = [f], [to_laurent(x * f)]
    for _ in range(kmax):
        d_f.append(images.D(d_f[-1]))
        d_xf.append(_dq_laurent(ctx, d_xf[-1]))
    return tuple(
        _residual_result(f"kfold_k{k}", d_xf[k],
                         gamma(ctx, k) * images.S(d_f[k - 1])
                         + alpha_k(ctx, k) * x * d_f[k])
        for k in range(1, kmax + 1)
    )
