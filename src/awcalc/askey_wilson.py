"""Monic polynomial families solving a second-order D/S operator equation.

The equation. For a parameter vector sigma = (sigma1, ..., sigma4) (the
elementary symmetric functions of four roots a, b, c, d when given that
way) define

    f(x) = -q^(-1/2) * (2(1 + sigma4) x^2 - (sigma1 + sigma3) x
                        - 1 + sigma2 - sigma4)
    g(x) = 2/(1 - q) * (2(sigma4 - 1) x + sigma1 - sigma3)

and the eigenvalues

    lambda_n = 4 q (1 - q^(-n)) (1 - sigma4 q^(n-1)) / (1 - q)^2.

The operator L[y] = f D^2 y + g SD y maps x^n to a polynomial of degree n
whose leading coefficient is lambda_n, so L is triangular on monomials and
L[y] = lambda_n y has a unique monic degree-n polynomial solution whenever
lambda_n differs from lambda_0, ..., lambda_(n-1). solve_operator_equation
finds it by exact back-substitution and refuses to hand back anything it
cannot recheck to a zero residual.

lambda_n - lambda_m factors as a nonzero multiple of
(q^n - q^m)(q^(-n-m) - sigma4 q^(-1)), so collisions happen exactly when
sigma4 is a nonpositive power of q; build_family rejects those parameter
vectors up front (DegenerateParams).

A family carries its three-term recurrence data

    x p_n = p_(n+1) + B_n p_n + C_n p_(n-1),

extracted exactly from the polynomials themselves, and round-trips through
a plain-JSON dict form for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateParams,
    EigenvalueCollision,
    InternalError,
    OrthogonalityBroken,
    UsageError,
)
from .qoperators import apply_Dq, apply_Sq
from .qpoly import PolyX
from .scalars import QContext, Rational, format_rational, make_qcontext, parse_rational


def _rat(value) -> Rational:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise UsageError(f"expected a rational parameter, got {value!r}")


@dataclass(frozen=True)
class AWParams:
    """Parameter vector: the elementary symmetric functions of the four
    roots, however they were given."""

    sigma1: Rational
    sigma2: Rational
    sigma3: Rational
    sigma4: Rational

    @property
    def sigmas(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.sigma1, self.sigma2, self.sigma3, self.sigma4)


def params_from_sigmas(s1, s2, s3, s4) -> AWParams:
    return AWParams(_rat(s1), _rat(s2), _rat(s3), _rat(s4))


def params_from_roots(a, b, c, d) -> AWParams:
    a, b, c, d = _rat(a), _rat(b), _rat(c), _rat(d)
    s1 = a + b + c + d
    s2 = a * b + a * c + a * d + b * c + b * d + c * d
    s3 = a * b * c + a * b * d + a * c * d + b * c * d
    s4 = a * b * c * d
    return AWParams(s1, s2, s3, s4)


def make_params(roots=None, sigmas=None) -> AWParams:
    """Exactly one of roots / sigmas, each a 4-sequence."""
    if (roots is None) == (sigmas is None):
        raise UsageError("give exactly one of roots= or sigmas=")
    values = roots if roots is not None else sigmas
    if len(values) != 4:
        raise UsageError(f"need exactly 4 values, got {len(values)}")
    if roots is not None:
        return params_from_roots(*values)
    return params_from_sigmas(*values)


def equation_coeffs(ctx: QContext, params: AWParams) -> tuple[PolyX, PolyX]:
    """(f, g) of the operator equation f D^2 y + g SD y = lambda_n y."""
    s1, s2, s3, s4 = params.sigmas
    qinv_sqrt = 1 / ctx.v
    f = -qinv_sqrt * PolyX((s2 - s4 - 1, -(s1 + s3), 2 * (1 + s4)))
    g = (2 / (1 - ctx.q)) * PolyX((s1 - s3, 2 * (s4 - 1)))
    return f, g


def eigenvalue(ctx: QContext, params: AWParams, n: int) -> Rational:
    """lambda_n; zero at n = 0 and injective in n for admissible sigma4."""
    if n < 0:
        raise UsageError(f"eigenvalue index must be >= 0, got {n}")
    q = ctx.q
    return 4 * q * (1 - ctx.qpow(-n)) * (1 - params.sigma4 * ctx.qpow(n - 1)) \
        / (1 - q) ** 2


def _reject_degenerate(ctx: QContext, params: AWParams, N: int) -> None:
    # sigma4 = q^(-j) for 0 <= j <= 2N-2 makes lambda_n = lambda_m collide
    # for some m < n <= N; q^(-j) is increasing, so stop once it passes.
    s4 = params.sigma4
    if s4 <= 0:
        return
    for j in range(max(2 * N - 1, 1)):
        p = ctx.qpow(-j)
        if p == s4:
            raise DegenerateParams(
                f"sigma4 = q^(-{j}) collides eigenvalues up to degree {N}"
            )
        if p > s4:
            return


def _apply_L(ctx: QContext, f: PolyX, g: PolyX, y: PolyX) -> PolyX:
    dy = apply_Dq(ctx, y)
    return f * apply_Dq(ctx, dy) + g * apply_Sq(ctx, dy)


def solve_operator_equation(ctx: QContext, params: AWParams, n: int) -> PolyX:
    """Unique monic degree-n solution of L[y] = lambda_n y.

    Back-substitution down the triangular coefficient matrix; raises
    EigenvalueCollision if lambda_n meets a lower diagonal entry, and
    InternalError if the rechecked residual is not exactly zero.
    """
    if n < 0:
        raise UsageError(f"degree must be >= 0, got {n}")
    f, g = equation_coeffs(ctx, params)
    images = [_apply_L(ctx, f, g, PolyX.monomial(m)) for m in range(n + 1)]
    lam = eigenvalue(ctx, params, n)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    for m in reversed(range(n)):
        rhs = sum((images[j].coeff(m) * coeffs[j] for j in range(m + 1, n + 1)),
                  Fraction(0))
        denom = lam - images[m].coeff(m)
        if denom == 0:
            raise EigenvalueCollision(
                f"lambda_{n} equals the diagonal entry at degree {m}"
            )
        coeffs[m] = rhs / denom
    y = PolyX(tuple(coeffs))
    if _apply_L(ctx, f, g, y) - lam * y:
        raise InternalError("solved polynomial fails the equation recheck")
    return y


def three_term_data(polys: tuple[PolyX, ...]) -> tuple[tuple, tuple]:
    """Extract B_0..B_(N-1) and C_1..C_(N-1) from monic polynomials.

    x p_n - p_(n+1) must reduce exactly to B_n p_n + C_n p_(n-1); anything
    left over means the sequence is not a genuine orthogonal ladder and
    raises OrthogonalityBroken.
    """
    top = len(polys) - 1
    bs: list[Rational] = []
    cs: list[Rational] = []
    for n in range(top):
        r = PolyX.x() * polys[n] - polys[n + 1]
        if r.degree > n:
            raise OrthogonalityBroken(f"x p_{n} - p_{n + 1} has degree > {n}")
        bn = r.coeff(n)
        bs.append(bn)
        r = r - bn * polys[n]
        if n == 0:
            if r:
                raise OrthogonalityBroken("degree-0 step left a remainder")
            continue
        cn = r.coeff(n - 1)
        if r != cn * polys[n - 1]:
            raise OrthogonalityBroken(
                f"remainder at n={n} is not a multiple of p_{n - 1}"
            )
        cs.append(cn)
    return tuple(bs), tuple(cs)


class Ladder:
    """Index-checked access to monic polys p_0..p_M and their recurrence
    data: B holds B_0..B_(M-1), C holds C_1..C_(M-1) stored shifted. Use
    the accessors, they do the index bookkeeping."""

    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]

    def poly(self, n: int) -> PolyX:
        if not 0 <= n < len(self.polys):
            raise IndexError(f"index {n} outside 0..{len(self.polys) - 1}")
        return self.polys[n]

    def recurrence_B(self, n: int) -> Rational:
        if not 0 <= n < len(self.B):
            raise IndexError(f"B_{n} not available (have 0..{len(self.B) - 1})")
        return self.B[n]

    def recurrence_C(self, n: int) -> Rational:
        if not 1 <= n <= len(self.C):
            raise IndexError(f"C_{n} not available (have 1..{len(self.C)})")
        return self.C[n - 1]


@dataclass(frozen=True)
class AWFamily(Ladder):
    """Monic solutions p_0..p_N with their recurrence data."""

    ctx: QContext
    params: AWParams
    N: int
    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]


def build_family(ctx: QContext, params: AWParams, N: int) -> AWFamily:
    if N < 0:
        raise UsageError(f"family size must be >= 0, got {N}")
    _reject_degenerate(ctx, params, N)
    polys = tuple(solve_operator_equation(ctx, params, n) for n in range(N + 1))
    bs, cs = three_term_data(polys)
    return AWFamily(ctx=ctx, params=params, N=N, polys=polys, B=bs, C=cs)


def family_to_dict(family: AWFamily) -> dict:
    return {
        "v": format_rational(family.ctx.v),
        "sigmas": [format_rational(s) for s in family.params.sigmas],
        "N": family.N,
        "polys": [p.to_json() for p in family.polys],
        "B": [format_rational(b) for b in family.B],
        "C": [format_rational(c) for c in family.C],
    }


def family_from_dict(data: dict) -> AWFamily:
    """Load the dict form. Shapes and monicity are validated so downstream
    index arithmetic is safe; the recurrence values are taken as given,
    consistent or not, which is what lets verification catch corrupt ones."""
    if not isinstance(data, dict):
        raise UsageError("family data must be a JSON object")
    missing = {"v", "sigmas", "N", "polys", "B", "C"} - set(data)
    if missing:
        raise UsageError(f"family data missing keys: {sorted(missing)}")
    ctx = make_qcontext(parse_rational(data["v"]))
    sigmas = data["sigmas"]
    if not isinstance(sigmas, list) or len(sigmas) != 4:
        raise UsageError("sigmas must be a list of 4 rational strings")
    params = params_from_sigmas(*(parse_rational(s) for s in sigmas))
    N = data["N"]
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise UsageError(f"N must be an int >= 0, got {N!r}")
    polys_raw = data["polys"]
    if not isinstance(polys_raw, list) or len(polys_raw) != N + 1:
        raise UsageError(f"polys must be a list of {N + 1} polynomials")
    polys = tuple(PolyX.from_json(item) for item in polys_raw)
    for j, p in enumerate(polys):
        if p.degree != j or p.leading != 1:
            raise UsageError(f"polynomial {j} is not monic of degree {j}")
    braw, craw = data["B"], data["C"]
    if not isinstance(braw, list) or len(braw) != N:
        raise UsageError(f"B must be a list of {N} rationals")
    if not isinstance(craw, list) or len(craw) != max(N - 1, 0):
        raise UsageError(f"C must be a list of {max(N - 1, 0)} rationals")
    bs = tuple(parse_rational(s) for s in braw)
    cs = tuple(parse_rational(s) for s in craw)
    return AWFamily(ctx=ctx, params=params, N=N, polys=polys, B=bs, C=cs)
