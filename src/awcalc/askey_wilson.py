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
computes the image table L[x^0], ..., L[x^N] once per family and finds
every p_n by exact back-substitution on it. The table applies neither D
nor S: the product rules D(x y) = S y + alpha x D y and
S(x y) = U2 D y + alpha x S y (qoperators) step D x^m and S x^m up from
D 1 = 0 and S 1 = 1, and linearity gives D^2 x^m and SD x^m from those.
solve_operator_equation refuses to hand back a p_n that does not recheck
to a zero residual, and the recheck applies D and S to p_n itself, never
to a combination of the shared images. The recheck's images D p_n, D^2 p_n
and SD p_n stay on the family (AWFamily.recheck), and the verification
chain reads its first two derived orders, and the S images of the first,
from them instead of applying D and S again (proof_engine).

lambda_n - lambda_m factors as a nonzero multiple of
(q^n - q^m)(q^(-n-m) - sigma4 q^(-1)), so collisions happen exactly when
sigma4 is a nonpositive power of q; build_family rejects those parameter
vectors up front (DegenerateParams).

A family carries its three-term recurrence data

    x p_n = p_(n+1) + B_n p_n + C_n p_(n-1),

extracted exactly from the polynomials themselves. Its plain-JSON dict form
is read back by rebuilding it from v, sigmas and N (family_from_dict).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile

from .errors import (
    DegenerateParams,
    EigenvalueCollision,
    FamilyMismatch,
    InternalError,
    OrthogonalityBroken,
    UsageError,
)
from .qoperators import apply_Dq, apply_Sq, structural_polys
from .qpoly import PolyX
from .scalars import (
    QContext,
    Rational,
    as_rational,
    format_rational,
    make_qcontext,
    parse_rational,
)


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
    return AWParams(*(as_rational(s) for s in (s1, s2, s3, s4)))


def params_from_roots(a, b, c, d) -> AWParams:
    a, b, c, d = (as_rational(r) for r in (a, b, c, d))
    s1 = a + b + c + d
    s2 = a * b + a * c + a * d + b * c + b * d + c * d
    s3 = a * b * c + a * b * d + a * c * d + b * c * d
    s4 = a * b * c * d
    return AWParams(s1, s2, s3, s4)


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


@dataclass(frozen=True, eq=False)
class RecheckImages:
    """D p, D^2 p and SD p of one polynomial p, each applied to p itself.

    An image is valid for p alone, so a reader compares its p with `is`:
    a family rebuilt around another polynomial at the same index must not
    inherit these."""

    poly: PolyX
    D: PolyX
    D2: PolyX
    SD: PolyX

    @classmethod
    def of(cls, ctx: QContext, p: PolyX) -> "RecheckImages":
        dp = apply_Dq(ctx, p)
        return cls(poly=p, D=dp, D2=apply_Dq(ctx, dp), SD=apply_Sq(ctx, dp))


def _monomial_images(ctx: QContext, f: PolyX, g: PolyX, N: int) -> list[PolyX]:
    """L[x^m] for m = 0..N, without applying D or S.

    The product rules with one factor x (D x = gamma_1 = 1, S x = alpha x)
    step the images of x^m up from D 1 = 0 and S 1 = 1:

        D x^m = S x^(m-1) + alpha x D x^(m-1)
        S x^m = U2 D x^(m-1) + alpha x S x^(m-1)

    D^2 x^m and SD x^m are then the coefficients of D x^m taken against
    those two tables, by linearity.
    """
    _, u2 = structural_polys(ctx)
    ax = PolyX.monomial(1, ctx.alpha)
    d, s = [PolyX.zero()], [PolyX.constant(1)]
    for _ in range(N):
        dm, sm = d[-1], s[-1]
        d.append(sm + ax * dm)
        s.append(u2 * dm + ax * sm)
    images = []
    for dm in d:
        d2 = sum((c * dx for c, dx in zip(dm.coeffs, d)), PolyX.zero())
        sd = sum((c * sx for c, sx in zip(dm.coeffs, s)), PolyX.zero())
        images.append(f * d2 + g * sd)
    return images


def solve_operator_equation(ctx: QContext, params: AWParams,
                            N: int) -> tuple[RecheckImages, ...]:
    """Monic solutions p_0..p_N of L[y] = lambda_n y, p_n of degree n, each
    with the images its recheck applied (RecheckImages.poly is p_n).

    L[x^m] is computed once for m = 0..N from the product rules, without
    applying an operator, and each p_n comes from back-substitution down
    that one triangular coefficient matrix. Per degree, raises
    EigenvalueCollision if lambda_n meets a lower diagonal entry, and
    InternalError if L[p_n] - lambda_n p_n, recomputed by applying D and S
    to p_n itself, is not exactly zero. So a build applies D 2(N + 1)
    times and S N + 1 times, all in the recheck.
    """
    if N < 0:
        raise UsageError(f"degree must be >= 0, got {N}")
    f, g = equation_coeffs(ctx, params)
    images = _monomial_images(ctx, f, g, N)
    solved: list[RecheckImages] = []
    for n in range(N + 1):
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
        rechecked = RecheckImages.of(ctx, y)
        if f * rechecked.D2 + g * rechecked.SD - lam * y:
            raise InternalError("solved polynomial fails the equation recheck")
        solved.append(rechecked)
    return tuple(solved)


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


@dataclass(frozen=True, eq=False)
class AWFamily(Ladder):
    """Monic solutions p_0..p_N with their recurrence data.

    Families hash and compare by identity: a cache keyed on a family costs
    O(1) per lookup instead of a walk over every coefficient. Two builds
    from equal arguments are distinct keys that give equal reports.

    recheck holds the build recheck's images of p_0..p_N; it is not part
    of the family's dict form, and a loaded family gets its own from the
    rebuild."""

    ctx: QContext
    params: AWParams
    N: int
    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]
    recheck: tuple[RecheckImages, ...] = field(default=(), repr=False)


def build_family(ctx: QContext, params: AWParams, N: int) -> AWFamily:
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise UsageError(f"family size must be an int >= 0, got {N!r}")
    _reject_degenerate(ctx, params, N)
    recheck = solve_operator_equation(ctx, params, N)
    polys = tuple(images.poly for images in recheck)
    bs, cs = three_term_data(polys)
    return AWFamily(ctx=ctx, params=params, N=N, polys=polys, B=bs, C=cs,
                    recheck=recheck)


def family_to_dict(family: AWFamily) -> dict:
    return {
        "v": format_rational(family.ctx.v),
        "sigmas": [format_rational(s) for s in family.params.sigmas],
        "N": family.N,
        "polys": [p.to_json() for p in family.polys],
        "B": [format_rational(b) for b in family.B],
        "C": [format_rational(c) for c in family.C],
    }


def _check_rational_list(value, what: str) -> None:
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list of rational strings")
    for text in value:
        parse_rational(text)


def family_from_dict(data: dict) -> AWFamily:
    """Rebuild the family that the dict's v, sigmas and N determine.

    The header, and that polys, B and C hold lists of rational literals,
    are checked before any build (UsageError). The stored polys,
    B and C must then equal what family_to_dict writes for the rebuilt
    family, or FamilyMismatch names the first list and index that differ.
    Each monic solution is unique, so this accepts exactly the files whose
    polynomials solve their own equation and carry their own recurrence."""
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
    if not isinstance(data["polys"], list) or len(data["polys"]) != N + 1:
        raise UsageError(f"polys must be a list of {N + 1} polynomials")
    for j, poly in enumerate(data["polys"]):
        _check_rational_list(poly, f"polys[{j}]")
    _check_rational_list(data["B"], "B")
    _check_rational_list(data["C"], "C")
    family = build_family(ctx, params, N)
    rebuilt = family_to_dict(family)
    for key in ("polys", "B", "C"):
        stored, want = data[key], rebuilt[key]
        if stored != want:
            pairs = zip(stored, want) if isinstance(stored, list) else ()
            i = sum(1 for _ in takewhile(lambda pair: pair[0] == pair[1], pairs))
            raise FamilyMismatch(f"{key}[{i}] differs from the family that "
                                 "v, sigmas and N determine")
    return family
