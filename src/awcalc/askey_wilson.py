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
whose leading coefficient is lambda_n, so L[y] = lambda_n y has a unique
monic degree-n solution p_n whenever lambda_n differs from lambda_0, ...,
lambda_(n-1). lambda_n - lambda_m factors as a nonzero multiple of
(q^n - q^m)(q^(-n-m) - sigma4 q^(-1)), so collisions happen exactly when
sigma4 is a nonpositive power of q; build_family rejects those parameter
vectors up front (DegenerateParams).

Like every orthogonal family, the p_n satisfy a three-term recurrence
x p_n = p_(n+1) + B_n p_n + C_n p_(n-1). _from_tops reads B and C off the
two coefficients below the top of each p_n and _generate makes p_0..p_N
from them; the build, the family loader and three_term_data all use the
pair. solve_operator_equation reads those coefficients off L without
applying D or S, and rechecks every generated p_n to a zero residual. The
recheck, which applies D and S through the family's OperatorImages table,
certifies the family. The table stays on the family (AWFamily.images), so
the verification chain reads its first two derived orders, and the S
images of the first, from the recheck instead of applying D and S again
(proof_engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, Sequence

from .errors import (
    DegenerateParams,
    FamilyMismatch,
    InternalError,
    OrthogonalityBroken,
    UsageError,
)
from .qoperators import OperatorImages
from .qpoly import PolyX
from .scalars import (
    QContext,
    Rational,
    alpha_k,
    as_rational,
    format_rational,
    gamma,
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
    for j in range(2 * N - 1):
        p = ctx.qpow(-j)
        if p == s4:
            raise DegenerateParams(
                f"sigma4 = q^(-{j}) collides eigenvalues up to degree {N}"
            )
        if p > s4:
            return


def _top_of_L(ctx: QContext, f: PolyX, g: PolyX,
              N: int) -> list[tuple[Rational, Rational, Rational]]:
    """(l_(m,m), l_(m,m-1), l_(m,m-2)) for m = 0..N, l_(m,j) being the
    coefficient of x^j in L[x^m]; no operator is applied. x^m = 2^(-m)
    sum_i C(m,i) z^(m-2i) (qoperators) gives D x^m = gamma_m x^(m-1)
    + d_m x^(m-3) + ... and S x^m = alpha_m x^m + s_m x^(m-2) + ..., with
    d_m = (m gamma_(m-2) - (m-2) gamma_m)/4 (0 for m < 3) and
    s_m = m (alpha_(m-2) - alpha_m)/4 (0 for m < 2). Applied to D x^m they
    give the top two coefficients of D^2 x^m and SD x^m, and L is linear."""
    f0, f1, f2 = (f.coeff(j) for j in range(3))
    g0, g1 = g.coeff(0), g.coeff(1)
    top, d_prev, s_prev = [], Fraction(0), Fraction(0)  # times gamma_0 = 0
    for m in range(N + 1):
        gm = gamma(ctx, m)
        dm = (m * gamma(ctx, m - 2) - (m - 2) * gm) / 4
        sm = m * (alpha_k(ctx, m - 2) - alpha_k(ctx, m)) / 4
        d2, sd = gm * gamma(ctx, m - 1), gm * alpha_k(ctx, m - 1)
        d2_next = gm * d_prev + dm * gamma(ctx, m - 3)
        sd_next = gm * s_prev + dm * alpha_k(ctx, m - 3)
        top.append((f2 * d2 + g1 * sd, f1 * d2 + g0 * sd,
                    f2 * d2_next + f0 * d2 + g1 * sd_next))
        d_prev, s_prev = dm, sm
    return top


def _from_tops(a: Sequence, b: Sequence) -> tuple[tuple, tuple]:
    """B_0..B_(N-1) and C_1..C_(N-1) of monic p_0..p_N whose x^(n-1) and
    x^(n-2) coefficients are a[n] and b[n] (0 below degree 1 resp. 2):
    B_n = a_n - a_(n+1), C_n = b_n - b_(n+1) - B_n a_n."""
    N = len(a) - 1
    bs = tuple(a[n] - a[n + 1] for n in range(N))
    cs = tuple(b[n] - b[n + 1] - bs[n] * a[n] for n in range(1, N))
    return bs, cs


def _generate(bs: Sequence, cs: Sequence) -> Iterator[PolyX]:
    """p_0 = 1, ..., p_N by p_(n+1) = (x - B_n) p_n - C_n p_(n-1), N =
    len(bs), lazily: p_n comes before any higher degree is generated."""
    c = (Fraction(0),) + tuple(cs)  # c[n] = C_n; C_0 meets p_(-1) = 0
    x, prev, y = PolyX.x(), PolyX.zero(), PolyX.constant(1)
    yield y
    for n, bn in enumerate(bs):
        prev, y = y, x * y - bn * y - c[n] * prev
        yield y


def _recurrence_data(ctx: QContext, params: AWParams,
                     N: int) -> tuple[tuple, tuple]:
    """B_0..B_(N-1) and C_1..C_(N-1) read off L. With p_n = x^n
    + a_n x^(n-1) + b_n x^(n-2) + ..., the two coefficients of
    L[p_n] = lambda_n p_n below the top give, since l_(m,m) = lambda_m,

        a_n = l_(n,n-1) / (lambda_n - lambda_(n-1))
        b_n = (l_(n,n-2) + a_n l_(n-1,n-2)) / (lambda_n - lambda_(n-2)).
    """
    lam, l1, l2 = zip(*_top_of_L(ctx, *equation_coeffs(ctx, params), N))
    a = [Fraction(0)] + [l1[n] / (lam[n] - lam[n - 1]) for n in range(1, N + 1)]
    b = [Fraction(0)] * 2 + [(l2[n] + a[n] * l1[n - 1]) / (lam[n] - lam[n - 2])
                             for n in range(2, N + 1)]
    return _from_tops(a, b)


def solve_operator_equation(images: OperatorImages, params: AWParams,
                            N: int) -> tuple[tuple, tuple, tuple]:
    """(B, C, polys) for the monic solutions p_0..p_N of L[y] = lambda_n y,
    whose eigenvalues must be distinct (_reject_degenerate). B and C are
    read off L, polys are generated from them, and every p_n is rechecked
    before the tuples are returned; InternalError names the first p_n for
    which

        gamma_n (gamma_(n-1) f step(step p_n) + g S(step p_n)) = lambda_n p_n

    fails, which is L[p_n] = lambda_n p_n, since step(p) = D p / gamma_n
    (qoperators.OperatorImages). So a build applies D 2(N + 1) times and S
    N + 1 times, all in the recheck, and leaves step(p_n), step(step p_n)
    and S(step p_n) in `images`.
    """
    if N < 0:
        raise UsageError(f"degree must be >= 0, got {N}")
    ctx = images.ctx
    bs, cs = _recurrence_data(ctx, params, N)
    f, g = equation_coeffs(ctx, params)
    polys = []
    for n, y in enumerate(_generate(bs, cs)):
        dy = images.step(y)
        lhs = gamma(ctx, n - 1) * f * images.step(dy) + g * images.S(dy)
        if gamma(ctx, n) * lhs - eigenvalue(ctx, params, n) * y:
            raise InternalError(f"p_{n} fails the equation recheck")
        polys.append(y)
    return bs, cs, tuple(polys)


def three_term_data(polys: tuple[PolyX, ...]) -> tuple[tuple, tuple]:
    """B_0..B_(N-1) and C_1..C_(N-1) read off a ladder p_0..p_N
    (_from_tops), which must equal the monic p_0..p_N they generate:
    OrthogonalityBroken names the first index that differs, such as a
    member that is not monic or one off a three-term recurrence. Derived
    families (proof_engine) use it."""
    a = [p.coeff(n - 1) if n else Fraction(0) for n, p in enumerate(polys)]
    b = [p.coeff(n - 2) if n > 1 else Fraction(0) for n, p in enumerate(polys)]
    bs, cs = _from_tops(a, b)
    for n, (p, want) in enumerate(zip(polys, _generate(bs, cs))):
        if p != want:
            raise OrthogonalityBroken(
                f"p_{n} differs from the monic ladder its recurrence generates")
    return bs, cs


@dataclass(frozen=True, eq=False)
class Ladder:
    """Index-checked access to monic polys p_0..p_M and their recurrence
    data: B holds B_0..B_(M-1), C holds C_1..C_(M-1) stored shifted, and
    M is read off polys; other lengths are a UsageError. Use the
    accessors, they do the index bookkeeping."""

    polys: tuple[PolyX, ...]
    B: tuple[Rational, ...]
    C: tuple[Rational, ...]

    def __post_init__(self) -> None:
        M = len(self.polys) - 1
        if len(self.B) != M or len(self.C) != max(M - 1, 0):
            raise UsageError(
                f"{len(self.B)} B and {len(self.C)} C values do not fit "
                f"p_0..p_{M}; need {M} and {max(M - 1, 0)}")

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
    """Monic solutions p_0..p_N with their recurrence data; N is read off
    polys, so a family cut with dataclasses.replace reports its own size.

    Families hash and compare by identity: a cache keyed on a family costs
    O(1) per lookup instead of a walk over every coefficient. Two builds
    from equal arguments are distinct keys that give equal reports.

    images is the OperatorImages table the build recheck filled; it is not
    part of the family's dict form, and a loaded family gets its own from
    the rebuild."""

    ctx: QContext
    params: AWParams
    images: OperatorImages = field(repr=False)

    @property
    def N(self) -> int:
        return len(self.polys) - 1


def build_family(ctx: QContext, params: AWParams, N: int) -> AWFamily:
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise UsageError(f"family size must be an int >= 0, got {N!r}")
    _reject_degenerate(ctx, params, N)
    images = OperatorImages(ctx)
    bs, cs, polys = solve_operator_equation(images, params, N)
    return AWFamily(ctx=ctx, params=params, polys=polys, B=bs, C=cs,
                    images=images)


def family_to_dict(family: AWFamily) -> dict:
    return {
        "v": format_rational(family.ctx.v),
        "sigmas": [format_rational(s) for s in family.params.sigmas],
        "N": family.N,
        "polys": [p.to_json() for p in family.polys],
        "B": [format_rational(b) for b in family.B],
        "C": [format_rational(c) for c in family.C],
    }


def _mismatch(key: str, i: int) -> FamilyMismatch:
    return FamilyMismatch(
        f"{key}[{i}] differs from the family that v, sigmas and N determine")


def _check_rational_list(value, what: str) -> None:
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list of rational strings")
    for text in value:
        parse_rational(text)


def family_from_dict(data: dict) -> AWFamily:
    """Rebuild the family that the dict's v, sigmas and N determine.

    The header, and that polys, B and C hold lists of rational literals,
    are checked before any build (UsageError). The stored polys, B and C
    must then equal what family_to_dict writes for that family, or
    FamilyMismatch names the first list and index that differ. Polys are
    compared with those generated from the B and C read off L, then B,
    then C, all before any operator runs, so a wrong p_n is refused once
    p_0..p_n are generated; only a matching file reaches build_family and
    its recheck. Each monic solution is unique, so this accepts exactly
    the files whose polynomials solve their own equation and carry their
    own recurrence."""
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
    _reject_degenerate(ctx, params, N)
    bs, cs = _recurrence_data(ctx, params, N)
    for key, want in (("polys", (p.to_json() for p in _generate(bs, cs))),
                      ("B", map(format_rational, bs)),
                      ("C", map(format_rational, cs))):
        for i, (stored, wanted) in enumerate(zip_longest(data[key], want)):
            if stored != wanted:
                raise _mismatch(key, i)
    return build_family(ctx, params, N)
