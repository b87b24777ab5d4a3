"""A guided tour of the two lattice operators and their identities.

Run it directly:

    python3 demos/operator_walkthrough.py

Everything printed is an exact rational; there is no floating point
anywhere in the package.
"""

from fractions import Fraction

from awcalc import (
    IDENTITIES,
    OperatorImages,
    PolyX,
    apply_Dq,
    apply_Sq,
    gamma,
    make_qcontext,
    structural_polys,
    verify_identity,
    verify_k_fold_rule,
)


def main() -> None:
    ctx = make_qcontext(Fraction(1, 2))  # v = q^(1/2), so q = 1/4
    print(f"context: v = {ctx.v}, q = {ctx.q}, alpha = (v + 1/v)/2 = {ctx.alpha}")
    print()

    print("the operators lower/preserve degree; on the first few monomials:")
    for n in range(5):
        p = PolyX.monomial(n)
        print(f"  D x^{n} = {apply_Dq(ctx, p)!r}")
        print(f"  S x^{n} = {apply_Sq(ctx, p)!r}")
    print()

    print("D acts like a derivative with q-integer slopes:")
    for n in range(1, 6):
        print(f"  gamma_{n} = {gamma(ctx, n)}   (leading coefficient of D x^{n})")
    print()

    u1, u2 = structural_polys(ctx)
    print(f"structural multipliers: U1 = {u1!r}, U2 = {u2!r}")
    print()

    f = PolyX((Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(1)))
    g = PolyX((Fraction(5), Fraction(1, 7)))
    print(f"f = {f!r}")
    print(f"g = {g!r}")
    print("the four product/composition identities, residuals shown exactly:")
    # one table of D and S images serves every check on this f and g
    images = OperatorImages(ctx)
    for which in IDENTITIES:
        res = verify_identity(images, which, f, g=g)
        print(f"  {which:<12} residual = {res.residual!r}")
        assert res.passed
    print()

    print("the k-fold commutation rule D^k(x f) = gamma_k S D^(k-1) f + alpha_k x D^k f:")
    for k, res in enumerate(verify_k_fold_rule(images, f, 5), 1):
        print(f"  k = {k}: residual = {res.residual!r}")
        assert res.passed


if __name__ == "__main__":
    main()
