"""From one polynomial family to its derived families and back.

Builds a monic family from the second-order operator equation, takes
operator derivatives to get the derived families, and then runs the
verification chain that certifies the derived families solve an equation
of the very same shape, with explicitly shifted parameters.

    python3 demos/derived_family_tour.py
"""

from fractions import Fraction

from awcalc import (
    ChainWorkspace,
    build_family,
    chain_coeffs,
    derived_family,
    extract_rn_fg,
    make_qcontext,
    params_from_sigmas,
    run_chain_verification,
    verify_final_matches_aw,
)

SIGMAS = (Fraction(11, 30), Fraction(-2, 15), Fraction(-1, 30), Fraction(0))


def main() -> None:
    ctx = make_qcontext(Fraction(1, 2))
    base = build_family(ctx, params_from_sigmas(*SIGMAS), 10)
    print(f"base family at v = {ctx.v}, sigmas = {SIGMAS}")
    for n in range(4):
        print(f"  p_{n} = {base.poly(n)!r}")
    print("three-term recurrence data:")
    for n in range(1, 4):
        print(f"  B_{n} = {base.recurrence_B(n)}, C_{n} = {base.recurrence_C(n)}")
    print()

    k = 2
    dfam = derived_family(base, k)
    print(f"derived family at order k = {k} (monic rescaled D^{k} images):")
    for n in range(4):
        print(f"  P^[{k}]_{n} = {dfam.poly(n)!r}")
    print()

    cc = chain_coeffs(dfam, 3)
    print("chain displays at n = 3 (the coefficients the elimination produces):")
    print(f"  D_3 = {cc.Dn!r}")
    print(f"  E_3 = {cc.En}, F_3 = {cc.Fn}, F_4 = {cc.Fnext}")
    print(f"  Dtilde_3 = {cc.Dtilde!r}, Etilde_3 = {cc.Etilde}")
    print()

    extraction = extract_rn_fg(dfam, range(2, 6))
    print("the n-dependent pairs (f_n, g_n) collapse to one normalized pair:")
    print(f"  f = {extraction.f!r}")
    print(f"  g = {extraction.g!r}")
    print(f"  scales r_n = {extraction.r}")
    match = verify_final_matches_aw(ChainWorkspace(base), k, extraction)
    print("matched against the coefficient form of the base equation:")
    print(f"  scale c = {match.c}")
    print(f"  recovered sigmas = {match.params.sigmas}")
    shifted = tuple(ctx.v ** ((k - 1) * j) * s for j, s in enumerate(SIGMAS, 1))
    assert match.params.sigmas == shifted
    print(f"  which is exactly v^((k-1)j) sigma_j = {shifted}")
    print()

    report = run_chain_verification(base, [1, 2], 5)
    good = sum(1 for c in report.checks if c.passed)
    print(f"full chain verification: {good}/{len(report.checks)} checks passed")
    assert report.all_passed


if __name__ == "__main__":
    main()
