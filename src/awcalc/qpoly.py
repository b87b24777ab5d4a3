"""Dense exact polynomials in x and their symmetric Laurent form.

PolyX is an immutable polynomial over Q with coefficients stored
constant-first. The divided-difference calculus downstream never evaluates
anything numerically: polynomials are compared coefficient by coefficient.

The second half of the module handles the substitution x = (z + 1/z)/2.
Under it a degree-n polynomial becomes a symmetric Laurent polynomial

    c_0 + sum_{j=1..n} c_j (z^j + z^(-j)),

and LaurentSym stores exactly the tuple (c_0, c_1, ..., c_n). The map is a
linear bijection (triangular with diagonal 2^(-j)), so to_laurent and
from_laurent are exact inverses. Operators that are awkward in x are
diagonal or near-diagonal in this basis, which is why it exists.

A PolyX remembers its Laurent form, so each object is converted at most
once: to_laurent stores the form it computes on its argument, and
from_laurent stores its input on the polynomial it returns, which is
exact because the peel inverts the conversion exactly. The form sits in a
private attribute outside the dataclass fields, so it takes no part in
==, hash, repr or to_json, and a sum, product or scalar multiple is a new
object that starts without one.

resultant() decides whether two polynomials share a root without ever
leaving Q: it runs Euclid's remainder sequence on the coefficient lists
and collects the leading-coefficient powers the sequence sheds.
resultant_mod() runs the same sequence over GF(P) on two integer
polynomials, for a prime P that divides neither leading coefficient, and
gives their resultant reduced mod P (Collins, J. ACM 18, 1971). A nonzero
residue proves the integer resultant nonzero; a zero residue proves
nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError, UsageError
from .scalars import Rational, as_rational, format_rational

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class PolyX:
    """Polynomial in x over Q, coefficients constant-first, trailing zeros
    trimmed so equal polynomials compare equal.

    >>> p = PolyX((1, 0, -2))    # 1 - 2x^2
    >>> p.degree
    2
    >>> (p * PolyX.x()).coeffs
    (Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(-2, 1))
    """

    coeffs: tuple[Rational, ...]
    # the remembered Laurent form, set by to_laurent and from_laurent;
    # unannotated, so it is no dataclass field and stays out of ==, hash
    # and repr
    _laurent = None

    def __post_init__(self) -> None:
        cs = tuple(as_rational(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls) -> "PolyX":
        return cls(())

    @classmethod
    def x(cls) -> "PolyX":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, c) -> "PolyX":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, n: int, c=1) -> "PolyX":
        """c * x^n."""
        if n < 0:
            raise UsageError(f"monomial degree must be >= 0, got {n}")
        return cls((Fraction(0),) * n + (as_rational(c),))

    @property
    def degree(self):
        """Degree as an int; float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    @property
    def leading(self) -> Rational:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, n: int) -> Rational:
        """Coefficient of x^n (0 beyond the stored range)."""
        if n < 0:
            raise UsageError(f"coefficient index must be >= 0, got {n}")
        return self.coeffs[n] if n < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "PolyX") -> "PolyX":
        if not isinstance(other, PolyX):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        mixed = [a[i] + b[i] for i in range(len(b))]
        return PolyX(tuple(mixed) + a[len(b):])

    def __neg__(self) -> "PolyX":
        return PolyX(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyX") -> "PolyX":
        if not isinstance(other, PolyX):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyX):
            if not self.coeffs or not other.coeffs:
                return PolyX.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolyX(tuple(out))
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            return PolyX(tuple(c * a for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_rational(scalar)
        if c == 0:
            raise DomainError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def to_json(self) -> list[str]:
        """Constant-first list of strict rational strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "PolyX(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            elif i == 1:
                parts.append(f"{format_rational(c)}*x")
            else:
                parts.append(f"{format_rational(c)}*x^{i}")
        return "PolyX(" + " + ".join(parts) + ")"


def random_poly(rng: random.Random, max_degree: int) -> PolyX:
    """Small random polynomial for identity trials. Coefficients are
    modest fractions; the leading one may come out zero, so the actual
    degree can be below the draw. Deterministic for a seeded rng."""
    degree = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(degree + 1)
    ]
    return PolyX(tuple(coeffs))


@dataclass(frozen=True)
class LaurentSym:
    """Symmetric Laurent polynomial c_0 + sum_{j>=1} c_j (z^j + z^(-j)),
    stored as the tuple (c_0, c_1, ...), trailing zeros trimmed."""

    c: tuple[Rational, ...]

    def __post_init__(self) -> None:
        cs = tuple(as_rational(v) for v in self.c)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "c", cs)

    @classmethod
    def zero(cls) -> "LaurentSym":
        return cls(())

    @classmethod
    def constant(cls, value) -> "LaurentSym":
        return cls((as_rational(value),))

    @property
    def top(self) -> int:
        """Largest j with c_j != 0; -1 for zero."""
        return len(self.c) - 1

    def __bool__(self) -> bool:
        return bool(self.c)

    def __add__(self, other: "LaurentSym") -> "LaurentSym":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        mixed = [a[i] + b[i] for i in range(len(b))]
        return LaurentSym(tuple(mixed) + a[len(b):])

    def __neg__(self) -> "LaurentSym":
        return LaurentSym(tuple(-v for v in self.c))

    def __sub__(self, other: "LaurentSym") -> "LaurentSym":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = as_rational(other)
            return LaurentSym(tuple(s * v for v in self.c))
        if not isinstance(other, LaurentSym):
            return NotImplemented
        if not self.c or not other.c:
            return LaurentSym.zero()
        # Expand both to full exponent vectors over -m..m, convolve, fold
        # back. Index i of `full` holds the coefficient of z^(i - m).
        na, nb = self.top, other.top
        a = [Fraction(0)] * (2 * na + 1)
        for j in range(na + 1):
            a[na + j] = self.c[j]
            a[na - j] = self.c[j]
        b = [Fraction(0)] * (2 * nb + 1)
        for j in range(nb + 1):
            b[nb + j] = other.c[j]
            b[nb - j] = other.c[j]
        full = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            if va == 0:
                continue
            for j, vb in enumerate(b):
                full[i + j] += va * vb
        m = na + nb
        return LaurentSym(tuple(full[m + j] for j in range(m + 1)))

    __rmul__ = __mul__


# x as a Laurent object: (z + 1/z)/2 has c_0 = 0, c_1 = 1/2.
_X_LAURENT = LaurentSym((Fraction(0), Fraction(1, 2)))


def _horner(p: PolyX) -> LaurentSym:
    """Substitute x = (z + 1/z)/2 by Horner in the Laurent ring."""
    acc = LaurentSym.zero()
    for coeff in reversed(p.coeffs):
        acc = acc * _X_LAURENT + LaurentSym.constant(coeff)
    return acc


def to_laurent(p: PolyX) -> LaurentSym:
    """The Laurent form of p, converted on the first call for the object p
    and remembered on it.

    >>> to_laurent(PolyX.monomial(2)).c     # x^2
    (Fraction(1, 2), Fraction(0, 1), Fraction(1, 4))
    """
    lp = p._laurent
    if lp is None:
        lp = _horner(p)
        object.__setattr__(p, "_laurent", lp)
    return lp


def from_laurent(lp: LaurentSym) -> PolyX:
    """Invert to_laurent by peeling the top Laurent coefficient; the
    returned polynomial remembers lp as its Laurent form.

    x^j contributes 2^(-j) at level j and nothing higher, so the x^j
    coefficient of the preimage is c_j * 2^j; subtract and recurse down.
    """
    work = lp
    out = PolyX.zero()
    while work.top >= 1:
        j = work.top
        a = work.c[j] * (2 ** j)
        out = out + PolyX.monomial(j, a)
        work = work - to_laurent(PolyX.monomial(j, a))
        if work.top >= j:
            raise InternalError("Laurent back-substitution did not reduce")
    if work:
        out = out + PolyX.constant(work.c[0])
    object.__setattr__(out, "_laurent", lp)
    return out


def _remainder_resultant(a: list, b: list, modulus: int | None):
    """Res(a, b) of two nonzero coefficient lists, constant first, by
    Euclid's remainder sequence over Q (modulus None) or over GF(modulus).

    Each step divides a = b*q + c and uses

        Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg c) * Res(b, c),

    ending at 0 when a remainder vanishes and at lc(b)^(deg a) when b is a
    constant. Over GF(modulus) the entries must already be reduced, with
    nonzero leading ones. The lists are consumed.
    """
    if modulus is None:
        zero, acc = Fraction(0), Fraction(1)

        def red(value):
            return value

        def inverse(value):
            return 1 / value
    else:
        zero, acc = 0, 1

        def red(value):
            return value % modulus

        def inverse(value):
            return pow(value, -1, modulus)
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        lead = b[-1]
        inv = inverse(lead)
        # a := a mod b, top coefficient first; the low db entries remain
        for top in range(da, db - 1, -1):
            f = red(a[top] * inv)
            if f:
                for j in range(db):
                    a[top - db + j] = red(a[top - db + j] - f * b[j])
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return zero
        if da * db % 2:
            acc = red(-acc)
        acc = red(acc * lead ** (da - (len(a) - 1)))
        a, b = b, a
    return red(acc * b[0] ** (len(a) - 1))


def resultant(p: PolyX, r: PolyX) -> Rational:
    """Resultant of p and r; zero exactly when they share a root over the
    algebraic closure.

    The value is the textbook Res(r, p) = lc(r)^(deg p) * prod p(rho) over
    the roots rho of r, which is (-1)^(deg p * deg r) * Res(p, r). It
    comes from Euclid's remainder sequence over Q started at
    (a, b) = (r, p). So a constant gives value^(degree of the other), and
    two constants give 1.

    >>> resultant(PolyX.x(), PolyX((-1, 1)))
    Fraction(1, 1)
    >>> resultant(PolyX((0, Fraction(5, 2))),
    ...           PolyX((Fraction(-3, 4), 0, Fraction(17, 8))))
    Fraction(-75, 16)
    """
    if not p or not r:
        raise DomainError("resultant of the zero polynomial is undefined")
    return _remainder_resultant(list(r.coeffs), list(p.coeffs), None)


def resultant_mod(p: PolyX, r: PolyX, modulus: int) -> int:
    """resultant(p, r) of two integer polynomials, reduced mod a prime
    that divides neither leading coefficient; an int in 0..modulus-1.

    The resultant is a polynomial in the coefficients once the degrees are
    fixed, and reduction mod the prime keeps both degrees, so this is
    resultant(p, r) mod modulus. The prime is not checked for primality.

    >>> resultant_mod(PolyX((-1, 1)), PolyX((-6, 1)), 7)    # x - 1, x - 6
    5
    >>> resultant_mod(PolyX((-1, 1)), PolyX((-6, 1)), 5)
    0
    """
    if not p or not r:
        raise DomainError("resultant of the zero polynomial is undefined")
    if any(c.denominator != 1 for c in p.coeffs + r.coeffs):
        raise DomainError("resultant_mod needs integer polynomials")
    if p.leading % modulus == 0 or r.leading % modulus == 0:
        raise DomainError(f"{modulus} divides a leading coefficient")
    return _remainder_resultant([c.numerator % modulus for c in r.coeffs],
                                [c.numerator % modulus for c in p.coeffs],
                                modulus)
