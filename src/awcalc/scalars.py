"""Exact scalar layer: rationals, the base point v = q^(1/2), q-numbers.

All arithmetic in this package happens over Q. ``Rational`` is
``fractions.Fraction``: it already keeps lowest terms and a positive
denominator, which is exactly the canonical form the wire format needs.
What this module adds is a strict text form ("p/q" or "p", nothing else),
a context object pinning v, and the small q-number zoo used everywhere
downstream:

    gamma_n = (v^n - v^-n) / (v - v^-1)       gamma_0 = 0, gamma_1 = 1
    gamma_n! = gamma_1 * gamma_2 * ... * gamma_n,   gamma_0! = 1
    alpha_k = (v^k + v^-k) / 2                alpha_0 = 1, alpha_1 = alpha

gamma_n > 0 for n >= 1 whenever 0 < v < 1, so the factorials never vanish.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, UsageError

Rational = Fraction

# "p" or "p/q", optional leading minus, no whitespace, no extras. Fraction()
# itself accepts far more (decimals, exponents, surrounding spaces), which
# would make the wire format ambiguous.
_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Rational:
    """Parse the strict wire form of a rational.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)
    >>> parse_rational("6/4")
    Fraction(3, 2)
    >>> parse_rational(" 1/2")
    Traceback (most recent call last):
        ...
    awcalc.errors.UsageError: not a rational literal: ' 1/2'
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise UsageError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Rational) -> str:
    """Canonical text: lowest terms, "p" when the denominator is 1.

    >>> format_rational(Fraction(-6, 8))
    '-3/4'
    >>> format_rational(Fraction(5))
    '5'
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class QContext:
    """A fixed rational base point v = q^(1/2) with 0 < v < 1.

    q = v^2 and alpha = (v + 1/v)/2 are precomputed since they appear in
    every operator application.
    """

    v: Rational
    q: Rational = field(init=False)
    alpha: Rational = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", self.v * self.v)
        object.__setattr__(self, "alpha", (self.v + 1 / self.v) / 2)

    def qpow(self, n: int) -> Rational:
        """q^n = v^(2n)."""
        return self.v ** (2 * n)


def make_qcontext(v: Rational | int | str) -> QContext:
    """Validate and build a QContext.

    Accepts a Fraction, an int (rejected unless it happens to be in range,
    which no int is), or strict rational text.
    """
    if isinstance(v, str):
        v = parse_rational(v)
    v = Fraction(v)
    if not (0 < v < 1):
        raise DomainError(f"v must satisfy 0 < v < 1, got {v}")
    return QContext(v=v)


@lru_cache(maxsize=None)
def gamma(ctx: QContext, n: int) -> Rational:
    """The symmetrized q-integer gamma_n = (v^n - v^-n)/(v - 1/v).

    gamma_0 = 0, gamma_1 = 1, gamma_{-n} = -gamma_n. Strictly positive and
    strictly increasing for n >= 1.
    """
    if n == 0:
        return Fraction(0)
    return (ctx.v ** n - ctx.v ** -n) / (ctx.v - 1 / ctx.v)


@lru_cache(maxsize=None)
def gamma_factorial(ctx: QContext, n: int) -> Rational:
    """gamma_n! = product of gamma_1 .. gamma_n; empty product is 1."""
    if n < 0:
        raise DomainError(f"gamma factorial needs n >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    return gamma_factorial(ctx, n - 1) * gamma(ctx, n)


@lru_cache(maxsize=None)
def alpha_k(ctx: QContext, k: int) -> Rational:
    """alpha_k = (v^k + v^-k)/2; even in k, alpha_0 = 1, alpha_1 = ctx.alpha."""
    return (ctx.v ** k + ctx.v ** -k) / 2
