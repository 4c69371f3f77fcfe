"""The iterated map families and their exact coordinate changes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = [
    "PowerMap",
    "QuadMap",
    "RationalPoly",
    "Conjugacy",
    "LatticeCert",
    "conjugacy_of_quad",
    "lattice_check",
    "parse_rational",
]


@dataclass(frozen=True)
class PowerMap:
    """x -> x**degree - shift on the integers."""

    degree: int
    shift: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def __call__(self, x: int) -> int:
        return x**self.degree - self.shift


@dataclass(frozen=True)
class QuadMap:
    """x -> a*x**2 + b*x + c with integer coefficients, a != 0."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("leading coefficient must be nonzero")

    def __call__(self, x: int) -> int:
        return self.a * x * x + self.b * x + self.c


def int_coefficients(the_map) -> tuple[int, int, int, int] | None:
    """(m, a, b, c) with the_map(x) == a*x**m + b*x + c, for an exact
    PowerMap or QuadMap; None for any other callable, subclasses included,
    as a subclass may redefine the map.

    This rule decides which maps are evaluated vectorised and split by CRT.
    escape_bound, cross_check and escape_is_sound keep isinstance: they
    take a family's bound, classifier and gauge from its declared
    parameters, so a subclass is checked against its own family.
    """
    if type(the_map) is PowerMap:
        return (the_map.degree, 1, 0, -the_map.shift)
    if type(the_map) is QuadMap:
        return (2, the_map.a, the_map.b, the_map.c)
    return None


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with rational coefficients, constant term first."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class Conjugacy:
    """Affine change of coordinates r = scale*s + offset taking a quadratic
    to its normal form x -> x**2 - q.

    push/pull are mutual inverses; orbits correspond one-to-one, so periodic
    points of the quadratic are exactly the pulled-back periodic points of
    the normal form.
    """

    scale: Fraction
    offset: Fraction
    q: Fraction

    def push(self, s) -> Fraction:
        """Quadratic coordinates -> normal-form coordinates."""
        return self.scale * Fraction(s) + self.offset

    def pull(self, r) -> Fraction:
        """Normal-form coordinates -> quadratic coordinates."""
        return (Fraction(r) - self.offset) / self.scale

    def normal_step(self, r) -> Fraction:
        """One application of the normal form x -> x**2 - q."""
        r = Fraction(r)
        return r * r - self.q


def conjugacy_of_quad(quad: QuadMap) -> Conjugacy:
    """Normal-form reduction of a*x**2 + b*x + c.

    r = a*s + b/2 satisfies r' = r**2 - q with q = b*(b-2)/4 - a*c; 4q is
    always an integer for integer coefficients (b even gives integer q,
    b odd gives q with denominator exactly 4).
    """
    a, b, c = quad.a, quad.b, quad.c
    q = Fraction(b * (b - 2), 4) - a * c
    return Conjugacy(scale=Fraction(a), offset=Fraction(b, 2), q=q)


@dataclass(frozen=True)
class LatticeCert:
    """Certificate that a rational polynomial maps step*Z into itself."""

    step: int
    holds: bool
    reason: str


def lattice_check(poly: RationalPoly) -> LatticeCert:
    """Decide whether poly maps step*Z into itself, for the canonical step.

    step is the lcm of the denominators of the degree >= 2 coefficients.
    For x in step*Z each term of degree i >= 2 contributes a multiple of
    step, so the test reduces to: the linear coefficient is an integer and
    the constant term is a multiple of step.
    """
    if poly.degree < 2:
        raise ValueError("lattice check needs degree >= 2")
    step = lcm(*(c.denominator for c in poly.coeffs[2:]))
    a0, a1 = poly.coeffs[0], poly.coeffs[1]
    if a1.denominator != 1:
        return LatticeCert(step, False, f"linear coefficient {a1} is not an integer")
    if (a0 / step).denominator != 1:
        return LatticeCert(
            step, False, f"constant term {a0} is not a multiple of {step}"
        )
    return LatticeCert(step, True, f"maps multiples of {step} to multiples of {step}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or plain decimal literals into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
