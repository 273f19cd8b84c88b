"""Finite-precision p-adic numbers and the coset phases of the additive character.

A p-adic number is stored as a prime, a valuation v, a precision w and
one integer, its unit part u = d_0 + d_1 p + ... + d_(w-1) p^(w-1), known
mod p^w: x = p^v * u, with d_0 != 0 for nonzero x.  Every stored value is
therefore an exact rational (as_fraction), and coset bookkeeping stays in
exact integer arithmetic; only transcendental quantities (roots of unity,
complex powers of p) become floats.

Coset sums over a circle {|xi|_p = p^(-n)} live in one place: phase_table,
the shared table of the roots of unity that the additive character takes
on the p - 1 cosets of one circle.  Gamma's outer circle |xi| = p and the
kernel's support shell sum over it.

The additive character exp(2 pi i {x}_p) is computed from exact integer
residues: for v < 0, {x}_p = r / p^(-v) with r the unit part mod p^(-v), and
residue_phase uses the correctly rounded quotient r / p^(-v), which equals
float() of that fraction.  No Fraction is built per coset, so the coset sums
stay bit-for-bit those of the exact rational route while costing a few
integer operations each.  That route, the fractional part of a Fraction and
its phase, is kept in tests/padic_oracle.py, and the tests compare against
it with ==.

This module is the one home of the rules of Q_p that the other modules
use: the prime check (_require_prime, one message), the valuation of an
integer (_int_valuation, the only valuation loop), the sum of two points
u p^v + w p^e held as (unit, valuation) pairs (_sum_pair), the fractional
part as an integer residue (_fractional_residue), and a Haar measure p^k
as a float (_float_power).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_PRECISION = 32
COSET_CAP = 10**6

_TWO_PI = 2.0 * math.pi


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_prime(p: int) -> None:
    """The one prime check: ValueError("prime must be prime, got p") unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"prime must be prime, got {p}")


@dataclass(frozen=True, slots=True)
class PadicNumber:
    """One element of Q_p, x = p^valuation * unit, exact to ``precision`` digits.

    ``unit`` is the integer d_0 + d_1 p + ... + d_(w-1) p^(w-1) of the w =
    ``precision`` digits kept, with d_0 nonzero for a nonzero value.  Zero is
    (p, 0, 0, 0).
    """

    prime: int
    valuation: int
    unit: int
    precision: int

    def as_fraction(self) -> Fraction:
        """The exact rational this expansion denotes."""
        if self.unit == 0:
            return Fraction(0)
        return Fraction(self.prime) ** self.valuation * self.unit


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sum_pair(p: int, u: int, v: int, w: int, e: int) -> tuple[int, int]:
    """(c, low) with u p^v + w p^e = c p^low, low = min(v, e)."""
    low = min(v, e)
    return u * p ** (v - low) + w * p ** (e - low), low


def rational_valuation(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def padic_from_fraction(p: int, q: Fraction, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Encode an exact rational to ``precision`` >= 1 digits of its unit part."""
    _require_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    q = Fraction(q)
    if q == 0:
        return PadicNumber(p, 0, 0, 0)
    v = rational_valuation(q, p)
    unit = q / Fraction(p) ** v
    a, b = unit.numerator, unit.denominator  # both prime to p
    u = (a * pow(b, -1, p**precision)) % p**precision
    return PadicNumber(p, v, u, precision)


def _fractional_residue(p: int, unit: int, valuation: int) -> tuple[int, int]:
    """(r, m) with {unit p^valuation}_p = r / m: m = p^(-valuation) and r = unit mod m.

    (0, 1) on Z_p.  ``unit`` may be any integer, a multiple of p included.
    """
    if unit == 0 or valuation >= 0:
        return 0, 1
    m = p**-valuation
    return unit % m, m


def residue_phase(r: int, m: int) -> complex:
    """exp(2 pi i r / m), exactly 1 when r = 0; bit-for-bit unit_phase(Fraction(r, m))."""
    if r == 0:
        return complex(1.0, 0.0)
    return cmath.exp(complex(0.0, _TWO_PI * (r / m)))


def unit_phase(angle: Fraction) -> complex:
    """exp(2 pi i angle) for an exact rational angle."""
    return residue_phase(angle.numerator, angle.denominator)


def _float_power(p: int, k: int) -> float:
    """p^k as a float, correctly rounded: float(Fraction(p) ** k) with no Fraction built."""
    return float(p**k) if k >= 0 else 1 / p**-k


@functools.lru_cache(maxsize=2)
def phase_table(r0: int, stride: int, m: int, p: int) -> tuple[complex, ...]:
    """residue_phase((r0 + d stride) mod m, m) for d = 1..p-1, in that order.

    The phases of p - 1 cosets on one circle.  Gamma's circle |xi| = p reads
    (0, 1, p, p), the characters of d/p; apply_kernel's support shell reads
    (r0, j m / p, m, p), and an eigencheck's 8 kernel calls, one per ket and
    coset, share the two tables r0 = 0 and 1 with m = p.  Each table holds
    p - 1 complex values.
    """
    return tuple(residue_phase((r0 + d * stride) % m, m) for d in range(1, p))
