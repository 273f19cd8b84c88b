"""Finite-precision p-adic numbers and the Haar-measure geometry of Q_p.

A p-adic number is stored as a prime, a valuation v, a precision w and
one integer, its unit part u = d_0 + d_1 p + ... + d_(w-1) p^(w-1), known
mod p^w: x = p^v * u, with d_0 != 0 for nonzero x.  Every stored value is
therefore an exact rational, and norms, measures, and coset bookkeeping
stay in exact rational arithmetic throughout; only transcendental
quantities (roots of unity, complex powers of p) become floats.

The geometry helpers describe circles C_n = {|xi|_p = p^(-n)}: their Haar
measure, a coset decomposition into representatives at a chosen depth, and
phase_table, the shared table of roots of unity that gamma's outer circle
and the kernel's support shell sum over.

The additive character exp(2 pi i {x}_p) is computed from exact integer
residues: for v < 0, {x}_p = r / p^(-v) with r the unit part mod p^(-v), and
residue_phase uses the correctly rounded quotient r / p^(-v), which equals
float() of that fraction.  No Fraction is built per coset, so the coset sums
stay bit-for-bit those of the exact rational route while costing a few
integer operations each.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CosetCapError, PrimeMismatchError

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

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def digits(self) -> tuple[int, ...]:
        """The ``precision`` base-p digits of ``unit``, little-endian."""
        return tuple(self.unit // self.prime**i % self.prime for i in range(self.precision))

    @property
    def norm(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** (-self.valuation)

    def as_fraction(self) -> Fraction:
        """The exact rational this expansion denotes."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** self.valuation * self.unit


def make_padic(p: int, valuation: int, digits) -> PadicNumber:
    """Validate and build a p-adic number; an empty digit list builds zero."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    digits = tuple(int(d) for d in digits)
    if not digits:
        return PadicNumber(p, 0, 0, 0)
    for d in digits:
        if not 0 <= d < p:
            raise ValueError(f"digit {d} outside [0, {p - 1}]")
    if digits[0] == 0:
        raise ValueError("leading digit must be nonzero for a nonzero value")
    unit = sum(d * p**i for i, d in enumerate(digits))
    return PadicNumber(p, int(valuation), unit, len(digits))


def padic_zero(p: int) -> PadicNumber:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return PadicNumber(p, 0, 0, 0)


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def padic_from_fraction(p: int, q: Fraction, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Encode an exact rational to ``precision`` >= 1 digits of its unit part."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    q = Fraction(q)
    if q == 0:
        return padic_zero(p)
    v = rational_valuation(q, p)
    unit = q / Fraction(p) ** v
    a, b = unit.numerator, unit.denominator  # both prime to p
    u = (a * pow(b, -1, p**precision)) % p**precision
    return PadicNumber(p, v, u, precision)


def _require_same_prime(x: PadicNumber, y: PadicNumber) -> None:
    if x.prime != y.prime:
        raise PrimeMismatchError(f"cannot combine Q_{x.prime} and Q_{y.prime} values")


def _negate(y: PadicNumber) -> PadicNumber:
    if y.is_zero:
        return y
    p, w = y.prime, y.precision
    return PadicNumber(p, y.valuation, (-y.unit) % p**w, w)


def _add_sub(x: PadicNumber, y: PadicNumber, sign: int) -> PadicNumber:
    p = x.prime
    if y.is_zero:
        return x
    if x.is_zero:
        return y if sign > 0 else _negate(y)
    w = min(x.precision, y.precision)
    vmin = min(x.valuation, y.valuation)
    total = x.unit * p ** (x.valuation - vmin) + sign * y.unit * p ** (y.valuation - vmin)
    if total == 0:
        return padic_zero(p)
    t = _int_valuation(total, p)
    s = (total // p**t) % p**w  # unit part, truncated to the min precision
    return PadicNumber(p, vmin + t, s, w)


def _mul(x: PadicNumber, y: PadicNumber) -> PadicNumber:
    p = x.prime
    if x.is_zero or y.is_zero:
        return padic_zero(p)
    w = min(x.precision, y.precision)
    return PadicNumber(p, x.valuation + y.valuation, (x.unit * y.unit) % p**w, w)


def arithmetic(x: PadicNumber, y: PadicNumber, op: str) -> PadicNumber:
    """Exact digit arithmetic, result truncated to the lesser input precision."""
    _require_same_prime(x, y)
    if op == "add":
        return _add_sub(x, y, 1)
    if op == "sub":
        return _add_sub(x, y, -1)
    if op == "mul":
        return _mul(x, y)
    raise ValueError(f"unknown operation {op!r}; expected add, sub, or mul")


def rational_fractional_part(q: Fraction, p: int) -> Fraction:
    """The p-adic fractional part of an exact rational, in [0, 1).

    Only the p-part of the denominator matters: with q = a / (m p^t) and
    gcd(m, p) = 1, the result is (a * m^(-1) mod p^t) / p^t.
    """
    q = Fraction(q)
    den = q.denominator
    t = 0
    while den % p == 0:
        den //= p
        t += 1
    if t == 0:
        return Fraction(0)
    pt = p**t
    r = (q.numerator * pow(den, -1, pt)) % pt
    return Fraction(r, pt)


def _fractional_residue(x: PadicNumber) -> tuple[int, int]:
    """(r, m) with {x}_p = r / m: m = p^(-v) and r the unit part mod m."""
    if x.is_zero or x.valuation >= 0:
        return 0, 1
    m = x.prime ** -x.valuation
    return x.unit % m, m


def fractional_part(x: PadicNumber) -> Fraction:
    """Sum of the negative-power digit terms of x, reduced mod 1."""
    r, m = _fractional_residue(x)
    return Fraction(r, m)


def residue_phase(r: int, m: int) -> complex:
    """exp(2 pi i r / m), exactly 1 when r = 0; bit-for-bit unit_phase(Fraction(r, m))."""
    if r == 0:
        return complex(1.0, 0.0)
    return cmath.exp(complex(0.0, _TWO_PI * (r / m)))


def unit_phase(angle: Fraction) -> complex:
    """exp(2 pi i angle) for an exact rational angle."""
    return residue_phase(angle.numerator, angle.denominator)


def additive_character(x: PadicNumber) -> complex:
    """exp(2 pi i {x}_p); identically 1 on Z_p.

    Bit-for-bit unit_phase(fractional_part(x)), with no Fraction built.
    """
    return residue_phase(*_fractional_residue(x))


def circle_measure(p: int, n: int) -> Fraction:
    """Haar measure of {|xi|_p = p^(-n)}: (1 - 1/p) p^(-n)."""
    return Fraction(p - 1, p) * Fraction(p) ** (-n)


def circle_representatives(p: int, n: int, depth: int, cap: int = COSET_CAP) -> list[PadicNumber]:
    """One representative per coset of p^(n+depth) Z_p inside {|xi|_p = p^(-n)}.

    Returns (p-1) p^(depth-1) numbers with valuation n, precision depth and
    digits (xi_0, ..., xi_{depth-1}), xi_0 nonzero; each coset has measure
    p^(-n-depth).  The list is in index order: entry
    (xi_0 - 1) + (p-1) (xi_1 + p xi_2 + ... + p^(depth-2) xi_{depth-1}),
    so xi_0 runs fastest.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    count = (p - 1) * p ** (depth - 1)
    if count > cap:
        raise CosetCapError(
            f"{count} representatives at depth {depth} exceed the cap of {cap}"
        )
    # the unit is xi_0 + p rest, with rest = xi_1 + p xi_2 + ...
    return [
        PadicNumber(p, n, d + p * rest, depth)
        for rest in range(p ** (depth - 1))
        for d in range(1, p)
    ]


@functools.lru_cache(maxsize=2)
def phase_table(r0: int, stride: int, m: int, p: int) -> tuple[complex, ...]:
    """residue_phase((r0 + d stride) mod m, m) for d = 1..p-1, in that order.

    The phases of p - 1 cosets on one circle.  Gamma's circle |xi| = p reads
    (0, 1, p, p), the characters of d/p; apply_kernel's support shell reads
    (r0, j m / p, m, p), and an eigencheck's 20 kernel calls share the two
    tables r0 = 0 and 1 with m = p.  Each table holds p - 1 complex values.
    """
    return tuple(residue_phase((r0 + d * stride) % m, m) for d in range(1, p))
