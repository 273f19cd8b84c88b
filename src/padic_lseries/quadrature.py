"""The local gamma functions of Q_p, as a closed form and as a quadrature.

The two routes are played against each other by the test suite: a closed
form, and a three-region quadrature of the defining integral of
e^(2 pi i xi) |xi|^(s-1) twist(|xi|^(-1)) over Q_p (inner circles summed as
a geometric series term by term, the unit circle exactly, the outer region
as a coset sum).  Of the outer circles only |xi| = p is summed: on
|xi| = p^d with d >= 2 the additive character sums to the Ramanujan sum
c_{p^d}(1), which is exactly 0.  The test suite keeps that fact checked
(``test_zero_circles_integrate_to_zero`` in tests/test_quadrature.py)
instead of every call recomputing it.

Every coset sum that reaches a report is a sum over padic.phase_table, the
one table of roots of unity that gamma's circle |xi| = p and the kernel's
support shell both read.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .characters import Twist
from .errors import ConvergenceError, CosetCapError, FloatRangeError, PoleError, SeriesCapError, _finite
from .padic import COSET_CAP, phase_table

POLE_EPSILON = 1e-12
# the default inner-circle count N of gamma quadrature, and of the trace
# truncation M in lseries; the cost grows linearly in N and M, and a larger
# one than the cap is refused before any loop
DEFAULT_INNER_CIRCLES = 64
TRUNCATION_CAP = 10**6


@dataclass(frozen=True)
class GammaSpec:
    """The gamma function of one local twist T at the argument s.

    T is 1 for the standard gamma function, chi(p) for a Dirichlet
    character (``character_twist``), or one root of a local Hecke quadratic
    (``Twist(p, root=...)``); the prime is ``twist.prime``.
    """

    twist: Twist
    s: complex


def _p_power(p: int, z: complex) -> complex:
    """p^z on the principal branch; FloatRangeError where it passes the largest float."""
    try:
        return cmath.exp(z * math.log(p))
    except OverflowError:
        raise FloatRangeError(
            f"p^z at p = {p}, z = {z} exceeds the largest float {sys.float_info.max:.6g}"
        ) from None


def _real_power(p: int, x: float) -> float:
    """p^x for real x; inf past the largest float, for a convergence check to refuse."""
    try:
        return p**x
    except OverflowError:
        return math.inf


def gamma_closed_form(spec: GammaSpec) -> complex:
    """(T - p^(s-1)) / (T (1 - T p^(-s))) for twist value T; 0 when T = 0; PoleError
    within POLE_EPSILON of a pole, FloatRangeError for a denominator past the float range."""
    T = spec.twist.value
    if T == 0:
        return complex(0.0, 0.0)
    p, s = spec.twist.prime, complex(spec.s)
    denom = 1.0 - T * _p_power(p, -s)
    if abs(denom) < POLE_EPSILON:
        raise PoleError(
            f"gamma denominator |1 - T p^(-s)| = {abs(denom):.3e} at s = {s} "
            f"is inside the pole epsilon {POLE_EPSILON:.1e}"
        )
    # complex products past the float range read inf or NaN without raising
    scaled = _finite(T * denom, "gamma denominator T (1 - T p^(-s)) at p = %s, s = %s", p, s)
    return (T - _p_power(p, s - 1)) / scaled


def _check_truncation(M: int) -> None:
    """Refuse a truncation past TRUNCATION_CAP with SeriesCapError."""
    if M > TRUNCATION_CAP:
        raise SeriesCapError(f"truncation {M} exceeds the cap {TRUNCATION_CAP}")


def gamma_regions(spec: GammaSpec, N: int) -> tuple[complex, complex, complex]:
    """The three pieces of the defining integral, separately.

    Returns (inner, unit, outer): inner circles |xi| = p^(-n) for n = 1..N,
    the unit circle, and the outer region, which is the one circle n = -1
    (p - 1 cosets at depth 1, refused with CosetCapError past COSET_CAP).  The
    circles n <= -2 are exactly 0: there the additive character sums to the
    Ramanujan sum c_{p^d}(1) = 0, d = -n >= 2, so they are not summed;
    ``test_zero_circles_integrate_to_zero`` checks that their coset sums
    give 0.  N above TRUNCATION_CAP raises SeriesCapError.
    """
    _check_truncation(N)
    twist = spec.twist
    T = twist.value
    p, s = twist.prime, complex(spec.s)
    if T == 0:
        return (complex(0.0), complex(0.0), complex(0.0))
    ratio = abs(T) * _real_power(p, -s.real)
    if s.real <= 0 or ratio >= 1.0:
        raise ConvergenceError(
            f"inner circles need |T| p^(-Re s) < 1; got {ratio:.6g} at s = {s}"
        )

    # region of |xi| < 1: the additive character is 1, each circle integrates
    # to (1 - 1/p) (T p^(-s))^n
    inner = complex(0.0, 0.0)
    x = T * _p_power(p, -s)
    power = complex(1.0, 0.0)
    for _ in range(N):
        power *= x
        inner += power
    inner *= (p - 1) / p

    unit = complex((p - 1) / p, 0.0)

    # the circle |xi| = p: cosets d/p + Z_p of measure 1, d = 1..p-1, where
    # the additive character is the phase e^(2 pi i d / p) of phase_table
    radius_factor = _p_power(p, s - 1)
    twist_factor = twist.power(-1)
    if p - 1 > COSET_CAP:
        raise CosetCapError(f"{p - 1} representatives at depth 1 exceed the cap of {COSET_CAP}")
    outer = complex(0.0, 0.0)
    for phase in phase_table(0, 1, p, p):
        outer += phase * radius_factor * twist_factor
    # the coset measure 1.0 multiplies as a complex number, so a sum that
    # overflowed reads NaN, not a signed infinity
    return inner, unit, outer * 1.0


_U = 2.0**-53  # unit roundoff of a double
_PHASE = 6 * math.pi + 9  # error of a phase exp(2 pi i r / m), in units of _U


def _remainder_bound(spec: GammaSpec, N: int, inner: complex, unit: complex, outer: complex) -> float:
    """The truncation tail plus an a priori radius for the rounding of gamma_regions.

    Counts are in units of u = 2^-53.  A real +, -, *, / errs by at most u
    relative, a complex sum by u of its modulus, a complex product by
    sqrt(5) u (Brent, Percival and Zimmermann, 2007).  cmath.exp, math.log
    and ** are assumed within 2 ulps (4 u per real component): Python does
    not promise it, the C libraries it runs on meet it.  So p^z errs by
    5 |z| ln p + 9, and a phase, whose argument below 2 pi carries three
    roundings, by 6 pi + 9; that also covers T (a phase or an exact Hecke
    root) and 1/T (a phase or one complex division).  The terms are first
    order: 1/(1 - g u), g the sum of the counts, covers the higher orders
    and the rounding of x, a and the tail, and (1 + 16 u) that of this formula.
    """
    T = spec.twist.value
    p, s = spec.twist.prime, complex(spec.s)
    log_p, product = math.log(p), math.sqrt(5.0)
    x = abs(T) * p ** (-s.real)
    tail = (1 - 1 / p) * x ** (N + 1) / (1 - x)
    # the tail carries the error of |T| into x, and N + 1 times into x^(N+1)
    tail_count = (N + 1) * (_PHASE + 6) + (x * (_PHASE + 6) + 1) / (1 - x) + 9
    # inner: x^k carries k times the error of x and of a product; the running
    # sum adds u of a partial sum below x / (1 - x), the scaling 2 u
    x_count = _PHASE + 5 * abs(s) * log_p + 9 + product
    inner_radius = (1 - 1 / p) * x / (1 - x) * ((x_count + product) / (1 - x) + N + 1)
    # outer: p - 1 terms of size a = |p^(s-1) / T|, each with the errors of its
    # phase, p^(s-1), 1/T and two products; the running sum adds u of a
    # partial sum below k a after k terms; then unit's division and two sums
    term_count = 2 * _PHASE + 5 * abs(s - 1) * log_p + 9 + 2 * product
    outer_radius = abs(_p_power(p, s - 1) / T) * (p - 1) * (term_count + p / 2)
    sum_radius = 1 + 2 * (abs(inner) + abs(unit) + abs(outer))
    g = tail_count + N * (x_count + 2 * product + 1) + term_count + p * p
    return _certified(tail, inner_radius + outer_radius + sum_radius, g)


@dataclass(frozen=True)
class CertifiedResult:
    """A value, a bound on |value - exact|, and the number of terms behind the value."""

    value: complex
    remainder_bound: float
    terms_used: int


def _certified(truncation: float, units: float, g: float) -> float:
    """The certified bound (truncation + units u) (1 + 16 u) / (1 - g u), rounded up.

    ``units`` is a first-order rounding radius in units of u = 2^-53 and g
    the longest chain of first-order counts behind it: 1 / (1 - g u) covers
    the higher orders and (1 + 16 u) the rounding of this formula.  inf once
    g u >= 1/2, where that step no longer holds.
    """
    if g * _U >= 0.5:
        return math.inf
    bound = (truncation + units * _U) * (1 + 16 * _U) / (1 - g * _U)
    return math.nextafter(bound, math.inf)


def gamma_by_quadrature(spec: GammaSpec, N: int = DEFAULT_INNER_CIRCLES) -> CertifiedResult:
    """Direct evaluation of the gamma integral with a certified remainder bound.

    The only truncation is the inner-circle count N; the discarded circles
    form a geometric series with ratio |T| p^(-Re s), bounded in closed form.
    The bound adds an a priori radius for the float rounding (_remainder_bound).
    A sum that passes the largest float, which only the outer circle's p - 1
    terms of size |p^(s-1)| can do, raises FloatRangeError.
    """
    if spec.twist.value == 0:
        return CertifiedResult(complex(0.0, 0.0), 0.0, 0)
    inner, unit, outer = gamma_regions(spec, N)
    value = inner + unit + outer
    if not cmath.isfinite(value):
        raise FloatRangeError(
            f"gamma quadrature at p = {spec.twist.prime}, s = {complex(spec.s)} is not finite: "
            f"its outer circle passes the largest float {sys.float_info.max:.6g}"
        )
    bound = _remainder_bound(spec, N, inner, unit, outer)
    return CertifiedResult(value, bound, N)
