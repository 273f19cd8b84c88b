"""Haar integration over p-adic circles and the local gamma functions.

Integration is an exact coset sum: a circle {|xi|_p = p^(-n)} is split into
cosets of p^L Z_p fine enough for the integrand's declared local-constancy
level L, one representative is evaluated per coset, and the values are
weighted by the exact coset measure.  For genuinely locally constant
integrands this is the integral, not an approximation; the engine
spot-checks the declared level on deterministic perturbations rather than
trusting it.

The gamma functions come in two routes that the test suite plays against
each other: a closed form, and a three-region quadrature of the defining
integral of e^(2 pi i xi) |xi|^(s-1) twist(|xi|^(-1)) over Q_p (inner
circles summed as a geometric series term by term, the unit circle exactly,
outer circles by the coset sum above).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .characters import DirichletCharacter, Twist, character_twist
from .errors import ConvergenceError, LocalityError, PoleError
from .padic import (
    COSET_CAP,
    PadicNumber,
    additive_character,
    circle_representatives,
    is_prime,
    padic_from_fraction,
)

POLE_EPSILON = 1e-12
DEFAULT_INNER_CIRCLES = 64

STANDARD = "standard"
CHARACTER_TWISTED = "character_twisted"
MODULAR_A1 = "modular_a1"
MODULAR_A2 = "modular_a2"


@dataclass(frozen=True)
class CircleIntegrand:
    """A callback with a declared constancy level.

    ``locality`` is an integer L such that the function takes one value on
    each coset of p^L Z_p met by the integration circle.
    """

    func: Callable[[PadicNumber], complex]
    locality: int


def integrate_circle(f: CircleIntegrand, p: int, n: int, cap: int = COSET_CAP) -> complex:
    """Exact coset sum of f over {|xi|_p = p^(-n)}."""
    depth = max(1, f.locality - n)
    reps = circle_representatives(p, n, depth, cap=cap)
    _check_locality(f, p, n, reps)
    coset_measure = float(Fraction(p) ** (-(n + depth)))
    total = complex(0.0, 0.0)
    for rep in reps:
        total += f.func(rep)
    return total * coset_measure


def _check_locality(f: CircleIntegrand, p: int, n: int, reps: list[PadicNumber]) -> None:
    # perturb below both the declared level and the circle's own scale so the
    # probe stays on the circle and inside the claimed constancy coset
    rng = random.Random(20210427)
    base_level = max(f.locality, n)
    for rep in (reps[0], reps[len(reps) // 2], reps[-1]):
        rep_value = f.func(rep)
        rep_frac = rep.as_fraction()
        for extra in (1, 2):
            digit = rng.randrange(1, p)
            probe_frac = rep_frac + digit * Fraction(p) ** (base_level + extra)
            probe = padic_from_fraction(p, probe_frac)
            if abs(f.func(probe) - rep_value) > 1e-9:
                raise LocalityError(
                    f"integrand varies inside a coset of p^{f.locality} Z_p "
                    f"(perturbation at level {base_level + extra}, p={p}, n={n})"
                )


def spec_twist(spec, role: str, untwisted: str) -> Twist:
    """Validate a spec's twist fields and derive its Twist.

    GammaSpec and OperatorSpec share this: ``role`` names the spec in error
    messages and ``untwisted`` is its kind without a twist.  A character
    belongs to ``character_twisted`` only and a coefficient (one root of the
    local Hecke quadratic) to the modular kinds only, so no stray field can
    change the derived twist.
    """
    if spec.kind not in (untwisted, CHARACTER_TWISTED, MODULAR_A1, MODULAR_A2):
        raise ValueError(f"unknown {role} kind {spec.kind!r}")
    if not is_prime(spec.prime):
        raise ValueError(f"prime must be prime, got {spec.prime}")
    modular = spec.kind in (MODULAR_A1, MODULAR_A2)
    if spec.kind == CHARACTER_TWISTED and spec.character is None:
        raise ValueError(f"character_twisted {role} needs a character")
    if spec.kind != CHARACTER_TWISTED and spec.character is not None:
        raise ValueError(f"{spec.kind} {role} takes no character")
    if modular and spec.coefficient is None:
        raise ValueError(f"modular {role} needs a coefficient")
    if not modular and spec.coefficient is not None:
        raise ValueError(f"{spec.kind} {role} takes no coefficient")
    if spec.kind == CHARACTER_TWISTED:
        return character_twist(spec.character, spec.prime)
    if modular:
        return Twist(spec.prime, root=complex(spec.coefficient))
    return Twist(spec.prime)


@dataclass(frozen=True)
class GammaSpec:
    """Which gamma function, at which prime and argument.

    kind selects the twist: ``standard`` (no twist), ``character_twisted``
    (a Dirichlet character evaluated at p), or ``modular_a1``/``modular_a2``
    (one root of a local Hecke quadratic, passed as ``coefficient``).
    ``twist`` is derived from these fields.
    """

    kind: str
    prime: int
    s: complex
    character: DirichletCharacter | None = None
    coefficient: complex | None = None
    twist: Twist = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "twist", spec_twist(self, "gamma", STANDARD))


def _p_power(p: int, z: complex) -> complex:
    """p^z on the principal branch."""
    return cmath.exp(z * math.log(p))


def gamma_closed_form(spec: GammaSpec) -> complex:
    """(T - p^(s-1)) / (T (1 - T p^(-s))) for twist value T; 0 when T = 0."""
    return twisted_gamma(spec.twist, spec.s)


def twisted_gamma(twist: Twist, s: complex) -> complex:
    """The closed form of gamma_closed_form from the twist and s alone."""
    T = twist.value
    if T == 0:
        return complex(0.0, 0.0)
    p, s = twist.prime, complex(s)
    denom = 1.0 - T * _p_power(p, -s)
    if abs(denom) < POLE_EPSILON:
        raise PoleError(
            f"gamma denominator |1 - T p^(-s)| = {abs(denom):.3e} at s = {s} "
            f"is inside the pole epsilon {POLE_EPSILON:.1e}"
        )
    return (T - _p_power(p, s - 1)) / (T * denom)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    remainder_bound: float
    terms_used: int


def gamma_regions(spec: GammaSpec, N: int, cap: int = COSET_CAP) -> tuple[complex, complex, complex]:
    """The three pieces of the defining integral, separately.

    Returns (inner, unit, outer): inner circles |xi| = p^(-n) for n = 1..N,
    the unit circle, and the outer circles |xi| = p^(-n) for n = -1..-3.
    Everything beyond the first outer circle vanishes by root-of-unity
    cancellation; computing three of them keeps that fact under test instead
    of assuming it.
    """
    twist = spec.twist
    T = twist.value
    p, s = spec.prime, complex(spec.s)
    if T == 0:
        return (complex(0.0), complex(0.0), complex(0.0))
    ratio = abs(T) * p ** (-s.real)
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

    outer = complex(0.0, 0.0)
    for n in (-1, -2, -3):
        radius_factor = _p_power(p, -n * (s - 1))
        twist_factor = twist.power(n)

        def integrand(xi: PadicNumber) -> complex:
            return additive_character(xi) * radius_factor * twist_factor

        outer += integrate_circle(CircleIntegrand(integrand, 0), p, n, cap=cap)
    return inner, unit, outer


def gamma_by_quadrature(spec: GammaSpec, N: int = DEFAULT_INNER_CIRCLES, cap: int = COSET_CAP) -> QuadratureResult:
    """Direct evaluation of the gamma integral with a certified tail.

    The only truncation is the inner-circle count N; the discarded circles
    form a geometric series with ratio |T| p^(-Re s), bounded in closed form.
    """
    T = spec.twist.value
    if T == 0:
        return QuadratureResult(complex(0.0, 0.0), 0.0, 0)
    inner, unit, outer = gamma_regions(spec, N, cap=cap)
    p, s = spec.prime, complex(spec.s)
    ratio = abs(T) * p ** (-s.real)
    tail = (1 - 1 / p) * ratio ** (N + 1) / (1 - ratio)
    return QuadratureResult(inner + unit + outer, tail, N)
