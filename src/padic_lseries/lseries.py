"""Local Euler factors as operator traces, and the global objects they build.

The local factor of a Dirichlet L-function at p is the trace of the twisted
derivative of order -s over the wavelet subspace H_-: a geometric series in
eigenvalues.  The modular factor is a trace over a tensor square, summed
here over the triangular lattice region m1 + m2 <= M so the discarded part
has a clean closed-form bound.  Global values come either from the Euler
product over sieved primes or from partial Dirichlet series, each carrying
a certified remainder: geometric tails for traces, integral comparison for
products and series, and the alternating next-term bound where a real
character genuinely alternates.

Every result is a SeriesResult (value, remainder_bound, terms_used); the
remainder bounds are upper bounds, never estimates, because the test suite
compares methods against each other through them.

One convergence subtlety is load-bearing everywhere: the modular root pairs
satisfy |a_i| = p^((k-1)/2), so traces converge only for Re(s) beyond
(k-1)/2 and the root and scale factors are combined as a_i p^(-s) before
powering; powering them separately would overflow and underflow float range
long before the products stop being representable.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .characters import DirichletCharacter, character_angle, character_twist, evaluate
from .errors import ConvergenceError, DegenerateTwistError, PoleError
from .modular import CoefficientProvider, coefficient, factorize_local, quadratic_constant
from .padic import _require_prime
from .quadrature import DEFAULT_INNER_CIRCLES, POLE_EPSILON, _p_power, _real_power
from .wavelets import OperatorSpec, eigenvalue

PRIME_BOUND_CAP = 10**7
FSUM_CHUNK = 4096
_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    remainder_bound: float
    terms_used: int


def primes_up_to(bound: int) -> list[int]:
    """Deterministic odd-only byte-array sieve: index i stands for 2i + 1."""
    if bound > PRIME_BOUND_CAP:
        raise ValueError(f"prime bound {bound} exceeds the cap {PRIME_BOUND_CAP}")
    if bound < 2:
        return []
    count = (bound + 1) // 2
    sieve = bytearray([1]) * count
    sieve[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            start = q * q // 2
            sieve[start::q] = bytes((count - 1 - start) // q + 1)
    return [2, *itertools.compress(range(1, bound + 1, 2), sieve)]


def _geometric_unimodular_trace(spec: OperatorSpec, p: int, s: complex, M: int) -> SeriesResult:
    ratio = _real_power(p, -s.real)
    if ratio >= 1.0:
        raise ConvergenceError(
            f"trace at p = {p} needs Re(s) > 0 to converge; got s = {s}"
        )
    total = complex(0.0)
    for m in range(M + 1):
        total += eigenvalue(spec, m)
    tail = ratio ** (M + 1) / (1.0 - ratio)
    return SeriesResult(total, tail, M + 1)


def _triangular_lattice_sum(q1: complex, q2: complex, M: int) -> complex:
    """sum over m1 + m2 <= M of q1^m1 q2^m2, by total degree."""
    e1, e2 = q1 + q2, q1 * q2
    previous, current = complex(0.0), complex(1.0)
    total = complex(1.0)
    for _ in range(M):
        previous, current = current, e1 * current - e2 * previous
        total += current
    return total


def _triangular_tail(ratio: float, M: int) -> float:
    """sum over m > M of (m+1) ratio^m in closed form."""
    return ratio ** (M + 1) * ((M + 2) - (M + 1) * ratio) / (1.0 - ratio) ** 2


def _modular_ratios(provider: CoefficientProvider, p: int, s: complex) -> tuple[complex, complex, float]:
    fac = factorize_local(provider, p)
    scale = _p_power(p, -complex(s))
    q1, q2 = fac.a1 * scale, fac.a2 * scale
    ratio = max(abs(q1), abs(q2))
    if ratio >= 1.0:
        raise ConvergenceError(
            f"modular trace at p = {p} needs max|a_i| p^(-Re s) < 1; got {ratio:.6g} at s = {s}"
        )
    return q1, q2, ratio


def local_trace(twist, p: int, s: complex, M: int = DEFAULT_INNER_CIRCLES) -> SeriesResult:
    """The truncated trace realizing one local L-factor, with its tail bound.

    ``twist`` is a DirichletCharacter or a CoefficientProvider, as for
    euler_product; zeta is the principal character mod 1.
    """
    _require_prime(p)
    if M < 1:
        raise ValueError("truncation must be positive")
    s = complex(s)
    if isinstance(twist, CoefficientProvider):
        q1, q2, ratio = _modular_ratios(twist, p, s)
        total = _triangular_lattice_sum(q1, q2, M)
        return SeriesResult(total, _triangular_tail(ratio, M), (M + 1) * (M + 2) // 2)
    spec = OperatorSpec(character_twist(twist, p), -s)
    if spec.twist.value == 0:
        raise DegenerateTwistError(
            f"p = {p} divides the modulus {twist.modulus}: the twist "
            "degenerates to the identity and its trace diverges; the closed "
            "local factor there is exactly 1"
        )
    return _geometric_unimodular_trace(spec, p, s, M)


def _closed_factor(p: int, s: complex, a: complex, c: complex | None = None) -> complex:
    """1/(1 - a p^(-s)), or 1/(1 - a p^(-s) + c p^(-2s)) given c; poles are refused."""
    scale = _p_power(p, -s)
    denom = 1.0 - a * scale if c is None else 1.0 - a * scale + c * scale * scale
    if abs(denom) < POLE_EPSILON:
        raise PoleError(
            f"local factor denominator {abs(denom):.3e} at p = {p}, s = {s} "
            f"is inside the pole epsilon {POLE_EPSILON:.1e}"
        )
    return 1.0 / denom


def _hecke_coefficients(provider: CoefficientProvider, p: int) -> tuple[complex, complex]:
    """a(p) and chi(p) p^(k-1), the coefficients of the local Hecke quadratic."""
    return complex(coefficient(provider, p)), complex(quadratic_constant(provider, p))


def local_factor_closed(twist, p: int, s: complex) -> complex:
    """The closed local factor the trace converges to; ``twist`` as for local_trace."""
    _require_prime(p)
    s = complex(s)
    if isinstance(twist, CoefficientProvider):
        return _closed_factor(p, s, *_hecke_coefficients(twist, p))
    return _closed_factor(p, s, evaluate(twist, p))


def _character_table(chi: DirichletCharacter) -> list[complex]:
    """chi(0), ..., chi(k - 1): the r-th item is chi(n) for every n = r mod k."""
    return [evaluate(chi, r) for r in range(chi.modulus)]


def _series_exponent_shift(twist) -> float:
    # convergence abscissa moves right by (k-1)/2 for a weight-k form
    if isinstance(twist, CoefficientProvider):
        return (twist.weight - 1) / 2.0
    return 0.0


def euler_product(twist, s: complex, prime_bound: int) -> SeriesResult:
    """Product of closed local factors over sieved primes, with a tail bound.

    ``twist`` is a DirichletCharacter or a CoefficientProvider.  The bound
    on the dropped primes integrates sum p^(-sigma') for the shifted
    abscissa sigma'; for providers it assumes the root pairs satisfy
    |a_i| <= p^((k-1)/2), which holds whenever the coefficients obey the
    Ramanujan-Petersson size |a(p)| <= 2 p^((k-1)/2).
    """
    s = complex(s)
    sigma = s.real - _series_exponent_shift(twist)
    if sigma <= 1.0:
        raise ConvergenceError(
            f"Euler product needs Re(s) > {1.0 + _series_exponent_shift(twist)}; got s = {s}"
        )
    modular = isinstance(twist, CoefficientProvider)
    primes = primes_up_to(prime_bound)
    value = complex(1.0)
    if modular:
        for p in primes:
            value *= _closed_factor(p, s, *_hecke_coefficients(twist, p))
    else:
        # |chi(p) p^(-s)| <= 2^(-sigma) < 1/2, so no factor is near a pole
        table, k = _character_table(twist), twist.modulus
        for p in primes:
            value *= 1.0 / (1.0 - table[p % k] * _p_power(p, -s))

    # |log factor| <= c p^(-sigma) per unimodular twist, twice that for the
    # two modular roots; then sum_{p > P} p^(-sigma) < P^(1-sigma)/(sigma-1)
    c = 1.0 / (1.0 - 2.0**-sigma)
    log_tail = (2.0 if modular else 1.0) * c * prime_bound ** (1.0 - sigma) / (sigma - 1.0)
    return SeriesResult(value, abs(value) * math.expm1(log_tail), len(primes))


def _is_alternating(chi: DirichletCharacter) -> bool:
    """True for a real nonprincipal character whose nonzero values alternate."""
    # angles at the units among n = 1, ..., 2k: 0 is chi(n) = 1, 1/2 is chi(n) = -1
    angles = [character_angle(chi, n) for n in range(1, chi.modulus + 1)]
    angles = [theta for theta in angles if theta is not None] * 2
    if any(theta not in (0, Fraction(1, 2)) for theta in angles):
        return False  # complex values never alternate in the real sense
    return any(angles) and all(a != b for a, b in zip(angles, angles[1:]))


def _complex_fsum(terms: Iterable) -> complex:
    """Compensated sum of real or complex terms, with math.fsum running in C.

    The terms are taken FSUM_CHUNK at a time; the real and the imaginary
    parts of each chunk are summed by fsum, and the chunk sums by fsum again.
    """
    terms = iter(terms)
    reals, imags = [], []
    while chunk := list(itertools.islice(terms, FSUM_CHUNK)):
        reals.append(math.fsum(map(_REAL, chunk)))
        imags.append(math.fsum(map(_IMAG, chunk)))
    return complex(math.fsum(reals), math.fsum(imags))


def dirichlet_series(twist, s: complex, N: int) -> SeriesResult:
    """Partial sum of chi(n)/n^s or a(n)/n^s with a certified remainder.

    Needs Re(s) past the convergence abscissa, except that a genuinely
    alternating real character admits any real s > 0 with the next-term
    bound of the alternating series test.
    """
    s = complex(s)
    if N < 1:
        raise ValueError("the partial sum needs N >= 1")
    # n^(-s) is a float for real s and a complex number otherwise
    exponent = -s.real if s.imag == 0.0 else -s
    if isinstance(twist, CoefficientProvider):
        sigma = s.real - _series_exponent_shift(twist) - 0.5  # |a(n)| <= 2 n^(k/2)
        if sigma <= 1.0:
            raise ConvergenceError(
                f"modular series needs Re(s) > {1.5 + _series_exponent_shift(twist)}; got s = {s}"
            )
        if N > twist.max_n:
            coefficient(twist, twist.max_n + 1)  # raises the out-of-table IndexError
        tail = 2.0 * N ** (1.0 - sigma) / (sigma - 1.0)
        powers = map(pow, range(1, N + 1), itertools.repeat(exponent))
        terms = map(operator.mul, twist.values, powers)
        # real s gives real terms: one fsum, correctly rounded, as class_sum below
        value = complex(math.fsum(terms)) if s.imag == 0.0 else _complex_fsum(terms)
    else:
        chi: DirichletCharacter = twist
        alternating = _is_alternating(chi) and s.imag == 0.0 and s.real > 0.0
        if s.real <= 1.0 and not alternating:
            raise ConvergenceError(
                f"Dirichlet series needs Re(s) > 1 (or an alternating real character "
                f"with real s > 0); got s = {s}"
            )
        bounds = []
        if s.real > 1.0:
            bounds.append(N ** (1.0 - s.real) / (s.real - 1.0))
        if alternating:
            nxt = N + 1
            while character_angle(chi, nxt) is None:
                nxt += 1
            bounds.append(nxt ** (-s.real))
        tail = min(bounds)
        # chi is constant on each class n = r mod k: the series is the sum
        # over the unit classes r of chi(r) times the class sum of n^(-s)
        table, k = _character_table(chi), chi.modulus
        classes = [r for r in range(k) if table[r] and (r or k) <= N]
        class_sum = math.fsum if s.imag == 0.0 else _complex_fsum
        sums = [class_sum(map(pow, range(r or k, N + 1, k), itertools.repeat(exponent))) for r in classes]
        value = _complex_fsum(map(operator.mul, [table[r] for r in classes], sums))
    return SeriesResult(value, tail, N)


def hecke_conjugated_trace(
    provider: CoefficientProvider,
    p: int,
    s: complex,
    shift: int,
    M: int = DEFAULT_INNER_CIRCLES,
) -> SeriesResult:
    """Trace of the modular operator conjugated by the l-th ladder shift.

    Conjugation translates the (m1, m2) lattice quadrant; splitting the
    shift l between the two tensor factors gives l + 1 translated quadrants,
    each a copy of the full triangular sum weighted by q1^i q2^(l-i).  The
    weights sum to a(p^l) p^(-s l), which is why this trace reproduces the
    shifted local factor.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if M < shift:
        raise ValueError(f"truncation M = {M} cannot be below the shift {shift}")
    q1, q2, ratio = _modular_ratios(provider, p, complex(s))
    weight = complex(0.0)
    for i in range(shift + 1):
        weight += q1**i * q2 ** (shift - i)
    inner = M - shift
    value = weight * _triangular_lattice_sum(q1, q2, inner)
    tail = abs(weight) * _triangular_tail(ratio, inner)
    return SeriesResult(value, tail, (shift + 1) * (inner + 1) * (inner + 2) // 2)
