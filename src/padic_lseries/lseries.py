"""Local Euler factors as operator traces, and the global objects they build.

The local factor of a Dirichlet L-function at p is the trace of the twisted
derivative of order -s over the wavelet subspace H_-: a geometric series in
eigenvalues.  Like a character's Euler product below, that trace is one
chain of maps closed by sum, with no per-term step in the interpreter; it
keeps the per-term loop's operations and order, and every bit of the value.
The modular factor is a trace over a tensor square, summed here over the
triangular lattice region m1 + m2 <= M so the discarded part has a clean
closed-form bound.  Global values come either from the Euler
product over sieved primes or from partial Dirichlet series, each carrying
a certified remainder: geometric tails for traces, integral comparison for
products and series, and the alternating next-term bound where a real
character genuinely alternates.

Each Euler product sieves its own primes into an array of 4-byte items
(2.66 MB at the cap of 10^7), dropped when the product returns.  A
character's product is one chain of maps over that array closed by
math.prod, so no per-prime step runs in the interpreter; it keeps the
per-prime loop's operations and order, and with them every bit of the
value.  The modular product multiplies its closed factors one prime at a
time.

A partial Dirichlet series to N (``terms_used`` is N, the length of the
partial sum) is summed per residue class mod k.  A class sums its terms
below n0 = 2k(|s| + 16)/pi directly and the rest by Euler-Maclaurin with 8
Bernoulli terms, so its cost does not grow with N; a class that ends below
n0 is summed directly to N.  N is capped at 2^53, where every n is still an
exact float.  The bound is the truncation tail, plus the Euler-Maclaurin
remainder, plus an a priori radius for the float rounding, so it bounds
|value - L(s, chi)| and not only the dropped terms.  The modular series
sums its N terms directly, and its bound is the tail alone.

Every result is a CertifiedResult (value, remainder_bound, terms_used), the
one result type, defined in quadrature; the remainder bounds are upper
bounds, never estimates, because the test suite compares methods against
each other through them.

One convergence subtlety is load-bearing everywhere: the modular root pairs
satisfy |a_i| = p^((k-1)/2), so traces converge only for Re(s) beyond
(k-1)/2 and the root and scale factors are combined as a_i p^(-s) before
powering; powering them separately would overflow and underflow float range
long before the products stop being representable.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from array import array
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .characters import DirichletCharacter, Twist, _angle_numerators, character_angle, character_twist
from .errors import ConvergenceError, DegenerateTwistError, FloatRangeError, PoleError, SeriesCapError
from .modular import CoefficientProvider, _hecke_coefficients, coefficient, factorize_local
from .padic import _require_prime, residue_phase
from .quadrature import (
    _PHASE, DEFAULT_INNER_CIRCLES, POLE_EPSILON, CertifiedResult, _certified, _check_truncation,
    _p_power, _real_power,
)

PRIME_BOUND_CAP = 10**7
SERIES_LENGTH_CAP = 2**53
FSUM_CHUNK = 4096
_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


def _sieve(bound: int) -> array:
    """The primes up to bound as 4-byte items; SeriesCapError past PRIME_BOUND_CAP.

    Deterministic odd-only byte-array sieve: index i stands for 2i + 1.
    """
    if bound > PRIME_BOUND_CAP:
        raise SeriesCapError(f"prime bound {bound} exceeds the cap {PRIME_BOUND_CAP}")
    primes = array("I")
    if bound < 2:
        return primes
    count = (bound + 1) // 2
    sieve = bytearray([1]) * count
    sieve[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            start = q * q // 2
            sieve[start::q] = bytes((count - 1 - start) // q + 1)
    primes.append(2)
    primes.extend(itertools.compress(range(1, bound + 1, 2), sieve))
    return primes


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


def local_trace(twist, p: int, s: complex, M: int = DEFAULT_INNER_CIRCLES) -> CertifiedResult:
    """The truncated trace realizing one local L-factor, with its tail bound.

    ``twist`` is a DirichletCharacter or a CoefficientProvider, as for
    euler_product; zeta is the principal character mod 1.  M above
    TRUNCATION_CAP raises SeriesCapError.
    """
    _require_prime(p)
    if M < 1:
        raise ValueError("truncation must be positive")
    _check_truncation(M)
    if isinstance(twist, CoefficientProvider):
        return hecke_conjugated_trace(twist, p, s, 0, M)
    s = complex(s)
    T = character_twist(twist, p)
    if T.value == 0:
        raise DegenerateTwistError(
            f"p = {p} divides the modulus {twist.modulus}: the twist "
            "degenerates to the identity and its trace diverges; the closed "
            "local factor there is exactly 1"
        )
    ratio = _real_power(p, -s.real)
    if ratio >= 1.0:
        raise ConvergenceError(
            f"trace at p = {p} needs Re(s) > 0 to converge; got s = {s}"
        )
    # a running total += term from complex 0, left to right
    total = sum(_eigenvalues(T, p, s, M), complex(0.0))
    return CertifiedResult(total, ratio ** (M + 1) / (1.0 - ratio), M + 1)


def _eigenvalues(T: Twist, p: int, s: complex, M: int) -> Iterator[complex]:
    """The eigenvalues (T p^(-s))^m, m = 0..M, of a character twist T, as one chain of maps.

    Bit for bit wavelets.eigenvalue(OperatorSpec(T, -s), m): T^m, which
    depends on m mod d for the angle a/d of T, times cmath.exp((-s m) log p),
    the operations of quadrature._p_power in its order.  The multiply by T^m
    stays at T = 1, where it fixes the sign of a term's zero.  local_trace's ratio
    check has forced Re(-s) < 0, so no exponent has a positive real part and
    _p_power's FloatRangeError cannot fire here.
    """
    powers = itertools.cycle([T.power(m) for m in range(min(T.angle.denominator, M + 1))])
    exponents = map(operator.mul, itertools.repeat(-s), range(M + 1))
    scales = map(cmath.exp, map(operator.mul, exponents, itertools.repeat(math.log(p))))
    return map(operator.mul, powers, scales)


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


def local_factor_closed(twist, p: int, s: complex) -> complex:
    """The closed local factor the trace converges to; ``twist`` as for local_trace."""
    _require_prime(p)
    s = complex(s)
    if isinstance(twist, CoefficientProvider):
        return _closed_factor(p, s, *_hecke_coefficients(twist, p))
    return _closed_factor(p, s, character_twist(twist, p).value)


def _character_table(chi: DirichletCharacter) -> list[complex]:
    """chi(0), ..., chi(k - 1): the r-th item is chi(n) for every n = r mod k.

    Bit for bit evaluate(chi, r): residue_phase(n, d) divides n by d
    correctly rounded, so an unreduced angle gives the float of the reduced one.
    """
    numerators, d = _angle_numerators(chi)
    return [complex(0.0, 0.0) if n is None else residue_phase(n, d) for n in numerators]


def _series_exponent_shift(twist) -> float:
    # convergence abscissa moves right by (k-1)/2 for a weight-k form
    if isinstance(twist, CoefficientProvider):
        return (twist.weight - 1) / 2.0
    return 0.0


def _character_product(chi: DirichletCharacter, s: complex, primes: array) -> complex:
    """The product of 1/(1 - chi(p) p^(-s)) over primes, left to right, as a chain of maps.

    The operations and their order are _closed_factor's and a running
    product's from complex 1: cmath.exp(-s log p), chi(p) times it, 1 minus
    that, 1 over that; |chi(p) p^(-s)| <= 2^(-sigma) < 1/2, so no factor is
    near a pole.  At real s with a table whose imaginary parts are all 0,
    the chain runs in floats with math.exp: its product is the complex
    chain's real part bit for bit, and that chain's imaginary part is +0.0.
    Mod 1, chi(p) = 1 and the lookup and multiply are skipped: 1 times w
    differs from w at most in the sign of a zero, which 1 - w absorbs.
    """
    table, k = _character_table(chi), chi.modulus
    if s.imag == 0.0 and all(entry.imag == 0.0 for entry in table):
        exp, exponent, table, one = math.exp, -s.real, [entry.real for entry in table], 1.0
    else:
        exp, exponent, one = cmath.exp, -s, complex(1.0)
    w = map(exp, map(operator.mul, itertools.repeat(exponent), map(math.log, primes)))
    if k > 1:
        w = map(operator.mul, map(table.__getitem__, map(operator.mod, primes, itertools.repeat(k))), w)
    factors = map(operator.truediv, itertools.repeat(1.0), map(operator.sub, itertools.repeat(1.0), w))
    return complex(math.prod(factors, start=one))


def euler_product(twist, s: complex, prime_bound: int) -> CertifiedResult:
    """Product of closed local factors over sieved primes, with a tail bound.

    ``twist`` is a DirichletCharacter or a CoefficientProvider.  The bound
    on the dropped primes integrates sum p^(-sigma') for the shifted
    abscissa sigma'; for providers it assumes the root pairs satisfy
    |a_i| <= p^((k-1)/2), which holds whenever the coefficients obey the
    Ramanujan-Petersson size |a(p)| <= 2 p^((k-1)/2).  A prime bound below 1
    raises ValueError, one past PRIME_BOUND_CAP SeriesCapError, and a tail
    bound past the float range (Re s near the abscissa with few primes)
    raises FloatRangeError.
    """
    s = complex(s)
    if prime_bound < 1:
        raise ValueError(f"the Euler product needs a prime bound P >= 1, got {prime_bound}")
    sigma = s.real - _series_exponent_shift(twist)
    if sigma <= 1.0:
        raise ConvergenceError(
            f"Euler product needs Re(s) > {1.0 + _series_exponent_shift(twist)}; got s = {s}"
        )
    modular = isinstance(twist, CoefficientProvider)
    primes = _sieve(prime_bound)
    if modular:
        value = complex(1.0)
        for p in primes:
            value *= _closed_factor(p, s, *_hecke_coefficients(twist, p))
    else:
        value = _character_product(twist, s, primes)

    # |log factor| <= c p^(-sigma) per unimodular twist, twice that for the
    # two modular roots; then sum_{p > P} p^(-sigma) < P^(1-sigma)/(sigma-1)
    c = 1.0 / (1.0 - 2.0**-sigma)
    log_tail = (2.0 if modular else 1.0) * c * prime_bound ** (1.0 - sigma) / (sigma - 1.0)
    try:
        growth = math.expm1(log_tail)
    except OverflowError:
        raise FloatRangeError(
            f"the prime-tail bound exp({log_tail:.6g}) - 1 of the Euler product at s = {s}, "
            f"P = {prime_bound} exceeds the largest float {sys.float_info.max:.6g}"
        ) from None
    return CertifiedResult(value, abs(value) * growth, len(primes))


def _is_alternating(chi: DirichletCharacter) -> bool:
    """True for a real nonprincipal character whose nonzero values alternate."""
    # angle numerators at the units among n = 1, ..., 2k: 0 is chi(n) = 1,
    # d/2 is chi(n) = -1
    numerators, d = _angle_numerators(chi)
    angles = [n for n in numerators[1:] + numerators[:1] if n is not None] * 2
    if any(n != 0 and 2 * n != d for n in angles):
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


# Euler-Maclaurin order M of the class sums, and the Bernoulli weights
# B_2i / (2i)!, i = 1..M, each correctly rounded from the exact rational
EM_ORDER = 8


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0, ..., B_count exactly, from sum_{j <= m} C(m + 1, j) B_j = 0 (so B_1 = -1/2)."""
    numbers = [Fraction(1)]
    for m in range(1, count + 1):
        numbers.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(numbers)) / (m + 1))
    return numbers


_EM_WEIGHTS = tuple(
    float(b / math.factorial(2 * i)) for i, b in enumerate(_bernoulli_numbers(2 * EM_ORDER)[2::2], start=1)
)


def _head_bound(s: complex, k: int) -> float:
    """n0 = 2k(|s| + 2M)/pi, where the class sums switch from direct terms to Euler-Maclaurin.

    From n0 on, x = k/n <= pi/(2(|s| + 2M)), so each Euler-Maclaurin term
    is at most 1/16 of the one before: the term i + 1 over the term i is
    |B_2i+2 / B_2i| / ((2i+1)(2i+2)) <= 1/(2 pi)^2, times
    |s + 2i - 1| |s + 2i| x^2 <= ((|s| + 2M) x)^2.
    """
    return 2.0 * k * (abs(s) + 2 * EM_ORDER) / math.pi


def _power_integral(a: int, b: int, k: int, s: complex) -> tuple[complex, float]:
    """(1/k) times the integral of x^(-s) over [a, b], and a bound on its rounding in units of u.

    Real s goes through log1p and expm1, so the value is accurate relative to
    itself, at s = 1 and next to it too; complex s (Re s > 1 here) is the
    difference of the end powers over (1 - s) k.
    """
    if s.imag == 0.0:
        sigma = s.real
        log_ratio = math.log1p((b - a) / a)  # 5 u: the quotient's rounding passes with factor <= 1
        if sigma == 1.0:
            value = log_ratio / k
            return value, 7 * value
        w = 1.0 - sigma
        z = w * log_ratio  # 7 u
        value = a**w * math.expm1(z) / (w * k)
        # expm1 passes z's error on times |z| e^z / |e^z - 1| <= 1 + max(z, 0)
        units = (20 + 7 * max(z, 0.0)) * abs(value)
        if sigma < 0.5:  # from 1/2 on, 1 - sigma is exact (Sterbenz)
            units += (a**w * math.log(a) + b**w * math.log(b)) / k
        return value, units
    w = 1.0 - s
    high, low = b**w, a**w
    value = (high - low) / (w * k)
    return value, _power_count(s, b) * (abs(high) + abs(low)) / (abs(w) * k) + 10 * abs(value)


def _correction_coefficients(s: complex) -> list:
    """b_M, ..., b_1 with b_i = B_2i/(2i)! (-s)(-s-1)...(-s-2i+2).

    For f(j) = (r + kj)^(-s) and n = r + kj, the Euler-Maclaurin
    corrections sum_i B_2i/(2i)! f^(2i-1)(j) are n^(-s) sum_i b_i (k/n)^(2i-1),
    since each derivative multiplies by (-s-m+1) k / n.
    """
    coefficients, falling = [], -s
    for i, weight in enumerate(_EM_WEIGHTS, start=1):
        coefficients.append(weight * falling)
        falling *= (-s - (2 * i - 1)) * (-s - 2 * i)
    return coefficients[::-1]


def _correction(f, x: float, coefficients: list):
    """f times sum_i b_i x^(2i-1), by Horner's rule in x^2."""
    x2, acc = x * x, 0.0
    for c in coefficients:
        acc = acc * x2 + c
    return f * x * acc


def _power_count(s: complex, n: int) -> float:
    """The rounding of a power m^(-s) or m^(1-s), m <= n, in units of u, relative to its modulus.

    pow(m, -Re s) errs by 4 u, and the phase Im(s) ln m by 5 |Im s| ln m u
    before its cos and sin add 4 u and the product 1 u.
    """
    return 5 * abs(s.imag) * math.log(n) + 9


def _class_sums(chi: DirichletCharacter, s: complex, N: int) -> tuple[complex, float, float]:
    """sum chi(n) n^(-s) over n <= N, its Euler-Maclaurin remainder, and its rounding radius.

    chi is constant on each residue class r mod k, so the series is the sum
    over the unit classes of chi(r) times the class sum S_r of n^(-s), n = r
    mod k.  Each class sums its terms n < n0 (_head_bound) directly with fsum;
    its tail [na, nb], the members from n0 to N, is the integral, the half
    end terms and EM_ORDER = M Bernoulli corrections in j, n = r + kj.  A
    class with no member in [n0, N] is summed directly to N.  The
    Euler-Maclaurin remainder of a tail is at most
    |B_2M|/(2M)! |(s)_2M| (k/na)^(2M-1) na^(-Re s) / (Re s + 2M - 1)
    (Johansson, Numer. Algorithms 69, 2015), for every Re s > 0.

    The radius counts units u = 2^-53, with the library functions within 2
    ulps as quadrature._remainder_bound assumes: a power by _power_count, a
    phase chi(r) by _PHASE (none for chi(r) = 1, which is exact), a product
    by sqrt(5), and an fsum by 3 times the sum of its terms' moduli.  A
    head's moduli sum to at most r^(-Re s) plus the integral of x^(-Re s)
    over its span, over k.  The corrections at an end n carry the power's
    count plus 12M + 16 (their coefficients' products and Horner's steps),
    and their moduli sum to at most (4/45) |s| (k/n) n^(-Re s), by the
    ratio 1/16.  Returns (value, remainder, radius in units of u).
    """
    table, k = _character_table(chi), chi.modulus
    sigma = s.real
    real = s.imag == 0.0
    exponent = -sigma if real else -s
    class_sum = math.fsum if real else _complex_fsum
    n0 = _head_bound(s, k)
    if n0 <= N:
        coefficients = _correction_coefficients(sigma if real else s)
        remainder_factor = abs(_EM_WEIGHTS[-1]) * math.prod(abs(s + j) for j in range(2 * EM_ORDER))
        head_end = math.ceil(n0)
    classes = [r for r in range(k) if table[r] and (r or k) <= N]
    sums, remainder, units = [], 0.0, 0.0
    for r in classes:
        first = r or k
        last = N - (N - first) % k
        if n0 > last:  # the head reaches N
            sums.append(class_sum(map(pow, range(first, last + 1, k), itertools.repeat(exponent))))
            head_last = last
        else:
            na = head_end + (first - head_end) % k
            fa, fb = pow(na, exponent), pow(last, exponent)
            xa, xb = k / na, k / last
            integral, integral_units = _power_integral(na, last, k, s)
            pieces = (integral, fa / 2, fb / 2, _correction(fb, xb, coefficients), -_correction(fa, xa, coefficients))
            head = map(pow, range(first, na, k), itertools.repeat(exponent))
            sums.append(class_sum(itertools.chain(head, pieces)))
            head_last = na - k
            end_units = (_power_count(s, na) + 3) * abs(fa) + (_power_count(s, last) + 3) * abs(fb)
            correction_moduli = 4 / 45 * abs(s) * (xa * abs(fa) + xb * abs(fb))
            correction_count = _power_count(s, last) + 12 * EM_ORDER + 19
            units += end_units / 2 + integral_units + 3 * abs(integral) + correction_count * correction_moduli
            remainder += remainder_factor * xa ** (2 * EM_ORDER - 1) * abs(fa) / (sigma + 2 * EM_ORDER - 1)
        head_moduli = first**-sigma + _power_integral(first, head_last, k, sigma)[0]
        phase_count = 0.0 if table[r] == 1 else _PHASE
        units += (_power_count(s, head_last) + 3) * head_moduli + (phase_count + 6) * abs(sums[-1])
    value = _complex_fsum(map(operator.mul, [table[r] for r in classes], sums))
    return value, remainder, units


def _truncation_tail(chi: DirichletCharacter, s: complex, N: int, alternating: bool) -> float:
    """A bound on |L(s, chi) - the partial sum to N|.

    The integral of x^(-Re s) past N for Re s > 1; the next nonzero term for
    an alternating real character at real s; the smaller where both apply.
    """
    bounds = []
    if s.real > 1.0:
        bounds.append(N ** (1.0 - s.real) / (s.real - 1.0))
    if alternating:
        nxt = N + 1
        while character_angle(chi, nxt) is None:
            nxt += 1
        bounds.append(nxt ** (-s.real))
    return min(bounds)


def dirichlet_series(twist, s: complex, N: int) -> CertifiedResult:
    """Partial sum of chi(n)/n^s or a(n)/n^s to N, with a certified remainder.

    Needs Re(s) past the convergence abscissa, except that a genuinely
    alternating real character admits any real s > 0 with the next-term
    bound of the alternating series test.  N is at most SERIES_LENGTH_CAP =
    2^53, so that every n is an exact float; past it SeriesCapError is
    raised at once.  ``terms_used`` is N.

    A character series is summed per residue class by _class_sums, in time
    that does not grow with N once N passes about 2k(|s| + 16)/pi; its
    bound is the truncation tail, the Euler-Maclaurin remainder and a
    rounding radius, so it bounds |value - L(s, chi)|.  A modular series
    sums its N terms directly (its coefficients are not smooth in n), and
    its bound is the truncation tail only.
    """
    s = complex(s)
    if N < 1:
        raise ValueError("the partial sum needs N >= 1")
    if N > SERIES_LENGTH_CAP:
        raise SeriesCapError(f"series length {N} exceeds the cap {SERIES_LENGTH_CAP} = 2^53")
    if isinstance(twist, CoefficientProvider):
        sigma = s.real - _series_exponent_shift(twist) - 0.5  # |a(n)| <= 2 n^(k/2)
        if sigma <= 1.0:
            raise ConvergenceError(
                f"modular series needs Re(s) > {1.5 + _series_exponent_shift(twist)}; got s = {s}"
            )
        if N > twist.max_n:
            coefficient(twist, twist.max_n + 1)  # raises the out-of-table IndexError
        tail = 2.0 * N ** (1.0 - sigma) / (sigma - 1.0)
        # n^(-s) is a float for real s and a complex number otherwise
        powers = map(pow, range(1, N + 1), itertools.repeat(-s.real if s.imag == 0.0 else -s))
        terms = map(operator.mul, twist.values, powers)
        # real s gives real terms: one fsum, correctly rounded
        value = complex(math.fsum(terms)) if s.imag == 0.0 else _complex_fsum(terms)
        return CertifiedResult(value, tail, N)
    chi: DirichletCharacter = twist
    alternating = _is_alternating(chi) and s.imag == 0.0 and s.real > 0.0
    if s.real <= 1.0 and not alternating:
        raise ConvergenceError(
            f"Dirichlet series needs Re(s) > 1 (or an alternating real character "
            f"with real s > 0); got s = {s}"
        )
    tail = _truncation_tail(chi, s, N, alternating)
    value, remainder, units = _class_sums(chi, s, N)
    # g is the longest chain of first-order rounding counts
    g = _power_count(s, N) + 12 * EM_ORDER + 7 * math.log(N) + _PHASE + 64
    return CertifiedResult(value, _certified(tail + remainder, units, g), N)


def hecke_conjugated_trace(
    provider: CoefficientProvider,
    p: int,
    s: complex,
    shift: int,
    M: int = DEFAULT_INNER_CIRCLES,
) -> CertifiedResult:
    """Trace of the modular operator conjugated by the l-th ladder shift.

    Conjugation translates the (m1, m2) lattice quadrant; splitting the
    shift l between the two tensor factors gives l + 1 translated quadrants,
    each a copy of the full triangular sum weighted by q1^i q2^(l-i).  The
    weights sum to a(p^l) p^(-s l), which is why this trace reproduces the
    shifted local factor.  M above TRUNCATION_CAP raises SeriesCapError.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if M < shift:
        raise ValueError(f"truncation M = {M} cannot be below the shift {shift}")
    _check_truncation(M)
    q1, q2, ratio = _modular_ratios(provider, p, complex(s))
    weight = complex(0.0)
    for i in range(shift + 1):
        weight += q1**i * q2 ** (shift - i)
    inner = M - shift
    value = weight * _triangular_lattice_sum(q1, q2, inner)
    tail = abs(weight) * _triangular_tail(ratio, inner)
    return CertifiedResult(value, tail, (shift + 1) * (inner + 1) * (inner + 2) // 2)
