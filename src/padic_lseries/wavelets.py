"""Kozyrev wavelets and the twisted pseudodifferential operators on them.

The wavelet with index (n, m, j) is

    psi(xi) = p^(-n/2) exp(2 pi i {j p^(n-1) xi}) Omega(|p^n xi - m|),

supported on the ball of radius p^n around m p^(-n) and constant on cosets
of p^(1-n) Z_p.  Kets are labeled by the eigenvalue exponent: |l> is the
wavelet with n = 1 - l, m = 0, j = 1.

An operator (OperatorSpec) is a local twist T and an order alpha, applied
two ways.  Spectrally, eigenvalue() multiplies a ket by (T p^alpha)^label,
where T is 1 for the plain derivative, chi(p) for a character twist, or one
root of the local Hecke quadratic for a modular twist.  Through the kernel,
apply_kernel() evaluates the defining singular integral by exact shell
decomposition: shells finer than the wavelet's constancy level cancel
exactly, the shell at the support radius is a finite coset sum, and the
coarser shells p^(n+1) .. p^R form one geometric series in
q = p^(-alpha) / T, summed in closed form.  The only truncation is the outer
radius p^R, whose discarded tail is returned as a certified bound.  Off the
support ball the kernel is exactly 0: |xi' - xi| is constant over the ball,
and the wavelet's p coset phases there, one phase times the p-th roots of
unity, sum to 0.  The wavelet and the kernel read a point only through
kernel_coset(), its coset of p^(1-n) Z_p, so eigencheck runs the kernel
once per coset of its sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import Twist
from .errors import ConvergenceError, CosetCapError, KernelCapError, PrimeMismatchError
from .padic import (
    COSET_CAP,
    PadicNumber,
    _float_power,
    _fractional_residue,
    _int_valuation,
    _require_prime,
    _sum_pair,
    phase_table,
    residue_phase,
)
from .quadrature import GammaSpec, _p_power, gamma_closed_form

# The largest outer truncation exponent R of a kernel application.  The
# outer shells cost the same at every R, so the cap only keeps R a documented,
# bounded input until an omitted R can mean R = infinity.
RADIUS_CAP = 1000
# The natural log of the largest magnitude a kernel check may reach: e^600 is
# about 1e260, which leaves room below the float range (e^709.78) for the
# coset sums and the division by Gamma(-alpha).
LOG_MAGNITUDE_CAP = 600.0


@dataclass(frozen=True)
class WaveletIndex:
    """Scale n, translation m (a representative of Q_p/Z_p), and twist j."""

    prime: int
    n: int
    m: Fraction
    j: int

    @property
    def center(self) -> Fraction:
        return self.m * Fraction(self.prime) ** (-self.n)


def wavelet_index(p: int, n: int, m=0, j: int = 1) -> WaveletIndex:
    """Validate and build an index; m is canonicalized as a/p^t in [0, 1)."""
    _require_prime(p)
    if not 1 <= j <= p - 1:
        raise ValueError(f"j = {j} outside [1, {p - 1}]")
    m = Fraction(m)
    if not 0 <= m < 1:
        raise ValueError(f"m = {m} is not a canonical representative in [0, 1)")
    if m.denominator != p ** _int_valuation(m.denominator, p):
        raise ValueError(f"m = {m} must have a pure power of {p} as denominator")
    return WaveletIndex(p, int(n), m, j)


def ket(p: int, label: int) -> WaveletIndex:
    """The basis ket |label>: wavelet (n = 1 - label, m = 0, j = 1)."""
    if label < 0:
        raise ValueError("kets carry nonnegative labels")
    return wavelet_index(p, 1 - label, 0, 1)


# The kernel works on exact integer pairs: a point xi = u p^v with u a unit
# (xi.unit and xi.valuation; u = 0 for zero), and a centre m p^(-n) = a p^e
# with a prime to p.  The phase of psi at u p^v is that of
# {j p^(n-1) u p^v}_p = _fractional_residue(p, j u, v + n - 1), and
# residue_phase of it is bit-for-bit unit_phase of the same Fraction.


def _center_pair(idx: WaveletIndex) -> tuple[int, int]:
    """(a, e) with centre m p^(-n) = a p^e; a = 0 when m = 0."""
    m = idx.m
    return m.numerator, -idx.n - _int_valuation(m.denominator, idx.prime)


def _within(p: int, center: tuple[int, int], u: int, v: int, level: int) -> bool:
    """Whether u p^v - centre lies in p^level Z_p; level -n is the support ball."""
    a, e = center
    c, low = _sum_pair(p, u, v, -a, e)
    return low >= level or c % p ** (level - low) == 0


def _coset(idx: WaveletIndex, center: tuple[int, int], u: int, v: int):
    """None off the support ball, else (r0, max(m, p)) with {j p^(n-1) u p^v}_p = r0 / m."""
    if not _within(idx.prime, center, u, v, -idx.n):
        return None
    r0, m = _fractional_residue(idx.prime, idx.j * u, v + idx.n - 1)
    return r0, max(m, idx.prime)


def kernel_coset(idx: WaveletIndex, xi: PadicNumber) -> tuple[int, int] | None:
    """The only data of xi that the values of wavelet_eval and apply_kernel read.

    None off the support ball; on it, the phase residue (r0, m) of xi's coset
    of p^(1-n) Z_p, m raised to p on Z_p.  Equal keys give bit-equal values.
    A nonzero xi is fixed only mod p^(valuation + precision); ValueError where
    that leaves its coset open, i.e. the digits it fixes of xi - centre are all 0.
    """
    p, center, known = idx.prime, _center_pair(idx), xi.valuation + xi.precision
    if xi.unit and known <= -idx.n and _within(p, center, xi.unit, xi.valuation, known):
        raise ValueError(
            f"the point's digits fix it only mod {p}^{known}; the wavelet reads it mod {p}^{1 - idx.n}"
        )
    return _coset(idx, center, xi.unit, xi.valuation)


def _psi(idx: WaveletIndex, coset: tuple[int, int] | None) -> complex:
    if coset is None:
        return complex(0.0, 0.0)
    return idx.prime ** (-idx.n / 2) * residue_phase(*coset)


def wavelet_eval(idx: WaveletIndex, xi: PadicNumber) -> complex:
    """psi_{n,m,j}(xi); exactly zero off the support ball, ValueError as kernel_coset."""
    if idx.prime != xi.prime:
        raise PrimeMismatchError(
            f"wavelet over Q_{idx.prime} evaluated at a Q_{xi.prime} point"
        )
    return _psi(idx, kernel_coset(idx, xi))


@dataclass(frozen=True)
class OperatorSpec:
    """The derivative of order alpha twisted by one local twist T.

    T is 1 for the plain derivative (``Twist(p)``), chi(p) for a Dirichlet
    character (``character_twist``), or one root of a local Hecke quadratic
    (``Twist(p, root=...)``); the prime is ``twist.prime``.
    """

    twist: Twist
    alpha: complex


def eigenvalue(spec: OperatorSpec, ket_label: int) -> complex:
    """(T p^alpha)^label; 1 for every label when the twist degenerates."""
    if spec.twist.value == 0:
        return complex(1.0, 0.0)
    scale = _p_power(spec.twist.prime, complex(spec.alpha) * ket_label)
    return spec.twist.power(ket_label) * scale


def check_ket_label(spec: OperatorSpec, label: int) -> None:
    """Refuse a ket whose kernel check would leave the float range.

    Each label multiplies the largest magnitude in a check (the eigenvalue,
    the wavelet amplitude, the shell weights) by at most
    p^max(Re alpha + 1, 1/2) max(|T|, 1), so labels up to ``label`` stay
    below e^LOG_MAGNITUDE_CAP when ``label`` times the log of that factor
    does.  Raises KernelCapError naming the largest label the operator allows.
    """
    p = spec.twist.prime
    growth = max(complex(spec.alpha).real + 1, 0.5) * math.log(p) + math.log(
        max(abs(spec.twist.value), 1.0)
    )
    if label * growth > LOG_MAGNITUDE_CAP:
        raise KernelCapError(
            f"ket {label} at p = {p} would reach magnitude e^{label * growth:.0f}, past "
            f"the cap e^{LOG_MAGNITUDE_CAP:.0f}; this operator allows kets up to "
            f"{int(LOG_MAGNITUDE_CAP // growth)}"
        )


def apply_kernel(spec: OperatorSpec, idx: WaveletIndex, xi: PadicNumber, R: int) -> tuple[complex, float]:
    """Apply the operator through its integral kernel, truncated at |xi'| <= p^R.

    Evaluates (1/Gamma(-alpha)) times the integral of
    (g(xi') - g(xi)) |xi' - xi|^(-(alpha+1)) twist(|xi' - xi|^(-1)) over the
    ball |xi'| <= p^R, for g the wavelet.  The integrand is summed shell by
    shell in z = xi' - xi; every shell is either identically zero (finer than
    the wavelet's constancy level), a finite coset sum (the support radius),
    or g(xi) (1 - 1/p) q^t for q = p^(-alpha) / T (the coarser shells
    t = n+1 .. R, summed as one geometric series), so the computation is exact
    up to the returned tail bound:

        |g(xi)| (1 - 1/p) sum_{t > R} p^(-t Re alpha) / |Gamma(-alpha)|.

    Off the support ball the value is exactly 0 with a zero bound; every
    check still runs first.  A degenerate twist makes the operator the identity:
    the wavelet value is returned with a zero bound.  p^(-Re alpha) and |q|
    must be below 1, or ConvergenceError is raised; a q of exactly 1 is a pole
    of Gamma(-alpha) and raises PoleError first.  R above RADIUS_CAP raises
    KernelCapError, and p - 1 support-shell cosets past COSET_CAP raise
    CosetCapError, before any shell is computed; a point with too few digits
    raises ValueError as kernel_coset does.

    Returns (value, tail_bound).
    """
    if idx.prime != xi.prime or idx.prime != spec.twist.prime:
        raise PrimeMismatchError("operator, wavelet, and point must share a prime")
    alpha = complex(spec.alpha)
    if alpha.real <= 0:
        raise ConvergenceError(
            f"kernel application needs Re(alpha) > 0 for the outer shells; got {alpha}"
        )
    decay = idx.prime**-alpha.real
    if decay >= 1.0:
        raise ConvergenceError(
            f"outer shells at p = {idx.prime} need p^(-Re alpha) < 1; got {decay} at alpha = {alpha}"
        )
    if R > RADIUS_CAP:
        raise KernelCapError(f"truncation exponent R = {R} exceeds the cap of {RADIUS_CAP}")
    coset = kernel_coset(idx, xi)
    psi_xi = _psi(idx, coset)
    twist = spec.twist
    if twist.value == 0:
        return psi_xi, 0.0

    p, n = twist.prime, idx.n
    if R < n:
        raise ValueError(
            f"truncation radius p^{R} is smaller than the support radius p^{n}"
        )
    if p - 1 > COSET_CAP:
        raise CosetCapError(f"{p - 1} shell cosets exceed the cap of {COSET_CAP}")
    if xi.unit != 0 and -xi.valuation > R:
        raise ValueError("evaluation point lies outside the truncation ball")

    gamma_norm = gamma_closed_form(GammaSpec(twist, -alpha))
    # shell |z| = p^t outside the support weighs (p^(-alpha) / T)^t = q^t
    q = _p_power(p, -alpha) * twist.power(-1)
    if abs(q) >= 1.0:
        raise ConvergenceError(
            f"outer shells at p = {p} need |p^(-alpha) / T| < 1; got {abs(q)} at alpha = {alpha}"
        )
    shell_weight = _p_power(p, -(alpha + 1) * n) * twist.power(-n)  # |z| = p^n
    first = _p_power(p, -alpha * (n + 1)) * twist.power(-(n + 1))  # q^(n+1)
    if coset is None:
        return complex(0.0, 0.0), 0.0

    # shell |z| = p^n: both endpoints stay in the support, (p-1) cosets;
    # with {j p^(n-1) xi}_p = r0 / m (m = p when 0), the phase of
    # xi + d p^(-n) is the residue (r0 + d j m/p) mod m
    coset_measure = _float_power(p, n - 1)  # a coset of p^(1-n) Z_p
    amplitude = p ** (-n / 2)
    r0, m = coset
    acc = complex(0.0, 0.0)
    for phase_d in phase_table(r0, idx.j * (m // p), m, p):
        acc += (amplitude * phase_d - psi_xi) * coset_measure * shell_weight
    # shells p^(n+1) .. p^R: g vanishes there, one geometric series in q
    acc -= psi_xi * (1 - 1 / p) * (first * (1 - q ** (R - n)) / (1 - q))

    tail = abs(psi_xi) * (1 - 1 / p) * decay ** (R + 1) / (1 - decay)
    return acc / gamma_norm, tail / abs(gamma_norm)


def inner_product(idx1: WaveletIndex, idx2: WaveletIndex, R: int) -> complex:
    """Exact L2 pairing <psi1, psi2> over the ball |xi| <= p^R.

    Disjoint supports pair to zero outright.  Otherwise the smaller support
    ball sits inside the larger one and splits into p cosets on which both
    wavelets are constant; representatives outside the truncation ball are
    dropped, matching the integration region.
    """
    if idx1.prime != idx2.prime:
        raise PrimeMismatchError("wavelets over different fields cannot be paired")
    p = idx1.prime
    centers = {idx1: _center_pair(idx1), idx2: _center_pair(idx2)}
    small, large = (idx1, idx2) if idx1.n <= idx2.n else (idx2, idx1)
    # the balls meet exactly when the smaller one's centre is in the larger
    if not _within(p, centers[large], *centers[small], -large.n):
        return complex(0.0, 0.0)

    # both wavelets are constant on cosets of p^(1-n) Z_p, n the smaller scale
    if p > COSET_CAP:
        raise CosetCapError(f"{p} coset representatives exceed the cap of {COSET_CAP}")
    coset_measure = _float_power(p, small.n - 1)
    total = complex(0.0, 0.0)
    for d in range(p):
        u, v = _sum_pair(p, *centers[small], d, -small.n)  # the centre + d p^(-n)
        if u != 0 and -v > R:
            continue
        total += (
            _psi(idx1, _coset(idx1, centers[idx1], u, v))
            * _psi(idx2, _coset(idx2, centers[idx2], u, v)).conjugate()
            * coset_measure
        )
    return total
