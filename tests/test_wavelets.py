"""Wavelet states and the twisted kernel's spectral action."""

from __future__ import annotations

import cmath
import collections
import functools
import json
import math
import random
from fractions import Fraction

import pytest

from padic_lseries import (
    ConvergenceError,
    CosetCapError,
    FloatRangeError,
    GammaSpec,
    KernelCapError,
    OperatorSpec,
    PoleError,
    PrimeMismatchError,
    Twist,
    apply_kernel,
    character_twist,
    delta_provider,
    eigenvalue,
    enumerate_characters,
    factorize_local,
    gamma_closed_form,
    inner_product,
    ket,
    padic_from_fraction,
    wavelet_eval,
    wavelet_index,
)
from padic_lseries import cli, padic, wavelets
from padic_lseries.padic import rational_valuation
from padic_oracle import rational_fractional_part


def _point(p, q, precision=32):
    return padic_from_fraction(p, Fraction(q), precision)


def test_support_ball_and_vanishing_at_boundary():
    for p in (2, 3, 5):
        for label in range(4):
            idx = ket(p, label)
            n = idx.n
            inside = _point(p, idx.center)
            assert abs(wavelet_eval(idx, inside)) > 0
            # just outside: distance p^(n+1) exceeds the radius p^n
            outside = _point(p, idx.center + Fraction(p) ** (-(n + 1)))
            assert wavelet_eval(idx, outside) == 0
            # on the boundary sphere: distance exactly p^n stays inside
            edge = _point(p, idx.center + Fraction(p) ** (-n))
            assert abs(abs(wavelet_eval(idx, edge)) - float(p) ** (-n / 2)) < 1e-12


def test_modulus_constant_on_support():
    rng = random.Random(3001)
    for p in (2, 3, 5):
        for label in range(3):
            idx = ket(p, label)
            n = idx.n
            for _ in range(10):
                # random point of the support ball: |offset| <= p^n
                offset = rng.randrange(p ** (label + 2)) * Fraction(p) ** (-n)
                xi = _point(p, idx.center + offset)
                assert abs(abs(wavelet_eval(idx, xi)) - float(p) ** (-n / 2)) < 1e-12


def test_ket_labels():
    for p in (2, 3):
        for label in range(5):
            idx = ket(p, label)
            assert idx.n == 1 - label
            assert idx.m == 0
            assert idx.j == 1


def test_orthonormality():
    for p in (2, 3):
        kets = [ket(p, label) for label in range(4)]
        for a in kets:
            for b in kets:
                ip = inner_product(a, b, R=6)
                want = 1.0 if a == b else 0.0
                assert abs(ip - want) < 1e-12


def test_orthogonality_across_j_and_m():
    p = 5
    base = wavelet_index(p, 1, 0, 1)
    twisted_j = wavelet_index(p, 1, 0, 2)
    assert abs(inner_product(base, twisted_j, R=6)) < 1e-12
    shifted = wavelet_index(p, 1, Fraction(1, 5), 1)
    assert abs(inner_product(base, shifted, R=6)) < 1e-12
    assert abs(inner_product(shifted, shifted, R=6) - 1) < 1e-12


def test_eigenvalue_ladder_relation():
    chi = enumerate_characters(4)[1]
    for alpha in (0.5, 1.0, 1.7):
        spec = OperatorSpec(character_twist(chi, 3), alpha)
        t = -1.0  # chi(3)
        for label in range(1, 4):
            lam = eigenvalue(spec, label)
            lam_down = eigenvalue(spec, label - 1)
            assert abs(lam_down - lam / (t * 3**alpha)) < 1e-12


def test_eigenvalue_past_the_float_range_is_a_typed_error():
    # 97^1000 passes the largest float
    with pytest.raises(FloatRangeError, match="p = 97"):
        eigenvalue(OperatorSpec(Twist(97), 500), 2)


def test_spectral_values_multiply_exactly():
    # two kernels with different exponents commute: the eigenvalue products agree
    spec_a = OperatorSpec(Twist(2), 0.5)
    spec_b = OperatorSpec(Twist(2), 1.7)
    for label in range(4):
        left = eigenvalue(spec_a, label) * eigenvalue(spec_b, label)
        right = eigenvalue(spec_b, label) * eigenvalue(spec_a, label)
        assert left == right


def test_kernel_eigenrelation_plain_and_character():
    chi3 = enumerate_characters(3)[1]
    chi4 = enumerate_characters(4)[1]
    cases = [
        (OperatorSpec(Twist(2), 1.0), 2),
        (OperatorSpec(Twist(3), 0.5), 3),
        (OperatorSpec(character_twist(chi3, 2), 1.7), 2),
        (OperatorSpec(character_twist(chi4, 5), 1.0), 5),
    ]
    for spec, p in cases:
        for label in range(3):
            idx = ket(p, label)
            for mult in (0, 1, p):
                xi = _point(p, idx.center + mult * Fraction(p) ** (-idx.n))
                value, tail = apply_kernel(spec, idx, xi, R=80)
                want = eigenvalue(spec, label) * wavelet_eval(idx, xi)
                assert abs(value - want) <= tail + 1e-10
                if want != 0:
                    assert abs(value - want) / abs(want) < 1e-10


def test_kernel_eigenrelation_modular_relative():
    provider = delta_provider(8)
    for p in (2, 3):
        fac = factorize_local(provider, p)
        spec = OperatorSpec(Twist(p, root=fac.a1), 1.0)
        for label in range(3):
            idx = ket(p, label)
            xi = _point(p, idx.center)
            # deep truncation: the value converges even though the certified
            # tail formula is loose for twists of modulus > 1
            value, _ = apply_kernel(spec, idx, xi, R=40)
            want = eigenvalue(spec, label) * wavelet_eval(idx, xi)
            assert abs(value - want) / abs(want) < 1e-10


def test_kernel_modular_certified_bound_holds_at_shallow_radius():
    provider = delta_provider(8)
    fac = factorize_local(provider, 2)
    spec = OperatorSpec(Twist(2, root=fac.a1), 1.0)
    idx = ket(2, 1)
    xi = _point(2, idx.center)
    value, tail = apply_kernel(spec, idx, xi, R=2)
    want = eigenvalue(spec, 1) * wavelet_eval(idx, xi)
    assert abs(value - want) <= tail + 1e-8


def test_kernel_outside_support_point():
    spec = OperatorSpec(Twist(3), 1.0)
    idx = ket(3, 1)  # support Z_3 (n = 0)
    xi = _point(3, Fraction(1, 9))  # |1/9| = 9 > 1
    value, tail = apply_kernel(spec, idx, xi, R=40)
    assert wavelet_eval(idx, xi) == 0
    assert abs(value - 0) <= tail + 1e-10


def test_kernel_degenerate_twist_acts_as_identity():
    chi = enumerate_characters(4)[1]
    spec = OperatorSpec(character_twist(chi, 2), 1.0)  # chi(2) = 0
    idx = ket(2, 1)
    xi = _point(2, idx.center)
    value, tail = apply_kernel(spec, idx, xi, R=10)
    assert tail == 0.0
    assert value == wavelet_eval(idx, xi)
    for label in range(4):
        assert eigenvalue(spec, label) == 1


def test_kernel_preconditions():
    spec = OperatorSpec(Twist(3), 1.0)
    idx = ket(3, 0)  # n = 1
    with pytest.raises(ValueError):
        apply_kernel(spec, idx, _point(3, idx.center), R=0)  # R < n
    with pytest.raises(ValueError):
        apply_kernel(spec, idx, _point(3, Fraction(1, 27)), R=2)  # |xi| > p^R
    with pytest.raises(PrimeMismatchError):
        apply_kernel(spec, ket(3, 0), _point(5, Fraction(0)), R=4)
    with pytest.raises(ConvergenceError):
        apply_kernel(OperatorSpec(Twist(3), -0.5), idx, _point(3, idx.center), R=4)
    with pytest.raises(ValueError, match="prime must be prime"):
        OperatorSpec(Twist(4), 1.0)  # not prime


def test_kernel_refuses_a_decay_that_rounds_to_one():
    # 3^(-Re alpha) rounds to 1.0 for Re alpha = 1e-17 or 1e-300: the outer
    # shells' tail would divide by 1 - 1.0; Im alpha keeps Gamma(-alpha) finite
    idx = ket(3, 1)
    for alpha in (1e-300 + 5j, 1e-17 + 5j):
        spec = OperatorSpec(Twist(3), alpha)
        for xi in (_point(3, idx.center), _point(3, Fraction(1, 9))):
            with pytest.raises(ConvergenceError, match=r"need p\^\(-Re alpha\) < 1"):
                apply_kernel(spec, idx, xi, R=40)
    with pytest.raises(ConvergenceError, match="needs Re\\(alpha\\) > 0"):
        apply_kernel(OperatorSpec(Twist(3), 0.0 + 5j), idx, _point(3, idx.center), R=40)
    _, tail = apply_kernel(OperatorSpec(Twist(3), 1e-15 + 5j), idx, _point(3, idx.center), R=40)
    assert math.isfinite(tail)


def test_kernel_enforces_the_coset_cap():
    # the support shell is p cosets: p = cap is summed, p > cap is refused
    # at an off-support point too, where the value is exactly 0
    spec = OperatorSpec(Twist(5), 1.0)
    idx = ket(5, 0)
    off_support = _point(5, Fraction(1, 25))
    assert apply_kernel(spec, idx, off_support, R=4) == (0j, 0.0)
    for xi in (_point(5, idx.center), off_support):
        assert apply_kernel(spec, idx, xi, R=4, cap=5) == apply_kernel(spec, idx, xi, R=4)
        with pytest.raises(CosetCapError, match="5 shell cosets exceed the cap of 4"):
            apply_kernel(spec, idx, xi, R=4, cap=4)


def test_inner_product_enforces_the_coset_cap():
    # overlapping supports pair over p cosets: p = cap is summed, p > cap is refused
    a, b = ket(5, 0), ket(5, 1)
    for x, y in ((a, a), (a, b)):
        assert inner_product(x, y, R=6, cap=5) == inner_product(x, y, R=6)
        with pytest.raises(CosetCapError, match="5 coset representatives exceed the cap of 4"):
            inner_product(x, y, R=6, cap=4)


def test_wavelet_index_canonical_offsets():
    wavelet_index(3, 0, Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        wavelet_index(3, 0, Fraction(1, 2), 1)  # denominator not a power of p
    with pytest.raises(ValueError):
        wavelet_index(3, 0, 1, 1)  # integer offsets collapse to zero
    with pytest.raises(ValueError):
        wavelet_index(3, 0, 0, 0)  # j must be a unit digit


# A reference kernel on the exact rational route: every coset evaluates the
# wavelet at a Fraction (xi + d p^(-n) on the support shell, centre + d p^(-n)
# off the support), and every phase and twist power is float() of an exact
# Fraction angle.  apply_kernel and inner_product work on integer pairs
# instead and must reproduce it bit for bit on the support, so those
# comparisons are ==.  Off the support the exact kernel is 0, which
# apply_kernel returns outright; the reference still sums the cosets there,
# and its rounding noise is bounded (test_kernel_off_the_support_is_exactly_zero).


def _fraction_phase(angle):
    if angle == 0:
        return complex(1.0, 0.0)
    return cmath.exp(complex(0.0, 2.0 * math.pi * float(angle)))


def _fraction_psi(idx, xi):
    p, n = idx.prime, idx.n
    diff = xi - idx.center
    if diff != 0 and rational_valuation(diff, p) < -n:
        return complex(0.0, 0.0)
    return p ** (-n / 2) * _fraction_phase(rational_fractional_part(idx.j * Fraction(p) ** (n - 1) * xi, p))


def _fraction_power(twist, n):
    if twist.root is not None:
        return twist.root**n
    if n == 0 or twist.angle == 0:
        return complex(1.0, 0.0)
    if twist.angle is None:
        return complex(0.0, 0.0)
    return _fraction_phase((n * twist.angle) % 1)


def _outer_ratio(spec, n):
    """q = p^(-alpha) / T and q^(n+1), on the ops apply_kernel uses."""
    alpha, twist = complex(spec.alpha), spec.twist
    log_p = math.log(twist.prime)
    q = cmath.exp(-alpha * log_p) * _fraction_power(twist, -1)
    return q, cmath.exp(-alpha * (n + 1) * log_p) * _fraction_power(twist, -(n + 1))


def _closed_outer(q, first, n, R):
    """The outer shells' weights q^(n+1) + ... + q^R as one geometric sum."""
    return first * (1 - q ** (R - n)) / (1 - q)


def _per_shell_outer(spec, n, R):
    """The same weights summed shell by shell, and the sum of their moduli.

    Each term p^(-alpha t) T^(-t) is built on its own, so this sum shares
    no rounding with the closed form beyond its first term.
    """
    alpha, twist = complex(spec.alpha), spec.twist
    log_p = math.log(twist.prime)
    total, moduli = complex(0.0, 0.0), 0.0
    for t in range(n + 1, R + 1):
        term = cmath.exp(-alpha * t * log_p) * _fraction_power(twist, -t)
        total += term
        moduli += abs(term)
    return total, moduli


def _fraction_route_kernel(spec, idx, xi, R):
    alpha, twist = complex(spec.alpha), spec.twist
    p, n = twist.prime, idx.n
    xif = xi.as_fraction()
    psi_xi = _fraction_psi(idx, xif)
    if twist.value == 0:
        return psi_xi, 0.0
    diff = xif - idx.center
    if diff != 0 and rational_valuation(diff, p) < -n:
        return _fraction_route_off_support(spec, idx, xi, R)[0], 0.0
    log_p = math.log(p)
    gamma_norm = gamma_closed_form(GammaSpec(twist, -alpha))
    coset_measure = float(Fraction(p) ** (n - 1))
    step = Fraction(p) ** (-n)
    acc = complex(0.0, 0.0)
    shell_weight = cmath.exp(-(alpha + 1) * n * log_p) * _fraction_power(twist, -n)
    for d in range(1, p):
        acc += (_fraction_psi(idx, xif + d * step) - psi_xi) * coset_measure * shell_weight
    acc -= psi_xi * (1 - 1 / p) * _closed_outer(*_outer_ratio(spec, n), n, R)
    decay = p**-alpha.real
    tail = abs(psi_xi) * (1 - 1 / p) * decay ** (R + 1) / (1 - decay)
    return acc / gamma_norm, tail / abs(gamma_norm)


def _fraction_route_off_support(spec, idx, xi, R):
    """The coset sum for xi off the support, and the sum of its term moduli.

    |xi' - xi| = p^t0 over the whole support ball, so each term is the
    wavelet at a coset centre times one weight; both are over Gamma(-alpha).
    Cosets whose centre lies outside p^R are dropped.
    """
    alpha, twist = complex(spec.alpha), spec.twist
    p, n = twist.prime, idx.n
    gamma_norm = gamma_closed_form(GammaSpec(twist, -alpha))
    coset_measure = float(Fraction(p) ** (n - 1))
    step = Fraction(p) ** (-n)
    t0 = -rational_valuation(xi.as_fraction() - idx.center, p)
    weight = cmath.exp(-(alpha + 1) * t0 * math.log(p)) * _fraction_power(twist, -t0)
    acc = complex(0.0, 0.0)
    moduli = 0.0
    for d in range(p):
        rep = idx.center + d * step
        if rep == 0 or -rational_valuation(rep, p) <= R:
            term = _fraction_psi(idx, rep) * coset_measure * weight
            acc += term
            moduli += abs(term)
    return acc / gamma_norm, moduli / abs(gamma_norm)


def _fraction_route_inner_product(idx1, idx2, R):
    p = idx1.prime
    separation = idx1.center - idx2.center
    if separation != 0 and -rational_valuation(separation, p) > max(idx1.n, idx2.n):
        return complex(0.0, 0.0)
    small = idx1 if idx1.n <= idx2.n else idx2
    coset_measure = float(Fraction(p) ** (small.n - 1))
    step = Fraction(p) ** (-small.n)
    total = complex(0.0, 0.0)
    for d in range(p):
        rep = small.center + d * step
        if rep != 0 and -rational_valuation(rep, p) > R:
            continue
        total += _fraction_psi(idx1, rep) * _fraction_psi(idx2, rep).conjugate() * coset_measure
    return total


def _offset_indices(p):
    """Wavelets with m != 0 or j != 1, at scales on both sides of n = 0.

    Their coset measures p^(n-1) run over k = n - 1 = -4, -2, -1, 1 and 2.
    """
    out = []
    for n in (-3, -1, 0, 2, 3):
        for m in (0, Fraction(1, p), Fraction(p - 1, p**2), Fraction(p + 2, p**3)):
            for j in sorted({1, p - 1}):
                out.append(wavelet_index(p, n, m, j))
    return out


def _nearby_points(idx):
    """The zero point and points at distances p^(n-1) .. p^(n+2) from the centre."""
    p, n = idx.prime, idx.n
    points = [Fraction(0)]
    for k in range(-n - 2, -n + 2):
        for c in (1, p - 1, p + 1, Fraction(1, p + 1)):
            points.append(idx.center + c * Fraction(p) ** k)
    return points


def test_kernel_is_bit_for_bit_the_fraction_route():
    chi7 = enumerate_characters(7)[1]  # order 6
    chi12 = enumerate_characters(12)[3]
    for p in (2, 3, 5, 17, 29, 97):
        root = factorize_local(delta_provider(max(8, p)), p).a1
        specs = [
            (OperatorSpec(Twist(p), 1.0), 40),
            (OperatorSpec(character_twist(chi7 if p != 7 else chi12, p), 0.5 + 2j), 40),
            (OperatorSpec(character_twist(chi12 if p > 3 else chi7, p), 1.7), 40),
            (OperatorSpec(Twist(p, root=root), 1.0), 2),
            (OperatorSpec(character_twist(enumerate_characters(p)[0], p), 1.0), 40),
        ]
        assert specs[-1][0].twist.value == 0  # p divides the modulus: degenerate
        for spec, R in specs:
            for label in range(4):
                idx = ket(p, label)
                for mult in (0, 1, p, p + 1, p * p):  # the eigencheck points
                    xi = _point(p, idx.center + mult * Fraction(p) ** (-idx.n))
                    assert apply_kernel(spec, idx, xi, R) == _fraction_route_kernel(spec, idx, xi, R)


def test_wavelet_eval_is_bit_for_bit_the_fraction_route():
    for p in (2, 3, 5, 7):
        for idx in _offset_indices(p):
            inside = outside = 0
            for q in _nearby_points(idx):
                xi = _point(p, q)
                value = wavelet_eval(idx, xi)
                assert value == _fraction_psi(idx, xi.as_fraction())
                inside += value != 0
                outside += value == 0
            assert inside and outside


def test_kernel_off_the_support_is_exactly_zero():
    # Off the support ball |xi' - xi| is constant over the ball and the p
    # coset phases, one phase times the p-th roots of unity, sum to 0, so
    # apply_kernel returns exactly (0, 0).  The reference's float coset sum
    # shows the rounding noise that return avoids: measured on this grid at
    # p <= 13 it is at most 2.7 u of the summed term moduli, u = 2^-53, so
    # the allowance is 4 u.  On the support every value is still bit for bit.
    chi7 = enumerate_characters(7)[1]
    summed = dropped = 0
    for p in (2, 3, 5):
        root = factorize_local(delta_provider(8), p).a1
        specs = [
            OperatorSpec(Twist(p), 1.0),
            OperatorSpec(character_twist(chi7, p), 0.5 + 2j),
            OperatorSpec(Twist(p, root=root), 1.7),
        ]
        for spec in specs:
            for idx in _offset_indices(p):
                for q in _nearby_points(idx):
                    xi = _point(p, q)
                    # R from the support radius up to past every coset centre,
                    # so some support balls fall outside p^R
                    low = max(idx.n, 0 if xi.unit == 0 else -xi.valuation)
                    for R in range(low, low + 4):
                        got = apply_kernel(spec, idx, xi, R)
                        if wavelet_eval(idx, xi) != 0:
                            assert got == _fraction_route_kernel(spec, idx, xi, R)
                            continue
                        assert got == (0j, 0.0)
                        value, moduli = _fraction_route_off_support(spec, idx, xi, R)
                        assert abs(value) <= 4 * 2.0**-53 * moduli
                        summed += moduli > 0
                        dropped += moduli == 0
    assert summed and dropped


def test_kernel_off_the_support_beyond_the_truncation_ball_is_zero():
    # centre 1/9 lies outside |xi| <= 3, so the whole support ball lies
    # outside the truncation ball: the reference sums no coset
    spec = OperatorSpec(Twist(3), 1.0)
    idx = wavelet_index(3, 0, Fraction(1, 9), 1)
    xi = _point(3, Fraction(1, 3))
    assert apply_kernel(spec, idx, xi, 1) == (0j, 0.0)
    assert _fraction_route_off_support(spec, idx, xi, 1) == (0j, 0.0)
    assert _fraction_route_kernel(spec, idx, xi, 1) == (0j, 0.0)


def test_inner_product_is_bit_for_bit_the_fraction_route():
    for p in (2, 3, 5):
        indices = _offset_indices(p) + [ket(p, label) for label in range(3)]
        for idx1 in indices:
            for idx2 in indices:
                for R in (1, 2, 4):
                    want = _fraction_route_inner_product(idx1, idx2, R)
                    assert inner_product(idx1, idx2, R) == want


def _outer_specs():
    """Plain and character twists up to R = 60, both Hecke roots at p <= 11 up to R = 50.

    Past t = 53 at p = 11 a Hecke root's T^(-t) leaves the float range, so
    the per-shell sum stops at R = 50 for the roots.
    """
    chi7, chi12 = enumerate_characters(7)[1], enumerate_characters(12)[3]
    for p in (2, 3, 5, 7, 11, 17, 97):
        yield OperatorSpec(Twist(p), 1.0), 60
        yield OperatorSpec(Twist(p), 0.5), 60
        yield OperatorSpec(character_twist(chi7 if p != 7 else chi12, p), 0.5 + 2j), 60
        yield OperatorSpec(character_twist(chi12 if p > 3 else chi7, p), 1.7), 60
        if p <= 11:
            fac = factorize_local(delta_provider(max(8, p)), p)
            yield OperatorSpec(Twist(p, root=fac.a1), 1.0), 50
            yield OperatorSpec(Twist(p, root=fac.a2), 1.7 + 0.5j), 50


# The closed form and the per-shell sum round differently; over the grid of
# _outer_specs, kets 0-3 and every R from the support radius up, they differ
# by at most 7.7 u of the summed term moduli, u = 2^-53.
_OUTER_ULPS = 16


@functools.lru_cache(maxsize=1)
def _outer_grid():
    """(q, q^(n+1), n, R, per-shell sum, its term moduli) over _outer_specs and kets 0-3."""
    grid = []
    for spec, top in _outer_specs():
        for label in range(4):
            n = 1 - label
            q, first = _outer_ratio(spec, n)
            for R in range(n, top + 1):
                grid.append((q, first, n, R, *_per_shell_outer(spec, n, R)))
    return grid


def _outer_misses(closed):
    """The largest |closed - per-shell sum| over the grid, in u of the term moduli."""
    worst = 0.0
    for q, first, n, R, want, moduli in _outer_grid():
        got = closed(q, first, n, R)
        if moduli == 0:  # R = n: no outer shell, so anything but 0 misses
            worst = max(worst, 0.0 if got == 0 else math.inf)
        else:
            worst = max(worst, abs(got - want) / (2.0**-53 * moduli))
    return worst


def test_outer_shells_in_closed_form_are_the_per_shell_sum():
    # _fraction_route_kernel sums the outer shells with _closed_outer, and
    # apply_kernel is that route bit for bit, so this checks the kernel's sum
    assert _outer_misses(_closed_outer) <= _OUTER_ULPS


def test_outer_shell_oracle_catches_a_wrong_ratio_or_exponent():
    def conjugated(q, first, n, R):
        return _closed_outer(q.conjugate(), first.conjugate(), n, R)

    def one_shell_late(q, first, n, R):
        return _closed_outer(q, first * q, n, R)

    def one_shell_more(q, first, n, R):
        return _closed_outer(q, first, n, R + 1)

    for wrong in (conjugated, one_shell_late, one_shell_more):
        assert _outer_misses(wrong) > 1e12 * _OUTER_ULPS


def test_kernel_refuses_outer_shells_that_do_not_shrink():
    # |q| = 3^(-1) / 0.1 = 10/3: the geometric sum would divide by 1 - q;
    # refused before any shell, at an off-support point too
    spec = OperatorSpec(Twist(3, root=0.1), 1.0)
    idx = ket(3, 1)
    for xi in (_point(3, idx.center), _point(3, Fraction(1, 9))):
        with pytest.raises(ConvergenceError, match=r"need \|p\^\(-alpha\) / T\| < 1; got 3\.33"):
            apply_kernel(spec, idx, xi, 40)


def test_hecke_roots_at_a_large_prime_give_finite_kernel_values():
    # T^(-t) passes the float range from t = 24 at p = 251; the geometric sum
    # never builds it, so R = 40 stays finite and meets the eigenrelation
    fac = factorize_local(delta_provider(251), 251)
    for root in (fac.a1, fac.a2):
        spec = OperatorSpec(Twist(251, root=root), 1.0)
        for label in range(2):
            idx = ket(251, label)
            for mult in (0, 1, 251):
                xi = _point(251, idx.center + mult * Fraction(251) ** (-idx.n))
                value, tail = apply_kernel(spec, idx, xi, 40)
                want = eigenvalue(spec, label) * wavelet_eval(idx, xi)
                assert all(map(math.isfinite, (value.real, value.imag, tail)))
                assert abs(value - want) <= 1e-12 * abs(want)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_eigencheck_of_hecke_roots_at_a_large_prime_is_finite(capsys):
    for kind in ("modular_a1", "modular_a2"):
        argv = ["eigencheck", "--kind", kind, "--p", "251", "--alpha", "1",
                "--radius", "40", "--points", "1", "--max-ket", "0"]
        assert cli.run(argv) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert math.isfinite(report["worst_margin"])
        assert report["all_passed"]


def test_kernel_phase_tables_cold_and_warm_are_the_fraction_route():
    # in-support points of offset wavelets: phase moduli m = p .. p^4, so the
    # table stride j m / p runs over multiples of p, with j = 1 and j = p - 1
    cases = {}
    for p in (5, 7):
        spec = OperatorSpec(character_twist(enumerate_characters(12)[3], p), 0.5 + 2j)
        cases[p] = []
        for idx in _offset_indices(p):
            for q in _nearby_points(idx):
                xi = _point(p, q)
                if wavelet_eval(idx, xi) != 0:
                    R = max(idx.n, 0 if xi.unit == 0 else -xi.valuation) + 2
                    want = _fraction_route_kernel(spec, idx, xi, R)
                    cases[p].append((spec, idx, xi, R, want))
    moduli = set()
    for _, idx, xi, _, _ in cases[5] + cases[7]:
        _, m = padic._fractional_residue(idx.prime, idx.j * xi.unit, xi.valuation + idx.n - 1)
        moduli.add((idx.prime, max(m, idx.prime), idx.j))
    for p in (5, 7):
        assert {(p, p**2, p - 1), (p, p**2, 1), (p, p, p - 1), (p, p**4, 1)} <= moduli
    # the two primes interleaved, so each prime's tables evict the other's
    interleaved = [case for pair in zip(cases[5], cases[7]) for case in pair]
    for spec, idx, xi, R, want in interleaved:
        padic.phase_table.cache_clear()
        assert apply_kernel(spec, idx, xi, R) == want  # cold
        assert apply_kernel(spec, idx, xi, R) == want  # warm
    padic.phase_table.cache_clear()
    for _ in range(2):
        for spec, idx, xi, R, want in interleaved:
            assert apply_kernel(spec, idx, xi, R) == want
    info = padic.phase_table.cache_info()
    assert info.hits > 0
    assert info.misses > 2 * info.maxsize


def test_one_eigencheck_builds_two_phase_tables(capsys):
    # its 20 points have {p^(n-1) xi}_p = 0 or 1/p: r0 = 0 or 1 with m = p,
    # and the kernel runs once per ket and key, 8 times
    padic.phase_table.cache_clear()
    assert cli.run(["eigencheck", "--kind", "plain", "--p", "97", "--alpha", "1"]) == 0
    capsys.readouterr()
    info = padic.phase_table.cache_info()
    assert (info.misses, info.hits) == (2, 6)


def _key_indices(p):
    """Kets 0-3, and translated wavelets, whose support points have m = p^2 or p^4."""
    translated = [
        wavelet_index(p, n, m, j)
        for n in (-1, 2)
        for m in (Fraction(1, p), Fraction(p + 2, p**3))
        for j in sorted({1, p - 1})
    ]
    return [ket(p, label) for label in range(4)] + translated


def _key_points(idx):
    """_nearby_points, the eigencheck multipliers, and a second point in each of their cosets."""
    p, n = idx.prime, idx.n
    points = _nearby_points(idx)
    for mult in (0, 1, p, p + 1, p * p):
        near = idx.center + mult * Fraction(p) ** (-n)
        points += [near, near + (p - 1) * Fraction(p) ** (1 - n)]
    return points


def test_points_with_one_kernel_key_get_equal_values():
    # the kernel and the wavelet read a point only through kernel_coset, so
    # points with one key get the same value bits; the key itself is the Fraction
    # route's: None off the support ball, else {j p^(n-1) xi}_p = r0 / m
    # with m raised to p on Z_p
    chi7 = enumerate_characters(7)[1]  # order 6
    repeats = collections.Counter()
    for p in (2, 3, 5, 17, 251):
        fac = factorize_local(delta_provider(max(8, p)), p)
        specs = [
            OperatorSpec(Twist(p), 1.0),
            OperatorSpec(character_twist(chi7, p), 0.5 + 2j),
            OperatorSpec(character_twist(enumerate_characters(p)[0], p), 1.0),  # T = 0
            OperatorSpec(Twist(p, root=fac.a1), 1.0),
            OperatorSpec(Twist(p, root=fac.a2), 1.7 + 0.5j),
        ]
        for idx in _key_indices(p):
            points = [_point(p, q) for q in _key_points(idx)]
            keys = [wavelets.kernel_coset(idx, xi) for xi in points]
            for xi, key in zip(points, keys):
                q = xi.as_fraction()
                diff = q - idx.center
                if diff != 0 and rational_valuation(diff, p) < -idx.n:
                    assert key is None
                else:
                    frac = rational_fractional_part(idx.j * Fraction(p) ** (idx.n - 1) * q, p)
                    assert key == (frac.numerator, max(frac.denominator, p))
            for spec in specs:
                for R in (2, 40):
                    seen = {}
                    for xi, key in zip(points, keys):
                        if R < idx.n or (xi.unit != 0 and -xi.valuation > R):
                            continue
                        got = apply_kernel(spec, idx, xi, R), wavelet_eval(idx, xi)
                        if key in seen:
                            assert got == seen[key]
                            repeats[p, key is None, key is not None and key[1] > p] += 1
                        seen.setdefault(key, got)
    # every prime repeats keys off the support, on it with m = p, and with m > p
    kinds = ((True, False), (False, False), (False, True))
    assert set(repeats) == {(p, off, wide) for p in (2, 3, 5, 17, 251) for off, wide in kinds}


def test_eigencheck_runs_the_kernel_once_per_ket_and_coset(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return apply_kernel(*args, **kwargs)

    # 4 kets with 5 points in 2 cosets each, and with one point each
    monkeypatch.setattr(cli, "apply_kernel", counted)
    for extra, want in (([], 8), (["--points", "1"], 4)):
        calls.clear()
        assert cli.run(["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1", *extra]) == 0
        capsys.readouterr()
        assert len(calls) == want


def _largest_ket(spec):
    label = 0
    while True:
        try:
            wavelets.check_ket_label(spec, label + 1)
        except KernelCapError:
            return label
        label += 1


def test_largest_allowed_ket_keeps_every_value_finite():
    chi7 = enumerate_characters(7)[1]
    root = factorize_local(delta_provider(8), 5).a2
    operators = [
        (OperatorSpec(Twist(2), 0.01), 40),
        (OperatorSpec(Twist(97), 1.7), 40),
        (OperatorSpec(character_twist(chi7, 13), 0.5 + 2j), 40),
        (OperatorSpec(Twist(5, root=root), 1.7), 2),
        (OperatorSpec(character_twist(chi7, 7), 0.5), 40),  # degenerate
    ]
    for spec, R in operators:
        p = spec.twist.prime
        label = _largest_ket(spec)
        assert label >= 3  # the default --max-ket
        idx = ket(p, label)
        lam = eigenvalue(spec, label)
        for mult in (0, 1, p, p + 1, p * p):
            xi = _point(p, idx.center + mult * Fraction(p) ** (-idx.n))
            value, tail = apply_kernel(spec, idx, xi, R)
            residual = abs(value - lam * wavelet_eval(idx, xi))
            assert all(map(math.isfinite, (value.real, value.imag, tail, residual)))


def test_kernel_pole_is_raised_on_every_call():
    # T p^(-s) = 1 at s = -alpha = -1 for T = 1/2, p = 2: Gamma(-alpha) has a pole
    # at an off-support point too, whose exact value 0 needs no Gamma(-alpha)
    spec = OperatorSpec(Twist(2, root=0.5), 1.0)
    idx = ket(2, 1)
    off_support = _point(2, Fraction(1, 4))
    assert wavelet_eval(idx, off_support) == 0
    for xi in (_point(2, idx.center), off_support):
        for _ in range(3):
            with pytest.raises(PoleError):
                apply_kernel(spec, idx, xi, 10)


_EIGENCHECKS = [
    ["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1.0"],
    ["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "0.5", "--max-ket", "5"],
    ["eigencheck", "--kind", "plain", "--p", "3", "--alpha", "1.7", "--radius", "12"],
    ["eigencheck", "--kind", "character_twisted", "--p", "13", "--alpha", "0.5+2j", "--character", "7:1"],
    ["eigencheck", "--kind", "character_twisted", "--p", "7", "--alpha", "1.0", "--character", "7:1"],
    ["eigencheck", "--kind", "modular_a1", "--p", "5", "--alpha", "1.0"],
    ["eigencheck", "--kind", "modular_a2", "--p", "5", "--alpha", "1.0", "--radius", "3"],
    ["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1.0", "--radius", "0"],
]


def _replay(argvs, capsys):
    reports = {}
    for argv in argvs:
        code = cli.run(argv)
        reports[tuple(argv)] = (code, *capsys.readouterr())
    return reports


def test_eigencheck_reports_do_not_depend_on_request_order(capsys):
    # operators at several primes, replayed in two orders: no table a request
    # leaves cached changes a later report
    forward = _replay(_EIGENCHECKS, capsys)
    backward = _replay(reversed(_EIGENCHECKS), capsys)
    assert forward == backward
    assert {code for code, _, _ in forward.values()} == {0, 2}


def _eigencheck_spec(args):
    p = int(args["--p"])
    kind = args["--kind"]
    if kind == "plain":
        twist = Twist(p)
    elif kind == "character_twisted":
        k, index = map(int, args["--character"].split(":"))
        twist = character_twist(enumerate_characters(k)[index], p)
    else:
        fac = factorize_local(delta_provider(max(8, p)), p)
        twist = Twist(p, root=fac.a1 if kind == "modular_a1" else fac.a2)
    return OperatorSpec(twist, complex(args["--alpha"]))


@pytest.mark.parametrize("argv", [argv for argv in _EIGENCHECKS if argv[-2:] != ["--radius", "0"]])
def test_eigencheck_entries_are_the_kernel_at_each_point(argv, capsys):
    # one kernel run per coset reports, point by point, what a run per point gives
    assert cli.run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    args = dict(zip(argv[1::2], argv[2::2]))
    p, spec = int(args["--p"]), _eigencheck_spec(args)
    assert len(report["entries"]) == 5 * (int(args.get("--max-ket", 3)) + 1)
    for entry in report["entries"]:
        idx = ket(p, entry["ket"])
        xi = _point(p, Fraction(entry["point"]))
        value, tail = apply_kernel(spec, idx, xi, report["radius"])
        residual = abs(value - eigenvalue(spec, entry["ket"]) * wavelet_eval(idx, xi))
        assert (entry["residual"], entry["tail_bound"]) == (residual, tail)
