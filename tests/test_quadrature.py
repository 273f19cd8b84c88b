"""Gamma factors: closed forms against region-by-region coset quadrature."""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import pytest

from padic_lseries import (
    ConvergenceError,
    FloatRangeError,
    GammaSpec,
    PadicNumber,
    PoleError,
    SeriesCapError,
    Twist,
    character_angle,
    character_twist,
    conjugate_character,
    enumerate_characters,
    evaluate,
    gamma_by_quadrature,
    gamma_closed_form,
    gamma_regions,
    unit_phase,
)
from padic_lseries.padic import phase_table
from padic_lseries.quadrature import TRUNCATION_CAP, _p_power
from padic_oracle import additive_character, rational_fractional_part

S_GRID = (0.3, 0.9, 2.0, 0.5 + 14.1j)


def _character_specs(primes=(2, 3, 5, 7), moduli=(1, 3, 4, 5, 8)):
    for p, k in itertools.product(primes, moduli):
        if k % p == 0:
            continue
        for chi in enumerate_characters(k):
            yield p, chi


def test_p_power_is_the_exp_log_float_or_a_typed_range_error():
    for p, z in ((2, 0.5), (97, -3 + 2j), (97, 155 - 1j), (99991, -61.5 + 14.1j)):
        assert _p_power(p, complex(z)) == cmath.exp(complex(z) * math.log(p))
    assert _p_power(97, complex(-800)) == 0
    with pytest.raises(FloatRangeError, match=r"p = 97, z = \(156\+0j\) exceeds the largest float"):
        _p_power(97, complex(156))


def test_standard_gamma_known_value():
    spec = GammaSpec(Twist(2), 2.0)
    assert abs(gamma_closed_form(spec) - (-4 / 3)) < 1e-15


def test_twisted_gamma_known_value():
    chi = enumerate_characters(4)[1]
    spec = GammaSpec(character_twist(chi, 3), 0.5)
    # chi(3) = -1 makes numerator and denominator cancel to exactly 1
    assert abs(gamma_closed_form(spec) - 1.0) < 1e-12


def test_quadrature_matches_closed_form_within_tail():
    for p, chi in _character_specs():
        for s in S_GRID:
            spec = GammaSpec(character_twist(chi, p), s)
            closed = gamma_closed_form(spec)
            result = gamma_by_quadrature(spec, 64)
            assert abs(result.value - closed) <= result.remainder_bound + 1e-10


def test_trivial_character_reduces_to_standard():
    trivial = enumerate_characters(1)[0]
    for p in (2, 3, 5, 7):
        for s in S_GRID:
            twisted = gamma_closed_form(GammaSpec(character_twist(trivial, p), s))
            plain = gamma_closed_form(GammaSpec(Twist(p), s))
            direct = (1 - p ** (s - 1)) / (1 - p ** (-s))
            assert abs(twisted - direct) < 1e-12
            assert abs(plain - direct) < 1e-12


def test_reflection_identity():
    for p, chi in _character_specs():
        for s in S_GRID:
            left = gamma_closed_form(GammaSpec(character_twist(chi, p), s))
            right = gamma_closed_form(
                GammaSpec(character_twist(conjugate_character(chi), p), 1 - s)
            )
            assert abs(left * right - 1) < 1e-10


def test_region_additivity_any_order():
    chi = enumerate_characters(5)[1]
    spec = GammaSpec(character_twist(chi, 3), 1.3)
    regions = gamma_regions(spec, 32)
    total = gamma_by_quadrature(spec, 32).value
    for perm in itertools.permutations(regions):
        acc = 0j
        for part in perm:
            acc += part
        assert abs(acc - total) < 1e-12


def test_truncation_at_zero_leaves_unit_and_outer_regions():
    chi = enumerate_characters(4)[1]
    for p in (3, 5, 7):
        for s in (0.7, 2.0):
            spec = GammaSpec(character_twist(chi, p), s)
            value = gamma_by_quadrature(spec, 0).value
            expected = (p - 1) / p - p ** (s - 1) / evaluate(chi, p)
            assert abs(value - expected) < 1e-12


def test_standard_gamma_quadrature_matches_closed_form_at_large_p():
    # the zero circles n = -2, -3, if summed, add their rounding noise here:
    # about 1.25e-6 at p = 31 and 2.1e-3 at p = 97
    for p in (31, 97):
        spec = GammaSpec(Twist(p), 2.0)
        assert abs(gamma_by_quadrature(spec).value - gamma_closed_form(spec)) < 1e-11


def test_integrate_unit_circle_constant():
    # on |xi| = 1 the integrand of gamma is 1, so the unit region is the measure
    for p in (2, 3, 5):
        assert gamma_regions(GammaSpec(Twist(p), 2.0), 0)[1] == (p - 1) / p


def test_integrate_weighted_character_example():
    # e(xi) |xi|^(s-1) over |xi| = p gives -p^(s-1), gamma's outer region at T = 1
    for p in (2, 3, 5):
        for s in (0.5, 2.0):
            outer = gamma_regions(GammaSpec(Twist(p), s), 0)[2]
            assert abs(outer - (-(p ** (s - 1)))) < 1e-12


def test_integrate_character_on_circle_radius_p():
    # the circle |xi| = p is p - 1 cosets d/p + Z_p of measure 1, on which the
    # additive character is the phase e^(2 pi i d / p) of phase_table
    for p in (2, 3, 5, 7):
        assert abs(sum(phase_table(0, 1, p, p)) - (-1)) < 1e-12


def test_pole_detected():
    with pytest.raises(PoleError):
        gamma_closed_form(GammaSpec(Twist(3), 0.0))
    trivial = enumerate_characters(1)[0]
    with pytest.raises(PoleError):
        gamma_closed_form(GammaSpec(character_twist(trivial, 5), 0.0))


def test_quadrature_requires_convergent_s():
    with pytest.raises(ConvergenceError):
        gamma_by_quadrature(GammaSpec(Twist(2), -1.0), 16)


def test_inner_circles_past_the_truncation_cap_are_refused_at_once():
    spec = GammaSpec(Twist(3), 2.0)
    assert gamma_by_quadrature(spec, TRUNCATION_CAP).terms_used == TRUNCATION_CAP == 10**6
    for N in (TRUNCATION_CAP + 1, 10**12):
        with pytest.raises(SeriesCapError, match=f"truncation {N} exceeds the cap 1000000"):
            gamma_by_quadrature(spec, N)
        with pytest.raises(SeriesCapError):
            gamma_regions(spec, N)


def test_divergent_s_past_the_float_range_is_a_convergence_error():
    # |T| p^(-Re s) = 97^500 passes the largest float before any check
    with pytest.raises(ConvergenceError, match=r"got inf at s = \(-500\+0j\)"):
        gamma_by_quadrature(GammaSpec(Twist(97), -500))


def test_spec_validation():
    with pytest.raises(ValueError, match="prime must be prime"):
        GammaSpec(Twist(4), 1.0)  # not prime


def test_remainder_bound_shrinks_with_n():
    spec = GammaSpec(Twist(2), 1.5)
    bounds = [gamma_by_quadrature(spec, n).remainder_bound for n in (4, 8, 16, 32)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def _exact_gamma(mpmath, p, angle, s):
    # the closed form at 50 digits, with T = exp(2 pi i angle) exact
    T = mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator)
    s = mpmath.mpc(s)
    return (T - mpmath.power(p, s - 1)) / (T * (1 - T * mpmath.power(p, -s)))


def test_gamma_bound_covers_rounding_against_a_50_digit_oracle():
    # the remainder bound is truncation plus rounding: it must cover the
    # distance to the exact value, up to p = 99991 where the float sum of
    # the outer circle is off by about 1.8e-5 and the tail is 0
    mpmath = pytest.importorskip("mpmath")
    primes = [p for p in range(2, 48) if all(p % d for d in range(2, p))] + [97, 307, 997, 9973, 99991]
    angles = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(5, 12), Fraction(7, 10))
    for p in primes:
        for s in (0.5, 2, 3, 6, 0.5 + 14.1j, 1.5 - 7j):
            for angle in angles:
                result = gamma_by_quadrature(GammaSpec(Twist(p, angle), s))
                with mpmath.workdps(50):
                    error = abs(mpmath.mpc(result.value) - _exact_gamma(mpmath, p, angle, s))
                assert error <= result.remainder_bound, (p, s, angle)


def test_gamma_bound_meets_the_benchmark_rule_on_the_local_grid_space():
    # every gamma request the local-grid benchmark workload can draw: p <= 47,
    # k <= 12 prime to p, every character, three s.  The benchmark passes a
    # report when |quadrature - closed form| <= bound + 4 ulps of the closed form
    mpmath = pytest.importorskip("mpmath")
    ulp = 2.0**-52
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in range(1, 13):
            if math.gcd(k, p) != 1:
                continue
            for chi in enumerate_characters(k):
                angle = character_angle(chi, p)
                for s in (0.5, 2, 0.5 + 14.1j):
                    spec = GammaSpec(character_twist(chi, p), s)
                    result = gamma_by_quadrature(spec)
                    closed = gamma_closed_form(spec)
                    assert abs(result.value - closed) <= result.remainder_bound + 4 * ulp * abs(closed)
                    with mpmath.workdps(50):
                        error = abs(mpmath.mpc(result.value) - _exact_gamma(mpmath, p, angle, s))
                    assert error <= result.remainder_bound
                    cases += 1
    assert cases == 1905


def test_a_twist_that_vanishes_gives_gamma_zero_from_every_route():
    # chi_4(2) = 0: gamma is 0 by convention, and no circle is summed
    spec = GammaSpec(character_twist(enumerate_characters(4)[1], 2), 2.0)
    assert spec.twist.value == 0
    assert gamma_closed_form(spec) == 0j
    assert gamma_regions(spec, 64) == (0j, 0j, 0j)
    result = gamma_by_quadrature(spec, 64)
    assert (result.value, result.remainder_bound, result.terms_used) == (0j, 0.0, 0)


def test_terms_used_reported():
    spec = GammaSpec(Twist(3), 2.0)
    assert gamma_by_quadrature(spec, 17).terms_used == 17


# A reference coset engine: representatives from one divmod chain per index,
# phases through an exact Fraction.  The additive character and gamma's outer
# circle must reproduce it bit for bit, so those comparisons are ==.


def _index_loop_representatives(p, n, depth):
    reps = []
    digits = [0] * depth
    for index in range((p - 1) * p ** (depth - 1)):
        rem = index
        digits[0] = 1 + rem % (p - 1)
        rem //= p - 1
        for i in range(1, depth):
            digits[i] = rem % p
            rem //= p
        reps.append(PadicNumber(p, n, sum(d * p**i for i, d in enumerate(digits)), depth))
    return reps


def _fraction_route_character(xi):
    if xi.unit == 0 or xi.valuation >= 0:
        return unit_phase(Fraction(0))
    return unit_phase(rational_fractional_part(xi.as_fraction(), xi.prime))


def _reference_circle_sum(func, p, n):
    depth = max(1, -n)  # locality 0
    total = complex(0.0, 0.0)
    for rep in _index_loop_representatives(p, n, depth):
        total += func(rep)
    return total * float(Fraction(p) ** (-(n + depth)))


def _reference_outer(spec):
    # the outer region is the one circle n = -1; the circles n <= -2 are zero
    # (test_zero_circles_integrate_to_zero)
    p, s = spec.twist.prime, complex(spec.s)
    radius_factor = cmath.exp((s - 1) * math.log(p))
    twist_factor = spec.twist.power(-1)
    return _reference_circle_sum(
        lambda xi: _fraction_route_character(xi) * radius_factor * twist_factor, p, -1
    )


def test_circle_sum_is_bit_for_bit_the_fraction_route():
    for p in (2, 3, 5, 7, 11):
        # coset measures p^k for k = -(n + depth) = -3, -2, -1 and 0
        for n in (2, 1, 0, -1, -2, -3):
            fast = _reference_circle_sum(additive_character, p, n)
            assert fast == _reference_circle_sum(_fraction_route_character, p, n)


def test_zero_circles_integrate_to_zero():
    # On |xi| = p^d, d >= 2, the additive character sums to the Ramanujan sum
    # c_{p^d}(1) = 0, which is why gamma_regions sums only n = -1.  At locality
    # 0 the circle n = -d is cut at depth d into K = (p - 1) p^(d - 1) cosets of
    # measure p^0 = 1, so the computed value is a plain sum of K unit phases.
    # Each phase is within about one ulp (eps = 2^-52) of exact, and each of
    # the K additions rounds at the scale of the running sum; those errors are
    # independent and largely cancel.  Measured at p <= 13 the worst is 3.0 eps
    # per coset (8.1e-13 at p = 11, n = -3), so the allowance is 8 eps per
    # coset: at most 3.6e-12 here, against |integral| = 1 on the circle n = -1.
    for p in (2, 3, 5, 7, 11, 13):
        for n in (-2, -3):
            cosets = (p - 1) * p ** (-n - 1)
            assert abs(_reference_circle_sum(additive_character, p, n)) <= 8 * cosets * 2.0**-52


def test_gamma_outer_region_is_bit_for_bit_the_fraction_route():
    primes = (2, 3, 5, 7, 11)
    specs = [GammaSpec(Twist(p), s) for p in primes for s in S_GRID]
    specs += [
        GammaSpec(character_twist(chi, p), s)
        for p, chi in _character_specs(primes)
        for s in (2.0, 0.5 + 14.1j)
    ]
    for spec in specs:
        assert gamma_regions(spec, 64)[2] == _reference_outer(spec)
