"""Gamma factors: closed forms against region-by-region coset quadrature."""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import pytest

from padic_lseries import (
    CHARACTER_TWISTED,
    STANDARD,
    CircleIntegrand,
    ConvergenceError,
    GammaSpec,
    LocalityError,
    PadicNumber,
    PoleError,
    additive_character,
    circle_representatives,
    conjugate_character,
    enumerate_characters,
    evaluate,
    gamma_by_quadrature,
    gamma_closed_form,
    gamma_regions,
    integrate_circle,
    rational_fractional_part,
    unit_phase,
)

S_GRID = (0.3, 0.9, 2.0, 0.5 + 14.1j)


def _character_specs(primes=(2, 3, 5, 7), moduli=(1, 3, 4, 5, 8)):
    for p, k in itertools.product(primes, moduli):
        if k % p == 0:
            continue
        for chi in enumerate_characters(k):
            yield p, chi


def test_standard_gamma_known_value():
    spec = GammaSpec(STANDARD, 2, 2.0)
    assert abs(gamma_closed_form(spec) - (-4 / 3)) < 1e-15


def test_twisted_gamma_known_value():
    chi = enumerate_characters(4)[1]
    spec = GammaSpec(CHARACTER_TWISTED, 3, 0.5, character=chi)
    # chi(3) = -1 makes numerator and denominator cancel to exactly 1
    assert abs(gamma_closed_form(spec) - 1.0) < 1e-12


def test_quadrature_matches_closed_form_within_tail():
    for p, chi in _character_specs():
        for s in S_GRID:
            spec = GammaSpec(CHARACTER_TWISTED, p, s, character=chi)
            closed = gamma_closed_form(spec)
            result = gamma_by_quadrature(spec, 64)
            assert abs(result.value - closed) <= result.remainder_bound + 1e-10


def test_trivial_character_reduces_to_standard():
    trivial = enumerate_characters(1)[0]
    for p in (2, 3, 5, 7):
        for s in S_GRID:
            twisted = gamma_closed_form(GammaSpec(CHARACTER_TWISTED, p, s, character=trivial))
            plain = gamma_closed_form(GammaSpec(STANDARD, p, s))
            direct = (1 - p ** (s - 1)) / (1 - p ** (-s))
            assert abs(twisted - direct) < 1e-12
            assert abs(plain - direct) < 1e-12


def test_reflection_identity():
    for p, chi in _character_specs():
        for s in S_GRID:
            left = gamma_closed_form(GammaSpec(CHARACTER_TWISTED, p, s, character=chi))
            right = gamma_closed_form(
                GammaSpec(CHARACTER_TWISTED, p, 1 - s, character=conjugate_character(chi))
            )
            assert abs(left * right - 1) < 1e-10


def test_region_additivity_any_order():
    chi = enumerate_characters(5)[1]
    spec = GammaSpec(CHARACTER_TWISTED, 3, 1.3, character=chi)
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
            spec = GammaSpec(CHARACTER_TWISTED, p, s, character=chi)
            value = gamma_by_quadrature(spec, 0).value
            expected = (p - 1) / p - p ** (s - 1) / evaluate(chi, p)
            # outer circles at depth > 1 cancel only up to float rounding
            assert abs(value - expected) < 1e-9


def test_integrate_unit_circle_constant():
    f = CircleIntegrand(lambda xi: 1.0, locality=0)
    for p in (2, 3, 5):
        assert abs(integrate_circle(f, p, 0) - (p - 1) / p) < 1e-15


def test_integrate_character_on_circle_radius_p():
    f = CircleIntegrand(additive_character, locality=0)
    for p in (2, 3, 5, 7):
        assert abs(integrate_circle(f, p, -1) - (-1)) < 1e-12


def test_integrate_weighted_character_example():
    # e(xi)|xi|^(s-1) at s=0 over |xi|=p gives -1/p
    for p in (2, 3, 5):
        f = CircleIntegrand(lambda xi: additive_character(xi) / float(xi.norm), locality=0)
        assert abs(integrate_circle(f, p, -1) - (-1 / p)) < 1e-12


def test_locality_check_catches_liars():
    # depends on the digit at level 2, declared locality 0
    def deep(xi):
        q = xi.as_fraction()
        return float((q.numerator * pow(q.denominator, -1, 27)) % 27 >= 9)

    f = CircleIntegrand(deep, locality=0)
    with pytest.raises(LocalityError):
        integrate_circle(f, 3, 0)


def test_pole_detected():
    with pytest.raises(PoleError):
        gamma_closed_form(GammaSpec(STANDARD, 3, 0.0))
    trivial = enumerate_characters(1)[0]
    with pytest.raises(PoleError):
        gamma_closed_form(GammaSpec(CHARACTER_TWISTED, 5, 0.0, character=trivial))


def test_quadrature_requires_convergent_s():
    with pytest.raises(ConvergenceError):
        gamma_by_quadrature(GammaSpec(STANDARD, 2, -1.0), 16)


def test_spec_validation():
    with pytest.raises(ValueError):
        GammaSpec(CHARACTER_TWISTED, 3, 1.0)  # missing character
    with pytest.raises(ValueError):
        GammaSpec(STANDARD, 4, 1.0)  # not prime
    chi = enumerate_characters(4)[1]
    with pytest.raises(ValueError):
        GammaSpec(STANDARD, 3, 1.0, character=chi)  # character on untwisted kind


def test_remainder_bound_shrinks_with_n():
    spec = GammaSpec(STANDARD, 2, 1.5)
    bounds = [gamma_by_quadrature(spec, n).remainder_bound for n in (4, 8, 16, 32)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_terms_used_reported():
    spec = GammaSpec(STANDARD, 3, 2.0)
    assert gamma_by_quadrature(spec, 17).terms_used == 17


# A reference coset engine: representatives from one divmod chain per index,
# phases through an exact Fraction.  The fast engine must reproduce it bit for
# bit, so every comparison below is ==.


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
        reps.append(PadicNumber(p, n, tuple(digits)))
    return reps


def _fraction_route_character(xi):
    if xi.is_zero or xi.valuation >= 0:
        return unit_phase(Fraction(0))
    return unit_phase(rational_fractional_part(xi.as_fraction(), xi.prime))


def _reference_circle_sum(func, p, n):
    depth = max(1, -n)  # locality 0
    total = complex(0.0, 0.0)
    for rep in _index_loop_representatives(p, n, depth):
        total += func(rep)
    return total * float(Fraction(p) ** (-(n + depth)))


def _reference_outer(spec):
    p, s = spec.prime, complex(spec.s)
    outer = complex(0.0, 0.0)
    for n in (-1, -2, -3):
        radius_factor = cmath.exp(-n * (s - 1) * math.log(p))
        twist_factor = spec.twist.power(n)
        outer += _reference_circle_sum(
            lambda xi, r=radius_factor, t=twist_factor: _fraction_route_character(xi) * r * t,
            p,
            n,
        )
    return outer


def test_circle_representatives_follow_the_index_formula():
    for p in (2, 3, 5):
        for depth in (1, 2, 3):
            reps = circle_representatives(p, -1, depth)
            assert reps == _index_loop_representatives(p, -1, depth)
            for index, rep in enumerate(reps):
                d = rep.digits
                tail = sum(digit * p**i for i, digit in enumerate(d[1:]))
                assert index == (d[0] - 1) + (p - 1) * tail


def test_circle_sum_is_bit_for_bit_the_fraction_route():
    f = CircleIntegrand(additive_character, locality=0)
    for p in (2, 3, 5, 7, 11):
        for n in (-1, -2, -3):
            assert integrate_circle(f, p, n) == _reference_circle_sum(_fraction_route_character, p, n)


def test_gamma_outer_region_is_bit_for_bit_the_fraction_route():
    primes = (2, 3, 5, 7, 11)
    specs = [GammaSpec(STANDARD, p, s) for p in primes for s in S_GRID]
    specs += [
        GammaSpec(CHARACTER_TWISTED, p, s, character=chi)
        for p, chi in _character_specs(primes)
        for s in (2.0, 0.5 + 14.1j)
    ]
    for spec in specs:
        assert gamma_regions(spec, 64)[2] == _reference_outer(spec)
