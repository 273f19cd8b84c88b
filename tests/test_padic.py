"""Digit arithmetic, norms, fractional parts, and coset enumeration."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from padic_lseries import (
    CosetCapError,
    PadicNumber,
    PrimeMismatchError,
    additive_character,
    arithmetic,
    circle_measure,
    circle_representatives,
    fractional_part,
    make_padic,
    padic_from_fraction,
    padic_zero,
    rational_fractional_part,
    unit_phase,
)
from padic_lseries.padic import DEFAULT_PRECISION, residue_phase

PRIMES = (2, 3, 5, 7)


def _random_padic(rng, p, max_precision=8):
    precision = rng.randint(1, max_precision)
    digits = [rng.randrange(p) for _ in range(precision)]
    digits[0] = rng.randrange(1, p)  # leading digit nonzero keeps valuation exact
    return make_padic(p, rng.randint(-4, 4), tuple(digits))


def test_make_padic_norm_and_fraction():
    x = make_padic(3, 0, (1, 2, 0, 1))
    assert x.norm == 1
    assert x.as_fraction() == Fraction(1 + 2 * 3 + 27)
    assert x.precision == 4
    y = make_padic(2, -3, (1, 0, 1))
    assert y.norm == Fraction(8)
    assert y.as_fraction() == Fraction(1, 8) + Fraction(1, 2)


def test_make_padic_rejects_bad_input():
    with pytest.raises(ValueError):
        make_padic(4, 0, (1,))
    with pytest.raises(ValueError):
        make_padic(3, 0, (3,))
    with pytest.raises(ValueError):
        make_padic(3, 0, (0, 1))  # leading zero contradicts the valuation


def test_zero_element():
    z = padic_zero(5)
    assert z.is_zero
    assert z.norm == 0
    assert z.as_fraction() == 0


def test_addition_carry_propagates():
    # 1 + (p-1) = p: the carry must move the valuation up one level
    for p in PRIMES:
        one = make_padic(p, 0, (1,))
        top = make_padic(p, 0, (p - 1,))
        total = arithmetic(one, top, "add")
        assert total.as_fraction() == p
        assert total.norm == Fraction(1, p)


def test_subtraction_of_equal_values_is_zero():
    rng = random.Random(1001)
    for p in PRIMES:
        for _ in range(20):
            x = _random_padic(rng, p)
            diff = arithmetic(x, x, "sub")
            assert diff.is_zero


def test_multiplication_norm_exact():
    rng = random.Random(1002)
    for p in PRIMES:
        for _ in range(40):
            x = _random_padic(rng, p)
            y = _random_padic(rng, p)
            prod = arithmetic(x, y, "mul")
            assert prod.norm == x.norm * y.norm


def test_ultrametric_inequality():
    rng = random.Random(1003)
    for p in PRIMES:
        for _ in range(60):
            x = _random_padic(rng, p)
            y = _random_padic(rng, p)
            total = arithmetic(x, y, "add")
            assert total.norm <= max(x.norm, y.norm)
            if x.norm != y.norm:
                assert total.norm == max(x.norm, y.norm)


def test_arithmetic_matches_rationals_within_precision():
    rng = random.Random(1004)
    for p in PRIMES:
        for _ in range(30):
            x = _random_padic(rng, p)
            y = _random_padic(rng, p)
            for op in ("add", "sub", "mul"):
                result = arithmetic(x, y, op)
                exact = {
                    "add": x.as_fraction() + y.as_fraction(),
                    "sub": x.as_fraction() - y.as_fraction(),
                    "mul": x.as_fraction() * y.as_fraction(),
                }[op]
                if result.is_zero:
                    continue
                # the digits retained must agree with the exact rational
                scale = Fraction(p) ** (-result.valuation)
                lhs = (result.as_fraction() * scale) % p**result.precision
                rhs = (exact * scale) % p**result.precision
                assert lhs == rhs


def test_prime_mismatch_rejected():
    with pytest.raises(PrimeMismatchError):
        arithmetic(make_padic(2, 0, (1,)), make_padic(3, 0, (1,)), "add")


def test_rational_fractional_part():
    assert rational_fractional_part(Fraction(1, 2), 2) == Fraction(1, 2)
    assert rational_fractional_part(Fraction(3, 4), 2) == Fraction(3, 4)
    assert rational_fractional_part(Fraction(7, 2), 2) == Fraction(1, 2)
    assert rational_fractional_part(Fraction(5), 3) == 0
    assert rational_fractional_part(Fraction(1, 3), 3) == Fraction(1, 3)
    assert rational_fractional_part(Fraction(2, 3), 5) == 0  # 3 is a 5-adic unit
    assert rational_fractional_part(Fraction(-1, 2), 2) == Fraction(1, 2)
    assert rational_fractional_part(Fraction(-1, 3), 3) == Fraction(2, 3)


def test_fractional_part_drops_integral_digits():
    x = make_padic(2, -2, (1, 0, 1, 1))  # 1/4 + 1/1 + 2 integrally
    assert fractional_part(x) == Fraction(1, 4)
    assert fractional_part(make_padic(5, 0, (3, 1))) == 0
    assert fractional_part(padic_zero(7)) == 0


def test_additive_character_basics():
    assert unit_phase(Fraction(0)) == 1 + 0j
    assert abs(unit_phase(Fraction(1, 2)) + 1) < 1e-15
    assert abs(unit_phase(Fraction(1, 4)) - 1j) < 1e-15
    x = make_padic(2, -1, (1,))
    assert abs(additive_character(x) + 1) < 1e-15
    # characters are trivial on integers
    assert additive_character(make_padic(3, 2, (2, 1))) == 1 + 0j


def test_residue_phase_is_the_fraction_formula_in_and_out_of_lowest_terms():
    # the formula unit_phase had before the helper: float() of the Fraction
    for m in (1, 2, 3, 4, 6, 9, 12, 25, 97, 2**10, 3**7):
        for r in range(m):
            for scale in (1, 2, 7):
                got = residue_phase(r * scale, m * scale)
                if r == 0:
                    assert got == 1 + 0j
                else:
                    assert got == cmath.exp(complex(0.0, 2.0 * math.pi * float(Fraction(r, m))))
                assert unit_phase(Fraction(r, m)) == got


def _unchecked(p, v, digits):
    # the number a digit list spells, leading or all-zero digits included,
    # which make_padic would refuse
    return PadicNumber(p, v, sum(d * p**i for i, d in enumerate(digits)), len(digits))


def _assert_fraction_route(x):
    # the phase must be bit-for-bit the one built through an exact Fraction
    expected = rational_fractional_part(x.as_fraction(), x.prime)
    assert fractional_part(x) == expected
    assert additive_character(x) == unit_phase(expected)


def test_additive_character_equals_the_fraction_route_exactly():
    rng = random.Random(20240229)
    for p in (2, 3, 5, 7, 29, 97):
        _assert_fraction_route(padic_zero(p))
        for v in range(-4, 3):
            # leading zero digits make the unit part a multiple of p^(-v): r = 0
            _assert_fraction_route(_unchecked(p, v, (0,) * max(0, -v) + (1,)))
            for precision in range(1, 33):
                _assert_fraction_route(make_padic(p, v, (p - 1,) * precision))
                digits = [rng.randrange(p) for _ in range(precision)]
                digits[0] = rng.randrange(1, p)
                _assert_fraction_route(make_padic(p, v, digits))


def test_additive_character_equals_the_fraction_route_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # valuations down to -40 push p^(-v) past 2^53, where rounding would show
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        p=st.sampled_from((2, 3, 5, 7, 29, 97, 65537)),
        v=st.integers(-40, 4),
        raw=st.lists(st.integers(0, 2**20), min_size=1, max_size=40),
    )
    def check(p, v, raw):
        _assert_fraction_route(_unchecked(p, v, tuple(d % p for d in raw)))

    check()


def test_circle_measure_exact():
    assert circle_measure(2, 0) == Fraction(1, 2)
    assert circle_measure(3, 0) == Fraction(2, 3)
    assert circle_measure(2, 1) == Fraction(1, 4)
    assert circle_measure(5, -1) == Fraction(4, 5) * 5


def test_circle_representatives_partition():
    for p in (2, 3, 5):
        for n in (-1, 0, 1):
            for depth in (1, 2, 3):
                reps = circle_representatives(p, n, depth)
                assert len(reps) == (p - 1) * p ** (depth - 1)
                assert all(r.norm == Fraction(p) ** (-n) for r in reps)
                # distinct cosets of p^(n+depth) Z_p
                seen = {r.as_fraction() for r in reps}
                assert len(seen) == len(reps)
                coset = Fraction(p) ** (-n - depth)
                assert len(reps) * coset == circle_measure(p, n)


def test_circle_character_sum_at_radius_p():
    # the additive character integrates to -1 over the circle |x| = p
    for p in (2, 3, 5, 7):
        for depth in (1, 2):
            reps = circle_representatives(p, -1, depth)
            weight = float(Fraction(p) ** (1 - depth))
            total = sum(additive_character(r) for r in reps) * weight
            assert abs(total - (-1)) < 1e-12


def test_coset_cap_enforced():
    with pytest.raises(CosetCapError):
        circle_representatives(2, 0, 25, cap=1000)


def _p_valuation(q: Fraction, p: int) -> int:
    if q == 0:
        return 10**9
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_padic_from_fraction_round_trip():
    rng = random.Random(1005)
    for p in PRIMES:
        for _ in range(30):
            num = rng.randint(-500, 500)
            den = rng.randint(1, 500)
            if num == 0:
                continue
            q = Fraction(num, den)
            x = padic_from_fraction(p, q, precision=24)
            if x.is_zero:
                assert q == 0
                continue
            assert _p_valuation(q, p) == x.valuation
            # agreement to the full retained precision
            assert _p_valuation(x.as_fraction() - q, p) >= x.valuation + 24


@pytest.mark.parametrize("precision", [0, -1])
def test_padic_from_fraction_refuses_a_precision_below_one(precision):
    with pytest.raises(ValueError, match=f"precision must be at least 1, got {precision}"):
        padic_from_fraction(5, Fraction(25, 3), precision=precision)


# Properties of the (prime, valuation, unit, precision) form, drawn by
# hypothesis: a nonzero number is a valuation and a digit list whose leading
# digit is nonzero.

_PROPERTY_PRIMES = (2, 3, 5, 7, 97)


def _digit_lists(st, p):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=12).map(
        lambda digits: [digits[0] or 1] + digits[1:]
    )


def test_arithmetic_agrees_with_fractions_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def operands(draw):
        p = draw(st.sampled_from(_PROPERTY_PRIMES))
        x, y = (
            make_padic(p, draw(st.integers(-6, 6)), draw(_digit_lists(st, p))) for _ in range(2)
        )
        return x, y

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(pair=operands(), op=st.sampled_from(("add", "sub", "mul")))
    def check(pair, op):
        x, y = pair
        a, b = x.as_fraction(), y.as_fraction()
        exact = {"add": a + b, "sub": a - b, "mul": a * b}[op]
        result = arithmetic(x, y, op)
        if result.is_zero:
            assert exact == 0
            return
        assert result.precision == min(x.precision, y.precision)
        assert 0 < result.unit < x.prime**result.precision and result.unit % x.prime
        # the valuation is exact and the unit agrees mod p^precision
        assert result.valuation == _p_valuation(exact, x.prime)
        assert _p_valuation(result.as_fraction() - exact, x.prime) >= (
            result.valuation + result.precision
        )

    check()


def test_make_padic_keeps_its_digits_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def numbers(draw):
        p = draw(st.sampled_from(_PROPERTY_PRIMES))
        return p, draw(st.integers(-6, 6)), draw(_digit_lists(st, p))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(number=numbers())
    def check(number):
        p, v, digits = number
        x = make_padic(p, v, digits)
        assert x.digits == tuple(digits)
        assert x.precision == len(digits)
        assert x.unit % p == digits[0]

    check()


def test_padic_from_fraction_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        p=st.sampled_from(_PROPERTY_PRIMES),
        q=st.fractions(max_denominator=10**12).filter(lambda q: q != 0),
    )
    def check(p, q):
        x = padic_from_fraction(p, q)
        assert x.precision == DEFAULT_PRECISION
        assert x.valuation == _p_valuation(q, p)
        assert _p_valuation(x.as_fraction() - q, p) >= x.valuation + x.precision

    check()
