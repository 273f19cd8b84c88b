"""p-adic encoding, fractional parts, and the additive character."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from padic_lseries import (
    PadicNumber,
    Twist,
    delta_provider,
    enumerate_characters,
    factorize_local,
    local_factor_closed,
    local_trace,
    padic_from_fraction,
    unit_phase,
)
from padic_lseries.wavelets import ket, wavelet_index
from padic_lseries.padic import DEFAULT_PRECISION, _fractional_residue, residue_phase
from padic_oracle import additive_character, fractional_part, rational_fractional_part

PRIMES = (2, 3, 5, 7)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda p: padic_from_fraction(p, Fraction(1, 2)), id="padic_from_fraction"),
        pytest.param(lambda p: wavelet_index(p, 0), id="wavelet_index"),
        pytest.param(lambda p: ket(p, 0), id="ket"),
        pytest.param(Twist, id="Twist"),
        pytest.param(lambda p: local_trace(enumerate_characters(1)[0], p, 2), id="local_trace"),
        pytest.param(
            lambda p: local_factor_closed(enumerate_characters(1)[0], p, 2), id="local_factor_closed"
        ),
        pytest.param(lambda p: factorize_local(delta_provider(8), p), id="factorize_local"),
    ],
)
def test_every_entry_point_refuses_a_non_prime_with_one_message(build):
    with pytest.raises(ValueError) as excinfo:
        build(4)
    assert str(excinfo.value) == "prime must be prime, got 4"


def test_zero_element():
    z = padic_from_fraction(5, 0)
    assert z.unit == 0
    assert z.as_fraction() == 0


def _unchecked(p, v, digits):
    # the number a digit list spells, leading or all-zero digits included
    return PadicNumber(p, v, sum(d * p**i for i, d in enumerate(digits)), len(digits))


def test_as_fraction_is_the_rational_the_digits_spell():
    assert _unchecked(3, 0, (1, 2, 0, 1)).as_fraction() == Fraction(1 + 2 * 3 + 27)
    assert _unchecked(2, -3, (1, 0, 1)).as_fraction() == Fraction(1, 8) + Fraction(1, 2)


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
    x = _unchecked(2, -2, (1, 0, 1, 1))  # 1/4 + 1/1 + 2 integrally
    assert fractional_part(x) == Fraction(1, 4)
    assert fractional_part(_unchecked(5, 0, (3, 1))) == 0
    assert fractional_part(padic_from_fraction(7, 0)) == 0


def test_additive_character_basics():
    assert unit_phase(Fraction(0)) == 1 + 0j
    assert abs(unit_phase(Fraction(1, 2)) + 1) < 1e-15
    assert abs(unit_phase(Fraction(1, 4)) - 1j) < 1e-15
    x = _unchecked(2, -1, (1,))
    assert abs(additive_character(x) + 1) < 1e-15
    # characters are trivial on integers
    assert additive_character(_unchecked(3, 2, (2, 1))) == 1 + 0j


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


def _assert_fraction_route(x):
    # the phase must be bit-for-bit the one built through an exact Fraction
    p = x.prime
    expected = rational_fractional_part(x.as_fraction(), p)
    assert fractional_part(x) == expected
    assert additive_character(x) == unit_phase(expected)
    # the residue of j u p^(v + shift), as the kernel asks for it: j u may be
    # a multiple of p and need not be reduced
    for j in (1, p - 1, p, p * p + 1):
        for shift in (-1, 0, 1):
            r, m = _fractional_residue(p, j * x.unit, x.valuation + shift)
            want = rational_fractional_part(j * x.as_fraction() * Fraction(p) ** shift, p)
            assert Fraction(r, m) == want
            assert residue_phase(r, m) == unit_phase(want)


def test_additive_character_equals_the_fraction_route_exactly():
    rng = random.Random(20240229)
    for p in (2, 3, 5, 7, 29, 97):
        _assert_fraction_route(padic_from_fraction(p, 0))
        for v in range(-4, 3):
            # leading zero digits make the unit part a multiple of p^(-v): r = 0
            _assert_fraction_route(_unchecked(p, v, (0,) * max(0, -v) + (1,)))
            for precision in range(1, 33):
                _assert_fraction_route(_unchecked(p, v, (p - 1,) * precision))
                digits = [rng.randrange(p) for _ in range(precision)]
                digits[0] = rng.randrange(1, p)
                _assert_fraction_route(_unchecked(p, v, digits))


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


def test_circle_character_sum_at_radius_p():
    # the additive character integrates to -1 over the circle |x| = p, cut
    # into the (p - 1) p^(depth - 1) cosets of p^(depth - 1) Z_p
    for p in (2, 3, 5, 7):
        for depth in (1, 2):
            reps = [
                _unchecked(p, -1, (d, *rest))
                for d in range(1, p)
                for rest in itertools.product(range(p), repeat=depth - 1)
            ]
            weight = float(Fraction(p) ** (1 - depth))
            total = sum(additive_character(r) for r in reps) * weight
            assert abs(total - (-1)) < 1e-12


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
            if x.unit == 0:
                assert q == 0
                continue
            assert _p_valuation(q, p) == x.valuation
            # agreement to the full retained precision
            assert _p_valuation(x.as_fraction() - q, p) >= x.valuation + 24


@pytest.mark.parametrize("precision", [0, -1])
def test_padic_from_fraction_refuses_a_precision_below_one(precision):
    with pytest.raises(ValueError, match=f"precision must be at least 1, got {precision}"):
        padic_from_fraction(5, Fraction(25, 3), precision=precision)


_PROPERTY_PRIMES = (2, 3, 5, 7, 97)


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
