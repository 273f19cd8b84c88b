"""Unit groups, character enumeration, and the local twist chi(p)."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from padic_lseries import (
    CHARACTER_MODULUS_CAP,
    FloatRangeError,
    ModulusCapError,
    Twist,
    character_angle,
    character_at,
    character_twist,
    conjugate_character,
    delta_provider,
    enumerate_characters,
    euler_phi,
    evaluate,
    factorize_local,
    unit_group,
    unit_phase,
)
from padic_lseries import characters as characters_module


def test_unit_group_spans_all_units():
    for k in range(1, 51):
        group = unit_group(k)
        assert len(group.discrete_logs) == euler_phi(k)
        order_product = 1
        for d in group.generator_orders:
            order_product *= d
        assert order_product == euler_phi(k)
        for g, d in zip(group.generators, group.generator_orders):
            assert math.gcd(g, k) == 1 or k <= 2
            assert pow(g, d, max(k, 1)) % max(k, 1) == 1 % max(k, 1)


def test_discrete_logs_reconstruct_units():
    for k in (3, 4, 5, 8, 9, 12, 15, 16, 24, 35, 40):
        group = unit_group(k)
        for m, exps in group.discrete_logs.items():
            value = 1
            for g, e in zip(group.generators, exps):
                value = value * pow(g, e, k) % k
            assert value == m % k


def _product_and_pow_logs(group) -> dict[int, tuple[int, ...]]:
    """Reference: one pow(g, a, k) per generator per unit, over itertools.product."""
    k = group.modulus
    logs = {}
    for exps in itertools.product(*(range(d) for d in group.generator_orders)):
        residue = 1 % k
        for g, a in zip(group.generators, exps):
            residue = residue * pow(g, a, k) % k
        logs[residue] = exps
    return logs


def test_discrete_log_table_is_the_product_and_pow_table():
    for k in [*range(1, 201), 65536, 99991]:
        group = unit_group(k)
        # the same entries in the same order
        assert list(group.discrete_logs.items()) == list(_product_and_pow_logs(group).items()), k


def test_enumeration_count_and_principal_first():
    for k in range(1, 25):
        chars = enumerate_characters(k)
        assert len(chars) == euler_phi(k)
        assert all(e == 0 for e in chars[0].exponents)
        for m in range(k):
            expected = 1 if math.gcd(m, k) == 1 or k == 1 else 0
            assert evaluate(chars[0], m) == expected


def test_one_character_is_the_enumerated_one():
    # every index of every modulus below 500, each built alone from a group of
    # its own; the enumeration builds another group, whose table must agree
    for k in range(1, 500):
        group = unit_group(k)
        chars = enumerate_characters(k)
        assert group.discrete_logs == chars[0].group.discrete_logs
        for i, chi in enumerate(chars):
            alone = character_at(group, i)
            assert (alone.modulus, alone.index, alone.exponents) == (k, i, chi.exponents)
            assert alone.group is group
        for index in (-1, len(chars)):
            with pytest.raises(IndexError, match=rf"^character index {index} outside 0\.\.{len(chars) - 1} for modulus {k}$"):
                character_at(group, index)


def test_character_mod_4_values():
    chi = enumerate_characters(4)[1]
    assert character_angle(chi, 1) == Fraction(0)
    assert character_angle(chi, 3) == Fraction(1, 2)
    assert character_angle(chi, 2) is None
    assert evaluate(chi, 0) == 0
    assert abs(evaluate(chi, 3) + 1) < 1e-15


def test_character_mod_5_has_order_four():
    chars = enumerate_characters(5)
    orders = set()
    for chi in chars:
        angle = character_angle(chi, 2)  # 2 generates the units mod 5
        orders.add(angle.denominator if angle else 1)
    assert orders == {1, 2, 4}


def test_orthogonality_over_residues():
    for k in range(1, 25):
        for chi in enumerate_characters(k):
            total = sum(evaluate(chi, m) for m in range(k))
            expected = euler_phi(k) if chi.index == 0 else 0
            assert abs(total - expected) < 1e-10


def test_orthogonality_over_characters():
    for k in (3, 4, 5, 8, 12):
        chars = enumerate_characters(k)
        for m in range(k):
            total = sum(evaluate(chi, m) for chi in chars)
            expected = euler_phi(k) if m % k == 1 % k else 0
            assert abs(total - expected) < 1e-10


def test_complete_multiplicativity_exact_angles():
    # chi(mn) = chi(m) chi(n) holds exactly on the rational angle level
    for k in (3, 4, 5, 7, 8, 12, 24):
        for chi in enumerate_characters(k):
            for m in range(0, 201, 7):
                for n in range(0, 201, 11):
                    am = character_angle(chi, m)
                    an = character_angle(chi, n)
                    amn = character_angle(chi, m * n)
                    if am is None or an is None:
                        assert amn is None
                    else:
                        assert amn == (am + an) % 1


def test_complete_multiplicativity_float_spot():
    rng = random.Random(2001)
    for k in (5, 8, 13):
        for chi in enumerate_characters(k):
            for _ in range(25):
                m = rng.randrange(0, 201)
                n = rng.randrange(0, 201)
                lhs = evaluate(chi, m * n)
                rhs = evaluate(chi, m) * evaluate(chi, n)
                assert abs(lhs - rhs) < 1e-12


def test_conjugate_character():
    for k in (4, 5, 8, 12):
        for chi in enumerate_characters(k):
            bar = conjugate_character(chi)
            for m in range(2 * k):
                assert abs(evaluate(bar, m) - evaluate(chi, m).conjugate()) < 1e-14
            assert conjugate_character(bar).index == chi.index


def test_unimodular_on_units():
    for k in (3, 8, 15):
        for chi in enumerate_characters(k):
            for m in range(k):
                if math.gcd(m, k) == 1:
                    assert abs(abs(evaluate(chi, m)) - 1) < 1e-14


def test_extension_powers_of_prime():
    chi = enumerate_characters(5)[1]
    x = character_twist(chi, 2)
    base = evaluate(chi, 2)
    for n in range(-6, 7):
        want = base**n
        assert abs(x.power(n) - want) < 1e-12
    assert x.power(0) == 1 + 0j


def test_extension_degenerate_when_p_divides_modulus():
    chi = enumerate_characters(4)[1]
    x = character_twist(chi, 2)
    assert x.value == 0
    assert x.power(0) == 1 + 0j
    for n in (1, -1, 3):
        assert x.power(n) == 0


def test_extension_respects_group_law():
    rng = random.Random(2002)
    chi = enumerate_characters(7)[2]
    x = character_twist(chi, 3)
    for _ in range(40):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        assert abs(x.power(a + b) - x.power(a) * x.power(b)) < 1e-12


def test_plain_twist_is_exactly_one_and_root_twist_powers_the_root():
    plain = Twist(5)
    assert plain.value == 1 + 0j
    for n in range(-45, 46):
        value = plain.power(n)
        assert type(value) is complex
        assert (value.real, math.copysign(1.0, value.imag)) == (1.0, 1.0)
        assert value == 1 + 0j
    root = complex(-3.5, 2.25)
    twist = Twist(5, root=root)
    assert twist.value == root
    for n in range(-6, 7):
        assert twist.power(n) == root**n


def test_hecke_root_powers_past_the_float_range_are_refused():
    # |T| = 251^5.5 at p = 251: T^24 overflows, and CPython computes
    # T^(-24) as 1 / T^24, which reads nan+nanj without raising
    fac = factorize_local(delta_provider(251), 251)
    for root in (fac.a1, fac.a2):
        twist = Twist(251, root=root)
        assert cmath.isfinite(twist.power(23)) and cmath.isfinite(twist.power(-23))
        for n in (-40, -24, 24, 25, 40):
            with pytest.raises(FloatRangeError, match=rf"T\^{n} for the root .* at p = 251"):
                twist.power(n)


def test_twist_power_is_the_fraction_route_exactly():
    # Twist.power works on the residue (n a mod d) / d; the Fraction route
    # reduces (n * angle) % 1 first, and both must give the same bits
    twists = [Twist(3, Fraction(a, d)) for d in (1, 2, 3, 7, 12, 60) for a in range(d)]
    twists += [character_twist(chi, p) for p in (2, 7, 101) for k in range(1, 25) for chi in enumerate_characters(k)]
    for twist in twists:
        for n in range(-60, 61):
            if twist.angle is None:
                assert twist.power(n) == (1 + 0j if n == 0 else 0j)
            else:
                assert twist.power(n) == unit_phase((n * twist.angle) % 1)


@pytest.mark.parametrize("n", [0, 1, 4, -3])
def test_twist_refuses_a_non_prime(n):
    chi = enumerate_characters(4)[1]
    with pytest.raises(ValueError, match="prime must be prime"):
        Twist(n)
    with pytest.raises(ValueError, match="prime must be prime"):
        Twist(n, root=1j)
    with pytest.raises(ValueError, match="prime must be prime"):
        character_twist(chi, n)


def test_evaluate_vanishes_off_units():
    for k in (4, 6, 9, 12):
        for chi in enumerate_characters(k):
            for m in range(k):
                if math.gcd(m, k) != 1:
                    assert evaluate(chi, m) == 0


def test_character_values_are_roots_of_unity():
    for k in (5, 8, 12):
        phi = euler_phi(k)
        for chi in enumerate_characters(k):
            for m in range(1, k):
                if math.gcd(m, k) != 1:
                    continue
                angle = character_angle(chi, m)
                assert angle is not None
                assert (angle * phi).denominator == 1  # order divides phi(k)
                value = evaluate(chi, m)
                assert abs(value - cmath.exp(2j * cmath.pi * float(angle))) < 1e-14


def test_character_group_laws_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        # a modulus and two of its characters, by enumeration index
        k = draw(st.integers(1, 1000))
        phi = euler_phi(k)
        return k, draw(st.integers(0, phi - 1)), draw(st.integers(0, phi - 1))

    # the cap 10^5 = 2^5 5^5 has three generators; there 99_999 and 2^16 + 1
    # are units and 96 is not
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(pair=pairs(), m=st.integers(0, 10**6), n=st.integers(0, 10**6))
    @hypothesis.example(pair=(CHARACTER_MODULUS_CAP, 12345, 777), m=99_999, n=2**16 + 1)
    @hypothesis.example(pair=(CHARACTER_MODULUS_CAP, 39_999, 39_999), m=96, n=7)
    def check(pair, m, n):
        k, i, j = pair
        chars = enumerate_characters(k)
        chi, psi = chars[i], chars[j]
        am, an, amn = (character_angle(chi, x) for x in (m, n, m * n))
        # None exactly off the units
        assert (am is None) == (math.gcd(m, k) > 1)
        # complete multiplicativity on exact angles
        if am is None or an is None:
            assert amn is None
        else:
            assert amn == (am + an) % 1
        # the conjugate's angle is the negated angle
        assert character_angle(conjugate_character(chi), m) == (None if am is None else (-am) % 1)
        # row orthogonality in floats: each of the phi(k) nonzero terms is
        # within a few ulps of a root of unity
        phi = len(chars)
        total = sum(evaluate(chi, r) * evaluate(psi, r).conjugate() for r in range(k))
        assert abs(total - (phi if i == j else 0)) <= phi * 1e-14

    check()


def _reference_angles(chi) -> dict[int, Fraction]:
    """Reference: per unit residue, the running Fraction sum of a_i e_i / d_i, mod 1."""
    group = chi.group
    table = {}
    for residue, logs in group.discrete_logs.items():
        theta = Fraction(0)
        for a, e, d in zip(logs, chi.exponents, group.generator_orders):
            theta += Fraction(a * e, d)
        table[residue] = theta % 1
    return table


def test_angles_on_demand_equal_the_stored_table_formula():
    for k in [*range(1, 65), 100, 360]:
        for chi in enumerate_characters(k):
            table = _reference_angles(chi)
            bar = conjugate_character(chi)
            for r in range(k):
                want = table.get(r)
                angle = character_angle(chi, r)
                if want is None:
                    assert angle is None and character_angle(bar, r) is None
                    continue
                assert angle == want
                assert evaluate(chi, r) == unit_phase(want)
                assert character_angle(bar, r) == (-want) % 1


def test_modulus_past_the_cap_raises_before_any_table(monkeypatch):
    def no_tables(k):
        raise AssertionError("a table was started past the cap")

    monkeypatch.setattr(characters_module, "_factorize", no_tables)
    for build in (unit_group, enumerate_characters):
        with pytest.raises(ModulusCapError, match=str(CHARACTER_MODULUS_CAP)):
            build(CHARACTER_MODULUS_CAP + 1)
    monkeypatch.undo()
    assert len(unit_group(CHARACTER_MODULUS_CAP).discrete_logs) == euler_phi(CHARACTER_MODULUS_CAP)
