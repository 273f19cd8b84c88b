"""Discriminant coefficients and local Hecke root factorizations."""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction

import pytest

from padic_lseries import (
    DELTA_TERMS_CAP,
    FloatRangeError,
    SeriesCapError,
    TableCapError,
    binomial_side,
    coefficient,
    delta_expansion,
    delta_provider,
    enumerate_characters,
    euler_product,
    factorize_local,
    symmetric_power_sum,
    local_factor_closed,
    local_trace,
    table_provider,
    verify_recursion,
)
from padic_lseries import modular
from padic_lseries.quadrature import TRUNCATION_CAP

TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


@pytest.fixture
def no_memo(monkeypatch):
    """Start from an empty tau-table memo, so delta_expansion builds afresh."""
    monkeypatch.setattr(modular, "_tau_memo", {})


# Reference engine: the former delta_expansion, the pentagonal-number
# product raised to the 24th power by the chain 1 -> 2 -> 3 -> 6 -> 12 -> 24
# of big-integer Kronecker products.


def _pack(coeffs, limb_bytes):
    buf = bytearray(limb_bytes * len(coeffs))
    for i, c in enumerate(coeffs):
        buf[i * limb_bytes : i * limb_bytes + limb_bytes] = c.to_bytes(limb_bytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(packed, limb_bytes, count):
    packed &= (1 << (8 * limb_bytes * count)) - 1
    buf = packed.to_bytes(limb_bytes * count, "little")
    return [int.from_bytes(buf[i * limb_bytes : i * limb_bytes + limb_bytes], "little") for i in range(count)]


def _polymul_trunc(a, b, n):
    n = min(n, len(a) + len(b) - 1)
    amax = max((abs(c) for c in a), default=0)
    bmax = max((abs(c) for c in b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * n
    bits = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 2
    limb_bytes = (bits + 7) // 8
    a_pos = _pack([c if c > 0 else 0 for c in a], limb_bytes)
    a_neg = _pack([-c if c < 0 else 0 for c in a], limb_bytes)
    if b is a:
        cross = a_pos * a_neg
        plus = a_pos * a_pos + a_neg * a_neg
        minus = 2 * cross
    else:
        b_pos = _pack([c if c > 0 else 0 for c in b], limb_bytes)
        b_neg = _pack([-c if c < 0 else 0 for c in b], limb_bytes)
        plus = a_pos * b_pos + a_neg * b_neg
        minus = a_pos * b_neg + a_neg * b_pos
    return [x - y for x, y in zip(_unpack(plus, limb_bytes, n), _unpack(minus, limb_bytes, n))]


def _reference_tau(N):
    eta = [0] * N
    eta[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < N:
        for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if exponent < N:
                eta[exponent] = -1 if k % 2 else 1
        k += 1
    power = {1: eta}
    for exp, (lo, hi) in ((2, (1, 1)), (3, (1, 2)), (6, (3, 3)), (12, (6, 6)), (24, (12, 12))):
        power[exp] = _polymul_trunc(power[lo], power[hi], N)
    return power[24]


def _jacobi_series(N):
    """eta^3 / q^(1/8) = sum_k (-1)^k (2k+1) q^(k(k+1)/2), below q^N."""
    series = [0] * N
    k = 0
    while k * (k + 1) // 2 < N:
        series[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return series


# The first dozen triangular numbers T_k = k(k+1)/2, where the Jacobi series
# gains a term, and one past each; 127..129 straddle the shortest build.
_JACOBI_EDGES = {k * (k + 1) // 2 + d for k in range(1, 13) for d in (0, 1)}


@pytest.mark.parametrize("N", sorted({1, 2, 7, 8, 97, 127, 128, 129, 1000, 20000} | _JACOBI_EDGES))
def test_engine_matches_the_reference_chain(N, no_memo):
    expected = _reference_tau(N)
    assert delta_expansion(N) == expected
    assert modular._tau_table(N) == expected


def test_engine_matches_the_reference_chain_property(no_memo):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(N=hypothesis.strategies.integers(1, 3000))
    def check(N):
        expected = _reference_tau(N)
        assert modular._tau_table(N) == expected
        assert delta_expansion(N) == expected

    check()


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 7, 11, 97, 128, 129, 1000, 5051])
def test_sparse_eta_sixth_is_the_square_of_the_jacobi_series(N):
    series = _jacobi_series(N)
    assert modular._eta_sixth(N) == _polymul_trunc(series, series, N)


def test_the_table_at_the_cap_obeys_congruence_bound_and_hecke_relations(no_memo):
    """Every entry of the longest table allowed: at a prime p, Ramanujan's
    congruence tau(p) = 1 + p^11 mod 691 and Deligne's bound
    tau(p)^2 <= 4 p^11; at n = p^a m with p the smallest prime factor and m
    > 1 coprime to p, tau(n) = tau(p^a) tau(m); at a prime power, the Hecke
    recursion.  A limb too narrow for its coefficients moves an entry by a
    power of ten, which none of these relations absorbs."""
    N = DELTA_TERMS_CAP
    tau = [0, *delta_expansion(N)]
    smallest = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if smallest[p] == p:
            for n in range(p * p, N + 1, p):
                if smallest[n] == n:
                    smallest[n] = p
    for n in range(2, N + 1):
        p = smallest[n]
        if p == n:
            assert (tau[p] - 1 - p**11) % 691 == 0, p
            assert tau[p] ** 2 <= 4 * p**11, p
            continue
        power, m = p, n // p
        while m % p == 0:
            power, m = power * p, m // p
        if m > 1:
            assert tau[n] == tau[power] * tau[m], n
        else:
            assert tau[n] == tau[p] * tau[n // p] - p**11 * tau[n // p // p], n


def test_returned_tables_do_not_alias_the_memo(no_memo):
    first = delta_expansion(40)
    first[:] = [0] * 40
    assert delta_expansion(40) == _reference_tau(40)
    longest = delta_expansion(50)
    longest.append(7)
    longest[3] = 0
    assert delta_expansion(50) == _reference_tau(50)


def test_short_table_after_long_equals_fresh_build(no_memo, monkeypatch):
    delta_expansion(3000)
    short = delta_expansion(97)
    monkeypatch.setattr(modular, "_tau_memo", {})
    assert short == delta_expansion(97) == _reference_tau(97)


def test_bad_sizes_raise_at_once_with_a_memo(no_memo, monkeypatch):
    delta_expansion(200)

    def no_build(N):
        raise AssertionError("the engine ran for an invalid size")

    monkeypatch.setattr(modular, "_tau_table", no_build)
    with pytest.raises(TableCapError):
        delta_expansion(DELTA_TERMS_CAP + 1)
    for N in (0, -5):
        with pytest.raises(ValueError):
            delta_expansion(N)
    assert delta_expansion(200) == _reference_tau(200)


def test_builds_are_one_per_length_in_any_order(no_memo, monkeypatch):
    """A length is built once and never cut from a longer table (below the
    shortest build, one table serves all), so the builds that a list of
    requests costs do not depend on the order it comes in."""
    sizes = [60, 300, 60, 200, 120, 300]
    for order in (sizes, sorted(sizes), sorted(sizes, reverse=True)):
        monkeypatch.setattr(modular, "_tau_memo", {})
        built = []
        build = modular._tau_table

        def counted(N):
            built.append(N)
            return build(N)

        monkeypatch.setattr(modular, "_tau_table", counted)
        assert [delta_expansion(N) for N in order] == [_reference_tau(N) for N in order]
        assert sorted(built) == [modular._SHORTEST_BUILD, 200, 300]
        monkeypatch.setattr(modular, "_tau_table", build)


def test_caller_decimal_context_is_neither_read_nor_changed(no_memo):
    expected = _reference_tau(1000)
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.Emax = 5
        ctx.traps[decimal.Inexact] = True
        ctx.traps[decimal.Rounded] = True
        before = (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps), dict(ctx.flags))
        assert delta_expansion(1000) == expected
        after = (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps), dict(ctx.flags))
        assert decimal.getcontext() is ctx
    assert after == before


def test_tau_spot_values():
    values = delta_expansion(12)
    assert tuple(values[:10]) == TAU_FIRST_TEN
    assert values[11] == -370944  # tau(12)


def test_tau_via_provider():
    provider = delta_provider(50)
    assert provider.weight == 12
    assert provider.level == 1
    assert coefficient(provider, 1) == 1
    assert coefficient(provider, 2) == -24
    assert [coefficient(provider, n) for n in range(1, 11)] == list(TAU_FIRST_TEN)


def test_tau_multiplicativity_spot():
    provider = delta_provider(600)
    pairs = [(2, 3), (2, 9), (3, 4), (4, 9), (5, 8), (2, 25), (3, 25), (7, 8), (9, 25), (16, 27)]
    for m, n in pairs:
        assert math.gcd(m, n) == 1
        assert coefficient(provider, m * n) == coefficient(provider, m) * coefficient(provider, n)


def test_tau_hecke_recursion_exact():
    # tau(p^(m+1)) = tau(p) tau(p^m) - p^11 tau(p^(m-1)), exact in integers
    provider = delta_provider(3000)
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p ** (m + 1) <= 3000:
            assert verify_recursion(provider, p, m) == 0.0
            m += 1


def test_deligne_bound():
    provider = delta_provider(100)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert abs(coefficient(provider, p)) <= 2 * p**5.5


def test_eta_block_structure():
    # the expansion carries Delta = q prod (1-q^n)^24; column n = 1 forces
    # tau(1) = 1 and the next coefficient is the binomial -24
    values = delta_expansion(3)
    assert values == [1, -24, 252]


def test_coefficient_range_errors():
    provider = delta_provider(10)
    with pytest.raises(IndexError):
        coefficient(provider, 0)
    with pytest.raises(IndexError):
        coefficient(provider, 11)


def test_table_provider_validation():
    with pytest.raises(ValueError):
        table_provider((2, 1), weight=2, level=11)  # a(1) must be 1
    provider = table_provider((1, -2, -1), weight=2, level=11)
    assert provider.max_n == 3
    assert coefficient(provider, 2) == -2


# a(1..12) of the weight-2 newform of level 11 (the elliptic curve 11a)
_A_11A = (1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2)


def test_table_provider_nebentypus_is_the_principal_character_mod_the_level():
    provider = table_provider(_A_11A, weight=2, level=11)
    assert provider.character == enumerate_characters(11)[0]
    # p | N: chi(11) = 0, so the factor is 1/(1 - a(11) 11^(-s)) = 1/(1 - 1/121)
    chi_pk = modular.quadratic_constant(provider, 11)
    assert chi_pk == 0 and type(chi_pk) is int
    closed = local_factor_closed(provider, 11, 2)
    assert closed == pytest.approx(1 / (1 - 1 / 121), rel=1e-15)
    # p not dividing N: chi(2) = 1, so the factor is 1/(1 - a(2) 2^(-s) + 2 2^(-2s))
    chi_pk = modular.quadratic_constant(provider, 2)
    assert chi_pk == 2 and type(chi_pk) is int
    assert local_factor_closed(provider, 2, 2) == pytest.approx(1 / (1 + 2 / 4 + 2 / 16), rel=1e-15)
    for p in (2, 11):
        trace = local_trace(provider, p, 2)
        assert abs(trace.value - local_factor_closed(provider, p, 2)) <= trace.remainder_bound + 1e-15
    with pytest.raises(ValueError, match="mod the level 11"):
        table_provider(_A_11A, weight=2, level=11, character=enumerate_characters(5)[1])


@pytest.mark.parametrize("level", (1, 2, 3, 4, 8, 11, 12, 100, 400, 99991))
def test_principal_character_is_the_first_enumerated(level):
    assert modular._principal_character(level) == enumerate_characters(level)[0]


# chi(p) p^(k-1) past the largest float: p = 47, k = 200, a character of order
# two mod 3, so chi(47) p^199 is a complex number, not an exact integer
_HUGE_CONSTANT = table_provider((1,) * 50, 200, 3, enumerate_characters(3)[1])
# a(2) past the largest float
_HUGE_COEFFICIENT = table_provider((1, 10**400), 12, 1)


def test_quadratic_constant_past_the_float_range_is_a_float_range_error():
    with pytest.raises(FloatRangeError, match=r"47\^199 exceeds the largest float"):
        modular.quadratic_constant(_HUGE_CONSTANT, 47)


def test_factorize_local_past_the_float_range_is_a_float_range_error():
    with pytest.raises(FloatRangeError, match=r"47\^199"):
        factorize_local(_HUGE_CONSTANT, 47)
    with pytest.raises(FloatRangeError, match=r"a\(2\) exceeds the largest float"):
        factorize_local(_HUGE_COEFFICIENT, 2)


def test_local_factor_closed_past_the_float_range_is_a_float_range_error():
    with pytest.raises(FloatRangeError, match=r"47\^199"):
        local_factor_closed(_HUGE_CONSTANT, 47, 150)
    with pytest.raises(FloatRangeError, match=r"a\(2\)"):
        local_factor_closed(_HUGE_COEFFICIENT, 2, 300)


def test_euler_product_past_the_float_range_is_a_float_range_error():
    # the first prime whose p^199 passes the float range is 37
    with pytest.raises(FloatRangeError, match=r"37\^199"):
        euler_product(_HUGE_CONSTANT, 150, 47)
    with pytest.raises(FloatRangeError, match=r"a\(2\)"):
        euler_product(_HUGE_COEFFICIENT, 300, 2)


def test_quadratic_constant_is_exact_where_chi_is_zero_or_one():
    principal = table_provider((1,), weight=40, level=3)
    for p, want in ((47, 47**39), (3, 0)):
        got = modular.quadratic_constant(principal, p)
        assert got == want and type(got) is int
    # chi(47) = -1 for the character of order two mod 3: a complex value
    odd = table_provider((1,), weight=40, level=3, character=enumerate_characters(3)[1])
    got = modular.quadratic_constant(odd, 47)
    assert type(got) is complex and got == pytest.approx(-(47**39), rel=1e-15)


def test_factorize_known_roots_at_two():
    provider = delta_provider(8)
    fac = factorize_local(provider, 2)
    assert abs(fac.a1 - (-12 + 43.634848458542855j)) < 1e-9
    assert abs(fac.a2 - (-12 - 43.634848458542855j)) < 1e-9
    assert fac.a1.imag >= 0  # deterministic ordering
    assert abs(abs(fac.a1) - 2**5.5) < 1e-9
    assert abs(fac.a1 + fac.a2 - fac.a_p) < 1e-9
    assert abs(fac.a1 * fac.a2 - fac.chi_pk) < 1e-9
    assert fac.chi_pk == 2**11


def test_factorize_unimodular_normalized():
    # |a_i| = p^((k-1)/2) for every prime where the Ramanujan bound is strict
    provider = delta_provider(100)
    for p in (2, 3, 5, 7, 11, 13):
        fac = factorize_local(provider, p)
        assert abs(abs(fac.a1) - p**5.5) < 1e-6 * p**5.5
        assert abs(abs(fac.a2) - p**5.5) < 1e-6 * p**5.5


def test_factorize_degenerate_coefficient():
    # a_p = 0 with constant 1 (weight 1): roots +/- i, the +i root first
    provider = table_provider((1, 0, 0, -1), weight=1, level=7)
    fac = factorize_local(provider, 2)
    assert fac.chi_pk == 1
    assert abs(fac.a1 - 1j) < 1e-12
    assert abs(fac.a2 + 1j) < 1e-12


def test_consistency_relations():
    # s_0 = 1, s_1 = a_p, s_2 = a_p^2 - chi_pk, at 1e-9 relative
    provider = delta_provider(100)
    for p in (2, 3, 5, 7):
        fac = factorize_local(provider, p)
        assert symmetric_power_sum(fac, 0) == 1
        a_p = complex(coefficient(provider, p))
        s1 = symmetric_power_sum(fac, 1)
        assert abs(s1 - a_p) <= 1e-9 * abs(a_p)
        s2 = symmetric_power_sum(fac, 2)
        want = a_p * a_p - complex(fac.chi_pk)
        assert abs(s2 - want) <= 1e-9 * max(abs(want), 1.0)


def test_symmetric_sum_equals_binomial_side():
    provider = delta_provider(100)
    for p in (2, 3, 5, 7):
        fac = factorize_local(provider, p)
        a_p = complex(coefficient(provider, p))
        b = complex(fac.chi_pk)
        for m in range(13):
            lhs = symmetric_power_sum(fac, m)
            rhs = binomial_side(a_p, b, m)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-6 * scale


def test_symmetric_sum_matches_coefficients_of_prime_powers():
    # s_m = a(p^m) for Delta: the recursion and the root expansion agree
    provider = delta_provider(2200)
    for p, top in ((2, 11), (3, 6), (5, 4), (7, 3)):
        fac = factorize_local(provider, p)
        for m in range(top + 1):
            exact = coefficient(provider, p**m)
            approx = symmetric_power_sum(fac, m)
            assert abs(approx - exact) <= 1e-8 * max(abs(exact), 1.0)


def test_recursion_residual_moderate_table():
    rng = random.Random(4001)
    provider = delta_provider(5000)
    for _ in range(10):
        p = rng.choice((2, 3, 5, 7))
        top = 1
        while p ** (top + 2) <= 5000:
            top += 1
        m = rng.randint(1, top)
        assert verify_recursion(provider, p, m) == 0.0


def test_expansion_prefix_stability():
    # lengthening the truncation must never change earlier coefficients
    short = delta_expansion(60)
    long = delta_expansion(200)
    assert long[:60] == short


def test_delta_provider_builds_its_table_on_the_first_read(monkeypatch):
    asked = []

    def counted(N):
        asked.append(N)
        return _reference_tau(N)

    monkeypatch.setattr(modular, "delta_expansion", counted)
    provider = delta_provider(50)
    assert provider.max_n == 50
    assert provider == delta_provider(50) != delta_provider(51)  # compared by length, unbuilt
    with pytest.raises(IndexError):
        coefficient(provider, 51)  # the range check reads no table
    assert asked == []
    assert [coefficient(provider, n) for n in range(1, 11)] == list(TAU_FIRST_TEN)
    assert asked == [50]  # built once, then kept by the provider


def test_delta_provider_past_the_cap_is_refused_on_the_first_read():
    provider = delta_provider(DELTA_TERMS_CAP + 1)
    assert provider.max_n == DELTA_TERMS_CAP + 1
    with pytest.raises(TableCapError):
        coefficient(provider, 2)


def test_table_providers_compare_their_coefficients():
    assert table_provider(_A_11A, weight=2, level=11) == table_provider(list(_A_11A), weight=2, level=11)
    assert table_provider(_A_11A, weight=2, level=11) != table_provider(_A_11A[:-1] + (3,), weight=2, level=11)


def test_symmetric_sums_past_the_float_range_are_float_range_errors():
    fac = factorize_local(delta_provider(8), 2)
    with pytest.raises(FloatRangeError, match=r"symmetric power sum of order 100000 at p = 2 exceeds the largest float"):
        symmetric_power_sum(fac, 10**5)  # |a1|^m = 2^(5.5 m) passes 2^1024 near m = 186
    with pytest.raises(FloatRangeError, match=r"binomial sum of order 200 exceeds the largest float"):
        binomial_side(fac.a_p, fac.chi_pk, 200)  # chi_pk^100 = 2^1100 overflows


def test_symmetric_sums_past_the_order_cap_are_refused_at_once():
    fac = factorize_local(delta_provider(8), 2)
    message = f"order m = {TRUNCATION_CAP + 1} exceeds the cap {TRUNCATION_CAP}"
    with pytest.raises(SeriesCapError, match=message):
        symmetric_power_sum(fac, TRUNCATION_CAP + 1)
    with pytest.raises(SeriesCapError, match=message):
        binomial_side(fac.a_p, fac.chi_pk, TRUNCATION_CAP + 1)
    # unimodular roots +-i stay in range up to the cap: the sums cycle 1, 0, -1, 0
    unit = factorize_local(table_provider((1, 0), weight=1, level=1), 2)
    assert symmetric_power_sum(unit, TRUNCATION_CAP) == 1
