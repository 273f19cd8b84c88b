"""Local traces vs closed Euler factors, and the two global assemblies."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from padic_lseries import (
    DIRICHLET_LOCAL,
    MODULAR_LOCAL,
    ZETA_LOCAL,
    ConvergenceError,
    DegenerateTwistError,
    PoleError,
    TraceRequest,
    coefficient,
    delta_provider,
    dirichlet_series,
    enumerate_characters,
    euler_product,
    evaluate,
    factorize_local,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
    primes_up_to,
    symmetric_power_sum,
)

PI = math.pi


def test_prime_sieve():
    primes = primes_up_to(100)
    assert len(primes) == 25
    assert primes[0] == 2 and primes[-1] == 97
    assert len(primes_up_to(100000)) == 9592
    with pytest.raises(ValueError):
        primes_up_to(10**7 + 1)


def test_zeta_local_trace_matches_closed():
    for p in (2, 3, 5, 7):
        for s in (1.0, 2.0, 0.5 + 3j):
            req = TraceRequest(ZETA_LOCAL, p, s, 64)
            trace = local_trace(req)
            closed = local_factor_closed(req)
            assert abs(closed - 1 / (1 - p ** (-s))) < 1e-12
            assert abs(trace.value - closed) <= trace.remainder_bound + 1e-12


def test_dirichlet_local_trace_grid():
    for p in (2, 3, 5, 7):
        for k in range(1, 9):
            if k % p == 0:
                continue
            for chi in enumerate_characters(k):
                for s in (1.0, 2.0, 0.5 + 3j):
                    req = TraceRequest(DIRICHLET_LOCAL, p, s, 64, character=chi)
                    trace = local_trace(req)
                    closed = local_factor_closed(req)
                    assert abs(trace.value - closed) <= trace.remainder_bound + 1e-12


def test_degenerate_twist_rejected_with_explanation():
    chi = enumerate_characters(4)[1]
    req = TraceRequest(DIRICHLET_LOCAL, 2, 2.0, 64, character=chi)
    with pytest.raises(DegenerateTwistError) as excinfo:
        local_trace(req)
    assert "exactly 1" in str(excinfo.value)
    # the closed factor at p | k is exactly 1 and still available
    assert local_factor_closed(req) == 1


def test_modular_local_trace_delta():
    provider = delta_provider(130)
    for p in (2, 3, 5):
        for s in (7.0, 8.0):
            req = TraceRequest(MODULAR_LOCAL, p, s, 64, provider=provider)
            trace = local_trace(req)
            closed = local_factor_closed(req)
            assert abs(trace.value - closed) <= trace.remainder_bound + 1e-8


def test_modular_known_value_at_two():
    provider = delta_provider(8)
    req = TraceRequest(MODULAR_LOCAL, 2, 8.0, 64, provider=provider)
    # 1/(1 - tau(2) 2^-8 + 2^11 2^-16) = 1/(1 + 24/256 + 2^-5) = 8/9
    assert abs(local_factor_closed(req) - Fraction(8, 9)) < 1e-12
    assert abs(local_trace(req).value - 8 / 9) < 1e-10


def test_modular_trace_requires_convergent_s():
    provider = delta_provider(8)
    req = TraceRequest(MODULAR_LOCAL, 2, 5.0, 64, provider=provider)
    with pytest.raises(ConvergenceError):
        local_trace(req)  # |a_i| 2^-5 = 2^0.5 >= 1


def test_zeta_trace_diverges_at_zero():
    with pytest.raises(ConvergenceError):
        local_trace(TraceRequest(ZETA_LOCAL, 3, 0.0, 64))


def test_pole_detection_in_closed_factor():
    with pytest.raises(PoleError):
        local_factor_closed(TraceRequest(ZETA_LOCAL, 2, 0.0, 64))


def test_factorized_equivalence_total_degree():
    # triangular lattice coefficients match the symmetric power sums
    provider = delta_provider(130)
    for p in (2, 3, 5, 7):
        fac = factorize_local(provider, p)
        s = 8.0
        for m in range(33):
            target = symmetric_power_sum(fac, m) * p ** (-s * m)
            low = hecke_conjugated_trace(provider, p, s, 0, M=m)
            high = hecke_conjugated_trace(provider, p, s, 0, M=m - 1) if m else None
            term = low.value - (high.value if high else 0)
            scale = max(abs(target), 1e-30)
            assert abs(term - target) <= 1e-8 * max(scale, 1.0)


def test_hecke_conjugated_reduces_to_local_trace():
    provider = delta_provider(8)
    for p in (2, 3):
        req = TraceRequest(MODULAR_LOCAL, p, 8.0, 48, provider=provider)
        plain = local_trace(req)
        shifted = hecke_conjugated_trace(provider, p, 8.0, 0, M=48)
        assert shifted.value == plain.value
        assert shifted.remainder_bound == plain.remainder_bound


def test_hecke_conjugated_known_value():
    provider = delta_provider(8)
    result = hecke_conjugated_trace(provider, 2, 8.0, 1, M=64)
    # tau(2) 2^-8 L_2(8, Delta) = (-24/256)(8/9) = -1/12
    assert abs(result.value - (-1 / 12)) <= result.remainder_bound + 1e-9


def test_hecke_conjugated_shift_factor():
    provider = delta_provider(90)
    for p, shift in ((2, 1), (2, 2), (3, 1), (3, 2)):
        fac = factorize_local(provider, p)
        s = 8.0
        result = hecke_conjugated_trace(provider, p, s, shift, M=64)
        req = TraceRequest(MODULAR_LOCAL, p, s, 64, provider=provider)
        closed = local_factor_closed(req)
        want = complex(coefficient(provider, p**shift)) * p ** (-s * shift) * closed
        assert abs(result.value - want) <= result.remainder_bound + 1e-9


def test_hecke_shift_preconditions():
    provider = delta_provider(8)
    with pytest.raises(ValueError):
        hecke_conjugated_trace(provider, 2, 8.0, -1, M=16)
    with pytest.raises(ValueError):
        hecke_conjugated_trace(provider, 2, 8.0, 20, M=16)  # M < shift


def test_euler_product_zeta_two():
    trivial = enumerate_characters(1)[0]
    result = euler_product(trivial, 2.0, 10000)
    assert abs(result.value - PI**2 / 6) <= result.remainder_bound
    assert abs(result.value - PI**2 / 6) < 1e-4


def test_euler_product_skips_degenerate_primes():
    chi = enumerate_characters(4)[1]
    result = euler_product(chi, 2.0, 2000)
    # L(2, chi4) = Catalan's constant
    assert abs(result.value - 0.915965594177219) <= result.remainder_bound + 1e-12


def test_dirichlet_series_alternating_at_one():
    chi = enumerate_characters(4)[1]
    result = dirichlet_series(chi, 1.0, 10**6)
    assert abs(result.value - PI / 4) <= result.remainder_bound
    assert result.remainder_bound <= 1e-6


def test_dirichlet_series_integral_bound_region():
    trivial = enumerate_characters(1)[0]
    result = dirichlet_series(trivial, 2.0, 10**4)
    assert abs(result.value - PI**2 / 6) <= result.remainder_bound
    assert result.remainder_bound <= 1e-4 + 1e-12


def test_dirichlet_series_single_term():
    for k in (1, 3, 4):
        for chi in enumerate_characters(k):
            result = dirichlet_series(chi, 2.0, 1)
            assert result.value == 1 + 0j


def test_dirichlet_series_needs_positive_domain():
    trivial = enumerate_characters(1)[0]
    with pytest.raises(ConvergenceError):
        dirichlet_series(trivial, 1.0, 1000)  # harmonic series, no certificate


def test_modular_series_and_euler_agree():
    provider = delta_provider(4000)
    series = dirichlet_series(provider, 8.0, 4000)
    euler = euler_product(provider, 8.0, 4000)
    assert abs(series.value - euler.value) <= series.remainder_bound + euler.remainder_bound


def test_modular_series_domain_guard():
    provider = delta_provider(100)
    with pytest.raises(ConvergenceError):
        dirichlet_series(provider, 7.0, 100)  # sigma_eff = 1, no certificate


def test_cross_representation_characters():
    for k in (1, 3, 4, 5, 8):
        for chi in enumerate_characters(k):
            euler = euler_product(chi, 2.0, 20000)
            series = dirichlet_series(chi, 2.0, 200000)
            assert abs(euler.value - series.value) <= (
                euler.remainder_bound + series.remainder_bound
            )


def test_monotone_refinement():
    trivial = enumerate_characters(1)[0]
    euler_bounds = [euler_product(trivial, 2.0, P).remainder_bound for P in (100, 1000, 10000)]
    assert euler_bounds[0] > euler_bounds[1] > euler_bounds[2]
    series_bounds = [dirichlet_series(trivial, 2.0, N).remainder_bound for N in (100, 1000, 10000)]
    assert series_bounds[0] > series_bounds[1] > series_bounds[2]
    provider = delta_provider(130)
    req64 = TraceRequest(MODULAR_LOCAL, 2, 8.0, 64, provider=provider)
    req32 = TraceRequest(MODULAR_LOCAL, 2, 8.0, 32, provider=provider)
    assert local_trace(req64).remainder_bound < local_trace(req32).remainder_bound


def test_trace_request_validation():
    with pytest.raises(ValueError):
        TraceRequest(ZETA_LOCAL, 4, 2.0, 64)  # not prime
    with pytest.raises(ValueError):
        TraceRequest(DIRICHLET_LOCAL, 3, 2.0, 64)  # missing character
    with pytest.raises(ValueError):
        TraceRequest(MODULAR_LOCAL, 3, 8.0, 64)  # missing provider
    with pytest.raises(ValueError):
        TraceRequest(ZETA_LOCAL, 3, 2.0, 0)  # truncation must be positive


def _reference_closed_factor(request: dict, p: int, s: complex) -> complex:
    """The closed factor written out with the float operations in their order."""
    scale = cmath.exp(-complex(s) * math.log(p))
    if request["kind"] == DIRICHLET_LOCAL:
        return 1.0 / (1.0 - evaluate(request["character"], p) * scale)
    fac = factorize_local(request["provider"], p)
    return 1.0 / (1.0 - fac.a_p * scale + fac.chi_pk * scale * scale)


def test_euler_product_is_the_product_of_closed_factors():
    # the Euler product must equal, bit for bit, the left-to-right product of
    # the closed factors that local_factor_closed gives one prime at a time
    cases = []
    for chi in (enumerate_characters(1)[0], enumerate_characters(5)[1], enumerate_characters(4)[1]):
        for s in (2.0, 2 + 3j):
            cases.append((chi, s, 3000, dict(kind=DIRICHLET_LOCAL, character=chi)))
    provider = delta_provider(600)
    for s in (8.0, 8 + 5j):
        cases.append((provider, s, 600, dict(kind=MODULAR_LOCAL, provider=provider)))
    for twist, s, bound, request in cases:
        want = reference = complex(1.0)
        for p in primes_up_to(bound):
            want *= local_factor_closed(TraceRequest(prime=p, s=s, **request))
            reference *= _reference_closed_factor(request, p, s)
        result = euler_product(twist, s, bound)
        assert result.value == want == reference
        assert result.terms_used == len(primes_up_to(bound))


def test_zeta_closed_factor_is_the_plain_geometric_sum():
    for p in primes_up_to(200):
        for s in (0.5, 2.0, 2 + 3j, 0.5 - 14.1j):
            scale = cmath.exp(-complex(s) * math.log(p))
            assert local_factor_closed(TraceRequest(ZETA_LOCAL, p, s)) == 1.0 / (1.0 - scale)
