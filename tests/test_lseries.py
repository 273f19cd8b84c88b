"""Local traces vs closed Euler factors, and the two global assemblies."""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from padic_lseries import lseries
from padic_lseries.quadrature import TRUNCATION_CAP
from padic_lseries import (
    CoefficientProvider,
    ConvergenceError,
    DegenerateTwistError,
    OperatorSpec,
    PoleError,
    SERIES_LENGTH_CAP,
    SeriesCapError,
    character_angle,
    character_twist,
    coefficient,
    delta_provider,
    dirichlet_series,
    eigenvalue,
    enumerate_characters,
    euler_product,
    evaluate,
    factorize_local,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
    symmetric_power_sum,
)

PI = math.pi
ZETA = enumerate_characters(1)[0]  # zeta is the principal character mod 1


def test_prime_sieve():
    primes = lseries._sieve(100).tolist()
    assert len(primes) == 25
    assert primes[0] == 2 and primes[-1] == 97
    assert len(lseries._sieve(100000).tolist()) == 9592
    assert len(lseries._sieve(10**6).tolist()) == 78498
    assert len(lseries._sieve(10**7).tolist()) == 664579  # at the cap
    with pytest.raises(SeriesCapError):
        lseries._sieve(10**7 + 1)


def test_zeta_local_trace_matches_closed():
    for p in (2, 3, 5, 7):
        for s in (1.0, 2.0, 0.5 + 3j):
            trace = local_trace(ZETA, p, s, 64)
            closed = local_factor_closed(ZETA, p, s)
            assert abs(closed - 1 / (1 - p ** (-s))) < 1e-12
            assert abs(trace.value - closed) <= trace.remainder_bound + 1e-12


def test_dirichlet_local_trace_grid():
    for p in (2, 3, 5, 7):
        for k in range(1, 9):
            if k % p == 0:
                continue
            for chi in enumerate_characters(k):
                for s in (1.0, 2.0, 0.5 + 3j):
                    trace = local_trace(chi, p, s, 64)
                    closed = local_factor_closed(chi, p, s)
                    assert abs(trace.value - closed) <= trace.remainder_bound + 1e-12


def _per_term_eigenvalues(chi, p, s, M):
    """The trace's terms as the per-term loop computed them: one eigenvalue call each."""
    spec = OperatorSpec(character_twist(chi, p), -complex(s))
    return [eigenvalue(spec, m) for m in range(M + 1)]


def _per_term_trace(terms):
    total = complex(0.0)
    for term in terms:
        total += term
    return total


def test_the_trace_chain_is_the_per_term_eigenvalue_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    primes = [q for q in range(2, 401) if all(q % r for r in range(2, math.isqrt(q) + 1))]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 30),
        index=st.integers(0, 10**6),
        p=st.sampled_from(primes),
        sigma=st.floats(0.0, 8.0, exclude_min=True),
        t=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e5, 1e5)),
        # small M too, so that the order d of chi(p) often passes M + 1
        M=st.one_of(st.integers(1, 8), st.integers(1, 200)),
    )
    @hypothesis.example(k=29, index=1, p=2, sigma=0.5, t=14.1, M=3)  # chi(2) has order 28
    @hypothesis.example(k=1, index=0, p=3, sigma=2.0, t=0.0, M=5)  # T = 1
    def check(k, index, p, sigma, t, M):
        hypothesis.assume(k % p)
        characters = enumerate_characters(k)
        chi = characters[index % len(characters)]
        s = complex(sigma, t)
        if p**-sigma >= 1.0:  # p^(-sigma) rounds to 1, and the trace would diverge
            with pytest.raises(ConvergenceError):
                local_trace(chi, p, s, M)
            return
        terms = _per_term_eigenvalues(chi, p, s, M)
        chain = lseries._eigenvalues(character_twist(chi, p), p, s, M)
        assert list(map(repr, chain)) == list(map(repr, terms))
        assert repr(local_trace(chi, p, s, M).value) == repr(_per_term_trace(terms))

    check()


def test_the_trace_chain_at_a_long_truncation():
    chi, s, M = enumerate_characters(7)[1], 0.5 + 14.1j, 10**5
    terms = _per_term_eigenvalues(chi, 3, s, M)
    assert list(map(repr, lseries._eigenvalues(character_twist(chi, 3), 3, s, M))) == list(map(repr, terms))
    assert repr(local_trace(chi, 3, s, M).value) == repr(_per_term_trace(terms))


def test_degenerate_twist_rejected_with_explanation():
    chi = enumerate_characters(4)[1]
    with pytest.raises(DegenerateTwistError) as excinfo:
        local_trace(chi, 2, 2.0, 64)
    assert "exactly 1" in str(excinfo.value)
    # the closed factor at p | k is exactly 1 and still available
    assert local_factor_closed(chi, 2, 2.0) == 1


def test_modular_local_trace_delta():
    provider = delta_provider(130)
    for p in (2, 3, 5):
        for s in (7.0, 8.0):
            trace = local_trace(provider, p, s, 64)
            closed = local_factor_closed(provider, p, s)
            assert abs(trace.value - closed) <= trace.remainder_bound + 1e-8


def test_modular_known_value_at_two():
    provider = delta_provider(8)
    # 1/(1 - tau(2) 2^-8 + 2^11 2^-16) = 1/(1 + 24/256 + 2^-5) = 8/9
    assert abs(local_factor_closed(provider, 2, 8.0) - Fraction(8, 9)) < 1e-12
    assert abs(local_trace(provider, 2, 8.0, 64).value - 8 / 9) < 1e-10


def test_modular_trace_requires_convergent_s():
    provider = delta_provider(8)
    with pytest.raises(ConvergenceError):
        local_trace(provider, 2, 5.0, 64)  # |a_i| 2^-5 = 2^0.5 >= 1


def test_zeta_trace_diverges_at_zero():
    with pytest.raises(ConvergenceError):
        local_trace(ZETA, 3, 0.0, 64)


def test_divergent_trace_past_the_float_range_is_a_convergence_error():
    # p^(-Re s) = 97^800 passes the largest float before any check
    with pytest.raises(ConvergenceError) as caught:
        local_trace(enumerate_characters(1)[0], 97, -800)
    assert str(caught.value) == "trace at p = 97 needs Re(s) > 0 to converge; got s = (-800+0j)"


def test_pole_detection_in_closed_factor():
    with pytest.raises(PoleError):
        local_factor_closed(ZETA, 2, 0.0)


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
        plain = local_trace(provider, p, 8.0, 48)
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
        closed = local_factor_closed(provider, p, s)
        want = complex(coefficient(provider, p**shift)) * p ** (-s * shift) * closed
        assert abs(result.value - want) <= result.remainder_bound + 1e-9


def test_hecke_shift_preconditions():
    provider = delta_provider(8)
    with pytest.raises(ValueError):
        hecke_conjugated_trace(provider, 2, 8.0, -1, M=16)
    with pytest.raises(ValueError):
        hecke_conjugated_trace(provider, 2, 8.0, 20, M=16)  # M < shift


def test_traces_past_the_truncation_cap_are_refused_at_once():
    # the cost is linear in M: 10^12 would hang, so it is refused before any loop
    provider = delta_provider(8)
    chi = enumerate_characters(4)[1]
    for M in (TRUNCATION_CAP + 1, 10**12):
        for twist, s in ((ZETA, 2.0), (chi, 2.0), (provider, 8.0)):
            with pytest.raises(SeriesCapError, match=f"truncation {M} exceeds the cap"):
                local_trace(twist, 3, s, M)
        with pytest.raises(SeriesCapError, match=f"truncation {M} exceeds the cap"):
            hecke_conjugated_trace(provider, 2, 8.0, 1, M)
    assert hecke_conjugated_trace(provider, 2, 8.0, 0, TRUNCATION_CAP).remainder_bound == 0.0


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


@pytest.mark.parametrize("prime_bound", [0, -5])
def test_euler_product_refuses_a_prime_bound_below_one(prime_bound):
    # P = 0 divided by zero in the tail term P^(1 - sigma), and P = -5
    # returned a negative remainder bound
    with pytest.raises(ValueError, match=f"needs a prime bound P >= 1, got {prime_bound}"):
        euler_product(ZETA, 2.0, prime_bound)


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
    bound64 = local_trace(provider, 2, 8.0, 64).remainder_bound
    assert bound64 < local_trace(provider, 2, 8.0, 32).remainder_bound


def test_local_entry_points_validate_prime_and_truncation():
    provider = delta_provider(8)
    for twist, s in ((ZETA, 2.0), (enumerate_characters(4)[1], 2.0), (provider, 8.0)):
        with pytest.raises(ValueError, match="must be prime"):
            local_trace(twist, 4, s, 64)
        with pytest.raises(ValueError, match="must be prime"):
            local_factor_closed(twist, 4, s)
        with pytest.raises(ValueError, match="truncation must be positive"):
            local_trace(twist, 3, s, 0)


def test_modular_paths_refuse_a_composite_prime():
    provider = delta_provider(8)
    with pytest.raises(ValueError, match="must be prime"):
        factorize_local(provider, 4)
    with pytest.raises(ValueError, match="must be prime"):
        hecke_conjugated_trace(provider, 4, 8.0, 1)


def _reference_closed_factor(twist, p: int, s: complex) -> complex:
    """The closed factor written out with the float operations in their order."""
    scale = cmath.exp(-complex(s) * math.log(p))
    if not isinstance(twist, CoefficientProvider):
        return 1.0 / (1.0 - evaluate(twist, p) * scale)
    fac = factorize_local(twist, p)
    return 1.0 / (1.0 - fac.a_p * scale + fac.chi_pk * scale * scale)


def test_euler_product_is_the_product_of_closed_factors():
    # the Euler product must equal, bit for bit, the left-to-right product of
    # the closed factors that local_factor_closed gives one prime at a time
    cases = []
    for chi in (enumerate_characters(1)[0], enumerate_characters(5)[1], enumerate_characters(4)[1]):
        for s in (2.0, 2 + 3j):
            cases.append((chi, s, 3000))
    # the float chain through chi = 0 factors, zeta's float chain, and a
    # real nonprincipal character, whose -1 = exp(i pi) keeps a complex chain
    cases += [(enumerate_characters(12)[0], 3.0, 3000), (ZETA, 4.0, 3000), (enumerate_characters(400)[1], 1.5, 3000)]
    provider = delta_provider(600)
    for s in (8.0, 8 + 5j):
        cases.append((provider, s, 600))
    for twist, s, bound in cases:
        want = reference = complex(1.0)
        for p in lseries._sieve(bound).tolist():
            want *= local_factor_closed(twist, p, s)
            reference *= _reference_closed_factor(twist, p, s)
        result = euler_product(twist, s, bound)
        assert repr(result.value) == repr(want) == repr(reference), (twist, s)
        assert result.terms_used == len(lseries._sieve(bound).tolist())


def _per_prime_product(chi, s: complex, bound: int) -> complex:
    """The Euler loop the map chain replaced: one closed factor per prime, multiplied in turn."""
    s = complex(s)
    table, k = [evaluate(chi, r) for r in range(chi.modulus)], chi.modulus
    value = complex(1.0)
    for p in _trial_division_primes(bound):
        value *= 1.0 / (1.0 - table[p % k] * cmath.exp(-s * math.log(p)))
    return value


def test_euler_product_is_the_per_prime_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Re s >= 1.01: nearer 1 the remainder bound's expm1 leaves the float
    # range at small P and raises before the value is returned
    real = st.floats(1.01, 40.0)
    complex_s = st.builds(complex, st.floats(1.01, 40.0), st.floats(-200.0, 200.0))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 60),
        index=st.one_of(st.just(0), st.integers(0, 10**6)),
        s=st.one_of(real, complex_s),
        bound=st.integers(1, 4000),
    )
    def check(k, index, s, bound):
        characters = enumerate_characters(k)
        chi = characters[index % len(characters)]
        assert repr(euler_product(chi, s, bound).value) == repr(_per_prime_product(chi, s, bound))

    check()


def _fraction_route_alternating(chi) -> bool:
    """_is_alternating on exact Fraction angles, as it was written before integer numerators."""
    angles = [character_angle(chi, n) for n in range(1, chi.modulus + 1)]
    angles = [theta for theta in angles if theta is not None] * 2
    if any(theta not in (0, Fraction(1, 2)) for theta in angles):
        return False
    return any(angles) and all(a != b for a, b in zip(angles, angles[1:]))


def test_character_table_and_alternation_match_the_fraction_route():
    alternating = 0
    for k in (*range(1, 121), 336, 400):
        for chi in enumerate_characters(k):
            table = lseries._character_table(chi)
            assert repr(table) == repr([evaluate(chi, r) for r in range(k)]), (k, chi.index)
            assert lseries._is_alternating(chi) is _fraction_route_alternating(chi), (k, chi.index)
            alternating += lseries._is_alternating(chi)
    assert alternating > 0  # the comparison saw both answers


def test_zeta_closed_factor_is_the_plain_geometric_sum():
    for p in lseries._sieve(200).tolist():
        for s in (0.5, 2.0, 2 + 3j, 0.5 - 14.1j):
            scale = cmath.exp(-complex(s) * math.log(p))
            assert local_factor_closed(ZETA, p, s) == 1.0 / (1.0 - scale)


def _trial_division_primes(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_sieve_equals_trial_division():
    reference = _trial_division_primes(3000)
    assert len(lseries._sieve(10**5).tolist()) == 9592
    # descending after a larger bound, then ascending: no bound depends on the ones before
    for bound in (*range(3000, -3, -1), *range(-2, 3001)):
        assert lseries._sieve(bound).tolist() == reference[: bisect.bisect_right(reference, bound)], bound


def test_sieve_holds_four_byte_items():
    primes = lseries._sieve(100)
    assert primes.typecode == "I" and primes.itemsize == 4
    assert primes.tolist() == _trial_division_primes(100)


def test_a_bound_past_the_cap_is_refused_before_any_sieve():
    tracemalloc.start()
    try:
        with pytest.raises(SeriesCapError, match="exceeds the cap"):
            lseries._sieve(10**7 + 1)
        with pytest.raises(SeriesCapError, match="exceeds the cap"):
            euler_product(ZETA, 2.0, 10**7 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # the byte array of a sieve to 10^7 alone is 5e6 bytes


# peak traced memory of one Euler product at P = 10^6 in a fresh process:
# the byte-array sieve (5e5 bytes) and the array of the 78,498 primes
# (4 bytes each) measure 0.83e6; the same chain over a list of those
# primes as int objects peaks at 3.1e6
_PEAK_OF_ONE_PRODUCT = """
import tracemalloc
from padic_lseries import enumerate_characters, euler_product
tracemalloc.start()
euler_product(enumerate_characters(1)[0], 2 + 3j, 10**6)
print(tracemalloc.get_traced_memory()[1])
"""


def test_euler_product_never_lists_its_primes():
    src = os.path.dirname(os.path.dirname(lseries.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_ONE_PRODUCT], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    # the per-prime loop over a list of the primes peaked at 3.6e6 bytes
    assert int(done.stdout) <= 1.2e6


def test_euler_product_values_are_pinned():
    # the values of the byte-array sieve over every index, before the odd-only one
    assert euler_product(ZETA, 2.0, 3000).value == 1.6448731005410548 + 0j
    chi = enumerate_characters(5)[1]
    assert euler_product(chi, 2 + 3j, 3000).value == 1.2714824062773362 - 0.03919575005786609j
    provider = delta_provider(600)
    assert euler_product(provider, 8 + 5j, 600).value == 1.0992061566815856 + 0.0012523967983401863j


# The series is summed per residue class with math.fsum, so its value is
# within a few units of rounding u of the exact partial sum, measured
# against the sum of the terms' magnitudes.
_U = 2.0**-53


def _exact_terms(mpmath, s: complex, N: int) -> list:
    """n^(-s) for n = 0..N at the working precision (entry 0 unused)."""
    return [None] + [mpmath.power(n, -mpmath.mpc(s)) for n in range(1, N + 1)]


def _assert_within_rounding(mpmath, chi, s: complex, N: int, powers: list) -> None:
    exact, magnitude = mpmath.mpc(0), 0.0
    for n in range(1, N + 1):
        angle = character_angle(chi, n)
        if angle is not None:
            exact += mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator) * powers[n]
            magnitude += abs(complex(powers[n]))
    error = abs(mpmath.mpc(dirichlet_series(chi, s, N).value) - exact)
    assert error <= 4 * _U * magnitude, (chi.modulus, chi.index, s, N)


@pytest.mark.parametrize("k", (1, 3, 4, 8, 12, 47, 100))
def test_series_is_within_rounding_of_the_exact_partial_sum(k):
    mpmath = pytest.importorskip("mpmath")
    characters = enumerate_characters(k)
    lengths = sorted({1, 2, max(k - 1, 1), k, k + 1, 1000})  # N < k leaves classes empty
    with mpmath.workdps(50):
        for s in (1.5, 2, 6, 2 + 3j, 3 - 2j):
            powers = _exact_terms(mpmath, s, 1000)
            for chi in (characters[0], characters[len(characters) // 2], characters[-1]):
                for N in lengths:
                    _assert_within_rounding(mpmath, chi, s, N, powers)


def test_alternating_series_is_within_rounding_of_the_exact_partial_sum():
    mpmath = pytest.importorskip("mpmath")
    chi = enumerate_characters(4)[1]
    with mpmath.workdps(50):
        for s in (0.5, 1):
            powers = _exact_terms(mpmath, s, 1000)
            for N in (1, 2, 3, 4, 5, 1000):
                _assert_within_rounding(mpmath, chi, s, N, powers)


def test_complex_series_across_chunks_is_within_rounding():
    # more terms than one chunk of the complex compensated sum
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        N = 3 * lseries.FSUM_CHUNK + 5
        _assert_within_rounding(mpmath, ZETA, 2 + 3j, N, _exact_terms(mpmath, 2 + 3j, N))


def test_modular_series_is_within_rounding_of_the_exact_partial_sum():
    mpmath = pytest.importorskip("mpmath")
    provider = delta_provider(1000)
    with mpmath.workdps(50):
        for s in (8, 8 + 5j):
            powers = _exact_terms(mpmath, s, 1000)
            for N in (1, 2, 1000):
                exact = mpmath.fsum(provider.values[n - 1] * powers[n] for n in range(1, N + 1))
                magnitude = sum(abs(provider.values[n - 1] * complex(powers[n])) for n in range(1, N + 1))
                error = abs(mpmath.mpc(dirichlet_series(provider, s, N).value) - exact)
                assert error <= 4 * _U * magnitude, (s, N)


@pytest.mark.parametrize(
    ("address", "s", "N"),
    [
        ("8:0", 6, 10911),
        ("4:0", 6, 13743),
        ("24:0", 6, 17315),
        ("96:0", 6, 56302),
        ("96:0", 6, 77727),
        ("400:0", 4, 501829),
    ],
)
def test_series_meets_the_certified_rule_where_sequential_rounding_missed(address, s, N):
    # dirichlet-global benchmark requests whose sequentially summed value
    # missed |value - L| <= remainder_bound + 4 ulps |L| by 2e-15 to 1.1e-13
    mpmath = pytest.importorskip("mpmath")
    k, index = map(int, address.split(":"))
    chi = enumerate_characters(k)[index]
    result = dirichlet_series(chi, s, N)
    with mpmath.workdps(50):
        values = []
        for r in range(k):
            angle = character_angle(chi, r)
            values.append(0 if angle is None else mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator))
        exact = mpmath.dirichlet(s, values)
        error = float(abs(mpmath.mpc(result.value) - exact))
    assert error <= result.remainder_bound + 4 * 2.0**-52 * float(abs(exact))


# Euler-Maclaurin class sums: the certified rule |value - exact partial sum|
# <= remainder_bound - tail, against 50-digit class sums.  A class sum over
# n = r, r + k, ..., r + (J - 1) k is k^(-s) (zeta(s, r/k) - zeta(s, r/k + J)),
# and (psi(r/k + J) - psi(r/k)) / k at s = 1.


@functools.cache
def _hurwitz(s: complex, a: Fraction):
    """zeta(s, a), or -psi(a) at s = 1, at 50 digits: the class sums' common part."""
    import mpmath

    with mpmath.workdps(50):
        a = mpmath.mpf(a.numerator) / a.denominator
        return -mpmath.digamma(a) if s == 1 else mpmath.zeta(mpmath.mpc(s), a)


def _exact_partial_sum(mpmath, chi, s: complex, N: int):
    k = chi.modulus
    total = mpmath.mpc(0)
    for r in range(k):
        angle = character_angle(chi, r)
        first = r or k
        if angle is None or first > N:
            continue
        J = (N - first) // k + 1
        scale = mpmath.mpf(1) / k if s == 1 else mpmath.power(k, -mpmath.mpc(s))
        class_sum = scale * (_hurwitz(s, Fraction(first, k)) - _hurwitz(s, Fraction(first, k) + J))
        total += mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator) * class_sum
    return total


def _certified_margin(mpmath, chi, s: complex, N: int) -> float:
    """remainder_bound - tail - |value - exact partial sum|: negative when the rule fails."""
    result = dirichlet_series(chi, s, N)
    alternating = lseries._is_alternating(chi) and complex(s).imag == 0 and complex(s).real > 0
    tail = lseries._truncation_tail(chi, complex(s), N, alternating)
    with mpmath.workdps(50):
        error = float(abs(mpmath.mpc(result.value) - _exact_partial_sum(mpmath, chi, s, N)))
    assert result.terms_used == N
    return result.remainder_bound - tail - error


def _seam_lengths(s: complex, k: int) -> tuple[int, ...]:
    """N with every class's Euler-Maclaurin tail empty, one term and two terms long."""
    start = math.ceil(lseries._head_bound(complex(s), k))
    return (start - 1, start - 1 + k, start - 1 + 2 * k)


# (k, character indices, s values, N past the seams): every k and s, not
# their full product, so the 50-digit class sums stay within seconds
_CERTIFIED_GRID = (
    (1, (0,), (1.5, 2, 6, 2 + 3j, 3 - 2j), (10**4, 10**5)),
    (4, (0, 1), (1.5, 2, 6, 2 + 3j, 3 - 2j), (10**6,)),
    (100, (17, 39), (1.5, 6, 2 + 3j), (10**6,)),
    (400, (1,), (2, 3 - 2j), (5 * 10**5,)),
)


@pytest.mark.parametrize(("k", "indices", "exponents", "lengths"), _CERTIFIED_GRID)
def test_class_sums_meet_the_certified_rule(k, indices, exponents, lengths):
    mpmath = pytest.importorskip("mpmath")
    characters = enumerate_characters(k)
    for s in exponents:
        for index in indices:
            for N in (*_seam_lengths(s, k), *lengths):
                assert _certified_margin(mpmath, characters[index], s, N) >= 0, (k, index, s, N)


def test_alternating_class_sums_meet_the_certified_rule():
    mpmath = pytest.importorskip("mpmath")
    chi = enumerate_characters(4)[1]
    # s below 1/2 reaches _power_integral's rounding term for 1 - sigma
    for s in (0.1, 0.25, 0.5, 0.75, 1, 1.5):
        for N in (*_seam_lengths(s, 4), 10**4, 10**6, 10**12):
            assert _certified_margin(mpmath, chi, s, N) >= 0, (s, N)


def test_a_flipped_bernoulli_sign_breaks_the_certified_rule(monkeypatch):
    # the rule has to be able to fail: with B_2 negated the class sums miss
    # their exact values by far more than the bound's rounding radius
    mpmath = pytest.importorskip("mpmath")
    chi = enumerate_characters(4)[1]
    assert _certified_margin(mpmath, chi, 1.5, 10**6) >= 0
    monkeypatch.setattr(lseries, "_EM_WEIGHTS", (-lseries._EM_WEIGHTS[0], *lseries._EM_WEIGHTS[1:]))
    assert _certified_margin(mpmath, chi, 1.5, 10**6) < -1e-8


def test_bernoulli_weights_are_the_exact_numbers():
    # B_2, B_4, ..., B_16, whose signs alternate
    exact = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
             Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)]
    assert lseries._bernoulli_numbers(16)[2::2] == exact
    assert lseries._bernoulli_numbers(16)[3::2] == [0] * 7
    assert lseries._EM_WEIGHTS == tuple(float(b / math.factorial(2 * i)) for i, b in enumerate(exact, 1))


def test_series_length_past_the_cap_is_refused_at_once():
    assert SERIES_LENGTH_CAP == 2**53
    chi = enumerate_characters(4)[1]
    for twist, s in ((chi, 1.0), (ZETA, 2.0), (delta_provider(8), 8.0)):
        with pytest.raises(SeriesCapError, match="exceeds the cap"):
            dirichlet_series(twist, s, SERIES_LENGTH_CAP + 1)
    assert dirichlet_series(chi, 1.0, SERIES_LENGTH_CAP).terms_used == SERIES_LENGTH_CAP


def test_a_trillion_term_series_returns_at_once_within_its_bound():
    mpmath = pytest.importorskip("mpmath")
    chi = enumerate_characters(4)[1]
    start = time.perf_counter()
    result = dirichlet_series(chi, 1.0, 10**12)
    assert time.perf_counter() - start < 0.5
    assert result.terms_used == 10**12
    with mpmath.workdps(50):
        assert abs(mpmath.mpc(result.value) - mpmath.pi / 4) <= result.remainder_bound
