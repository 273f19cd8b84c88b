"""The ten primary acceptance checks, one test per criterion.

Each test prints a single `criterion NN (<label>): PASS|FAIL` line so a
`pytest -v -s` run reads as a checklist.  Grids and tolerances are stated
inline; nothing here is weakened relative to the module tests, only widened
to the full grids.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

from padic_lseries import (
    CHARACTER_TWISTED,
    MODULAR_A1,
    MODULAR_A2,
    PLAIN,
    GammaSpec,
    OperatorSpec,
    apply_kernel,
    coefficient,
    conjugate_character,
    delta_expansion,
    delta_provider,
    dirichlet_series,
    eigenvalue,
    enumerate_characters,
    euler_product,
    factorize_local,
    gamma_by_quadrature,
    gamma_closed_form,
    hecke_conjugated_trace,
    ket,
    local_factor_closed,
    local_trace,
    padic_from_fraction,
    symmetric_power_sum,
    binomial_side,
    wavelet_eval,
)

GAMMA_PRIMES = (2, 3, 5, 7)
GAMMA_MODULI = (1, 3, 4, 5, 8)
GAMMA_S = (0.3, 0.9, 2.0, 0.5 + 14.1j)


def _verdict(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} ({label}): {status}")
    assert not failures, f"{len(failures)} failures; first: {failures[0]}"


def _gamma_grid():
    for p in GAMMA_PRIMES:
        for k in GAMMA_MODULI:
            if k % p == 0:
                continue
            for chi in enumerate_characters(k):
                for s in GAMMA_S:
                    yield p, k, chi, s


def test_criterion_01_gamma_oracle():
    failures = []
    for p, k, chi, s in _gamma_grid():
        spec = GammaSpec(CHARACTER_TWISTED, p, s, character=chi)
        closed = gamma_closed_form(spec)
        result = gamma_by_quadrature(spec, 64)
        gap = abs(result.value - closed)
        if gap > result.remainder_bound + 1e-10:
            failures.append(f"p={p} k={k} chi={chi.index} s={s}: gap={gap:.3e}")
    _verdict(1, "gamma quadrature vs closed form", failures)


def test_criterion_02_trivial_character_reduction():
    failures = []
    for p in GAMMA_PRIMES:
        for k in GAMMA_MODULI:
            if k % p == 0:
                continue
            trivial = enumerate_characters(k)[0]
            for s in GAMMA_S:
                twisted = gamma_closed_form(GammaSpec(CHARACTER_TWISTED, p, s, character=trivial))
                standard = (1 - p ** (s - 1)) / (1 - p ** (-s))
                if abs(twisted - standard) > 1e-12:
                    failures.append(f"p={p} k={k} s={s}: diff={abs(twisted - standard):.3e}")
    _verdict(2, "trivial-character reduction", failures)


def test_criterion_03_reflection():
    failures = []
    for p, k, chi, s in _gamma_grid():
        left = gamma_closed_form(GammaSpec(CHARACTER_TWISTED, p, s, character=chi))
        right = gamma_closed_form(
            GammaSpec(CHARACTER_TWISTED, p, 1 - s, character=conjugate_character(chi))
        )
        if abs(left * right - 1) > 1e-10:
            failures.append(f"p={p} k={k} chi={chi.index} s={s}: |prod-1|={abs(left*right-1):.3e}")
    _verdict(3, "reflection identity", failures)


def _operator_specs(p: int, alpha: float):
    # one representative character per prime, modulus coprime to p
    chi = enumerate_characters(3 if p != 3 else 4)[1]
    fac = factorize_local(delta_provider(8), p)
    yield OperatorSpec(PLAIN, p, alpha), 40
    yield OperatorSpec(CHARACTER_TWISTED, p, alpha, character=chi), 40
    yield OperatorSpec(MODULAR_A1, p, alpha, coefficient=fac.a1), 2
    yield OperatorSpec(MODULAR_A2, p, alpha, coefficient=fac.a2), 2


def test_criterion_04_eigenrelation():
    start = time.monotonic()
    failures = []
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 1.7):
            for spec, radius in _operator_specs(p, alpha):
                for label in range(4):
                    idx = ket(p, label)
                    lam = eigenvalue(spec, label)
                    for mult in (0, 1, p, p + 1, p * p):
                        point = idx.center + mult * Fraction(p) ** (-idx.n)
                        xi = padic_from_fraction(p, point)
                        value, tail = apply_kernel(spec, idx, xi, radius)
                        gap = abs(value - lam * wavelet_eval(idx, xi))
                        if gap > tail + 1e-8:
                            failures.append(
                                f"{spec.kind} p={p} alpha={alpha} ket={label} "
                                f"mult={mult}: gap={gap:.3e} tail={tail:.3e}"
                            )
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"eigenrelation sweep took {elapsed:.1f}s"
    _verdict(4, "kernel eigenrelation, all kinds", failures)


def test_criterion_05_local_trace_identities():
    failures = []
    zeta = enumerate_characters(1)[0]
    for p in (2, 3, 5, 7):
        for s in (1.0, 2.0, 0.5 + 3j):
            trace = local_trace(zeta, p, s, 64)
            closed = local_factor_closed(zeta, p, s)
            if abs(trace.value - closed) > trace.remainder_bound + 1e-8:
                failures.append(f"zeta p={p} s={s}")
        for k in range(1, 9):
            if k % p == 0:
                continue
            for chi in enumerate_characters(k):
                for s in (1.0, 2.0, 0.5 + 3j):
                    trace = local_trace(chi, p, s, 64)
                    closed = local_factor_closed(chi, p, s)
                    if abs(trace.value - closed) > trace.remainder_bound + 1e-8:
                        failures.append(f"dirichlet p={p} k={k} chi={chi.index} s={s}")
    provider = delta_provider(8)
    for p in (2, 3, 5):
        for s in (7.0, 8.0):
            trace = local_trace(provider, p, s, 64)
            closed = local_factor_closed(provider, p, s)
            if abs(trace.value - closed) > trace.remainder_bound + 1e-8:
                failures.append(f"modular p={p} s={s}")
    _verdict(5, "local trace vs closed factor", failures)


def test_criterion_06_global_cross_checks():
    failures = []
    trivial = enumerate_characters(1)[0]
    zeta2 = euler_product(trivial, 2.0, 10**5)
    if abs(zeta2.value - math.pi**2 / 6) > 1e-5:
        failures.append(f"euler zeta(2): off by {abs(zeta2.value - math.pi**2/6):.3e}")
    chi4 = enumerate_characters(4)[1]
    leibniz = dirichlet_series(chi4, 1.0, 10**6)
    if abs(leibniz.value - math.pi / 4) > 1e-6:
        failures.append(f"series L(1,chi4): off by {abs(leibniz.value - math.pi/4):.3e}")
    _verdict(6, "global cross-checks", failures)


def test_criterion_07_tau_suite():
    start = time.monotonic()
    failures = []
    values = delta_expansion(5000)
    tau = lambda n: values[n - 1]

    for m in range(2, 71):
        for n in range(m + 1, 5000 // m + 1):
            if math.gcd(m, n) == 1 and tau(m * n) != tau(m) * tau(n):
                failures.append(f"multiplicativity fails at ({m},{n})")
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        m = 1
        while p ** (m + 1) <= 5000:
            lhs = tau(p ** (m + 1))
            rhs = tau(p) * tau(p**m) - p**11 * tau(p ** (m - 1))
            if lhs != rhs:
                failures.append(f"recursion fails at p={p} m={m}")
            m += 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97):
        if abs(tau(p)) > 2 * p**5.5:
            failures.append(f"Deligne bound fails at p={p}")
    # spot values, with tau(4) reproduced through the recursion alone
    if tau(2) != -24 or tau(3) != 252:
        failures.append("spot values tau(2), tau(3)")
    if tau(2) ** 2 - 2**11 != -1472 or tau(4) != -1472:
        failures.append("tau(4) via recursion")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds one minute")
    _verdict(7, "tau multiplicativity, recursion, Deligne", failures)


def test_criterion_08_factorization_identities():
    failures = []
    provider = delta_provider(100)
    for p in (2, 3, 5, 7):
        fac = factorize_local(provider, p)
        a_p = complex(coefficient(provider, p))
        b = complex(fac.chi_pk)
        if abs(fac.a1 + fac.a2 - a_p) > 1e-9 * abs(a_p):
            failures.append(f"sum consistency p={p}")
        if abs(fac.a1 * fac.a2 - b) > 1e-9 * abs(b):
            failures.append(f"product consistency p={p}")
        for m in range(13):
            lhs = symmetric_power_sum(fac, m)
            rhs = binomial_side(a_p, b, m)
            if abs(lhs - rhs) > 1e-6 * max(abs(lhs), abs(rhs), 1.0):
                failures.append(f"symmetric/binomial p={p} m={m}")
    _verdict(8, "root-pair factorization identities", failures)


def test_criterion_09_hecke_like_trace():
    failures = []
    provider = delta_provider(100)
    for p in (2, 3):
        closed = local_factor_closed(provider, p, 8.0)
        for shift in range(5):
            result = hecke_conjugated_trace(provider, p, 8.0, shift, M=64)
            want = complex(coefficient(provider, p**shift)) * p ** (-8.0 * shift) * closed
            if abs(result.value - want) > result.remainder_bound + 1e-9:
                failures.append(
                    f"p={p} shift={shift}: gap={abs(result.value - want):.3e}"
                )
    _verdict(9, "conjugated trace shifts the factor", failures)


def test_criterion_10_selftest_reproducibility():
    command = [sys.executable, "-m", "padic_lseries", "selftest"]
    first = subprocess.run(command, capture_output=True, timeout=300)
    second = subprocess.run(command, capture_output=True, timeout=300)
    failures = []
    if first.returncode != 0:
        failures.append(f"selftest exited {first.returncode}: {first.stderr[:200]!r}")
    if first.stdout != second.stdout:
        failures.append("reports differ between runs")
    if not first.stdout.strip():
        failures.append("empty report")
    _verdict(10, "selftest byte-identical", failures)
