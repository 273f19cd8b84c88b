"""A deterministic, fast cross-check suite runnable from the CLI.

Each check recomputes one identity the package is built around and reports
a residual; nothing here depends on wall time, paths, or randomness without
a fixed seed, so two runs must serialize to identical bytes.
"""

from __future__ import annotations

import math

from .characters import Twist, character_twist, conjugate_character, enumerate_characters, evaluate
from .lseries import (
    dirichlet_series,
    euler_product,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
)
from .modular import (
    binomial_side,
    coefficient,
    delta_provider,
    factorize_local,
    symmetric_power_sum,
    verify_recursion,
)
from .padic import padic_from_fraction, phase_table
from .quadrature import GammaSpec, gamma_by_quadrature, gamma_closed_form
from .wavelets import (
    OperatorSpec,
    apply_kernel,
    eigenvalue,
    inner_product,
    ket,
    wavelet_eval,
)

_TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def _check_gamma_quadrature() -> float:
    chi = enumerate_characters(4)[1]
    spec = GammaSpec(character_twist(chi, 3), complex(0.5))
    quad = gamma_by_quadrature(spec, 64)
    return abs(quad.value - gamma_closed_form(spec)) - quad.remainder_bound


def _check_gamma_reflection() -> float:
    chi = enumerate_characters(5)[1]
    spec = GammaSpec(character_twist(chi, 2), complex(0.7))
    mirror = GammaSpec(character_twist(conjugate_character(chi), 2), complex(0.3))
    return abs(gamma_closed_form(spec) * gamma_closed_form(mirror) - 1.0)


def _check_gamma_trivial() -> float:
    value = gamma_closed_form(GammaSpec(Twist(2), complex(2.0)))
    return abs(value - (-4.0 / 3.0))


def _check_circle_character_sum() -> float:
    # the additive character on the cosets d/p + Z_p of |xi| = p, p = 5
    return abs(sum(phase_table(0, 1, 5, 5), complex(0.0)) - (-1.0))


def _check_character_orthogonality() -> float:
    chars = enumerate_characters(8)
    worst = 0.0
    for chi in chars:
        for other in chars:
            total = sum(
                evaluate(chi, n) * evaluate(other, n).conjugate() for n in range(8)
            )
            target = 4.0 if chi.index == other.index else 0.0
            worst = max(worst, abs(total - target))
    return worst


def _check_tau_spots() -> float:
    provider = delta_provider(16)
    for n, expected in enumerate(_TAU_FIRST_TEN, start=1):
        if coefficient(provider, n) != expected:
            return 1.0
    return float(verify_recursion(provider, 2, 1))


def _check_factorization() -> float:
    fac = factorize_local(delta_provider(8), 2)
    worst = abs(fac.a1 + fac.a2 - fac.a_p) / abs(fac.a_p)
    worst = max(worst, abs(fac.a1 * fac.a2 - fac.chi_pk) / abs(fac.chi_pk))
    return max(worst, abs(abs(fac.a1) - 2.0**5.5) / 2.0**5.5)


def _check_power_sum_identity() -> float:
    fac = factorize_local(delta_provider(8), 2)
    worst = 0.0
    for m in range(13):
        direct = symmetric_power_sum(fac, m)
        binomial = binomial_side(fac.a_p, fac.chi_pk, m)
        worst = max(worst, abs(direct - binomial) / max(abs(direct), 1.0))
    return worst


def _check_local_traces() -> float:
    cases = (
        (enumerate_characters(1)[0], 2, complex(1.0), 60),
        (enumerate_characters(4)[1], 3, complex(1.0), 60),
        (delta_provider(8), 2, complex(8.0), 64),
    )
    worst = -math.inf
    for twist, p, s, M in cases:
        result = local_trace(twist, p, s, M)
        gap = abs(result.value - local_factor_closed(twist, p, s)) - result.remainder_bound
        worst = max(worst, gap)
    return worst


def _check_hecke_trace() -> float:
    provider = delta_provider(8)
    result = hecke_conjugated_trace(provider, 2, complex(8.0), 1, 64)
    closed = local_factor_closed(provider, 2, complex(8.0))
    reference = coefficient(provider, 2) * 2.0**-8 * closed
    return abs(result.value - reference) - result.remainder_bound


def _kernel_gap(twist: Twist, label: int, R: int) -> float:
    """The kernel's distance from the eigenvalue times the ket at 0, less its tail; alpha = 1."""
    spec = OperatorSpec(twist, complex(1.0))
    idx = ket(twist.prime, label)
    point = padic_from_fraction(twist.prime, 0)
    value, tail = apply_kernel(spec, idx, point, R)
    expected = eigenvalue(spec, label) * wavelet_eval(idx, point)
    return abs(value - expected) - tail


def _check_wavelet_orthonormality() -> float:
    worst = abs(inner_product(ket(3, 0), ket(3, 0), 10) - 1.0)
    return max(worst, abs(inner_product(ket(3, 0), ket(3, 1), 10)))


def _check_euler_vs_series() -> float:
    chi = enumerate_characters(4)[1]
    product = euler_product(chi, complex(2.0), 2000)
    series = dirichlet_series(chi, complex(2.0), 20000)
    gap = abs(product.value - series.value)
    return gap - (product.remainder_bound + series.remainder_bound)


_CHECKS = (
    ("gamma_quadrature_within_tail", _check_gamma_quadrature, 1e-10),
    ("gamma_reflection_identity", _check_gamma_reflection, 1e-10),
    ("gamma_trivial_reduction", _check_gamma_trivial, 1e-12),
    ("outer_circle_character_sum", _check_circle_character_sum, 1e-12),
    ("character_orthogonality_mod_8", _check_character_orthogonality, 1e-10),
    ("tau_spot_values_and_recursion", _check_tau_spots, 0.0),
    ("hecke_root_factorization", _check_factorization, 1e-9),
    ("symmetric_vs_binomial_sums", _check_power_sum_identity, 1e-6),
    ("local_trace_vs_closed_factor", _check_local_traces, 1e-8),
    ("conjugated_trace_shifts_factor", _check_hecke_trace, 1e-9),
    ("kernel_eigenrelation_plain", lambda: _kernel_gap(Twist(2), 1, 20), 1e-8),
    ("kernel_eigenrelation_modular",
     lambda: _kernel_gap(Twist(3, root=factorize_local(delta_provider(8), 3).a1), 2, 2), 1e-8),
    ("wavelet_orthonormality", _check_wavelet_orthonormality, 1e-12),
    ("euler_product_vs_series", _check_euler_vs_series, 0.0),
)


def run_selftest() -> dict:
    """Run every check; residuals at or under tolerance pass."""
    checks = []
    failed = 0
    for name, func, tolerance in _CHECKS:
        residual = func()
        passed = residual <= tolerance
        failed += 0 if passed else 1
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tolerance": tolerance,
                "passed": passed,
            }
        )
    return {
        "schema": "padic-lseries-selftest/1",
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    }
