"""Character-twisted pseudodifferential operators on the p-adic line.

The package computes local gamma factors by exact coset quadrature, applies
twisted Vladimirov kernels to wavelet states, and assembles Euler factors of
Dirichlet and modular L-functions as operator traces, each with a certified
remainder bound.
"""

from __future__ import annotations

from .characters import (
    CHARACTER_MODULUS_CAP,
    DirichletCharacter,
    Twist,
    UnitGroup,
    character_angle,
    character_at,
    character_twist,
    conjugate_character,
    enumerate_characters,
    euler_phi,
    evaluate,
    unit_group,
)
from .errors import (
    ConvergenceError,
    CosetCapError,
    DegenerateTwistError,
    FloatRangeError,
    KernelCapError,
    ModulusCapError,
    PadicLseriesError,
    PoleError,
    PrimeMismatchError,
    SeriesCapError,
    TableCapError,
)
from .lseries import (
    SERIES_LENGTH_CAP,
    dirichlet_series,
    euler_product,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
)
from .modular import (
    DELTA_TERMS_CAP,
    CoefficientProvider,
    LocalFactorization,
    binomial_side,
    coefficient,
    delta_expansion,
    delta_provider,
    factorize_local,
    symmetric_power_sum,
    table_provider,
    verify_recursion,
)
from .padic import (
    PadicNumber,
    padic_from_fraction,
    unit_phase,
)
from .quadrature import (
    CertifiedResult,
    GammaSpec,
    gamma_by_quadrature,
    gamma_closed_form,
    gamma_regions,
)
from .selftest import run_selftest
from .wavelets import (
    OperatorSpec,
    WaveletIndex,
    apply_kernel,
    eigenvalue,
    inner_product,
    ket,
    wavelet_eval,
    wavelet_index,
)

__version__ = "0.1.0"

__all__ = [
    "CHARACTER_MODULUS_CAP",
    "CertifiedResult",
    "CoefficientProvider",
    "ConvergenceError",
    "CosetCapError",
    "DELTA_TERMS_CAP",
    "DegenerateTwistError",
    "DirichletCharacter",
    "FloatRangeError",
    "GammaSpec",
    "KernelCapError",
    "LocalFactorization",
    "ModulusCapError",
    "OperatorSpec",
    "PadicLseriesError",
    "PadicNumber",
    "PoleError",
    "PrimeMismatchError",
    "SERIES_LENGTH_CAP",
    "SeriesCapError",
    "TableCapError",
    "Twist",
    "UnitGroup",
    "WaveletIndex",
    "apply_kernel",
    "binomial_side",
    "character_angle",
    "character_at",
    "character_twist",
    "coefficient",
    "conjugate_character",
    "delta_expansion",
    "delta_provider",
    "dirichlet_series",
    "eigenvalue",
    "enumerate_characters",
    "euler_phi",
    "euler_product",
    "evaluate",
    "factorize_local",
    "gamma_by_quadrature",
    "gamma_closed_form",
    "gamma_regions",
    "hecke_conjugated_trace",
    "inner_product",
    "ket",
    "local_factor_closed",
    "local_trace",
    "padic_from_fraction",
    "run_selftest",
    "symmetric_power_sum",
    "table_provider",
    "unit_group",
    "unit_phase",
    "verify_recursion",
    "wavelet_eval",
    "wavelet_index",
]
