"""Exception types shared across the package.

Everything raised on a *domain* failure (a parameter outside a convergence
region, a pole, a degenerate twist, an enumeration or a table blowing past
its cap) derives from PadicLseriesError so callers, including the CLI, can
separate domain errors from plain usage bugs.  _finite raises
FloatRangeError for a float result that is not finite.
"""

from __future__ import annotations

import cmath
import sys


class PadicLseriesError(Exception):
    """Base class for domain errors raised by this package."""


class PrimeMismatchError(PadicLseriesError):
    """Two p-adic values from different fields were combined."""


class CosetCapError(PadicLseriesError):
    """A coset enumeration would exceed the representative cap COSET_CAP."""


class TableCapError(PadicLseriesError):
    """A coefficient table would exceed its documented length cap."""


class KernelCapError(PadicLseriesError):
    """A kernel check's truncation radius or ket label exceeds its documented cap."""


class SeriesCapError(PadicLseriesError):
    """A partial series length, an Euler product's prime bound, a trace or
    quadrature truncation, or a symmetric-sum order exceeds its documented cap."""


class ModulusCapError(PadicLseriesError):
    """A character modulus exceeds its documented cap."""


class FloatRangeError(PadicLseriesError):
    """A quantity (a power p^z, a sum, a tail bound) passes the float range."""


def _finite(value: complex, name: str, *args) -> complex:
    """value, or FloatRangeError naming it as name % args, formatted only then, when it is not finite."""
    if not cmath.isfinite(value):
        raise FloatRangeError(f"{name % args} exceeds the largest float {sys.float_info.max:.6g}")
    return value


class PoleError(PadicLseriesError):
    """A closed-form denominator is within epsilon of zero."""


class ConvergenceError(PadicLseriesError):
    """A series parameter lies outside its convergence region."""


class DegenerateTwistError(PadicLseriesError):
    """A trace was requested for a twist that degenerates to the identity."""
