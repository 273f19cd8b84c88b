"""Cusp-form coefficients: the discriminant q-expansion and local factorization.

delta_expansion computes tau(1..N) exactly.  Delta = q (eta^3 / q^(1/8))^8,
and Jacobi's identity writes eta^3 / q^(1/8) as a series with about sqrt(2N)
nonzero terms below q^N, so three truncated squarings give the table.  The
first is a sparse convolution in Python integers.  The other two are each
one multiplication of decimal numbers whose fixed-width digit blocks hold
the coefficients (Kronecker substitution; Harvey, J. Symbolic Comput. 44,
2009), done by libmpdec in an exact context that raises on any rounding.
The blocks pass from one multiplication to the next as a digit string;
only the last becomes integers.  The process keeps the tables it has
built, by length, and serves a repeated length from them.

A CoefficientProvider wraps either that built-in table, built on the first
read of a coefficient so that callers check their arguments first, or a
caller-supplied one, with its weight, level, and nebentypus.  factorize_local
splits x^2 - a(p) x + chi(p) p^(k-1) into the root pair (a1, a2) that drives
the modular operator twists and local L-factors.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import DirichletCharacter, character_angle, unit_group
from .errors import FloatRangeError, SeriesCapError, TableCapError
from .padic import _require_prime, unit_phase
from .quadrature import TRUNCATION_CAP

DELTA_WEIGHT = 12
DEFAULT_DELTA_TERMS = 5000
# delta_expansion refuses longer tables with TableCapError at once.  A build
# at the cap takes 1.3-2.0 s of wall time and 85.8 MB of peak RSS in a fresh
# process, against 1.8-2.6 s and 91.8 MB when every squaring went through
# per-coefficient integers (Python 3.11.7, libmpdec 2.5.1, a 2-core x86-64
# host, alternating runs); the memo keeps tables of at most this many terms
# in all.
DELTA_TERMS_CAP = 200_000


# Exact integer arithmetic in decimal: the precision and exponent range are
# the largest libmpdec allows, and a rounding of any kind raises instead of
# passing silently.  Operations name this context, so the caller's
# decimal.getcontext() is neither read nor changed.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def _eta_sixth(N: int) -> list[int]:
    """Coefficients 0..N-1 of (eta^3 / q^(1/8))^2, by a sparse convolution.

    Jacobi's identity eta^3 / q^(1/8) = sum_k (-1)^k (2k+1) q^(k(k+1)/2)
    has about sqrt(2N) nonzero terms below q^N; the pairs of them that land
    below q^N are about 0.8 N integer products, each cross term counted
    twice.
    """
    terms = []
    k = 0
    while (t := k * (k + 1) // 2) < N:
        terms.append((t, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    square = [0] * N
    for i, (ti, ci) in enumerate(terms):
        if 2 * ti >= N:
            break
        square[2 * ti] += ci * ci
        twice = 2 * ci
        for tj, cj in terms[i + 1 :]:
            if ti + tj >= N:
                break
            square[ti + tj] += twice * cj
    return square


def _limb_width(N: int, top: int) -> int:
    """Digits w with B = 10^w > 2 N top^2: every coefficient of the square of
    an N-term polynomial with coefficients at most top in size lies strictly
    inside (-B/2, B/2)."""
    return len(str(2 * N * top * top))


def _square_blocks(blocks: str, offset: int, w: int, N: int) -> str:
    """The N low w-digit blocks of X^2 + (B/2)(1 + B + ... + B^(N-1)), B = 10^w.

    blocks is N w-digit blocks c_i + offset, most significant first, so
    X = sum c_i B^i is blocks minus N copies of offset: one libmpdec
    subtract and one multiply (a number-theoretic transform at these sizes)
    in the exact context.  Given w >= _limb_width(N, max|c_i|), each block
    of the result is coefficient i of X^2 plus B/2, with no carries between
    blocks, so it is again a block with offset B/2.
    """
    x = _EXACT.subtract(decimal.Decimal(blocks), decimal.Decimal(format(offset, f"0{w}d") * N))
    half = 5 * 10 ** (w - 1)
    shifted = _EXACT.add(_EXACT.multiply(x, x), decimal.Decimal(format(half, f"0{w}d") * N))
    width = N * w
    return format(shifted, "f")[-width:].zfill(width)


def _widen(blocks: str, w: int, wide: int) -> str:
    """The same blocks, each left-padded with zeros from w to wide digits.

    Digit j of every block is one strided slice, so the copy takes w slice
    assignments and builds no string per block.
    """
    narrow = blocks.encode("ascii")
    out = bytearray(b"0") * (len(narrow) // w * wide)
    for j in range(w):
        out[wide - w + j :: wide] = narrow[j::w]
    return out.decode("ascii")


def _tau_table(N: int) -> list[int]:
    """tau(1..N) from scratch: coefficients 0..N-1 of (eta^3 / q^(1/8))^8.

    Delta = q (eta^3 / q^(1/8))^8.  _eta_sixth squares the Jacobi series in
    Python integers; its coefficients c_i plus B/2 are written once as
    w-digit blocks, and two _square_blocks calls raise them to the 4th and
    then the 8th power.  Between the two the blocks stay one digit string:
    the largest |coefficient|, which sets the next width, comes from the
    lexicographic max and min of the equal-length blocks, and each block
    is padded with zeros to that width, keeping its offset.  Only the last
    stage's blocks become integers.
    """
    sixth = _eta_sixth(N)
    top = max(map(abs, sixth))
    w = _limb_width(N, top)
    half = 5 * 10 ** (w - 1)
    blocks = (f"%0{w}d" * N) % tuple(map(half.__add__, reversed(sixth)))
    # the last multiply sets the peak memory; nothing per coefficient outlives it
    del sixth
    blocks = _square_blocks(blocks, half, w, N)
    limbs = re.findall(f".{{{w}}}", blocks)
    top = max(int(max(limbs)) - half, half - int(min(limbs)))
    del limbs
    wide = max(w, _limb_width(N, top))
    blocks = _square_blocks(_widen(blocks, w, wide), half, wide, N)
    half = 5 * 10 ** (wide - 1)
    return [int(blocks[i - wide : i]) - half for i in range(N * wide, 0, -wide)]


# The tables built in this process, by length.  A request is cut only from
# a table of its own length (or from the one of _SHORTEST_BUILD terms, if
# shorter), so what it costs does not depend on the lengths asked for
# before it.  A build past DELTA_TERMS_CAP terms in all empties the memo.
_SHORTEST_BUILD = 128
_tau_memo: dict[int, list[int]] = {}


def delta_expansion(N: int) -> list[int]:
    """Exact tau(1..N): the coefficients of q prod_{n>=1} (1 - q^n)^24.

    N is capped at DELTA_TERMS_CAP; past it TableCapError is raised at once.
    The result is a fresh list; a length built before in the process is
    copied from the memo.
    """
    if N < 1:
        raise ValueError("need at least one coefficient")
    if N > DELTA_TERMS_CAP:
        raise TableCapError(
            f"tau table of {N} coefficients exceeds the cap of {DELTA_TERMS_CAP}"
        )
    length = max(N, _SHORTEST_BUILD)
    table = _tau_memo.get(length)
    if table is None:
        if length + sum(map(len, _tau_memo.values())) > DELTA_TERMS_CAP:
            _tau_memo.clear()
        table = _tau_memo[length] = _tau_table(length)
    return table[:N]


def _principal_character(level: int) -> DirichletCharacter:
    """enumerate_characters(level)[0], built from the unit group alone."""
    group = unit_group(level)
    return DirichletCharacter(level, 0, (0,) * len(group.generators), group)


@dataclass(frozen=True)
class CoefficientProvider:
    """A normalized Fourier coefficient table with its form's invariants.

    ``table`` is a caller's a(1..max_n), or None for tau(1..max_n), built when ``values`` is first read.
    """

    weight: int
    level: int
    character: DirichletCharacter
    max_n: int
    table: tuple | None = field(default=None, repr=False)

    @functools.cached_property
    def values(self) -> tuple:
        return tuple(delta_expansion(self.max_n)) if self.table is None else self.table


def delta_provider(max_n: int = DEFAULT_DELTA_TERMS) -> CoefficientProvider:
    """The discriminant form: weight 12, level 1, trivial nebentypus; nothing is built yet."""
    return CoefficientProvider(DELTA_WEIGHT, 1, _principal_character(1), max_n)


def table_provider(
    values,
    weight: int,
    level: int,
    character: DirichletCharacter | None = None,
) -> CoefficientProvider:
    """Wrap a caller-supplied 1-indexed coefficient sequence of a form of this level.

    The nebentypus is a character mod ``level``, by default the principal
    one, so chi(p) = 0 at every p dividing the level.
    """
    values = tuple(values)
    if not values or values[0] != 1:
        raise ValueError("coefficient tables are normalized with a(1) = 1")
    if character is None:
        character = _principal_character(level)
    elif character.modulus != level:
        raise ValueError(
            f"the nebentypus must be a character mod the level {level}, got one mod {character.modulus}"
        )
    return CoefficientProvider(weight, level, character, len(values), values)


def coefficient(provider: CoefficientProvider, n: int):
    """a(n) from the table; exact integers stay integers."""
    if not 1 <= n <= provider.max_n:
        raise IndexError(
            f"coefficient a({n}) outside the stored range 1..{provider.max_n}"
        )
    return provider.values[n - 1]


def quadratic_constant(provider: CoefficientProvider, p: int):
    """chi(p) p^(k-1); the exact integer 0 or p^(k-1) when chi(p) is 0 or 1."""
    power = p ** (provider.weight - 1)
    if provider.character.modulus == 1:  # chi is 1 everywhere
        return power
    angle = character_angle(provider.character, p)
    if angle is None:
        return 0
    return power if angle == 0 else unit_phase(angle) * _as_complex(power, f"{p}^{provider.weight - 1}")


def _as_complex(value, name: str) -> complex:
    """An exact coefficient as a complex number; FloatRangeError past the largest float."""
    try:
        return complex(value)
    except OverflowError:
        raise FloatRangeError(f"{name} exceeds the largest float {sys.float_info.max:.6g}") from None


def _hecke_coefficients(provider: CoefficientProvider, p: int) -> tuple[complex, complex]:
    """a(p) and chi(p) p^(k-1), the coefficients of the local Hecke quadratic, as complex numbers."""
    a_p = _as_complex(coefficient(provider, p), f"a({p})")
    return a_p, _as_complex(quadratic_constant(provider, p), f"chi({p}) {p}^{provider.weight - 1}")


def verify_recursion(provider: CoefficientProvider, p: int, m: int) -> float:
    """|a(p^(m+1)) - a(p) a(p^m) + chi(p) p^(k-1) a(p^(m-1))|.

    Integer tables with a 0/1 nebentypus value stay in exact arithmetic, so
    a true Hecke eigenform reports a residual of exactly 0.0.
    """
    if m < 1:
        raise ValueError("the recursion needs m >= 1")
    residual = (
        coefficient(provider, p ** (m + 1))
        - coefficient(provider, p) * coefficient(provider, p**m)
        + quadratic_constant(provider, p) * coefficient(provider, p ** (m - 1))
    )
    return float(abs(residual))


@dataclass(frozen=True)
class LocalFactorization:
    """Roots a1, a2 of x^2 - a(p) x + chi(p) p^(k-1) at one prime."""

    prime: int
    a_p: complex
    chi_pk: complex
    a1: complex
    a2: complex


def factorize_local(provider: CoefficientProvider, p: int) -> LocalFactorization:
    """Split the local Hecke quadratic at a prime p; root order is deterministic.

    The root with nonnegative imaginary part comes first; a real pair is
    ordered by descending real part.
    """
    _require_prime(p)
    a_p, chi_pk = _hecke_coefficients(provider, p)
    square_root = cmath.sqrt(a_p * a_p - 4.0 * chi_pk)
    roots = sorted(
        ((a_p + square_root) / 2.0, (a_p - square_root) / 2.0),
        key=lambda r: (0 if r.imag >= 0 else 1, -r.real),
    )
    return LocalFactorization(p, a_p, chi_pk, roots[0], roots[1])


def _check_order(m: int) -> None:
    """ValueError for a negative order m, SeriesCapError for one past TRUNCATION_CAP."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > TRUNCATION_CAP:
        raise SeriesCapError(f"order m = {m} exceeds the cap {TRUNCATION_CAP}")


def _finite(value: complex, name: str) -> complex:
    """value, or FloatRangeError naming it when it is not finite."""
    if not cmath.isfinite(value):
        raise FloatRangeError(f"{name} exceeds the largest float {sys.float_info.max:.6g}")
    return value


def symmetric_power_sum(fac: LocalFactorization, m: int) -> complex:
    """sum_{i=0..m} a1^(m-i) a2^i by the two-term recurrence, for m up to TRUNCATION_CAP."""
    _check_order(m)
    previous, current = complex(0.0), complex(1.0)
    for _ in range(m):
        previous, current = current, fac.a_p * current - fac.chi_pk * previous
    return _finite(current, f"the symmetric power sum of order {m} at p = {fac.prime}")


def binomial_side(a_p: complex, chi_pk: complex, m: int) -> complex:
    """sum_l (-1)^l C(m-l, l) a_p^(m-2l) chi_pk^l with exact binomials, for m up to TRUNCATION_CAP."""
    _check_order(m)
    total = complex(0.0)
    try:
        for el in range(m // 2 + 1):
            total += (-1) ** el * math.comb(m - el, el) * complex(a_p) ** (m - 2 * el) * complex(chi_pk) ** el
    except OverflowError:
        # a power or a binomial past the float range: from term el on, each
        # float power is scaled by its exact binomial and rounded once, so a
        # term is refused only if it is itself past the range; a power that
        # underflowed to 0 needs no binomial
        try:
            for el in range(el, m // 2 + 1):
                power = (-1) ** el * complex(a_p) ** (m - 2 * el) * complex(chi_pk) ** el
                if power:
                    c = math.comb(m - el, el)
                    total += complex(float(c * Fraction(power.real)), float(c * Fraction(power.imag)))
        except OverflowError:
            total = complex(math.inf)
    return _finite(total, f"the binomial sum of order {m}")
