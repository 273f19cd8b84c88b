"""Cusp-form coefficients: the discriminant q-expansion and local factorization.

delta_expansion computes tau(1..N) exactly: the Euler product
prod (1 - q^n) is expanded by subtract-and-shift, raised to the 24th power
through the chain 1 -> 2 -> 3 -> 6 -> 12 -> 24, and every dense truncated
polynomial product is carried out as one big-integer multiplication by
packing coefficients into fixed-width limbs (Kronecker substitution).  All
of it is integer arithmetic; nothing is rounded.

A CoefficientProvider wraps either that built-in table or a caller-supplied
one together with its weight, level, and nebentypus.  factorize_local splits
x^2 - a(p) x + chi(p) p^(k-1) into the root pair (a1, a2) that drives the
modular operator twists and local L-factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .characters import DirichletCharacter, enumerate_characters, evaluate
from .errors import TableCapError

DELTA_WEIGHT = 12
DEFAULT_DELTA_TERMS = 5000
# delta_expansion refuses longer tables with TableCapError instead of running
# for many minutes: the packed multiply grows like N^1.6, and a build at the
# cap took 96 s and 100 MB (Python 3.11.7, one core of an x86-64 host)
DELTA_TERMS_CAP = 200_000

BUILTIN_DELTA = "builtin_delta"
EXPLICIT_TABLE = "explicit_table"


def _pack(coeffs: list[int], limb_bytes: int) -> int:
    buf = bytearray(limb_bytes * len(coeffs))
    for i, c in enumerate(coeffs):
        buf[i * limb_bytes : i * limb_bytes + limb_bytes] = c.to_bytes(limb_bytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(packed: int, limb_bytes: int, count: int) -> list[int]:
    # the product carries limbs past the truncation degree; mask them off
    packed &= (1 << (8 * limb_bytes * count)) - 1
    buf = packed.to_bytes(limb_bytes * count, "little")
    out = []
    for i in range(count):
        out.append(int.from_bytes(buf[i * limb_bytes : i * limb_bytes + limb_bytes], "little"))
    return out


def _polymul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer polynomials, truncated to n coefficients.

    Signed inputs are split into nonnegative and negative parts so each
    packed integer is nonnegative; the limb width is sized so convolution
    sums cannot carry between limbs.
    """
    n = min(n, len(a) + len(b) - 1)
    amax = max((abs(c) for c in a), default=0)
    bmax = max((abs(c) for c in b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * n
    bits = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 2
    limb_bytes = (bits + 7) // 8

    a_pos = _pack([c if c > 0 else 0 for c in a], limb_bytes)
    a_neg = _pack([-c if c < 0 else 0 for c in a], limb_bytes)
    if b is a:  # squaring: reuse the packed halves and the cross product
        cross = a_pos * a_neg
        plus = a_pos * a_pos + a_neg * a_neg
        minus = 2 * cross
    else:
        b_pos = _pack([c if c > 0 else 0 for c in b], limb_bytes)
        b_neg = _pack([-c if c < 0 else 0 for c in b], limb_bytes)
        plus = a_pos * b_pos + a_neg * b_neg
        minus = a_pos * b_neg + a_neg * b_pos
    pos = _unpack(plus, limb_bytes, n)
    neg = _unpack(minus, limb_bytes, n)
    return [x - y for x, y in zip(pos, neg)]


def delta_expansion(N: int) -> list[int]:
    """Exact tau(1..N): the coefficients of q prod_{n>=1} (1 - q^n)^24.

    N is capped at DELTA_TERMS_CAP; past it TableCapError is raised at once.
    """
    if N < 1:
        raise ValueError("need at least one coefficient")
    if N > DELTA_TERMS_CAP:
        raise TableCapError(
            f"tau table of {N} coefficients exceeds the cap of {DELTA_TERMS_CAP}"
        )
    # prod (1 - q^n) is sparse: exponents k(3k -+ 1)/2 with sign (-1)^k
    eta = [0] * N
    eta[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < N:
        sign = -1 if k % 2 else 1
        for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if exponent < N:
                eta[exponent] = sign
        k += 1

    power = {1: eta}
    for exp, (lo, hi) in ((2, (1, 1)), (3, (1, 2)), (6, (3, 3)), (12, (6, 6)), (24, (12, 12))):
        power[exp] = _polymul_trunc(power[lo], power[hi], N)
    return power[24]


def _trivial_character() -> DirichletCharacter:
    return enumerate_characters(1)[0]


@dataclass(frozen=True)
class CoefficientProvider:
    """A normalized Fourier coefficient table with its form's invariants."""

    weight: int
    level: int
    character: DirichletCharacter
    source: str
    values: tuple = field(repr=False)

    @property
    def max_n(self) -> int:
        return len(self.values)


def delta_provider(max_n: int = DEFAULT_DELTA_TERMS) -> CoefficientProvider:
    """The discriminant form: weight 12, level 1, trivial nebentypus."""
    return CoefficientProvider(
        DELTA_WEIGHT, 1, _trivial_character(), BUILTIN_DELTA, tuple(delta_expansion(max_n))
    )


def table_provider(
    values,
    weight: int,
    level: int,
    character: DirichletCharacter | None = None,
) -> CoefficientProvider:
    """Wrap a caller-supplied 1-indexed coefficient sequence."""
    values = tuple(values)
    if not values or values[0] != 1:
        raise ValueError("coefficient tables are normalized with a(1) = 1")
    if character is None:
        character = _trivial_character()
    return CoefficientProvider(weight, level, character, EXPLICIT_TABLE, values)


def coefficient(provider: CoefficientProvider, n: int):
    """a(n) from the table; exact integers stay integers."""
    if not 1 <= n <= provider.max_n:
        raise IndexError(
            f"coefficient a({n}) outside the stored range 1..{provider.max_n}"
        )
    return provider.values[n - 1]


def quadratic_constant(provider: CoefficientProvider, p: int):
    """chi(p) p^(k-1), kept exact when the nebentypus value is 0 or 1."""
    if provider.character.modulus == 1:
        return p ** (provider.weight - 1)
    chi_p = evaluate(provider.character, p)
    if chi_p == 0:
        return 0
    return chi_p * p ** (provider.weight - 1)


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
    """Split the local Hecke quadratic; root order is deterministic.

    The root with nonnegative imaginary part comes first; a real pair is
    ordered by descending real part.
    """
    a_p = complex(coefficient(provider, p))
    chi_pk = complex(quadratic_constant(provider, p))
    square_root = cmath.sqrt(a_p * a_p - 4.0 * chi_pk)
    roots = sorted(
        ((a_p + square_root) / 2.0, (a_p - square_root) / 2.0),
        key=lambda r: (0 if r.imag >= 0 else 1, -r.real),
    )
    return LocalFactorization(p, a_p, chi_pk, roots[0], roots[1])


def symmetric_power_sum(fac: LocalFactorization, m: int) -> complex:
    """sum_{i=0..m} a1^(m-i) a2^i by the two-term recurrence."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    previous, current = complex(0.0), complex(1.0)
    for _ in range(m):
        previous, current = current, fac.a_p * current - fac.chi_pk * previous
    return current


def binomial_side(a_p: complex, chi_pk: complex, m: int) -> complex:
    """sum_l (-1)^l C(m-l, l) a_p^(m-2l) chi_pk^l with exact binomials."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    total = complex(0.0)
    for el in range(m // 2 + 1):
        total += (
            (-1) ** el
            * math.comb(m - el, el)
            * complex(a_p) ** (m - 2 * el)
            * complex(chi_pk) ** el
        )
    return total
