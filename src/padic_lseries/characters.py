"""Dirichlet characters mod k, their enumeration, and the local twist chi(p).

The unit group (Z/kZ)* is decomposed through its prime-power parts: each odd
prime power gets its smallest primitive root, 2^e gets the classical pair
{3, 2^e - 1} (e >= 3) or {3} (e = 2), and the local generators are CRT-lifted
to mod k, ordered by ascending prime power.  A character is an exponent
vector against that fixed generator list, so the enumeration (and hence the
index of any character) is deterministic.

A character stores nothing else: its values are exact rational angles theta
with chi(m) = exp(2 pi i theta), computed on demand from the discrete-log
table of its modulus.  The group law, conjugation, and integer powers of
values happen on the angles, so no unimodularity is lost to floating point
until the final exponential.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ModulusCapError, _finite
from .padic import _int_valuation, _require_prime, residue_phase, unit_phase

# unit_group refuses larger moduli with ModulusCapError before building any
# table: the discrete-log table has phi(k) entries, and all characters mod
# 1e5 took 0.18 s to build (Python 3.11.7, one core of an x86-64 host)
CHARACTER_MODULUS_CAP = 100_000


def _factorize(k: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = _int_valuation(k, d)
            k //= d**e
            out.append((d, e))
        d += 1
    if k > 1:
        out.append((k, 1))
    return out


def euler_phi(k: int) -> int:
    phi = 1
    for q, e in _factorize(k):
        phi *= (q - 1) * q ** (e - 1)
    return phi


def _multiplicative_order(g: int, n: int) -> int:
    order, x = 1, g % n
    while x != 1:
        x = x * g % n
        order += 1
    return order


def _primitive_root(q: int, e: int) -> int:
    # smallest generator of the cyclic group (Z/q^e Z)*, q odd
    modulus = q**e
    target = (q - 1) * q ** (e - 1)
    for g in range(2, modulus):
        if g % q == 0:
            continue
        if _multiplicative_order(g, modulus) == target:
            return g
    raise ValueError(f"no primitive root mod {modulus}")  # unreachable for odd q


@dataclass(frozen=True)
class UnitGroup:
    """(Z/kZ)* presented by independent generators with known orders."""

    modulus: int
    generators: tuple[int, ...]
    generator_orders: tuple[int, ...]
    discrete_logs: dict[int, tuple[int, ...]] = field(compare=False, repr=False)


def unit_group(k: int) -> UnitGroup:
    """Generators, orders, and a full discrete-log table for (Z/kZ)*, 1 <= k <= the cap."""
    if k < 1:
        raise ValueError("modulus must be positive")
    if k > CHARACTER_MODULUS_CAP:
        raise ModulusCapError(f"character modulus {k} exceeds the cap of {CHARACTER_MODULUS_CAP}")
    if k <= 2:
        residue = 0 if k == 1 else 1
        return UnitGroup(k, (), (), {residue: ()})

    local: list[tuple[int, int, int]] = []  # (prime_power, generator mod k, order)
    for q, e in sorted(_factorize(k)):
        qe = q**e
        cofactor = k // qe
        inv = pow(cofactor, -1, qe)

        def lift(g: int) -> int:
            # CRT: congruent to g mod q^e and to 1 mod k/q^e
            return (1 + cofactor * inv * (g - 1)) % k

        if q == 2:
            if e == 2:
                local.append((qe, lift(3), 2))
            elif e >= 3:
                local.append((qe, lift(3), 2 ** (e - 2)))
                local.append((qe, lift(qe - 1), 2))
        else:
            local.append((qe, lift(_primitive_root(q, e)), (q - 1) * q ** (e - 1)))

    local.sort(key=lambda t: t[0])
    generators = tuple(g for _, g, _ in local)
    orders = tuple(d for _, _, d in local)

    # the products g_1^a_1 ... g_j^a_j in itertools.product order, each
    # residue one multiplication by g_j past the one before it
    logs: dict[int, tuple[int, ...]] = {1: ()}
    for g, d in zip(generators, orders):
        stepped = {}
        for residue, exps in logs.items():
            for a in range(d):
                stepped[residue] = (*exps, a)
                residue = residue * g % k
        logs = stepped
    if len(logs) != euler_phi(k):
        raise ValueError(f"generator set for k={k} does not span the unit group")
    return UnitGroup(k, generators, orders, logs)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod k as an exponent vector over the standard generators.

    Values are not stored: character_angle computes the exact theta_r with
    chi(r) = exp(2 pi i theta_r) from ``group.discrete_logs`` on demand.
    Index 0 in the enumeration order is always the principal character.
    """

    modulus: int
    index: int
    exponents: tuple[int, ...]
    group: UnitGroup = field(compare=False, repr=False)


def _index_of(exponents: tuple[int, ...], orders: tuple[int, ...]) -> int:
    idx = 0
    for e, d in zip(exponents, orders):
        idx = idx * d + e
    return idx


def character_at(group: UnitGroup, index: int) -> DirichletCharacter:
    """enumerate_characters(group.modulus)[index], built without the other characters.

    The exponents are the mixed-radix digits of ``index`` over the generator
    orders, the inverse of _index_of.  IndexError outside 0 <= index < phi(k).
    """
    orders = group.generator_orders
    count = math.prod(orders)
    if not 0 <= index < count:
        raise IndexError(f"character index {index} outside 0..{count - 1} for modulus {group.modulus}")
    digits = []
    rest = index
    for d in reversed(orders):
        rest, e = divmod(rest, d)
        digits.append(e)
    return DirichletCharacter(group.modulus, index, tuple(reversed(digits)), group)


def enumerate_characters(k: int) -> list[DirichletCharacter]:
    """All phi(k) characters mod k in deterministic exponent order."""
    group = unit_group(k)
    chars = []
    for idx, exps in enumerate(itertools.product(*(range(d) for d in group.generator_orders))):
        chars.append(DirichletCharacter(k, idx, exps, group))
    return chars


def _angle_weights(chi: DirichletCharacter) -> tuple[list[int], int]:
    """(w, d) with d the lcm of the generator orders d_i and w_i = e_i d / d_i.

    The angle of chi(m) is (sum of a_i w_i mod d) / d over the discrete
    logs a_i of m: the sum of a_i e_i / d_i mod 1, the e_i the exponents.
    """
    orders = chi.group.generator_orders
    d = math.lcm(*orders)
    return [e * (d // o) for e, o in zip(chi.exponents, orders)], d


def character_angle(chi: DirichletCharacter, m: int) -> Fraction | None:
    """Exact angle of chi(m), or None where chi vanishes."""
    logs = chi.group.discrete_logs.get(m % chi.modulus)
    if logs is None:
        return None
    weights, d = _angle_weights(chi)
    return Fraction(sum(map(operator.mul, logs, weights)) % d, d)


def _angle_numerators(chi: DirichletCharacter) -> tuple[list[int | None], int]:
    """(n_0, ..., n_(k-1)) and d with chi(r) = exp(2 pi i n_r / d); n_r is None off the units.

    n_r / d is character_angle(chi, r) unreduced, with no Fraction built.
    """
    weights, d = _angle_weights(chi)
    numerators: list[int | None] = [None] * chi.modulus
    for r, logs in chi.group.discrete_logs.items():
        numerators[r] = sum(map(operator.mul, logs, weights)) % d
    return numerators, d


def evaluate(chi: DirichletCharacter, m: int) -> complex:
    """chi(m); zero off the units, exp(2 pi i theta) on them."""
    theta = character_angle(chi, m)
    if theta is None:
        return complex(0.0, 0.0)
    return unit_phase(theta)


def conjugate_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The inverse in the character group: every exponent negated mod its order."""
    orders = chi.group.generator_orders
    exps = tuple((-e) % d for e, d in zip(chi.exponents, orders))
    return DirichletCharacter(chi.modulus, _index_of(exps, orders), exps, chi.group)


@dataclass(frozen=True)
class Twist:
    """The local twist T = twist(p) behind a gamma factor, an operator and a trace.

    T is held as an exact angle, T = exp(2 pi i angle), where angle 0 is the
    untwisted case and None means T = 0 (p divides a character's modulus);
    or as a complex ``root`` of a local Hecke quadratic, which takes
    precedence over the angle.  Building a Twist checks that ``prime`` is
    prime, so no GammaSpec or OperatorSpec can hold a non-prime.
    """

    prime: int
    angle: Fraction | None = Fraction(0)
    root: complex | None = None

    def __post_init__(self) -> None:
        _require_prime(self.prime)

    @property
    def value(self) -> complex:
        if self.root is not None:
            return self.root
        return complex(0.0, 0.0) if self.angle is None else unit_phase(self.angle)

    def power(self, n: int) -> complex:
        """T^n, on exact angles for unimodular twists; T^0 = 1 as an empty product;
        FloatRangeError where a root's power, or the T^(-n) it inverts for n < 0, passes the float range."""
        if self.root is not None:
            try:
                value = self.root**n
            except OverflowError:
                value = complex(math.inf)
            return _finite(value, "T^%s for the root T = %s at p = %s", n, self.root, self.prime)
        if n == 0:
            return complex(1.0, 0.0)
        if self.angle is None:
            return complex(0.0, 0.0)
        # the angle a/d to the n: the residue (n a mod d) / d, no Fraction built
        d = self.angle.denominator
        return residue_phase(n * self.angle.numerator % d, d)


def character_twist(chi: DirichletCharacter, p: int) -> Twist:
    """The twist chi(p); it vanishes when p divides the modulus."""
    return Twist(p, character_angle(chi, p))
