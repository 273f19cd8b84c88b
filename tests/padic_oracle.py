"""The exact rational route to fractional parts and the additive character.

Tests-only reference implementations: the engine reads phases from integer
residues (padic._fractional_residue, residue_phase, phase_table), and the
tests compare those with == against the Fraction-valued formulas here.
"""

from __future__ import annotations

from fractions import Fraction

from padic_lseries.padic import PadicNumber, _fractional_residue, _int_valuation, residue_phase


def rational_fractional_part(q: Fraction, p: int) -> Fraction:
    """The p-adic fractional part of an exact rational, in [0, 1).

    Only the p-part of the denominator matters: with q = a / (m p^t) and
    gcd(m, p) = 1, the result is (a * m^(-1) mod p^t) / p^t.
    """
    q = Fraction(q)
    t = _int_valuation(q.denominator, p)
    pt = p**t
    return Fraction(*_fractional_residue(p, q.numerator * pow(q.denominator // pt, -1, pt), -t))


def fractional_part(x: PadicNumber) -> Fraction:
    """Sum of the negative-power digit terms of x, reduced mod 1."""
    return Fraction(*_fractional_residue(x.prime, x.unit, x.valuation))


def additive_character(x: PadicNumber) -> complex:
    """exp(2 pi i {x}_p); identically 1 on Z_p.

    Bit-for-bit unit_phase(fractional_part(x)), with no Fraction built.
    """
    return residue_phase(*_fractional_residue(x.prime, x.unit, x.valuation))
