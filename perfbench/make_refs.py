"""Regenerate perfbench/refs.json, the stored references the benchmark checks against.

    python3 perfbench/make_refs.py

Needs mpmath; the benchmark itself only reads the JSON.  Nothing here
imports the package under test: the characters are rebuilt from the
documented enumeration convention (generators per prime power, smallest
primitive root for odd q, {3, 2^e - 1} for 2^e, CRT-lifted, ascending prime
powers, exponent vectors in lexicographic order), the tau values come from
a naive power-series product, and L(Delta, s) from its functional equation.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

DIGITS = 30
TAU_TERMS = 300
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def tau_table(n_max: int) -> list[int]:
    """tau(1..n_max) from q prod (1 - q^n)^24, by schoolbook products."""
    eta = [1] + [0] * (n_max - 1)
    for n in range(1, n_max):
        for i in range(n_max - 1, n - 1, -1):
            eta[i] -= eta[i - n]
    power = [1] + [0] * (n_max - 1)
    for _ in range(24):
        power = [sum(power[j] * eta[i - j] for j in range(i + 1)) for i in range(n_max)]
    return power


def _factor(k: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= k:
        e = 0
        while k % d == 0:
            k //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if k > 1:
        out.append((k, 1))
    return out


def _order(g: int, n: int) -> int:
    order, x = 1, g % n
    while x != 1:
        x = x * g % n
        order += 1
    return order


def character_angles(k: int, index: int) -> dict[int, mpmath.mpf]:
    """{unit residue r: theta} with chi(r) = exp(2 pi i theta), per the convention."""
    if k <= 2:
        return {1 % k: mpmath.mpf(0)}
    local = []
    for q, e in _factor(k):
        qe = q**e
        cofactor = k // qe
        lift = lambda g, qe=qe, c=cofactor: (1 + c * pow(c, -1, qe) * (g - 1)) % k  # noqa: E731
        if q == 2:
            if e == 2:
                local.append((qe, lift(3), 2))
            elif e >= 3:
                local.append((qe, lift(3), 2 ** (e - 2)))
                local.append((qe, lift(qe - 1), 2))
        else:
            target = (q - 1) * q ** (e - 1)
            g = next(g for g in range(2, qe) if g % q and _order(g, qe) == target)
            local.append((qe, lift(g), target))
    local.sort(key=lambda t: t[0])
    gens = [g for _, g, _ in local]
    orders = [d for _, _, d in local]
    exponents, rest = [], index
    for d in reversed(orders):
        exponents.append(rest % d)
        rest //= d
    exponents.reverse()
    angles = {}
    for logs in itertools.product(*(range(d) for d in orders)):
        r = 1
        for g, a in zip(gens, logs):
            r = r * pow(g, a, k) % k
        angles[r] = sum(mpmath.mpf(a * x) / d for a, x, d in zip(logs, exponents, orders)) % 1
    assert len(angles) == workloads.euler_phi(k)
    return angles


def parse_s(text: str) -> mpmath.mpc:
    return mpmath.mpc(complex(text.replace("i", "j")))


def dirichlet_values(k: int, indices, s_text: str) -> dict[int, mpmath.mpc]:
    """L(chi, s) = k^(-s) sum_a chi(a) zeta(s, a/k) for each index."""
    s = parse_s(s_text)
    tables = {i: character_angles(k, i) for i in indices}
    hurwitz = {r: mpmath.zeta(s, mpmath.mpf(r) / k) for r in tables[indices[0]]}
    out = {}
    for i, angles in tables.items():
        total = mpmath.mpc(0)
        for r, theta in angles.items():
            total += mpmath.expjpi(2 * theta) * hurwitz[r]
        out[i] = total * mpmath.power(k, -s)
    return out


def delta_l_value(s: mpmath.mpc, tau: list[int]) -> mpmath.mpc:
    """L(Delta, s) from Lambda(s) = Lambda(12 - s) with incomplete gammas."""
    two_pi = 2 * mpmath.pi
    total = mpmath.mpc(0)
    for n in range(1, 60):
        x = two_pi * n
        total += tau[n - 1] * (
            x ** (-s) * mpmath.gammainc(s, x) + x ** (-(12 - s)) * mpmath.gammainc(12 - s, x)
        )
    return total * two_pi**s / mpmath.gamma(s)


def _pair(z) -> list[str]:
    z = mpmath.mpc(z)
    return [mpmath.nstr(z.real, DIGITS), mpmath.nstr(z.imag, DIGITS)]


def main() -> None:
    mpmath.mp.dps = DIGITS + 10
    tau = tau_table(TAU_TERMS)
    lvalues = {}
    for s in workloads.DIRICHLET_S:
        lvalues[f"zeta|{s}"] = _pair(mpmath.zeta(parse_s(s)))
        for klass in workloads.CHARACTER_CLASSES.values():
            for k in klass:
                indices = workloads.catalogue_indices(k)
                for i, value in dirichlet_values(k, indices, s).items():
                    lvalues[f"dirichlet|{k}:{i}|{s}"] = _pair(value)
        print(f"s = {s}: {len(lvalues)} values", flush=True)
    lvalues["dirichlet|4:1|1"] = _pair(mpmath.pi / 4)
    for s in workloads.MODULAR_L_S:
        lvalues[f"modular|{s}"] = _pair(delta_l_value(parse_s(s), tau))
    refs = {
        "digits": DIGITS,
        "tau": [str(t) for t in tau],
        "lvalues": lvalues,
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
