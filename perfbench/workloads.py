"""Seeded request lists for the three benchmark workloads.

Each workload is a fixed template of slots.  A slot fixes everything that
decides a request's cost and whether its certified claim can miss: the
subcommand, the size stratum, the argument s and the character class.  The
seed draws the rest: the exact size inside its stratum, the prime inside its
band, the character, the kernel order and the order of the requests.  So two
seeds give different argv lists of nearly the same cost and failure mix,
and the same seed gives the same list on every commit, because nothing here
imports the package under test.

Only ``random.Random.random`` is used, so the lists do not depend on how a
Python version implements ``randrange`` or ``shuffle``.
"""

from __future__ import annotations

import math
import random

MODULAR_TABLES = "modular-tables"
DIRICHLET_GLOBAL = "dirichlet-global"
LOCAL_GRID = "local-grid"

WHY = {
    MODULAR_TABLES: (
        "the tau table (modular big-int multiply) does nearly all the work; "
        "repeated and prefix sizes are what a table memo would reuse"
    ),
    DIRICHLET_GLOBAL: (
        "global L-values: the sieve, per-prime validation and series loops (lseries) "
        "and the per-request character enumeration (characters)"
    ),
    LOCAL_GRID: (
        "local engine: coset quadrature and p-adic circles set p90, "
        "kernel shells and p-adic encoding set p50"
    ),
}

# Character moduli drawn by dirichlet-global, grouped so that every class
# has one enumeration cost: phi(k) <= 12, phi(k) in 32..48, phi(k) = 96.
# k = 400 (phi 160) is the single heaviest modulus the workload asks for.
CHARACTER_CLASSES = {
    "A": (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 24, 28),
    "B": (41, 43, 47, 51, 64, 65, 68, 80, 96, 100, 120, 150),
    "C": (312, 336, 360, 390),
    "D": (400,),
}

DIRICHLET_S = ("1.5", "2", "3", "4", "6", "2+3i")
MODULAR_L_S = ("7", "8", "12", "8+5i")
GAMMA_S = ("0.5", "2", "0.5+14.1i")
KERNEL_ALPHA = ("0.5", "1", "1.7")
LOCAL_S = ("0.5", "1", "2", "0.5+14.1i")


def primes_up_to(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, flag in enumerate(sieve) if flag]


def euler_phi(k: int) -> int:
    phi, n, d = k, k, 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            phi -= phi // d
        d += 1
    if n > 1:
        phi -= phi // n
    return phi


def catalogue_indices(k: int) -> tuple[int, ...]:
    """Character indices mod k that carry stored L-values (see refs.json)."""
    phi = euler_phi(k)
    return tuple(sorted({0, 1 % phi, phi // 2, phi - 1}))


class _Draw:
    """Draws from random.Random.random() only."""

    def __init__(self, seed: int, salt: str):
        self._rng = random.Random(f"{salt}:{seed}")

    def uniform(self) -> float:
        return self._rng.random()

    def index(self, n: int) -> int:
        return min(int(self._rng.random() * n), n - 1)

    def pick(self, seq):
        return seq[self.index(len(seq))]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.index(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _stratum(draw: _Draw, lo: float, hi: float, i: int, n: int) -> int:
    """A size near the middle of the i-th of n log strata of [lo, hi].

    The strata split x in [0, 1) evenly and map it to lo (hi/lo)^x.  The
    draw moves the size by at most 5% of its stratum.
    """
    x = (i + 0.5 + 0.1 * (draw.uniform() - 0.5)) / n
    return int(round(lo * (hi / lo) ** x))


def _coprime_modulus(draw: _Draw, p: int, moduli) -> int:
    return draw.pick([k for k in moduli if math.gcd(k, p) == 1])


def _character(draw: _Draw, k: int) -> int:
    return draw.index(euler_phi(k))


# The median and the 90th percentile of a pass are order statistics; each
# template puts a block of equal-cost requests where they fall, so that
# they read the cost of one kind of request instead of jumping between
# neighbours of different cost.


def _modular_tables(draw: _Draw) -> list[list[str]]:
    requests = []
    # 8 copies of one table near N = 3000 hold the 90th percentile; a memo
    # of the table would serve 7 of them
    n = _stratum(draw, 2800, 3200, 0, 1)
    requests += [["tau", "--max", str(n)]] * 8
    # 4 tables on log strata of [4e3, 2e4], each also asked for as the
    # table of an L-series (the smaller tables are prefixes of the larger)
    for i in range(4):
        n = _stratum(draw, 4000, 20000, i, 4)
        requests.append(["tau", "--max", str(n)])
        requests.append(
            ["lseries", "--kind", "modular", "--method", "euler", "--prime-bound", str(n), "--s", MODULAR_L_S[i]]
        )
    # every prime below 100 once per small subcommand; s, alpha, shift and
    # root follow the prime's position, since they decide whether the
    # claim can miss
    for j, p in enumerate(primes_up_to(100)):
        requests.append(["factorize", "--p", str(p)])
        s = MODULAR_L_S[j % len(MODULAR_L_S)]
        requests.append(["local-factor", "--kind", "modular", "--p", str(p), "--s", s])
        shifts = [shift for shift in (1, 2, 3) if p**shift <= 128]
        s = MODULAR_L_S[(j + 1) % len(MODULAR_L_S)]
        requests.append(["hecke-trace", "--p", str(p), "--s", s, "--shift", str(shifts[j % len(shifts)])])
        kind = ("modular_a1", "modular_a2")[j % 2]
        alpha = KERNEL_ALPHA[j % len(KERNEL_ALPHA)]
        requests.append(["eigencheck", "--kind", kind, "--p", str(p), "--alpha", alpha])
    return requests


def _dirichlet_address(draw: _Draw, klass: str, slot: int | None) -> str:
    """A catalogue character of the class: drawn, or fixed by the slot."""
    moduli = CHARACTER_CLASSES[klass]
    if slot is None:
        k = draw.pick(moduli)
        return f"{k}:{draw.pick(catalogue_indices(k))}"
    k = moduli[slot % len(moduli)]
    indices = catalogue_indices(k)
    return f"{k}:{indices[slot % len(indices)]}"


def _lseries(draw: _Draw, slot: int, klass: str | None, s: str, method: str, size: int) -> list[str]:
    """One global L-value request; klass None asks for zeta."""
    argv = ["lseries", "--kind", "zeta"]
    if klass is not None:
        # at s >= 3 the bound is near rounding and whether it misses
        # depends on the character, so those slots fix theirs
        fixed = slot if s in _ROUNDING_S else None
        argv = ["lseries", "--kind", "dirichlet", "--character", _dirichlet_address(draw, klass, fixed)]
    flag = "--prime-bound" if method == "euler" else "--series-length"
    return argv + ["--s", s, "--method", method, flag, str(size)]


_ROUNDING_S = ("3", "4", "6")
_PASSING_S = ("1.5", "2")


def _dirichlet_global(draw: _Draw) -> list[list[str]]:
    requests = []
    # 36 cheap requests: N or P just above 1e4, characters with phi <= 12
    # or zeta; plus the README example, chi_4 at s = 1
    for i in range(36):
        s = DIRICHLET_S[i % len(DIRICHLET_S)]
        klass = None if i % 4 == 3 else "A"
        if i % 2:
            requests.append(_lseries(draw, i, klass, s, "euler", _stratum(draw, 1e4, 1.5e4, i, 36)))
        else:
            requests.append(_lseries(draw, i, klass, s, "series", _stratum(draw, 1e4, 2e4, i, 36)))
    for i in range(4):
        n = _stratum(draw, 1e4, 2e4, i, 4)
        requests.append(
            ["lseries", "--kind", "dirichlet", "--character", "4:1", "--s", "1", "--method", "series",
             "--series-length", str(n)]
        )
    # the median: 20 series of one length mod 100 (phi 40), whose cost is
    # the character enumeration plus the series loop
    n = _stratum(draw, 2.8e4, 3.2e4, 0, 1)
    for i in range(20):
        k = 100
        argv = ["lseries", "--kind", "dirichlet", "--character", f"{k}:{draw.pick(catalogue_indices(k))}"]
        requests.append(argv + ["--s", _PASSING_S[i % 2], "--method", "series", "--series-length", str(n)])
    # 26 mid-size requests: P on [2e4, 4e4], N on [5e4, 1e5], phi 32..48
    for i in range(26):
        s = DIRICHLET_S[i % len(DIRICHLET_S)]
        klass = None if i % 4 == 3 else "B"
        if i % 2:
            requests.append(_lseries(draw, 100 + i, klass, s, "euler", _stratum(draw, 2e4, 4e4, i, 26)))
        else:
            requests.append(_lseries(draw, 100 + i, klass, s, "series", _stratum(draw, 5e4, 1e5, i, 26)))
    # the 90th percentile: 8 copies of one zeta Euler product at P near
    # 8e4, whose cost is the sieve and the per-prime product, with no
    # character to enumerate
    p = _stratum(draw, 7.5e4, 8.5e4, 0, 1)
    requests += [_lseries(draw, 200, None, "2", "euler", p)] * 8
    # the 6 longest: Euler products up to P near 8e5, series up to N near
    # 1e6, and the modulus 400 (phi 160)
    for i, (klass, s, method, lo, hi) in enumerate((
        (None, "2+3i", "euler", 7.5e5, 8.5e5),
        ("B", "2", "euler", 2.8e5, 3.2e5),
        ("D", "1.5", "euler", 1.4e5, 1.6e5),
        (None, "2+3i", "series", 9e5, 1e6),
        ("D", "4", "series", 4.5e5, 5.5e5),
        ("C", "6", "series", 2.8e5, 3.2e5),
    )):
        requests.append(_lseries(draw, 300 + i, klass, s, method, _stratum(draw, lo, hi, 0, 1)))
    return requests


def _local_grid(draw: _Draw) -> list[list[str]]:
    requests = []
    # every prime up to 47 once and 29 seven more times: the 90th
    # percentile falls on the p = 29 block, above every kernel check.  For
    # p >= 7 every twist and s misses by rounding, so the seed draws them;
    # for p <= 5 the outcome depends on them, so they are fixed
    for j, p in enumerate(primes_up_to(47) + [29] * 7):
        if p <= 5:
            k, chi, s = 1, 0, GAMMA_S[j % len(GAMMA_S)]
        else:
            k = _coprime_modulus(draw, p, range(1, 13))
            chi, s = _character(draw, k), draw.pick(GAMMA_S)
        requests.append(["gamma", "--p", str(p), "--k", str(k), "--chi", str(chi), "--s", s])
    # the median: 16 plain kernel checks at p = 17 and 19
    for i in range(16):
        p = (17, 19)[i % 2]
        requests.append(["eigencheck", "--p", str(p), "--alpha", KERNEL_ALPHA[i % 3], "--kind", "plain"])
    # 29 kernel checks, the middle prime of each band of the primes 23..307,
    # the bands crowded toward small p (x^2); p, alpha, kind and twist are
    # all fixed, since whether the claim misses depends on each of them
    kernel_primes = [p for p in primes_up_to(307) if p >= 23]
    n_kernel = 29
    for i in range(n_kernel):
        lo = int(len(kernel_primes) * (i / n_kernel) ** 2)
        hi = max(lo + 1, int(len(kernel_primes) * ((i + 1) / n_kernel) ** 2))
        p = kernel_primes[(lo + hi - 1) // 2]
        argv = ["eigencheck", "--p", str(p), "--alpha", KERNEL_ALPHA[i % len(KERNEL_ALPHA)]]
        if i % 2:
            moduli = [k for k in range(3, 25) if math.gcd(k, p) == 1]
            k = moduli[i % len(moduli)]
            argv += ["--kind", "character_twisted", "--character", f"{k}:{i % euler_phi(k)}"]
        else:
            argv += ["--kind", "plain"]
        requests.append(argv)
    local_primes = primes_up_to(307)
    for i in range(35):
        p = draw.pick(local_primes)
        s = LOCAL_S[i % len(LOCAL_S)]
        if i % 2:
            k = _coprime_modulus(draw, p, range(3, 25))
            requests.append(
                ["local-factor", "--kind", "dirichlet", "--p", str(p), "--s", s,
                 "--character", f"{k}:{_character(draw, k)}"]
            )
        else:
            requests.append(["local-factor", "--kind", "zeta", "--p", str(p), "--s", s])
    requests += [["selftest"]] * 3
    return requests


_BUILDERS = {
    MODULAR_TABLES: _modular_tables,
    DIRICHLET_GLOBAL: _dirichlet_global,
    LOCAL_GRID: _local_grid,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The request list (CLI argv lists) of one workload for one seed."""
    draw = _Draw(seed, workload)
    requests = _BUILDERS[workload](draw)
    return draw.shuffle([list(argv) for argv in requests])
