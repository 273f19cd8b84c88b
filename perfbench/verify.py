"""Checks one request's report against references the package did not produce.

Each check returns a Verdict with two flags:

* ``claim_ok``: the certified claim holds, that is |value - reference| is at
  most the reported bound plus the reference's own rounding, SLACK_ULPS ulps
  of its magnitude.  A miss makes the request *failed* and counts in
  ``error_rate``; the engine's bounds cover truncation only, so some misses
  are expected and are reported as measured.
* ``exact_ok``: everything that must hold exactly or to far more than
  rounding does hold: exit code 0, a well-formed report, exact tau values
  and identities, exact Hecke data, term counts, and agreement of closed
  forms with an independent recomputation to 1e-9.  A breach here means the
  program is wrong, and the benchmark run reports ``correct: false``.

References come from refs.json (see make_refs.py) and from the report's own
closed-form pairings: closed_form against quadrature or trace_value, the
reference field of hecke-trace, and eigenvalue times wavelet against the
kernel, whose residual and tail bound every eigencheck entry carries.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import random
from dataclasses import dataclass

from workloads import primes_up_to

SLACK_ULPS = 4
_ULP = 2.0**-52
CONSISTENCY = 1e-9
GROSS = 1e-6  # an L-value this far outside its bound is wrong, not rounded
DEFAULT_TRUNCATION = 64
KERNEL_ENTRIES = 20  # kets 0..3 times 5 sample points, the CLI defaults
SELFTEST_CHECKS = 14


@dataclass(frozen=True)
class Verdict:
    claim_ok: bool
    exact_ok: bool
    note: str = ""


def _verdict(claim_ok: bool, exact_ok: bool, miss: str, wrong: str = "wrong beyond rounding") -> Verdict:
    notes = ([] if claim_ok else [miss]) + ([] if exact_ok else [wrong])
    return Verdict(claim_ok, exact_ok, "; ".join(notes))


def slack(magnitude: float) -> float:
    return SLACK_ULPS * _ULP * magnitude


def options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def parse_s(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _ref_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= CONSISTENCY * max(abs(a), abs(b), 1e-300)


def _p_power(p: int, s: complex) -> complex:
    return cmath.exp(-s * math.log(p))


def _sigma11_mod_691(n: int) -> int:
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += pow(d, 11, 691)
            if d * d != n:
                total += pow(n // d, 11, 691)
    return total % 691


class Verifier:
    """Holds the stored references and small caches across one run."""

    def __init__(self, refs: dict):
        self.tau = [int(t) for t in refs["tau"]]
        self.lvalues = {key: _ref_complex(pair) for key, pair in refs["lvalues"].items()}
        self._primes: list[int] = []

    def _prime_count(self, bound: int) -> int:
        if not self._primes or self._primes[-1] < bound:
            self._primes = primes_up_to(max(bound, 1000))
        return bisect.bisect_right(self._primes, bound)

    def _tau_ref(self, n: int) -> int:
        return self.tau[n - 1]

    def _modular_closed(self, p: int, s: complex) -> complex:
        x = _p_power(p, s)
        return 1.0 / (1.0 - self._tau_ref(p) * x + p**11 * x * x)

    def check(self, argv: list[str], code: int, stdout: str) -> Verdict:
        if code != 0:
            return Verdict(False, False, f"exit {code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return Verdict(False, False, "report is not JSON")
        if report.get("command") != argv[0]:
            return Verdict(False, False, "report names another command")
        handler = getattr(self, "_" + argv[0].replace("-", "_"))
        try:
            return handler(options(argv), report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return Verdict(False, False, f"malformed report: {exc!r}")

    def _tau(self, opts, report) -> Verdict:
        n_max = int(opts["max"])
        coeffs = report["coefficients"]
        if len(coeffs) != n_max:
            return Verdict(False, False, "wrong table length")
        tau = {}

        def t(n: int) -> int:
            if n not in tau:
                tau[n] = int(coeffs[n - 1])
            return tau[n]

        for n in range(1, min(n_max, len(self.tau)) + 1):
            if t(n) != self._tau_ref(n):
                return Verdict(False, False, f"tau({n}) differs from the stored value")
        rng = random.Random(f"tau:{n_max}")
        for _ in range(40):
            n = 2 + int(rng.random() * (n_max - 1))
            if (t(n) - _sigma11_mod_691(n)) % 691:
                return Verdict(False, False, f"tau({n}) breaks the 691 congruence")
        for _ in range(40):
            m = 2 + int(rng.random() * (math.isqrt(n_max) - 1))
            n = 2 + int(rng.random() * (n_max // m - 1))
            if math.gcd(m, n) == 1 and t(m * n) != t(m) * t(n):
                return Verdict(False, False, f"tau({m}*{n}) is not multiplicative")
        primes = primes_up_to(n_max)
        for p in primes:
            if p * p > n_max:
                break
            if t(p * p) != t(p) ** 2 - p**11:
                return Verdict(False, False, f"Hecke recursion fails at {p}^2")
            if p**3 <= n_max and t(p**3) != t(p) * t(p * p) - p**11 * t(p):
                return Verdict(False, False, f"Hecke recursion fails at {p}^3")
        for _ in range(40):
            p = primes[int(rng.random() * len(primes))]
            if t(p) ** 2 > 4 * p**11:
                return Verdict(False, False, f"tau({p}) breaks the Ramanujan bound")
        return Verdict(True, True)

    def _lseries(self, opts, report) -> Verdict:
        kind, s_text = opts["kind"], opts["s"]
        if kind == "dirichlet":
            key = f"dirichlet|{opts['character']}|{s_text}"
        else:
            key = f"{kind}|{s_text}"
        ref = self.lvalues[key]
        if opts.get("method", "euler") == "euler":
            size = int(opts["prime-bound"])
            exact = report["terms_used"] == self._prime_count(size) and report["prime_bound"] == size
        else:
            size = int(opts["series-length"])
            exact = report["terms_used"] == size and report["series_length"] == size
        value = _complex(report["value"])
        if abs(value - ref) > GROSS + report["remainder_bound"]:
            exact = False
        claim = abs(value - ref) <= report["remainder_bound"] + slack(abs(ref))
        return _verdict(claim, exact, f"{key} misses by {abs(value - ref):.3g}", "wrong value or term count")

    def _gamma(self, opts, report) -> Verdict:
        closed = _complex(report["closed_form"])
        quad = _complex(report["quadrature"])
        miss = abs(quad - closed)
        claim = miss <= report["remainder_bound"] + slack(abs(closed))
        exact = report["terms_used"] in (0, DEFAULT_TRUNCATION)
        return _verdict(claim, exact, f"quadrature misses by {miss:.3g}", "wrong term count")

    def _eigencheck(self, opts, report) -> Verdict:
        p, alpha = int(opts["p"]), parse_s(opts["alpha"]).real
        weight = 5.5 if opts["kind"].startswith("modular") else 0.0
        entries = report["entries"]
        exact = len(entries) == KERNEL_ENTRIES
        worst = 0.0
        for entry in entries:
            label = entry["ket"]
            magnitude = float(p) ** ((alpha + weight) * label + (label - 1) / 2)
            excess = entry["residual"] - entry["tail_bound"] - slack(magnitude)
            worst = max(worst, excess / magnitude)
        claim = worst <= 0.0
        return _verdict(claim, exact, f"kernel residual exceeds its bound by {worst:.3g} relative", "wrong entry count")

    def _local_factor(self, opts, report) -> Verdict:
        p, s = int(opts["p"]), parse_s(opts["s"])
        closed = _complex(report["closed_form"])
        trace = _complex(report["trace_value"])
        claim = abs(trace - closed) <= report["remainder_bound"] + slack(abs(closed))
        exact = True
        if opts["kind"] == "zeta":
            exact = _close(closed, 1.0 / (1.0 - _p_power(p, s)))
        elif opts["kind"] == "modular":
            exact = _close(closed, self._modular_closed(p, s))
        return _verdict(claim, exact, f"trace misses by {abs(trace - closed):.3g}", "closed form is wrong")

    def _factorize(self, opts, report) -> Verdict:
        # a_p and chi_pk render as integers, an exact claim; chi_pk = p^11
        # passes through a float, so past 2^53 it may miss by rounding
        p = int(opts["p"])
        chi_pk = int(report["chi_pk"])
        exact = int(report["a_p"]) == self._tau_ref(p) and abs(chi_pk - p**11) <= slack(p**11)
        a1, a2 = _complex(report["a1"]), _complex(report["a2"])
        claim = (
            chi_pk == p**11
            and report["sum_residual"] <= slack(abs(a1) + abs(a2))
            and report["product_residual"] <= slack(abs(a1) * abs(a2))
        )
        return _verdict(claim, exact, "chi_pk or the root pair is off by rounding", "a_p or chi_pk is wrong")

    def _hecke_trace(self, opts, report) -> Verdict:
        p, s, shift = int(opts["p"]), parse_s(opts["s"]), int(opts["shift"])
        reference = _complex(report["reference"])
        value = _complex(report["value"])
        claim = abs(value - reference) <= report["remainder_bound"] + slack(abs(reference))
        independent = self._tau_ref(p**shift) * _p_power(p, s) ** shift * self._modular_closed(p, s)
        exact = _close(reference, independent)
        return _verdict(claim, exact, f"trace misses by {abs(value - reference):.3g}", "reference is wrong")

    def _selftest(self, opts, report) -> Verdict:
        checks = report["checks"]
        exact = len(checks) == SELFTEST_CHECKS and report["passed"] + report["failed"] == len(checks)
        claim = report["failed"] == 0 and all(c["passed"] for c in checks)
        return _verdict(claim, exact, "a selftest check failed", "malformed selftest report")
