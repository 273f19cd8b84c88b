"""Command-line front end with reproducible, machine-readable reports.

Every subcommand builds one report dictionary and serializes it with sorted
keys, so a fixed invocation and config produce byte-identical output.
Complex numbers render as [re, im] pairs, eigencheck's sample points as
"num/den" strings, and integers beyond double precision as decimal strings.
One recursive writer renders the report as built.  Its JSON bytes are
those of json.dumps(sort_keys=True, indent=2) applied to the report with
each complex number as a [re, im] list, each integer past 2^53 as a string
and each key as str(key); --format tsv writes one path<TAB>value line per
scalar, the value in the same JSON text.

Configuration comes from defaults, then an optional key=value file given
with --config, then per-flag overrides; the effective configuration is
echoed inside each report.  The only environment variable honored is
PADIC_LSERIES_OUTPUT, which redirects the report from stdout to a file.

Exit codes: 0 on success, 1 on usage errors (unknown flags, malformed
character addresses, an --s or --alpha that is not a finite complex
number, a report path that cannot be written), 2 on domain errors
(nonconvergence, poles, degenerate twists, out-of-range coefficients, a
character modulus, table or truncation past its cap).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _quote

from .characters import DirichletCharacter, Twist, character_twist, enumerate_characters
from .errors import PadicLseriesError, TableCapError
from .lseries import (
    dirichlet_series,
    euler_product,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
)
from .modular import (
    DEFAULT_DELTA_TERMS,
    DELTA_TERMS_CAP,
    coefficient,
    delta_expansion,
    delta_provider,
    factorize_local,
    quadratic_constant,
)
from .padic import COSET_CAP, DEFAULT_PRECISION, PadicNumber, _int_valuation
from .quadrature import (
    DEFAULT_INNER_CIRCLES,
    GammaSpec,
    gamma_by_quadrature,
    gamma_closed_form,
)
from .selftest import run_selftest
from .wavelets import (
    OperatorSpec,
    apply_kernel,
    check_ket_label,
    eigenvalue,
    kernel_coset,
    ket,
    wavelet_eval,
)

OUTPUT_ENV = "PADIC_LSERIES_OUTPUT"

_JSON_SAFE_INT = 2**53


@dataclass(frozen=True)
class RunConfig:
    """Knobs every subcommand shares; all overridable by file then flags."""

    truncation: int = DEFAULT_INNER_CIRCLES
    prime_bound: int = 100_000
    series_length: int = 1_000_000
    tolerance: float = 1e-9
    coset_cap: int = COSET_CAP
    output_format: str = "json"

    def __post_init__(self) -> None:
        if min(self.truncation, self.prime_bound, self.series_length, self.coset_cap) <= 0:
            raise ValueError("config values must be positive")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.output_format not in ("json", "tsv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); remap to 1
        raise _UsageError(message)


def _load_config_file(path: str) -> dict:
    overrides = {}
    coerce = {f.name: type(f.default) for f in fields(RunConfig)}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in coerce:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = coerce[key](value)
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return overrides


def _parse_complex(text: str) -> complex:
    """--s or --alpha as a finite complex number; "i" may stand for "j"."""
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"cannot parse {text!r} as a complex number") from exc
    if not cmath.isfinite(value):
        raise _UsageError(f"{text!r} is not a finite complex number")
    return value


def _parse_character(text: str) -> DirichletCharacter:
    """Characters are addressed k:index over the deterministic enumeration."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise _UsageError(f"character address {text!r} is not of the form k:index")
    try:
        k, index = int(head), int(tail)
    except ValueError as exc:
        raise _UsageError(f"character address {text!r} is not of the form k:index") from exc
    return _character(k, index)


def _character(k: int, index: int) -> DirichletCharacter:
    if k < 1:
        raise _UsageError(f"character modulus must be positive, got {k}")
    chars = enumerate_characters(k)
    if not 0 <= index < len(chars):
        raise _UsageError(
            f"character index {index} outside 0..{len(chars) - 1} for modulus {k}"
        )
    return chars[index]


_SCALARS = (str, float, int)  # bool is an int


def _scalar(value) -> str:
    """The JSON text of one scalar, as json.dumps writes it; TypeError for a non-scalar.

    Integers outside +-2^53 are quoted, since a double cannot hold them.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        text = int.__repr__(value)
        return text if -_JSON_SAFE_INT < value < _JSON_SAFE_INT else f'"{text}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _children(value):
    """A dict's (str(key), item) pairs sorted by key, the items of a list or
    tuple, a complex number's (re, im); None for a scalar."""
    if isinstance(value, dict):
        if not all(type(key) is str for key in value):
            value = {str(key): item for key, item in value.items()}
        return sorted(value.items())
    if isinstance(value, (list, tuple)):
        return value
    if isinstance(value, complex):
        return (value.real, value.imag)
    return None


def _json(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) nested at ``newline``: "\n" and the indent."""
    if isinstance(value, _SCALARS):
        return _scalar(value)
    children = _children(value)
    if children is None:
        return _scalar(value)
    if not children:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        body = [f"{_quote(key)}: {_json(item, inner)}" for key, item in children]
        return f"{{{inner}{(',' + inner).join(body)}{newline}}}"
    body = [_json(item, inner) for item in children]
    return f"[{inner}{(',' + inner).join(body)}{newline}]"


def _tsv(value, prefix: str, lines: list) -> None:
    """One "path<TAB>scalar" line per scalar under ``prefix``, dict keys sorted."""
    children = _children(value)
    if children is None:
        lines.append(f"{prefix}\t{_scalar(value)}")
    elif isinstance(value, dict):
        for key, item in children:
            _tsv(item, f"{prefix}.{key}" if prefix else key, lines)
    else:
        for i, item in enumerate(children):
            _tsv(item, f"{prefix}[{i}]", lines)


def _render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return _json(report, "\n") + "\n"
    lines: list = []
    _tsv(report, "", lines)
    return "\n".join(lines) + "\n"


def _cmd_gamma(args, config: RunConfig) -> dict:
    chi = _character(args.k, args.chi)
    s = _parse_complex(args.s)  # a bad --s is a usage error even for a non-prime --p
    spec = GammaSpec(character_twist(chi, args.p), s)
    closed = gamma_closed_form(spec)
    quadrature = gamma_by_quadrature(spec, config.truncation, cap=config.coset_cap)
    return {
        "closed_form": closed,
        "quadrature": quadrature.value,
        "remainder_bound": quadrature.remainder_bound,
        "terms_used": quadrature.terms_used,
        "abs_difference": abs(quadrature.value - closed),
    }


_SAMPLE_MULTIPLIERS = 5


def _sample_point(p: int, mult: int, n: int) -> tuple[PadicNumber, str]:
    """mult p^(-n) as padic_from_fraction encodes it, and as "num/den" in lowest terms.

    mult is 0, 1, p, p + 1 or p^2, so the unit part is at most p + 1 and needs no reduction.
    """
    if mult == 0:
        return PadicNumber(p, 0, 0, 0), "0/1"
    t = _int_valuation(mult, p)
    unit, valuation = mult // p**t, t - n
    point = PadicNumber(p, valuation, unit, DEFAULT_PRECISION)
    if valuation >= 0:
        return point, f"{unit * p**valuation}/1"
    return point, f"{unit}/{p**-valuation}"


def _cmd_eigencheck(args, config: RunConfig) -> dict:
    p = args.p
    alpha = _parse_complex(args.alpha)
    if not 1 <= args.points <= _SAMPLE_MULTIPLIERS:
        raise _UsageError(f"--points must lie in 1..{_SAMPLE_MULTIPLIERS}")
    if args.max_ket < 0:
        raise _UsageError("--max-ket must be nonnegative")
    if args.kind == "plain":
        twist = Twist(p)
    elif args.kind == "character_twisted":
        if args.character is None:
            raise _UsageError("character_twisted eigencheck needs --character k:index")
        twist = character_twist(_parse_character(args.character), p)
    else:
        fac = factorize_local(delta_provider(max(8, p)), p)
        twist = Twist(p, root=fac.a1 if args.kind == "modular_a1" else fac.a2)
    spec = OperatorSpec(twist, alpha)

    radius = args.radius
    if radius is None:
        radius = 2 if args.kind in ("modular_a1", "modular_a2") else 40
    check_ket_label(spec, args.max_ket)
    multipliers = (0, 1, p, p + 1, p * p)[: args.points]

    entries = []
    worst_margin = -float("inf")
    for label in range(args.max_ket + 1):
        idx = ket(p, label)
        lam = eigenvalue(spec, label)
        checked = {}  # kernel_coset -> (value, tail, residual); one kernel run per coset
        for mult in multipliers:
            # a ket is centred at 0, so its sample points are mult p^(-n)
            point, point_text = _sample_point(p, mult, idx.n)
            key = kernel_coset(idx, point)
            if key not in checked:
                value, tail = apply_kernel(spec, idx, point, radius, cap=config.coset_cap)
                checked[key] = value, tail, abs(value - lam * wavelet_eval(idx, point))
            value, tail, residual = checked[key]
            margin = residual - tail
            worst_margin = max(worst_margin, margin)
            entries.append(
                {
                    "ket": label,
                    "point": point_text,
                    "residual": residual,
                    "tail_bound": tail,
                    "passed": margin <= config.tolerance,
                }
            )
    return {
        "kind": args.kind,
        "alpha": alpha,
        "radius": radius,
        "entries": entries,
        "worst_margin": worst_margin,
        "all_passed": all(e["passed"] for e in entries),
    }


def _twist(args, table_size: int):
    """The L-function --kind (and --character) names, as euler_product takes it.

    Zeta is the principal character mod 1; modular is the discriminant's
    coefficient table of ``table_size`` terms.
    """
    if args.kind == "zeta":
        return enumerate_characters(1)[0]
    if args.kind == "dirichlet":
        if args.character is None:
            raise _UsageError("--kind dirichlet needs --character k:index")
        return _parse_character(args.character)
    return delta_provider(table_size)


def _cmd_local_factor(args, config: RunConfig) -> dict:
    s = _parse_complex(args.s)
    twist = _twist(args, max(8, args.p))
    closed = local_factor_closed(twist, args.p, s)
    trace = local_trace(twist, args.p, s, config.truncation)
    difference = abs(trace.value - closed)
    return {
        "kind": args.kind,
        "closed_form": closed,
        "trace_value": trace.value,
        "remainder_bound": trace.remainder_bound,
        "terms_used": trace.terms_used,
        "abs_difference": difference,
        "within_bound": difference <= trace.remainder_bound + config.tolerance,
    }


def _cmd_lseries(args, config: RunConfig) -> dict:
    s = _parse_complex(args.s)
    if args.method == "euler":
        # modular euler needs coefficients at every sieved prime
        twist = _twist(args, max(8, config.prime_bound))
        result = euler_product(twist, s, config.prime_bound)
        scope = {"prime_bound": config.prime_bound}
    else:
        series_length = config.series_length
        if args.kind == "modular":
            # the series sums its whole table; the expansion cost is real, so
            # the length comes from the flags or the library default, never
            # from the config's series_length (1e6 by default, meant for
            # Dirichlet kinds)
            series_length = args.series_length or DEFAULT_DELTA_TERMS
        twist = _twist(args, series_length)
        result = dirichlet_series(twist, s, series_length)
        scope = {"series_length": series_length}
    return {
        "kind": args.kind,
        "method": args.method,
        "value": result.value,
        "remainder_bound": result.remainder_bound,
        "terms_used": result.terms_used,
        **scope,
    }


def _cmd_tau(args, config: RunConfig) -> dict:
    values = delta_expansion(args.max)
    return {"max": args.max, "coefficients": [str(v) for v in values]}


def _cmd_factorize(args, config: RunConfig) -> dict:
    provider = delta_provider(max(8, args.p))
    fac = factorize_local(provider, args.p)
    return {
        "p": fac.prime,
        "a_p": coefficient(provider, args.p),
        "chi_pk": quadratic_constant(provider, args.p),
        "a1": fac.a1,
        "a2": fac.a2,
        "sum_residual": abs(fac.a1 + fac.a2 - fac.a_p),
        "product_residual": abs(fac.a1 * fac.a2 - fac.chi_pk),
    }


def _cmd_hecke_trace(args, config: RunConfig) -> dict:
    s = _parse_complex(args.s)
    provider = delta_provider(max(8, args.p))
    result = hecke_conjugated_trace(provider, args.p, s, args.shift, config.truncation)
    # p^18 > DELTA_TERMS_CAP for every p: decide the cap without building p^shift
    if args.p ** min(args.shift, DELTA_TERMS_CAP.bit_length()) > DELTA_TERMS_CAP:
        raise TableCapError(
            f"tau table of p^shift = {args.p}^{args.shift} coefficients exceeds "
            f"the cap of {DELTA_TERMS_CAP}"
        )
    closed = local_factor_closed(provider, args.p, s)
    reference = (
        complex(coefficient(delta_provider(max(8, args.p, args.p**args.shift)), args.p**args.shift))
        * (args.p ** -complex(s).real if s.imag == 0 else args.p ** -complex(s)) ** args.shift
        * closed
    )
    return {
        "shift": args.shift,
        "value": result.value,
        "remainder_bound": result.remainder_bound,
        "terms_used": result.terms_used,
        "reference": reference,
        "abs_difference": abs(result.value - reference),
    }


def _cmd_selftest(args, config: RunConfig) -> dict:
    return run_selftest()


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first run() and reused."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument(
        "--format", dest="output_format", choices=("json", "tsv"), help="output format"
    )
    common.add_argument("--truncation", type=int, help="trace/quadrature truncation M")
    common.add_argument("--prime-bound", type=int, help="Euler product prime bound P")
    common.add_argument(
        "--series-length", type=int, help="Dirichlet series length N (modular: table length)"
    )
    common.add_argument("--tolerance", type=float, help="pass/fail slack on comparisons")
    common.add_argument("--coset-cap", type=int, help="max coset representatives")

    parser = _Parser(prog="padic-lseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", parents=[common], help="closed form vs quadrature")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True, help="character modulus")
    g.add_argument("--chi", type=int, required=True, help="character index mod k")
    g.add_argument("--s", required=True)
    g.set_defaults(handler=_cmd_gamma)

    e = sub.add_parser("eigencheck", parents=[common], help="kernel vs spectral action")
    e.add_argument("--kind", choices=("plain", "character_twisted", "modular_a1", "modular_a2"), required=True)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--alpha", required=True)
    e.add_argument("--character", help="k:index for character_twisted")
    e.add_argument("--radius", type=int, help="outer truncation exponent R")
    e.add_argument("--max-ket", type=int, default=3)
    e.add_argument("--points", type=int, default=5, help="sample points per ket (max 5)")
    e.set_defaults(handler=_cmd_eigencheck)

    lf = sub.add_parser("local-factor", parents=[common], help="trace vs closed factor")
    lf.add_argument("--kind", choices=("zeta", "dirichlet", "modular"), required=True)
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--s", required=True)
    lf.add_argument("--character", help="k:index for dirichlet")
    lf.set_defaults(handler=_cmd_local_factor)

    ls = sub.add_parser("lseries", parents=[common], help="Euler product or partial series")
    ls.add_argument("--kind", choices=("zeta", "dirichlet", "modular"), required=True)
    ls.add_argument("--s", required=True)
    ls.add_argument("--method", choices=("euler", "series"), default="euler")
    ls.add_argument("--character", help="k:index for dirichlet")
    ls.set_defaults(handler=_cmd_lseries)

    t = sub.add_parser("tau", parents=[common], help="exact discriminant coefficients")
    t.add_argument("--max", type=int, required=True)
    t.set_defaults(handler=_cmd_tau)

    f = sub.add_parser("factorize", parents=[common], help="local Hecke root pair")
    f.add_argument("--p", type=int, required=True)
    f.set_defaults(handler=_cmd_factorize)

    h = sub.add_parser("hecke-trace", parents=[common], help="conjugated lattice trace")
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--s", required=True)
    h.add_argument("--shift", type=int, required=True)
    h.set_defaults(handler=_cmd_hecke_trace)

    st = sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    st.set_defaults(handler=_cmd_selftest)
    return parser


def _effective_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = replace(config, **_load_config_file(args.config))
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def run(argv) -> int:
    """Parse, dispatch, serialize; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        report = {"command": args.command, **args.handler(args, config)}
        report["config"] = {f.name: getattr(config, f.name) for f in fields(config)}
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PadicLseriesError, ValueError, IndexError, OverflowError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2

    text = _render(report, config.output_format)
    destination = os.environ.get(OUTPUT_ENV)
    if destination:
        try:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"usage error: cannot write report to {destination}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse -h/--help
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
