"""Command-line front end with reproducible, machine-readable reports.

Every subcommand builds one report dictionary and serializes it with sorted
keys, so a fixed invocation and config produce byte-identical output.
Complex numbers render as [re, im] pairs, exact rationals as "num/den"
strings, and integers beyond double precision as decimal strings.

Configuration comes from defaults, then an optional key=value file given
with --config, then per-flag overrides; the effective configuration is
echoed inside each report.  The only environment variable honored is
PADIC_LSERIES_OUTPUT, which redirects the report from stdout to a file.

Exit codes: 0 on success, 1 on usage errors (unknown flags, malformed
character addresses), 2 on domain errors (nonconvergence, poles, degenerate
twists, out-of-range coefficients, a character modulus or table past its cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

from .characters import DirichletCharacter, enumerate_characters
from .errors import PadicLseriesError
from .lseries import (
    dirichlet_series,
    euler_product,
    hecke_conjugated_trace,
    local_factor_closed,
    local_trace,
)
from .modular import (
    DEFAULT_DELTA_TERMS,
    coefficient,
    delta_expansion,
    delta_provider,
    factorize_local,
    quadratic_constant,
)
from .padic import padic_from_fraction
from .quadrature import (
    CHARACTER_TWISTED,
    MODULAR_A1,
    MODULAR_A2,
    GammaSpec,
    gamma_by_quadrature,
    gamma_closed_form,
)
from .selftest import run_selftest
from .wavelets import (
    PLAIN,
    OperatorSpec,
    apply_kernel,
    eigenvalue,
    ket,
    wavelet_eval,
)

OUTPUT_ENV = "PADIC_LSERIES_OUTPUT"

_JSON_SAFE_INT = 2**53


@dataclass(frozen=True)
class RunConfig:
    """Knobs every subcommand shares; all overridable by file then flags."""

    truncation: int = 64
    prime_bound: int = 100_000
    series_length: int = 1_000_000
    tolerance: float = 1e-9
    coset_cap: int = 1_000_000
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
        text = open(path, encoding="utf-8").read()
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
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"cannot parse {text!r} as a complex number") from exc
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


def _encode(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value if abs(value) < _JSON_SAFE_INT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _flatten(value, prefix: str, lines: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}\t{json.dumps(value)}")


def _render(report: dict, output_format: str) -> str:
    encoded = _encode(report)
    if output_format == "json":
        return json.dumps(encoded, sort_keys=True, indent=2) + "\n"
    lines: list = []
    _flatten(encoded, "", lines)
    return "\n".join(lines) + "\n"


def _cmd_gamma(args, config: RunConfig) -> dict:
    chi = _character(args.k, args.chi)
    spec = GammaSpec(CHARACTER_TWISTED, args.p, _parse_complex(args.s), character=chi)
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


def _cmd_eigencheck(args, config: RunConfig) -> dict:
    p = args.p
    alpha = _parse_complex(args.alpha)
    if args.kind == PLAIN:
        spec = OperatorSpec(PLAIN, p, alpha)
    elif args.kind == CHARACTER_TWISTED:
        if args.character is None:
            raise _UsageError("character_twisted eigencheck needs --character k:index")
        spec = OperatorSpec(CHARACTER_TWISTED, p, alpha, character=_parse_character(args.character))
    else:
        fac = factorize_local(delta_provider(max(8, p)), p)
        root = fac.a1 if args.kind == MODULAR_A1 else fac.a2
        spec = OperatorSpec(args.kind, p, alpha, coefficient=root)

    radius = args.radius
    if radius is None:
        radius = 2 if args.kind in (MODULAR_A1, MODULAR_A2) else 40
    if not 1 <= args.points <= _SAMPLE_MULTIPLIERS:
        raise _UsageError(f"--points must lie in 1..{_SAMPLE_MULTIPLIERS}")
    if args.max_ket < 0:
        raise _UsageError("--max-ket must be nonnegative")
    multipliers = (0, 1, p, p + 1, p * p)[: args.points]

    entries = []
    worst_margin = -float("inf")
    for label in range(args.max_ket + 1):
        idx = ket(p, label)
        lam = eigenvalue(spec, label)
        for mult in multipliers:
            point_fraction = idx.center + mult * Fraction(p) ** (-idx.n)
            point = padic_from_fraction(p, point_fraction)
            value, tail = apply_kernel(spec, idx, point, radius, cap=config.coset_cap)
            residual = abs(value - lam * wavelet_eval(idx, point))
            margin = residual - tail
            worst_margin = max(worst_margin, margin)
            entries.append(
                {
                    "ket": label,
                    "point": point_fraction,
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
        twist = _twist(args, args.table_size or max(8, config.prime_bound))
        result = euler_product(twist, s, config.prime_bound)
        scope = {"prime_bound": config.prime_bound}
    else:
        series_length = config.series_length
        if args.kind == "modular":
            # the series sums its whole table; the expansion cost is real, so
            # the length comes from the flags or the library default, never
            # from the config's series_length (1e6 by default, meant for
            # Dirichlet kinds)
            series_length = args.series_length or args.table_size or DEFAULT_DELTA_TERMS
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
    provider = delta_provider(max(8, args.p, args.p**args.shift))
    result = hecke_conjugated_trace(provider, args.p, s, args.shift, config.truncation)
    closed = local_factor_closed(provider, args.p, s)
    reference = (
        complex(coefficient(provider, args.p**args.shift))
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


def _build_parser() -> _Parser:
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
    e.add_argument("--kind", choices=(PLAIN, CHARACTER_TWISTED, MODULAR_A1, MODULAR_A2), required=True)
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
    ls.add_argument("--table-size", type=int, help="coefficient table length for modular")
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
        report["config"] = asdict(config)
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
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
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
