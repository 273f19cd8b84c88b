"""Command-line front end with reproducible, machine-readable reports.

Every subcommand builds one report dictionary and serializes it with sorted
keys, so a fixed invocation and config produce byte-identical output.
Complex numbers render as [re, im] pairs, eigencheck's sample points as
"num/den" strings, and integers beyond double precision as decimal strings.
One recursive writer per format renders the report as built: dicts with
str keys, lists, complex numbers, and str, float, int and bool scalars.
Its JSON bytes are those of json.dumps(sort_keys=True, indent=2) applied
to the report with each complex number as a [re, im] list and each integer
past 2^53 as a string; --format tsv writes one path<TAB>value line per
scalar, the value in the same JSON text.  No key is passed through
str(key): JSON raises TypeError for a key that is not a str, and both
formats for a tuple.  Strict JSON has no NaN or infinity: such a float
raises FloatRangeError naming its TSV path.

An argv of the form SUBCOMMAND (--flag value)*, each flag written out in
full and given once, each value free of a leading "-" and accepted by its
flag's type and choices, and every required flag present, is read from the
grammar declared once, in _COMMANDS, that also builds the parser: the
Namespace parse_args would return, without running argparse.  argparse
parses every other form (an abbreviation, --flag=value, -h, a repeated or
unknown flag, a negative value) and refuses every argv that does not parse,
so those messages and exit codes are its own.

Each subcommand has a flag only for the settings it reads; each report
echoes all six settings under "config", a flag's value or the default.
The only environment variable honored is PADIC_LSERIES_OUTPUT, which
redirects the report from stdout to a file.

Exit codes: 0 on success, 1 on usage errors (unknown flags, an lseries
setting its --method does not read, a --character its --kind does not read,
malformed character addresses, an --s or --alpha that is not a finite
complex number, a report path that cannot be written), 2 on domain errors
(a count below 1 or a tolerance outside (0, 1), nonconvergence, poles,
degenerate twists, out-of-range coefficients, a character modulus, table,
coset count or truncation past its cap, a non-finite report value).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .characters import DirichletCharacter, Twist, character_at, character_twist, unit_group
from .errors import FloatRangeError, PadicLseriesError, TableCapError
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


# The six settings each report echoes under "config", at their defaults.  A
# subcommand has a flag only for the settings it reads, and the echo is this
# table with those flags' values laid over it; coset_cap has no flag.
_SETTINGS = {
    "truncation": DEFAULT_INNER_CIRCLES,
    "prime_bound": 100_000,
    "series_length": 1_000_000,
    "tolerance": 1e-9,
    "coset_cap": COSET_CAP,
    "output_format": "json",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); remap to 1
        raise _UsageError(message)


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
    """Character ``index`` mod k: the modulus's unit group and that one character."""
    if k < 1:
        raise _UsageError(f"character modulus must be positive, got {k}")
    group = unit_group(k)
    try:
        return character_at(group, index)
    except IndexError as exc:
        raise _UsageError(str(exc)) from None


def _scalar(value, path: str = "") -> str:
    """The JSON text of the scalar at ``path`` as json.dumps writes it; TypeError for a non-scalar.

    Integers outside +-2^53 are quoted, since a double cannot hold them.  A NaN
    or infinite float raises FloatRangeError naming ``path``.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FloatRangeError(f"report field {path} is {value}; strict JSON has no token for it")
        return float.__repr__(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        text = int.__repr__(value)
        return text if -_JSON_SAFE_INT < value < _JSON_SAFE_INT else f'"{text}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) nested at ``newline``: "\n" and the indent."""
    if not isinstance(value, (dict, list, complex)):
        return _scalar(value)
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        body = [f"{_quote(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(body)}{newline}}}"
    separator = "," + inner
    if set(map(type, value)) == {str}:
        # tau's coefficient strings in one step: _quote leaves printable
        # ASCII other than the quote and the backslash as it is
        text = "".join(value)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            body = '"' + f'"{separator}"'.join(value) + '"'
        else:
            body = separator.join(map(_quote, value))
    else:
        body = separator.join([_json(item, inner) for item in value])
    return f"[{inner}{body}{newline}]"


def _tsv(value, prefix: str, lines: list) -> None:
    """One "path<TAB>scalar" line per scalar under ``prefix``, dict keys sorted."""
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, dict):
        for key in sorted(value):
            _tsv(value[key], f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _tsv(item, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}\t{_scalar(value, prefix)}")


def _render(report: dict, output_format: str) -> str:
    """The report's bytes; FloatRangeError naming the first NaN or infinite float's path."""
    lines: list = []
    if output_format == "json":
        try:
            return _json(report, "\n") + "\n"
        except FloatRangeError:
            _tsv(report, "", lines)  # meets the same float first, and knows its path
            raise
    _tsv(report, "", lines)
    return "\n".join(lines) + "\n"


def _cmd_gamma(args) -> dict:
    chi = _character(args.k, args.chi)
    s = _parse_complex(args.s)  # a bad --s is a usage error even for a non-prime --p
    spec = GammaSpec(character_twist(chi, args.p), s)
    closed = gamma_closed_form(spec)
    quadrature = gamma_by_quadrature(spec, args.truncation)
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


def _cmd_eigencheck(args) -> dict:
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
        fac = factorize_local(delta_provider(p), p)
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
                value, tail = apply_kernel(spec, idx, point, radius)
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
                    "passed": margin <= args.tolerance,
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
        return _character(1, 0)
    if args.kind == "dirichlet":
        if args.character is None:
            raise _UsageError("--kind dirichlet needs --character k:index")
        return _parse_character(args.character)
    return delta_provider(table_size)


def _cmd_local_factor(args) -> dict:
    s = _parse_complex(args.s)
    twist = _twist(args, args.p)
    closed = local_factor_closed(twist, args.p, s)
    trace = local_trace(twist, args.p, s, args.truncation)
    difference = abs(trace.value - closed)
    return {
        "kind": args.kind,
        "closed_form": closed,
        "trace_value": trace.value,
        "remainder_bound": trace.remainder_bound,
        "terms_used": trace.terms_used,
        "abs_difference": difference,
        "within_bound": difference <= trace.remainder_bound + args.tolerance,
    }


def _cmd_lseries(args) -> dict:
    # the config echoes the settings resolved here; _check_settings has
    # refused the one the method does not read
    if args.prime_bound is None:
        args.prime_bound = _SETTINGS["prime_bound"]
    if args.series_length is None:
        # a modular series sums its whole tau table, whose build cost is real,
        # so it defaults to the library's table length
        modular_series = args.kind == "modular" and args.method == "series"
        args.series_length = DEFAULT_DELTA_TERMS if modular_series else _SETTINGS["series_length"]
    s = _parse_complex(args.s)
    if args.method == "euler":
        # modular euler needs coefficients at every sieved prime
        twist = _twist(args, args.prime_bound)
        result = euler_product(twist, s, args.prime_bound)
        scope = {"prime_bound": args.prime_bound}
    else:
        twist = _twist(args, args.series_length)
        result = dirichlet_series(twist, s, args.series_length)
        scope = {"series_length": args.series_length}
    return {
        "kind": args.kind,
        "method": args.method,
        "value": result.value,
        "remainder_bound": result.remainder_bound,
        "terms_used": result.terms_used,
        **scope,
    }


def _cmd_tau(args) -> dict:
    values = delta_expansion(args.max)
    return {"max": args.max, "coefficients": [str(v) for v in values]}


def _cmd_factorize(args) -> dict:
    provider = delta_provider(args.p)
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


def _cmd_hecke_trace(args) -> dict:
    s = _parse_complex(args.s)
    provider = delta_provider(args.p)
    result = hecke_conjugated_trace(provider, args.p, s, args.shift, args.truncation)
    # p^18 > DELTA_TERMS_CAP for every p: decide the cap without building p^shift
    if args.p ** min(args.shift, DELTA_TERMS_CAP.bit_length()) > DELTA_TERMS_CAP:
        raise TableCapError(
            f"tau table of p^shift = {args.p}^{args.shift} coefficients exceeds "
            f"the cap of {DELTA_TERMS_CAP}"
        )
    closed = local_factor_closed(provider, args.p, s)
    reference = (
        complex(coefficient(delta_provider(args.p**args.shift), args.p**args.shift))
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


def _cmd_selftest(args) -> dict:
    return run_selftest()


# The CLI grammar, declared once: each subcommand's handler, help and flags,
# each flag an option string with its add_argument keywords.  _grammar builds
# both the parser and the fast path's table from it.
_FORMAT = ("--format", dict(dest="output_format", choices=("json", "tsv"),
                            default=_SETTINGS["output_format"], help="output format"))
_TRUNCATION = ("--truncation", dict(type=int, default=_SETTINGS["truncation"],
                                    help="trace/quadrature truncation M"))
_TOLERANCE = ("--tolerance", dict(type=float, default=_SETTINGS["tolerance"],
                                  help="pass/fail slack on comparisons"))
_P = ("--p", dict(type=int, required=True))
_S = ("--s", dict(required=True))
_L_KIND = ("--kind", dict(choices=("zeta", "dirichlet", "modular"), required=True))
_DIRICHLET = ("--character", dict(help="k:index for dirichlet"))

_COMMANDS = {
    "gamma": (_cmd_gamma, "closed form vs quadrature", (
        _FORMAT, _TRUNCATION, _P,
        ("--k", dict(type=int, required=True, help="character modulus")),
        ("--chi", dict(type=int, required=True, help="character index mod k")),
        _S,
    )),
    "eigencheck": (_cmd_eigencheck, "kernel vs spectral action", (
        _FORMAT, _TOLERANCE,
        ("--kind", dict(choices=("plain", "character_twisted", "modular_a1", "modular_a2"), required=True)),
        _P,
        ("--alpha", dict(required=True)),
        ("--character", dict(help="k:index for character_twisted")),
        ("--radius", dict(type=int, help="outer truncation exponent R")),
        ("--max-ket", dict(type=int, default=3)),
        ("--points", dict(type=int, default=5, help="sample points per ket (max 5)")),
    )),
    "local-factor": (_cmd_local_factor, "trace vs closed factor",
                     (_FORMAT, _TRUNCATION, _TOLERANCE, _L_KIND, _P, _S, _DIRICHLET)),
    "lseries": (_cmd_lseries, "Euler product or partial series", (
        _FORMAT,
        ("--prime-bound", dict(type=int, help="Euler product prime bound P, --method euler "
                               f"only (default {_SETTINGS['prime_bound']})")),
        ("--series-length", dict(type=int, help="series length N, --method series only "
                                 f"(default {_SETTINGS['series_length']}; modular: {DEFAULT_DELTA_TERMS})")),
        _L_KIND, _S,
        ("--method", dict(choices=("euler", "series"), default="euler")),
        _DIRICHLET,
    )),
    "tau": (_cmd_tau, "exact discriminant coefficients", (_FORMAT, ("--max", dict(type=int, required=True)))),
    "factorize": (_cmd_factorize, "local Hecke root pair", (_FORMAT, _P)),
    "hecke-trace": (_cmd_hecke_trace, "conjugated lattice trace",
                    (_FORMAT, _TRUNCATION, _P, _S, ("--shift", dict(type=int, required=True)))),
    "selftest": (_cmd_selftest, "run the invariant suite", (_FORMAT,)),
}


@functools.cache
def _grammar() -> tuple[_Parser, dict]:
    """The parser of this process and the fast path's table, built from _COMMANDS once.

    Per subcommand the table holds, read from the Actions that add_argument
    returns: the values parse_args sets for absent flags (the handler last),
    each option string's (dest, type function, choices), and the required dests.
    """
    parser = _Parser(prog="padic-lseries", description=(
        "Certified numbers from pseudodifferential operators on Q_p: gamma factors, "
        "Vladimirov-kernel checks on Kozyrev wavelets, local traces and L-values. "
        f"Each subcommand prints one JSON report, or TSV with --format tsv; {OUTPUT_ENV}=path "
        "writes it to path instead. Exit status: 0 on success, 1 on a usage error, 2 on a "
        "domain error, reported as JSON on stderr."))
    subparsers = parser.add_subparsers(dest="command", required=True)
    table = {}
    for name, (handler, summary, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary)
        actions = [sub.add_argument(option, **keywords) for option, keywords in flags]
        sub.set_defaults(handler=handler)
        table[name] = (
            {**{a.dest: a.default for a in actions}, "handler": handler},
            {a.option_strings[0]: (a.dest, a.type or str, a.choices) for a in actions},
            frozenset(a.dest for a in actions if a.required),
        )
    return parser, table


def _fast_args(argv) -> argparse.Namespace | None:
    """parse_args(argv) for argv of the form SUBCOMMAND (--flag value)*; None for any other.

    None, so that argparse reads argv, where a flag is abbreviated, unknown,
    repeated, -h or written --flag=value, a value starts with "-" or fails
    its flag's type or choices, or a required flag is missing.
    """
    _, table = _grammar()
    entry = table.get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    defaults, options, required = entry
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        dest, convert, choices = option
        if dest in values:
            return None
        try:
            value = convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    args = argparse.Namespace()
    vars(args).update({"command": argv[0], **defaults, **values})
    return args


def _check_settings(args) -> None:
    """Before any work: a usage error for an lseries setting its --method does
    not read or a --character its --kind does not read, then ValueError for a
    count below 1 or a tolerance outside (0, 1)."""
    if args.command == "lseries":
        unread = "series_length" if args.method == "euler" else "prime_bound"
        if getattr(args, unread) is not None:
            raise _UsageError(f"--{unread.replace('_', '-')} is not read by --method {args.method}")
    if getattr(args, "character", None) is not None and args.kind not in ("dirichlet", "character_twisted"):
        raise _UsageError(f"--character is not read by --kind {args.kind}")
    counts = [getattr(args, name, None) for name in ("truncation", "prime_bound", "series_length")]
    if any(count is not None and count <= 0 for count in counts):
        raise ValueError("config values must be positive")
    if not 0.0 < getattr(args, "tolerance", _SETTINGS["tolerance"]) < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")


def run(argv) -> int:
    """Parse, dispatch, serialize; returns the process exit code.

    argv of the form SUBCOMMAND (--flag value)* that the module docstring
    describes is read by _fast_args from the grammar declared once, in
    _COMMANDS, that also builds the parser; argparse parses every other
    form, so a parse error's message and exit code are argparse's own.
    """
    try:
        args = _fast_args(argv)
        if args is None:
            args = _grammar()[0].parse_args(argv)
        _check_settings(args)
        report = {"command": args.command, **args.handler(args)}
        report["config"] = {name: getattr(args, name, value) for name, value in _SETTINGS.items()}
        text = _render(report, args.output_format)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PadicLseriesError, ValueError, IndexError, OverflowError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2

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
