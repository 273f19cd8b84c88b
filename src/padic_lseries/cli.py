"""Command-line front end with reproducible, machine-readable reports.

Every subcommand builds one report dictionary and serializes it with sorted
keys, so a fixed invocation and config produce byte-identical output.
Complex numbers render as [re, im] pairs, eigencheck's sample points as
"num/den" strings, and integers beyond double precision as decimal strings.
One recursive writer renders the report as built.  Its JSON bytes are
those of json.dumps(sort_keys=True, indent=2) applied to the report with
each complex number as a [re, im] list, each integer past 2^53 as a string
and each key as str(key); --format tsv writes one path<TAB>value line per
scalar, the value in the same JSON text.  Strict JSON has no NaN or
infinity: such a float raises FloatRangeError naming its TSV path.

An argv of the form SUBCOMMAND (--flag value)*, each flag written out in
full and given once, each value free of a leading "-" and accepted by its
flag's type and choices, and every required flag present, is read from a
table of the parser's own actions: the Namespace parse_args would return,
without running argparse.  argparse parses every other form (an
abbreviation, --flag=value, -h, a repeated or unknown flag, a negative
value) and refuses every argv that does not parse, so those messages and
exit codes are its own.

Each subcommand has a flag only for the settings it reads; each report
echoes all six settings under "config", a flag's value or the default.
The only environment variable honored is PADIC_LSERIES_OUTPUT, which
redirects the report from stdout to a file.

Exit codes: 0 on success, 1 on usage errors (unknown flags, an lseries
setting its --method does not read, malformed character addresses, an
--s or --alpha that is not a finite complex number, a report path that
cannot be written), 2 on domain errors
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


_SCALARS = (str, float, int)  # bool is an int


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
    separator = "," + inner
    if set(map(type, children)) == {str}:
        # tau's coefficient strings in one step: _quote leaves printable
        # ASCII other than the quote and the backslash as it is
        text = "".join(children)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            body = '"' + f'"{separator}"'.join(children) + '"'
        else:
            body = separator.join(map(_quote, children))
    else:
        body = separator.join([_json(item, inner) for item in children])
    return f"[{inner}{body}{newline}]"


def _tsv(value, prefix: str, lines: list) -> None:
    """One "path<TAB>scalar" line per scalar under ``prefix``, dict keys sorted."""
    children = _children(value)
    if children is None:
        lines.append(f"{prefix}\t{_scalar(value, prefix)}")
    elif isinstance(value, dict):
        for key, item in children:
            _tsv(item, f"{prefix}.{key}" if prefix else key, lines)
    else:
        for i, item in enumerate(children):
            _tsv(item, f"{prefix}[{i}]", lines)


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


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first run() and reused.

    Each subcommand takes --format and a flag for each setting it reads.
    """
    fmt, trunc, tol = (_Parser(add_help=False) for _ in range(3))
    fmt.add_argument("--format", dest="output_format", choices=("json", "tsv"),
                     default=_SETTINGS["output_format"], help="output format")
    trunc.add_argument("--truncation", type=int, default=_SETTINGS["truncation"],
                       help="trace/quadrature truncation M")
    tol.add_argument("--tolerance", type=float, default=_SETTINGS["tolerance"],
                     help="pass/fail slack on comparisons")

    parser = _Parser(prog="padic-lseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", parents=[fmt, trunc], help="closed form vs quadrature")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True, help="character modulus")
    g.add_argument("--chi", type=int, required=True, help="character index mod k")
    g.add_argument("--s", required=True)
    g.set_defaults(handler=_cmd_gamma)

    e = sub.add_parser("eigencheck", parents=[fmt, tol], help="kernel vs spectral action")
    e.add_argument("--kind", choices=("plain", "character_twisted", "modular_a1", "modular_a2"), required=True)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--alpha", required=True)
    e.add_argument("--character", help="k:index for character_twisted")
    e.add_argument("--radius", type=int, help="outer truncation exponent R")
    e.add_argument("--max-ket", type=int, default=3)
    e.add_argument("--points", type=int, default=5, help="sample points per ket (max 5)")
    e.set_defaults(handler=_cmd_eigencheck)

    lf = sub.add_parser("local-factor", parents=[fmt, trunc, tol], help="trace vs closed factor")
    lf.add_argument("--kind", choices=("zeta", "dirichlet", "modular"), required=True)
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--s", required=True)
    lf.add_argument("--character", help="k:index for dirichlet")
    lf.set_defaults(handler=_cmd_local_factor)

    ls = sub.add_parser("lseries", parents=[fmt], help="Euler product or partial series")
    ls.add_argument("--prime-bound", type=int, help="Euler product prime bound P, --method euler "
                    f"only (default {_SETTINGS['prime_bound']})")
    ls.add_argument("--series-length", type=int, help="series length N, --method series only "
                    f"(default {_SETTINGS['series_length']}; modular: {DEFAULT_DELTA_TERMS})")
    ls.add_argument("--kind", choices=("zeta", "dirichlet", "modular"), required=True)
    ls.add_argument("--s", required=True)
    ls.add_argument("--method", choices=("euler", "series"), default="euler")
    ls.add_argument("--character", help="k:index for dirichlet")
    ls.set_defaults(handler=_cmd_lseries)

    t = sub.add_parser("tau", parents=[fmt], help="exact discriminant coefficients")
    t.add_argument("--max", type=int, required=True)
    t.set_defaults(handler=_cmd_tau)

    f = sub.add_parser("factorize", parents=[fmt], help="local Hecke root pair")
    f.add_argument("--p", type=int, required=True)
    f.set_defaults(handler=_cmd_factorize)

    h = sub.add_parser("hecke-trace", parents=[fmt, trunc], help="conjugated lattice trace")
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--s", required=True)
    h.add_argument("--shift", type=int, required=True)
    h.set_defaults(handler=_cmd_hecke_trace)

    st = sub.add_parser("selftest", parents=[fmt], help="run the invariant suite")
    st.set_defaults(handler=_cmd_selftest)
    return parser


@functools.cache
def _fast_table() -> tuple[str, dict]:
    """The parser's own grammar for _fast_args, read from its actions once per process.

    The dest of the subcommand name, and per subcommand: the defaults that
    parse_args sets (its handler included), each option string of a
    one-value flag mapped to (dest, type function, choices), and the dests
    of its required flags.
    """
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in commands.choices.items():
        defaults, options, required = {}, {}, set()
        for action in sub._actions:
            default = action.default
            if action.dest is not argparse.SUPPRESS and default is not argparse.SUPPRESS:
                # parse_args passes a string default of an absent flag through its type
                defaults[action.dest] = sub._get_value(action, default) if isinstance(default, str) else default
            if action.required:
                required.add(action.dest)
            if type(action) is argparse._StoreAction and action.nargs is None:
                convert = sub._registry_get("type", action.type, action.type)
                for option in action.option_strings:
                    options[option] = action.dest, convert, action.choices
        for dest, value in sub._defaults.items():
            defaults.setdefault(dest, value)
        table[name] = defaults, options, frozenset(required)
    return commands.dest, table


def _fast_args(argv) -> argparse.Namespace | None:
    """parse_args(argv) for argv of the form SUBCOMMAND (--flag value)*; None for any other.

    None, so that argparse reads argv, where a flag is abbreviated, unknown,
    repeated, -h or written --flag=value, a value starts with "-" or fails
    its flag's type or choices, or a required flag is missing.
    """
    command, table = _fast_table()
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
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    args = argparse.Namespace()
    vars(args).update({command: argv[0], **defaults, **values})
    return args


def _check_settings(args) -> None:
    """Before any work: a usage error for an lseries setting its --method does
    not read, then ValueError for a count below 1 or a tolerance outside (0, 1)."""
    if args.command == "lseries":
        unread = "series_length" if args.method == "euler" else "prime_bound"
        if getattr(args, unread) is not None:
            raise _UsageError(f"--{unread.replace('_', '-')} is not read by --method {args.method}")
    counts = [getattr(args, name, None) for name in ("truncation", "prime_bound", "series_length")]
    if any(count is not None and count <= 0 for count in counts):
        raise ValueError("config values must be positive")
    if not 0.0 < getattr(args, "tolerance", _SETTINGS["tolerance"]) < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")


def run(argv) -> int:
    """Parse, dispatch, serialize; returns the process exit code.

    argv of the form SUBCOMMAND (--flag value)* that the module docstring
    describes is read by _fast_args from a table of the parser's own
    actions; argparse parses every other form, so a parse error's message
    and exit code are argparse's own.
    """
    try:
        args = _fast_args(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
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
