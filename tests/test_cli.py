"""Exit codes, serialization, setting flags, and report determinism."""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from padic_lseries import (
    CHARACTER_MODULUS_CAP,
    DELTA_TERMS_CAP,
    FloatRangeError,
    TableCapError,
    delta_provider,
    local_factor_closed,
)
from padic_lseries import cli, modular, padic, quadrature, wavelets
from padic_lseries.cli import run


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_gamma_worked_example(capsys):
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["abs_difference"]) < 1e-9
    assert report["closed_form"][0] == pytest.approx(1.0)
    assert report["config"]["truncation"] == 64
    assert report["terms_used"] == 64


def test_gamma_truncation_sets_the_inner_circle_count(capsys):
    # the real part is the value the removed --n-terms 16 flag gave for the
    # same request; the imaginary part (exactly 0) is the rounding of the one
    # outer circle n = -1; the bound is that flag's truncation tail
    # 0.0001388025609698153 plus the rounding radius
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5", "--truncation", "16"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["quadrature"] == [1.0000371920341193, -2.031750159494239e-16]
    assert report["remainder_bound"] == 0.00013880256099195243
    assert report["terms_used"] == 16


_REUSE = [
    ["eigencheck", "--kind", "plain", "--p", "17"],  # usage error: no --alpha
    ["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1", "--max-ket", "0"],
    ["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1"],
    ["eigencheck", "--kind", "plain", "--p", "17"],
]

# one process runs every request of _REUSE through cli.run and reports
# [exit code, stdout, stderr] for each, and how often the grammar (the parser
# and the fast path's table) was built by import and after the requests
_RUN_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from padic_lseries import cli
grammars_at_import = cli._grammar.cache_info().misses
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
sys.__stdout__.write(json.dumps([results, grammars_at_import, cli._grammar.cache_info().misses]))
"""


def _python(*args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PADIC_LSERIES_OUTPUT", None)
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    return [done.returncode, done.stdout, done.stderr]


def test_one_parser_serves_every_request_of_a_process_byte_for_byte():
    code, out, err = _python("-c", _RUN_IN_ONE_PROCESS, json.dumps(_REUSE))
    assert code == 0, err
    results, grammars_at_import, grammars_built = json.loads(out)
    assert (grammars_at_import, grammars_built) == (0, 1)
    fresh = [_python("-m", "padic_lseries", *argv) for argv in _REUSE]
    assert results == fresh
    assert [r[0] for r in results] == [1, 0, 0, 1]
    assert len(json.loads(results[1][1])["entries"]) == 5
    assert len(json.loads(results[2][1])["entries"]) == 20


def _subparsers():
    (commands,) = (a for a in cli._grammar()[0]._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def test_the_fast_table_knows_every_flag_of_every_subcommand():
    # the table and the parser are built from one declaration; a flag the
    # table missed would send every request that names it to argparse
    parser, table = cli._grammar()
    assert parser.parse_args(["selftest"]).command == "selftest"
    assert list(table) == list(_subparsers()) == list(cli._COMMANDS) == [
        "gamma", "eigencheck", "local-factor", "lseries", "tau", "factorize", "hecke-trace", "selftest",
    ]
    for name, sub in _subparsers().items():
        defaults, options, required = table[name]
        flags = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert sorted(options) == sorted(o for a in flags for o in a.option_strings)
        assert [option for option, _ in cli._COMMANDS[name][2]] == [a.option_strings[0] for a in flags]
        for action in flags:
            dest, convert, choices = options[action.option_strings[0]]
            assert dest == action.dest
            assert choices == action.choices
            assert convert is (action.type or str)
            assert defaults[dest] == action.default
            # the table keeps a default as given, where parse_args passes a
            # string default through the flag's type: equal only for no type
            if isinstance(action.default, str):
                assert action.type is None, action.option_strings
        assert required == {a.dest for a in flags if a.required}
        assert defaults["handler"] is sub.get_default("handler") is cli._COMMANDS[name][0]
        assert "-h" not in options and "--help" not in options


# the mutations after which argv is no longer SUBCOMMAND (--flag value)*
_MUTATIONS = ("abbreviation", "equals", "repeat", "negative", "unknown", "missing", "choice", "int")


def test_the_fast_path_is_parse_args_or_declines_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parser = cli._grammar()[0]
    subparsers = _subparsers()

    def value_of(action):
        if action.choices is not None:
            return st.sampled_from(action.choices)
        if action.type is int:
            return st.integers(0, 10**6).map(str)
        if action.type is float:
            return st.floats(0.0, 1e3).map(repr)
        return st.text(max_size=6).filter(lambda text: not text.startswith("-"))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(list(subparsers)))
        sub = subparsers[name]
        flags = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        chosen = [a for a in flags if a.required or data.draw(st.booleans())]
        pairs = [[a.option_strings[0], data.draw(value_of(a))] for a in chosen]
        pairs = data.draw(st.permutations(pairs))
        actions = {a.option_strings[0]: a for a in chosen}
        options = {o for a in flags for o in a.option_strings}
        mutation = data.draw(st.sampled_from((None,) + _MUTATIONS))
        i = None  # the pair mutated; None where argv has none this mutation applies to

        def pick(ok):
            candidates = [i for i, (flag, _) in enumerate(pairs) if ok(actions[flag])]
            return data.draw(st.sampled_from(candidates)) if candidates else None

        if mutation == "abbreviation":
            def prefixes(flag):
                return [flag[:n] for n in range(3, len(flag)) if flag[:n] not in options]
            i = pick(lambda a: prefixes(a.option_strings[0]))
            if i is not None:
                pairs[i][0] = data.draw(st.sampled_from(prefixes(pairs[i][0])))
        elif mutation == "equals":
            i = pick(lambda a: True)
            if i is not None:
                pairs[i] = ["=".join(pairs[i])]
        elif mutation == "repeat":
            i = pick(lambda a: True)
            if i is not None:
                again = [pairs[i][0], data.draw(value_of(actions[pairs[i][0]]))]
                pairs.insert(data.draw(st.integers(0, len(pairs))), again)
        elif mutation == "negative":
            i = pick(lambda a: a.choices is None)
            if i is not None:
                pairs[i][1] = "-" + data.draw(st.sampled_from(["1", "0.5", "2+1i", "4:1", pairs[i][1]]))
        elif mutation == "unknown":
            i = data.draw(st.integers(0, len(pairs)))
            pairs.insert(i, ["--bogus", "1"])
        elif mutation == "missing":
            i = pick(lambda a: a.required)
            if i is not None:
                del pairs[i]
        elif mutation == "choice":
            i = pick(lambda a: a.choices is not None)
            if i is not None:
                pairs[i][1] = "bogus"
        elif mutation == "int":
            i = pick(lambda a: a.type is int)
            if i is not None:
                pairs[i][1] = data.draw(st.sampled_from(["7.5", "x", "", "1e3"]))
        argv = [name] + [token for pair in pairs for token in pair]

        try:
            expected = parser.parse_args(argv)
        except cli._UsageError:
            expected = None
        fast = cli._fast_args(argv)
        if i is not None:
            assert fast is None
        else:
            assert fast is not None and fast == expected
            assert list(vars(fast)) == list(vars(expected))

    check()


def _benchmark_requests(seeds):
    """Every argv of the three benchmark workloads at ``seeds``, read from perfbench/workloads.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WHY for seed in seeds for argv in workloads.generate(name, seed)]


def test_the_benchmark_traffic_takes_the_fast_path():
    # every request of the three workloads at seeds 1-3 is read by _fast_args,
    # not argparse, and gives parse_args' Namespace, key order included
    parser = cli._grammar()[0]
    requests = _benchmark_requests((1, 2, 3))
    assert len(requests) > 900
    for argv in requests:
        fast, expected = cli._fast_args(argv), parser.parse_args(argv)
        assert fast is not None, argv
        assert fast == expected, argv
        assert list(vars(fast)) == list(vars(expected)), argv


def test_the_top_level_help_is_for_users(capsys):
    # the parser's own description, not the module docstring: no implementation
    # name reaches the help, and docstring edits leave its bytes as they are
    assert cli.main(["-h"]) == 0
    out, err = _capture(capsys)
    assert err == ""
    assert out.startswith("usage: padic-lseries ")
    assert re.findall(r"\b_\w+", out) == []
    assert "Namespace" not in out and "parse_args" not in out
    assert cli.__doc__.splitlines()[0] not in out


# each form falls back to argparse: exit code and what it reads or refuses
_FALLBACK_FORMS = {
    "help": (["local-factor", "-h"], 0),
    "abbreviation": (["local-factor", "--kind", "zeta", "--p", "3", "--s", "2", "--tol", "0.1"], 0),
    "equals-negative": (["local-factor", "--kind", "zeta", "--p", "3", "--s=-1"], 2),
    "negative": (["local-factor", "--kind", "zeta", "--p", "3", "--s", "-1"], 2),
    "repeat": (["factorize", "--p", "5", "--p", "7"], 0),
    "unknown": (["tau", "--max", "10", "--bogus", "1"], 1),
    "choice": (["local-factor", "--kind", "bogus", "--p", "3", "--s", "2"], 1),
    "int": (["factorize", "--p", "7.5"], 1),
    "missing": (["local-factor", "--kind", "zeta", "--p", "3"], 1),
}


@pytest.mark.parametrize("argv, code", list(_FALLBACK_FORMS.values()), ids=list(_FALLBACK_FORMS))
def test_a_form_off_the_fast_path_keeps_argparses_bytes(argv, code, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    assert cli._fast_args(argv) is None
    assert cli.main(argv) == code
    taken = _capture(capsys)
    monkeypatch.setattr(cli, "_fast_args", lambda argv: None)
    assert cli.main(argv) == code
    assert _capture(capsys) == taken


def test_gamma_of_a_vanishing_twist_reports_zeros(capsys):
    # chi_4(2) = 0: both routes give 0, with a zero bound and no circle summed
    assert run(["gamma", "--p", "2", "--k", "4", "--chi", "1", "--s", "2"]) == 0
    out, _ = _capture(capsys)
    report = json.loads(out)
    assert report["closed_form"] == report["quadrature"] == [0.0, 0.0]
    assert report["remainder_bound"] == report["abs_difference"] == 0.0
    assert report["terms_used"] == 0


def test_gamma_at_p_101_stays_under_the_coset_cap(capsys):
    # the outer region is p - 1 cosets, so gamma no longer meets the cap here
    code = run(["gamma", "--p", "101", "--k", "1", "--chi", "0", "--s", "2"])
    out, err = _capture(capsys)
    assert code == 0, err
    assert json.loads(out)["abs_difference"] < 1e-11


def test_gamma_rejects_the_removed_inner_circle_flag(capsys):
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5", "--n-terms", "16"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert "--n-terms" in err


def test_lseries_rejects_the_removed_table_size_flag(capsys):
    # the table follows from --prime-bound (euler) or --series-length (series);
    # a smaller --table-size used to end in IndexError past a(100)
    code = run(["lseries", "--kind", "modular", "--s", "8", "--prime-bound", "1000",
                "--table-size", "100"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert "--table-size" in err


def test_complex_argument_accepts_i_suffix(capsys):
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5+14.1i"])
    out, _ = _capture(capsys)
    assert code == 0
    assert json.loads(out)["abs_difference"] < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["lseries", "--kind", "zeta", "--s", "nan", "--prime-bound", "100"],
        ["lseries", "--kind", "zeta", "--s", "2+1e400i", "--prime-bound", "100"],
        ["lseries", "--kind", "zeta", "--s", "1e400", "--prime-bound", "100"],
        ["lseries", "--kind", "zeta", "--s", "nan", "--method", "series"],
        ["local-factor", "--kind", "zeta", "--p", "3", "--s", "nan"],
        ["eigencheck", "--kind", "plain", "--p", "3", "--alpha", "nan"],
        ["eigencheck", "--kind", "plain", "--p", "3", "--alpha", "1e400"],
        ["gamma", "--p", "3", "--k", "1", "--chi", "0", "--s", "nan"],
        ["gamma", "--p", "3", "--k", "1", "--chi", "0", "--s=-1e400i"],
        ["hecke-trace", "--p", "2", "--s", "nan", "--shift", "1"],
    ],
)
def test_non_finite_complex_argument_is_usage_error(argv, capsys):
    assert run(argv) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert "is not a finite complex number" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    _, err = _capture(capsys)
    assert "usage error" in err


def test_malformed_character_is_usage_error(capsys):
    assert run(["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2",
                "--character", "four-one"]) == 1
    _, err = _capture(capsys)
    assert "k:index" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2", "--character", "4:x"],
         "character address '4:x' is not of the form k:index"),
        (["lseries", "--kind", "dirichlet", "--s", "2"], "--kind dirichlet needs --character k:index"),
        (["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2"], "--kind dirichlet needs --character k:index"),
        (["eigencheck", "--kind", "character_twisted", "--p", "3", "--alpha", "1"],
         "character_twisted eigencheck needs --character k:index"),
    ],
    ids=["non-integer-index", "lseries-without-character", "local-factor-without-character",
         "eigencheck-without-character"],
)
def test_a_missing_or_malformed_character_is_a_usage_error(argv, message, capsys):
    assert run(argv) == 1
    assert _capture(capsys) == ("", f"usage error: {message}\n")


def test_character_index_out_of_range_is_usage_error(capsys):
    assert run(["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2",
                "--character", "4:9"]) == 1
    _, err = _capture(capsys)
    assert "outside" in err


@pytest.mark.parametrize("k, last", [(1, 0), (2, 0), (12, 3), (400, 159), (99991, 99989)])
def test_a_character_index_out_of_range_names_the_last_index(k, last, capsys):
    # last = phi(k) - 1, phi(k) the product of the unit group's generator orders
    for argv, index in [
        (["gamma", "--p", "3", "--k", str(k), "--chi", str(last + 1), "--s", "2"], last + 1),
        (["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2", "--character", f"{k}:-1"], -1),
    ]:
        assert run(argv) == 1
        assert _capture(capsys) == ("", f"usage error: character index {index} outside 0..{last} for modulus {k}\n")


def test_gamma_character_address_is_usage_error(capsys):
    for k in ("0", "-4"):
        assert run(["gamma", "--p", "3", "--k", k, "--chi", "0", "--s", "2"]) == 1
        _, err = _capture(capsys)
        assert "usage error" in err
    assert run(["gamma", "--p", "3", "--k", "4", "--chi", "9", "--s", "2"]) == 1
    _, err = _capture(capsys)
    assert "outside" in err


def test_character_modulus_cap_exits_two(capsys):
    address = f"{CHARACTER_MODULUS_CAP + 1}:0"
    assert run(["lseries", "--kind", "dirichlet", "--character", address, "--s", "2"]) == 2
    payload = json.loads(_capture(capsys)[1])
    assert payload["error"]["type"] == "ModulusCapError"
    assert str(CHARACTER_MODULUS_CAP) in payload["error"]["message"]


def test_domain_error_exits_two_with_named_parameter(capsys):
    # pole of the closed factor at s=0
    assert run(["local-factor", "--kind", "zeta", "--p", "2", "--s", "0"]) == 2
    _, err = _capture(capsys)
    payload = json.loads(err)
    assert payload["error"]["type"] in ("PoleError", "ConvergenceError")
    assert "s" in payload["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--p", "97", "--k", "1", "--chi", "0", "--s=-500"],
        ["eigencheck", "--kind", "plain", "--p", "97", "--alpha", "500", "--max-ket", "0"],
        ["local-factor", "--kind", "zeta", "--p", "97", "--s=-800"],
        ["local-factor", "--kind", "dirichlet", "--character", "4:1", "--p", "97", "--s=-800"],
    ],
)
def test_power_past_the_float_range_exits_two_with_a_typed_error(argv, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "FloatRangeError"
    assert "p = 97" in error["message"]
    assert "exceeds the largest float" in error["message"]


def test_gamma_outer_circle_past_the_float_range_exits_two(capsys):
    # p^(s-1) = 97^155 is finite, the sum of its p - 1 phase terms is not
    assert run(["gamma", "--p", "97", "--k", "1", "--chi", "0", "--s", "156"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "FloatRangeError",
        "message": "gamma quadrature at p = 97, s = (156+0j) is not finite: "
        "its outer circle passes the largest float 1.79769e+308",
    }


def test_euler_tail_bound_past_the_float_range_exits_two(capsys):
    # the tail's log bound c P^(1 - sigma) / (sigma - 1) is about 2e4 at
    # s = 1.0001 and P = 2, and exp of it passes the largest float
    assert run(["lseries", "--kind", "zeta", "--s", "1.0001", "--prime-bound", "2"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "FloatRangeError"
    assert "prime-tail bound" in error["message"]
    assert "exceeds the largest float" in error["message"]


@pytest.mark.parametrize(
    "s, error",
    [
        ("2", {"type": "CosetCapError",
               "message": "1000002 representatives at depth 1 exceed the cap of 1000000"}),
        # the convergence check comes before the cap
        ("-1", {"type": "ConvergenceError",
                "message": "inner circles need |T| p^(-Re s) < 1; got 1e+06 at s = (-1+0j)"}),
    ],
)
def test_gamma_coset_cap_exits_two(s, error, capsys):
    # p = 1000003 is the first prime past COSET_CAP: p - 1 cosets on the outer circle
    assert run(["gamma", "--p", "1000003", "--k", "1", "--chi", "0", f"--s={s}"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert json.loads(err)["error"] == error


def test_gamma_sums_its_outer_circle_at_the_coset_cap(monkeypatch, capsys):
    # at p = 101 the outer circle is 100 cosets: summed at a cap of 100, refused at 99
    argv = ["gamma", "--p", "101", "--k", "1", "--chi", "0", "--s", "2"]
    assert run(argv) == 0
    expected, _ = _capture(capsys)
    monkeypatch.setattr(quadrature, "COSET_CAP", 100)
    assert run(argv) == 0
    assert _capture(capsys) == (expected, "")
    monkeypatch.setattr(quadrature, "COSET_CAP", 99)
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "CosetCapError", "message": "100 representatives at depth 1 exceed the cap of 99"
    }


def test_gamma_reads_the_phase_table_of_an_eigencheck(capsys):
    # gamma's outer circle at p = 97 is the eigencheck's r0 = 0 table; the
    # eigencheck runs its kernel once per ket and coset, 8 times in all
    padic.phase_table.cache_clear()
    assert run(["eigencheck", "--kind", "plain", "--p", "97", "--alpha", "1"]) == 0
    before = padic.phase_table.cache_info()
    assert run(["gamma", "--p", "97", "--k", "1", "--chi", "0", "--s", "2"]) == 0
    _capture(capsys)
    after = padic.phase_table.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1) == (2, 7)


def test_degenerate_twist_exits_two(capsys):
    assert run(["local-factor", "--kind", "dirichlet", "--p", "2", "--s", "2",
                "--character", "4:1"]) == 2
    _, err = _capture(capsys)
    assert json.loads(err)["error"]["type"] == "DegenerateTwistError"


def test_local_factor_success(capsys):
    code = run(["local-factor", "--kind", "modular", "--p", "2", "--s", "8"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["within_bound"] is True
    assert abs(report["closed_form"][0] - 8 / 9) < 1e-12


def test_lseries_euler_and_series(capsys):
    code = run(["lseries", "--kind", "zeta", "--s", "2", "--prime-bound", "5000"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"][0] - 1.6449340668) < 1e-4
    assert report["config"]["prime_bound"] == 5000

    code = run(["lseries", "--kind", "dirichlet", "--character", "4:1", "--s", "1",
                "--method", "series", "--series-length", "100000"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"][0] - 0.7853981634) < 1e-5


@pytest.mark.parametrize(
    "kind, default",
    [(["zeta"], 1_000_000), (["dirichlet", "--character", "4:1"], 1_000_000), (["modular"], 5000)],
)
def test_a_series_report_echoes_the_length_it_summed(kind, default, capsys):
    # a modular series sums its whole table, DEFAULT_DELTA_TERMS long by default
    for flags, length in (([], default), (["--series-length", "300"], 300)):
        assert run(["lseries", "--kind", *kind, "--s", "8", "--method", "series", *flags]) == 0
        report = json.loads(_capture(capsys)[0])
        assert report["series_length"] == report["config"]["series_length"] == length
        assert report["terms_used"] == length


def test_series_length_cap_exits_two_at_once(capsys):
    over = str(2**53 + 1)
    argv = ["lseries", "--kind", "dirichlet", "--character", "4:1", "--s", "1", "--method", "series",
            "--series-length", over]
    assert run(argv) == 2
    payload = json.loads(_capture(capsys)[1])
    assert payload["error"]["type"] == "SeriesCapError"
    assert over in payload["error"]["message"]


def test_truncation_cap_exits_two_at_once(capsys):
    for over in ("1000001", "1000000000000"):
        for argv in (
            ["local-factor", "--kind", "zeta", "--p", "3", "--s", "2", "--truncation", over],
            ["local-factor", "--kind", "modular", "--p", "3", "--s", "8", "--truncation", over],
            ["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "2", "--truncation", over],
            ["hecke-trace", "--p", "2", "--s", "8", "--shift", "1", "--truncation", over],
        ):
            assert run(argv) == 2
            payload = json.loads(_capture(capsys)[1])
            assert payload["error"] == {
                "type": "SeriesCapError",
                "message": f"truncation {over} exceeds the cap 1000000",
            }


def test_eigencheck_decay_that_rounds_to_one_exits_two(capsys):
    for alpha in ("1e-300+5i", "1e-17+5i"):
        assert run(["eigencheck", "--kind", "plain", "--p", "3", "--alpha", alpha]) == 2
        payload = json.loads(_capture(capsys)[1])
        assert payload["error"]["type"] == "ConvergenceError"


def test_tau_table_cap_exits_two(capsys):
    over = str(DELTA_TERMS_CAP + 1)
    for argv in (
        ["tau", "--max", over],
        ["lseries", "--kind", "modular", "--s", "8", "--method", "series", "--series-length", over],
    ):
        assert run(argv) == 2
        payload = json.loads(_capture(capsys)[1])
        assert payload["error"]["type"] == "TableCapError"
        assert str(DELTA_TERMS_CAP) in payload["error"]["message"]


def test_tau_reports_decimal_strings(capsys):
    code = run(["tau", "--max", "8"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == ["1", "-24", "252", "-1472", "4830", "-6048", "-16744", "84480"]


def test_factorize_report(capsys):
    code = run(["factorize", "--p", "3"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["a_p"] == 252
    assert report["chi_pk"] == 177147
    assert report["sum_residual"] < 1e-9


def test_factorize_chi_pk_is_exact_past_double_precision(capsys):
    code = run(["factorize", "--p", "97"])
    out, _ = _capture(capsys)
    assert code == 0
    assert json.loads(out)["chi_pk"] == str(97**11)


def test_eigencheck_modular_defaults_to_shallow_radius(capsys):
    code = run(["eigencheck", "--kind", "modular_a1", "--p", "2", "--alpha", "1",
                "--max-ket", "1", "--points", "2"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == 2
    assert report["all_passed"] is True


def test_eigencheck_plain_defaults_to_deep_radius(capsys):
    code = run(["eigencheck", "--kind", "plain", "--p", "3", "--alpha", "1.0",
                "--max-ket", "1", "--points", "2"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == 40
    assert report["all_passed"] is True


def test_eigencheck_negative_max_ket_is_usage_error(capsys):
    code = run(["eigencheck", "--kind", "plain", "--p", "3", "--alpha", "1", "--max-ket", "-1"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert "--max-ket" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "3", "--alpha", "1", "--radius", "100000"],
         "truncation exponent R = 100000 exceeds the cap of 1000"),
        (["--p", "3", "--alpha", "1", "--max-ket", "1000"],
         "ket 1000 at p = 3 would reach magnitude e^2197, past the cap e^600; "
         "this operator allows kets up to 273"),
    ],
)
def test_eigencheck_over_its_caps_fails_before_any_shell(argv, message, monkeypatch, capsys):
    # Gamma(-alpha) is the first thing a kernel run computes after its checks
    def no_shell(spec):
        raise AssertionError("a kernel shell was computed")

    monkeypatch.setattr(wavelets, "gamma_closed_form", no_shell)
    code = run(["eigencheck", "--kind", "plain", *argv])
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "KernelCapError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "3", "--alpha", "1", "--radius", str(wavelets.RADIUS_CAP), "--max-ket", "0"],
        ["--p", "3", "--alpha", "1", "--max-ket", "273"],
    ],
)
def test_eigencheck_at_its_caps_runs(argv, capsys):
    code = run(["eigencheck", "--kind", "plain", *argv, "--points", "1"])
    out, _ = _capture(capsys)
    assert code == 0
    assert math.isfinite(json.loads(out)["worst_margin"])


def test_factorize_composite_prime_exits_two(capsys):
    code = run(["factorize", "--p", "4"])
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"] == "prime must be prime, got 4"


def _no_table(*args, **kwargs):
    raise AssertionError("a tau table was built before the argument check")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factorize", "--p", "150000"], "prime must be prime, got 150000"),
        (["local-factor", "--kind", "modular", "--p", "150000", "--s", "8"],
         "prime must be prime, got 150000"),
        (["eigencheck", "--kind", "modular_a1", "--p", "150000", "--alpha", "1"],
         "prime must be prime, got 150000"),
        (["eigencheck", "--kind", "modular_a2", "--p", "4", "--alpha", "1"],
         "prime must be prime, got 4"),
        (["hecke-trace", "--p", "150000", "--s", "8", "--shift", "1"],
         "prime must be prime, got 150000"),
        (["hecke-trace", "--p", "11", "--s", "8", "--shift", "-1"], "shift must be nonnegative"),
        (["hecke-trace", "--p", "3", "--s", "8", "--shift", "5", "--truncation", "4"],
         "truncation M = 4 cannot be below the shift 5"),
        (["gamma", "--p", "4", "--k", "3", "--chi", "1", "--s", "2"], "prime must be prime, got 4"),
        (["eigencheck", "--kind", "plain", "--p", "4", "--alpha", "1"],
         "prime must be prime, got 4"),
        (["eigencheck", "--kind", "character_twisted", "--p", "4", "--alpha", "1",
          "--character", "3:1"], "prime must be prime, got 4"),
        # each breaks two rules, the first of them the library's
        (["hecke-trace", "--p", "4", "--s", "8", "--shift", "10"], "prime must be prime, got 4"),
        (["hecke-trace", "--p", "2", "--s", "8", "--shift", "20", "--truncation", "10"],
         "truncation M = 10 cannot be below the shift 20"),
    ],
)
def test_bad_prime_or_shift_fails_before_any_table(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(modular, "delta_expansion", _no_table)
    code = run(argv)
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "modular_a1", "--p", "99991", "--points", "9"], "--points must lie in 1..5"),
        (["--kind", "modular_a2", "--p", "99991", "--max-ket", "-1"], "--max-ket must be nonnegative"),
    ],
)
def test_eigencheck_usage_errors_come_before_the_tau_table(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(modular, "_tau_memo", {})
    monkeypatch.setattr(modular, "_tau_table", _no_table)
    code = run(["eigencheck", *argv, "--alpha", "1"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv, error, message, tables",
    [
        (["lseries", "--kind", "modular", "--s", "1", "--prime-bound", "150000"],
         "ConvergenceError", "Euler product needs Re(s) > 6.5; got s = (1+0j)", []),
        (["lseries", "--kind", "modular", "--s", "1", "--prime-bound", "300000"],
         "ConvergenceError", "Euler product needs Re(s) > 6.5; got s = (1+0j)", []),
        (["lseries", "--kind", "modular", "--method", "series", "--s", "6", "--series-length", "150000"],
         "ConvergenceError", "modular series needs Re(s) > 7.0; got s = (6+0j)", []),
        (["lseries", "--kind", "modular", "--method", "series", "--s", "1", "--series-length", "300000"],
         "ConvergenceError", "modular series needs Re(s) > 7.0; got s = (1+0j)", []),
        (["lseries", "--kind", "modular", "--s", "8", "--prime-bound", "100000000"],
         "SeriesCapError", "prime bound 100000000 exceeds the cap 10000000", []),
        # the trace reads a(2) to find its ratio, and fails before p^shift is looked at
        (["hecke-trace", "--p", "2", "--s", "1", "--shift", "20", "--truncation", "30"],
         "ConvergenceError", "modular trace at p = 2 needs max|a_i| p^(-Re s) < 1; got 22.6274 at s = (1+0j)", [2]),
    ],
)
def test_modular_requests_report_the_library_fault_first(argv, error, message, tables, monkeypatch, capsys):
    # no table the library does not read is built, whatever its length
    asked = []
    build = modular.delta_expansion

    def counted(N):
        asked.append(N)
        return build(N)

    monkeypatch.setattr(modular, "delta_expansion", counted)
    code = run(argv)
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": error, "message": message}
    assert asked == tables


def test_gamma_bad_s_is_usage_error_before_the_prime_check(capsys):
    code = run(["gamma", "--p", "4", "--k", "4", "--chi", "1", "--s", "bogus"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert "bogus" in err


@pytest.mark.parametrize("p, shift", [(2, 15000), (99991, 1_000_000)])
def test_hecke_trace_large_shift_hits_the_table_cap(p, shift, monkeypatch, capsys):
    build = modular.delta_expansion

    def capped(N):
        assert N <= DELTA_TERMS_CAP, "a tau table was requested past the cap"
        return build(N)

    monkeypatch.setattr(modular, "delta_expansion", capped)
    code = run(["hecke-trace", "--p", str(p), "--s", "8", "--shift", str(shift),
                "--truncation", str(shift)])
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == TableCapError.__name__
    assert f"p^shift = {p}^{shift}" in error["message"]
    assert str(DELTA_TERMS_CAP) in error["message"]


def test_hecke_trace_report(capsys):
    code = run(["hecke-trace", "--p", "2", "--s", "8", "--shift", "1"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["value"][0] - (-1 / 12)) < 1e-9
    assert report["abs_difference"] <= report["remainder_bound"] + 1e-9


def test_hecke_trace_shift_zero_is_the_local_factor(capsys):
    code = run(["hecke-trace", "--p", "11", "--s", "8", "--shift", "0"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    closed = local_factor_closed(delta_provider(11), 11, 8.0)
    value = complex(*report["value"])
    assert abs(value - closed) <= report["remainder_bound"] + 1e-9


def test_selftest_passes_and_is_deterministic(capsys):
    assert run(["selftest"]) == 0
    first, _ = _capture(capsys)
    assert run(["selftest"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    report = json.loads(first)
    assert report["failed"] == 0


def test_output_env_redirect(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    monkeypatch.setenv("PADIC_LSERIES_OUTPUT", str(target))
    assert run(["tau", "--max", "3"]) == 0
    out, _ = _capture(capsys)
    assert out == ""
    assert json.loads(target.read_text())["coefficients"] == ["1", "-24", "252"]


def test_unwritable_output_path_is_a_usage_error(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "report.json"
    monkeypatch.setenv("PADIC_LSERIES_OUTPUT", str(target))
    assert run(["tau", "--max", "3"]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert err.startswith(f"usage error: cannot write report to {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_flags_override_the_defaults(capsys):
    code = run(["local-factor", "--kind", "zeta", "--p", "2", "--s", "2",
                "--truncation", "16", "--format", "tsv"])
    out, _ = _capture(capsys)
    assert code == 0
    # the flags set their settings, the others keep their defaults
    assert "config.truncation\t16" in out
    assert "config.output_format\t\"tsv\"" in out
    assert "config.prime_bound\t100000" in out
    assert "\t" in out.splitlines()[0]


def test_the_removed_config_file_flag_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("truncation = 32\n")
    assert run(["selftest", "--config", str(config)]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert "unrecognized arguments: --config" in err


def test_tsv_flattening(capsys):
    code = run(["tau", "--max", "2", "--format", "tsv"])
    out, _ = _capture(capsys)
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["coefficients[0]"] == '"1"'
    assert lines["coefficients[1]"] == '"-24"'
    assert lines["command"] == '"tau"'


# a valid request of each subcommand, and the settings it reads; lseries
# (an Euler product) and lseries --method series are one row each
_REQUESTS = {
    "gamma": ["--p", "3", "--k", "4", "--chi", "1", "--s", "0.5"],
    "eigencheck": ["--kind", "plain", "--p", "3", "--alpha", "1", "--max-ket", "0", "--points", "1"],
    "local-factor": ["--kind", "zeta", "--p", "3", "--s", "2"],
    "lseries": ["--kind", "zeta", "--s", "2"],
    "lseries --method series": ["--kind", "zeta", "--s", "2"],
    "tau": ["--max", "3"],
    "factorize": ["--p", "3"],
    "hecke-trace": ["--p", "2", "--s", "8", "--shift", "1"],
    "selftest": [],
}
_READS = {
    "gamma": {"truncation"},
    "eigencheck": {"tolerance"},
    "local-factor": {"truncation", "tolerance"},
    "lseries": {"prime-bound"},
    "lseries --method series": {"series-length"},
    "hecke-trace": {"truncation"},
}
_SETTING_FLAGS = {"truncation": "16", "prime-bound": "500", "series-length": "300",
                  "tolerance": "0.001", "coset-cap": "7"}
# lseries declares both flags, since --method picks the one it reads
_METHOD_FLAGS = {"prime-bound", "series-length"}


@pytest.mark.parametrize("flag", list(_SETTING_FLAGS))
@pytest.mark.parametrize("command", list(_REQUESTS))
def test_a_subcommand_takes_only_the_settings_it_reads(command, flag, capsys):
    value = _SETTING_FLAGS[flag]
    code = run([*command.split(), *_REQUESTS[command], f"--{flag}", value])
    out, err = _capture(capsys)
    if flag in _READS.get(command, ()):
        assert code == 0, err
        assert json.loads(out)["config"][flag.replace("-", "_")] == json.loads(value)
    else:
        assert code == 1
        assert out == ""
        if command.startswith("lseries") and flag in _METHOD_FLAGS:
            method = "series" if "--method series" in command else "euler"
            assert err == f"usage error: --{flag} is not read by --method {method}\n"
        else:
            assert f"unrecognized arguments: --{flag} {value}" in err


def test_the_config_echo_defaults_are_the_librarys_own(capsys):
    assert run(["tau", "--max", "3"]) == 0
    assert json.loads(_capture(capsys)[0])["config"] == {
        "truncation": quadrature.DEFAULT_INNER_CIRCLES,
        "prime_bound": 100_000,
        "series_length": 1_000_000,
        "tolerance": 1e-9,
        "coset_cap": padic.COSET_CAP,
        "output_format": "json",
    }
    assert quadrature.DEFAULT_INNER_CIRCLES == 64
    assert padic.COSET_CAP == 1_000_000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gamma", *_REQUESTS["gamma"], "--truncation", "0"], "config values must be positive"),
        (["hecke-trace", *_REQUESTS["hecke-trace"], "--truncation", "-1"],
         "config values must be positive"),
        (["local-factor", *_REQUESTS["local-factor"], "--tolerance", "2"], "tolerance must lie in (0, 1)"),
        (["eigencheck", *_REQUESTS["eigencheck"], "--tolerance", "0"], "tolerance must lie in (0, 1)"),
        (["lseries", *_REQUESTS["lseries"], "--prime-bound", "0"], "config values must be positive"),
        (["lseries", "--kind", "modular", "--s", "8", "--method", "series", "--series-length", "0"],
         "config values must be positive"),
        # before the handler's own checks: --character is missing here
        (["lseries", "--kind", "dirichlet", "--s", "2", "--prime-bound", "0"],
         "config values must be positive"),
        # a count is checked before the tolerance
        (["local-factor", *_REQUESTS["local-factor"], "--tolerance", "2", "--truncation", "0"],
         "config values must be positive"),
    ],
)
def test_a_setting_out_of_range_exits_two(argv, message, capsys):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "argv, flag, method",
    [
        (["--series-length", "0"], "series-length", "euler"),
        (["--method", "series", "--prime-bound", "0"], "prime-bound", "series"),
        # before the handler's own checks too: --character is missing here
        (["--kind", "dirichlet", "--series-length", "-5", "--prime-bound", "0"], "series-length", "euler"),
    ],
)
def test_a_setting_the_lseries_method_does_not_read_exits_one_before_any_range_check(argv, flag, method, capsys):
    assert run(["lseries", "--kind", "zeta", "--s", "2", *argv]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"usage error: --{flag} is not read by --method {method}\n"


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["local-factor", "--kind", "zeta", "--p", "3", "--s", "2", "--character", "4:1"], "zeta"),
        # a malformed address is refused for the flag, not parsed
        (["local-factor", "--kind", "zeta", "--p", "3", "--s", "2", "--character", "garbage"], "zeta"),
        (["local-factor", "--kind", "modular", "--p", "5", "--s", "12", "--character", "4:1"], "modular"),
        (["lseries", "--kind", "zeta", "--s", "2", "--character", "4:1"], "zeta"),
        (["lseries", "--kind", "modular", "--s", "8", "--method", "series", "--character", "4:1"], "modular"),
        (["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1", "--character", "5:1"], "plain"),
        (["eigencheck", "--kind", "modular_a1", "--p", "5", "--alpha", "1", "--character", "5:1"], "modular_a1"),
        (["eigencheck", "--kind", "modular_a2", "--p", "5", "--alpha", "1", "--character", "x"], "modular_a2"),
        # before any range check
        (["local-factor", "--kind", "zeta", "--p", "3", "--s", "2", "--character", "4:1", "--truncation", "0"],
         "zeta"),
        (["eigencheck", "--kind", "plain", "--p", "17", "--alpha", "1", "--character", "5:1", "--tolerance", "2"],
         "plain"),
    ],
)
def test_a_character_the_kind_does_not_read_exits_one_before_any_range_check(argv, kind, capsys):
    assert run(argv) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"usage error: --character is not read by --kind {kind}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2", "--character", "4:1"],
        ["lseries", "--kind", "dirichlet", "--s", "2", "--character", "4:1", "--prime-bound", "100"],
        ["eigencheck", "--kind", "character_twisted", "--p", "7", "--alpha", "1", "--character", "5:1",
         "--max-ket", "0"],
    ],
)
def test_a_character_the_kind_reads_is_taken(argv, capsys):
    assert run(argv) == 0
    assert json.loads(_capture(capsys)[0])["kind"] == argv[2]


def test_an_unknown_format_is_a_usage_error(capsys):
    assert run(["tau", "--max", "3", "--format", "xml"]) == 1
    out, err = _capture(capsys)
    assert out == ""
    assert "invalid choice: 'xml'" in err


def test_json_report_is_sorted_and_stable(capsys):
    assert run(["factorize", "--p", "2"]) == 0
    first, _ = _capture(capsys)
    assert run(["factorize", "--p", "2"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    keys = list(json.loads(first).keys())
    assert keys == sorted(keys)


def test_encode_maps_each_report_type():
    safe = 2**53
    report = {
        "1": True,
        "int": [safe - 1, -(safe - 1), safe, -safe],
        "float": -0.0,
        "complex": 1.5 - 2j,
        "list": ["a", [False, None is None]],
        "empty": [{}, []],
    }
    text = cli._render(report, "json")
    assert text.startswith('{\n  "1": true,\n  "complex": [\n    1.5,\n    -2.0\n  ],\n')
    assert json.loads(text) == {
        "1": True,
        "int": [safe - 1, -(safe - 1), str(safe), str(-safe)],
        "float": -0.0,
        "complex": [1.5, -2.0],
        "list": ["a", [False, True]],
        "empty": [{}, []],
    }
    assert cli._render(report, "tsv").splitlines() == [
        "1\ttrue",
        "complex[0]\t1.5",
        "complex[1]\t-2.0",
        "float\t-0.0",
        f"int[0]\t{safe - 1}",
        f"int[1]\t{-(safe - 1)}",
        f'int[2]\t"{safe}"',
        f'int[3]\t"{-safe}"',
        'list[0]\t"a"',
        "list[1][0]\tfalse",
        "list[1][1]\ttrue",
    ]
    # reports hold no Fraction (sample points are "num/den" strings already)
    # and no tuple (a sequence is a list)
    for bad, name in ((Fraction(-3, 4), "Fraction"), (None, "NoneType"), (("a", 1), "tuple"), ((), "tuple")):
        for output_format in ("json", "tsv"):
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                cli._render({"x": [bad]}, output_format)
    # every key is a str: JSON writes no str(key)
    for report in ({1: True}, {"x": {"a": 1, 0: 2}}, {"x": [{None: 1.5}]}):
        with pytest.raises(TypeError):
            cli._render(report, "json")


# The route the writer replaced: encode the report into a JSON-ready tree,
# then json.dumps it (JSON) or flatten it with json.dumps per scalar (TSV).
# Kept here only as the reference of the writer's bytes.


def _reference_encode(value):
    if isinstance(value, (str, float, bool)):
        return value
    if isinstance(value, int):
        return value if abs(value) < 2**53 else str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: _reference_encode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reference_encode(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_flatten(value, prefix, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            _reference_flatten(value[key], f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reference_flatten(item, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}\t{json.dumps(value)}")


def _reference_render(report, output_format):
    encoded = _reference_encode(report)
    if output_format == "json":
        return json.dumps(encoded, sort_keys=True, indent=2) + "\n"
    lines = []
    _reference_flatten(encoded, "", lines)
    return "\n".join(lines) + "\n"


def test_writer_matches_the_encode_then_dumps_route_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    safe = 2**53
    text = st.text(
        alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'))
    )
    scalars = st.one_of(
        text,
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1.7976931348623157e308]),
        st.integers(),
        st.sampled_from([s + d for s in (safe, -safe) for d in (-1, 0, 1)]),
        st.booleans(),
        st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
    # lists of text alone take the writer's one-step path; each draws one
    # character that _quote escapes or keeps, among digits and a dash
    text_lists = st.sampled_from('"\\\x00\x7f\xe9 ').flatmap(
        lambda special: st.lists(st.text(alphabet=st.sampled_from([special, "1", "-"])), min_size=1, max_size=5)
    )
    values = st.recursive(
        st.one_of(scalars, text_lists),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(text, children, max_size=4),
        ),
        max_leaves=15,
    )
    reports = st.dictionaries(text, values, max_size=6)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(report=reports)
    @hypothesis.example(report={"q": ["1", '"']})
    @hypothesis.example(report={"b": ["1", "\\"]})
    @hypothesis.example(report={"nul": ["\x00", "-"]})
    @hypothesis.example(report={"del": ["1", "\x7f"]})
    @hypothesis.example(report={"e": ["\xe9"]})
    @hypothesis.example(report={"sp": [" ", "1 2"]})
    def check(report):
        for output_format in ("json", "tsv"):
            assert cli._render(report, output_format) == _reference_render(report, output_format)

    check()


def test_the_writer_gives_the_reference_bytes_on_the_benchmark_traffic(monkeypatch, capsys):
    # the workloads ask for JSON only and the property test draws random
    # trees: every seed-1 request in both formats, against json.dumps of the
    # parsed report and its path<TAB>json.dumps(leaf) flattening
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    requests = _benchmark_requests((1,))
    assert len(requests) == 321
    rendered = 0
    for argv in requests:
        code = run(argv)
        out, _ = _capture(capsys)
        assert run([*argv, "--format", "tsv"]) == code, argv
        tsv, _ = _capture(capsys)
        if code:
            assert out == tsv == "", argv
            continue
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", argv
        report["config"]["output_format"] = "tsv"
        lines = []
        _reference_flatten(report, "", lines)
        assert tsv == "\n".join(lines) + "\n", argv
        rendered += 1
    assert rendered > 250


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_float_at_any_depth_is_refused_naming_its_path(bad):
    # strict JSON has no token for these; the path is the one TSV writes
    cases = [
        ({"x": bad}, "x"),
        ({"a": [1, {"b": [2.0, bad]}]}, "a[1].b[1]"),
        ({"z": complex(bad, 0.0)}, "z[0]"),
        ({"z": [complex(0.0, bad)]}, "z[0][1]"),
        ({"0": {"ok": 1.5, "x": [bad, math.inf]}}, "0.x[0]"),
    ]
    for report, path in cases:
        for output_format in ("json", "tsv"):
            with pytest.raises(FloatRangeError, match=rf"^report field {re.escape(path)} is {bad}; "):
                cli._render(report, output_format)
    # a tuple is refused as it is met, before the float it holds
    for output_format in ("json", "tsv"):
        with pytest.raises(TypeError, match="^cannot serialize tuple$"):
            cli._render({"a": [1, {"b": (2.0, bad)}]}, output_format)
    with pytest.raises(TypeError):
        cli._render({0: {"ok": 1.5, "x": [bad]}}, "json")


@pytest.mark.parametrize(
    "argv",
    [
        # g u >= 1/2 at |Im s| = 1e17: the certified rounding radius is inf
        ["gamma", "--p", "2", "--k", "1", "--chi", "0", "--s", "0.5+1e17i"],
        ["lseries", "--kind", "zeta", "--s", "2+1e17i", "--method", "series", "--series-length", "100"],
    ],
)
def test_an_infinite_remainder_bound_exits_two_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    for output_format in ("json", "tsv"):
        assert run([*argv, "--format", output_format]) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "FloatRangeError",
            "message": "report field remainder_bound is inf; strict JSON has no token for it",
        }
    target = tmp_path / "report.json"
    monkeypatch.setenv("PADIC_LSERIES_OUTPUT", str(target))
    assert run(argv) == 2
    assert not target.exists()


@pytest.mark.parametrize("p", [2, 3, 17, 307])
def test_sample_points_are_the_fraction_route(p):
    for label in range(6):
        n = wavelets.ket(p, label).n
        for mult in (0, 1, p, p + 1, p * p):
            q = Fraction(mult) * Fraction(p) ** -n
            point, text = cli._sample_point(p, mult, n)
            assert point == padic.padic_from_fraction(p, q)
            assert text == f"{q.numerator}/{q.denominator}"
