"""Exit codes, serialization, config layering, and report determinism."""

from __future__ import annotations

import json

import pytest

from padic_lseries import (
    CHARACTER_MODULUS_CAP,
    DELTA_TERMS_CAP,
    delta_provider,
    local_factor_closed,
)
from padic_lseries.cli import RunConfig, run


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
    # the values the removed --n-terms 16 flag gave for the same request
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5", "--truncation", "16"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["quadrature"] == [1.0000371920341193, -2.3093059156505283e-16]
    assert report["remainder_bound"] == 0.0001388025609698153
    assert report["terms_used"] == 16


def test_gamma_rejects_the_removed_inner_circle_flag(capsys):
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5", "--n-terms", "16"])
    out, err = _capture(capsys)
    assert code == 1
    assert out == ""
    assert "--n-terms" in err


def test_complex_argument_accepts_i_suffix(capsys):
    code = run(["gamma", "--p", "3", "--k", "4", "--chi", "1", "--s", "0.5+14.1i"])
    out, _ = _capture(capsys)
    assert code == 0
    assert json.loads(out)["abs_difference"] < 1e-9


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    _, err = _capture(capsys)
    assert "usage error" in err


def test_malformed_character_is_usage_error(capsys):
    assert run(["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2",
                "--character", "four-one"]) == 1
    _, err = _capture(capsys)
    assert "k:index" in err


def test_character_index_out_of_range_is_usage_error(capsys):
    assert run(["local-factor", "--kind", "dirichlet", "--p", "3", "--s", "2",
                "--character", "4:9"]) == 1
    _, err = _capture(capsys)
    assert "outside" in err


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


def test_lseries_modular_series_sums_its_table(capsys):
    code = run(["lseries", "--kind", "modular", "--s", "8", "--method", "series"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["terms_used"] == 5000
    assert report["series_length"] == 5000

    code = run(["lseries", "--kind", "modular", "--s", "8", "--method", "series",
                "--series-length", "300"])
    out, _ = _capture(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["terms_used"] == report["series_length"] == 300


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


def test_factorize_composite_prime_exits_two(capsys):
    code = run(["factorize", "--p", "4"])
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["message"] == "prime must be prime, got 4"


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


def test_config_file_layering(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# comment line\ntruncation = 32\noutput_format = tsv\n")
    code = run(["local-factor", "--kind", "zeta", "--p", "2", "--s", "2",
                "--config", str(config), "--truncation", "16"])
    out, _ = _capture(capsys)
    assert code == 0
    # flags win over the file; the file sets the format
    assert "config.truncation\t16" in out
    assert "config.output_format\t\"tsv\"" in out
    assert "\t" in out.splitlines()[0]


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed = 9\n")
    assert run(["selftest", "--config", str(config)]) == 1
    _, err = _capture(capsys)
    assert "unknown config key" in err


def test_tsv_flattening(capsys):
    code = run(["tau", "--max", "2", "--format", "tsv"])
    out, _ = _capture(capsys)
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["coefficients[0]"] == '"1"'
    assert lines["coefficients[1]"] == '"-24"'
    assert lines["command"] == '"tau"'


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(truncation=0)
    with pytest.raises(ValueError):
        RunConfig(output_format="xml")
    with pytest.raises(ValueError):
        RunConfig(tolerance=2.0)


def test_json_report_is_sorted_and_stable(capsys):
    assert run(["factorize", "--p", "2"]) == 0
    first, _ = _capture(capsys)
    assert run(["factorize", "--p", "2"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    keys = list(json.loads(first).keys())
    assert keys == sorted(keys)
