import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "omega_zeta.cli"]


def run_cli(*argv, env=None):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env)


def json_records(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_zeta_json_value():
    proc = run_cli("zeta", "3", "--terms", "64")
    assert proc.returncode == 0
    (rec,) = json_records(proc)
    assert rec["command"] == "zeta"
    assert abs(rec["value_re"] - 1.2020569031595943) < 1e-12
    assert rec["value_im"] == 0.0
    assert rec["terms_used"] == 64
    assert rec["abs_error_estimate"] < 1e-9


def test_zeta_domain_error_exit_code():
    proc = run_cli("zeta", "1")
    assert proc.returncode == 3
    assert "error" in proc.stderr


def test_bad_complex_argument_exit_code():
    proc = run_cli("phi", "3", "--z", "nonsense")
    assert proc.returncode == 3


@pytest.mark.parametrize("argv", [
    ("zeta", "abc"),
    ("zeta",),
    ("zeta", "3", "--method", "bogus"),
], ids=["bad-int", "missing-m", "bad-method"])
def test_parse_error_exit_code(argv):
    # Exit 2 means divergence; a bad command line is a domain/parse error.
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("usage: omega-zeta zeta")
    assert "error: omega-zeta zeta: " in proc.stderr


def test_help_exits_zero():
    proc = run_cli("zeta", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: omega-zeta zeta")


def test_phi_pole_exit_code():
    proc = run_cli("phi", "2", "--z", "1.0,0.0")
    assert proc.returncode == 3


def test_gamma_pfd_divergence_exit_code():
    proc = run_cli("gamma-pfd", "--a", "3", "--z", "0.4,0", "--method", "none")
    assert proc.returncode == 2


def test_phi_product_route_at_large_m():
    proc = run_cli("phi", "200", "--z", "0.5,0", "--route", "product")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    assert rec["value_re"] == pytest.approx(1.0, rel=1e-15)


def test_phi_all_routes_disagreement():
    proc = run_cli("phi", "3", "--z", "0.4,0.1", "--route", "all")
    assert proc.returncode == 0
    records = json_records(proc)
    assert [r["command"] for r in records] == ["phi", "phi", "phi",
                                              "phi-disagreement"]
    assert records[-1]["value_re"] < 1e-9


def test_gamma_pfd_reports_deviation():
    proc = run_cli("gamma-pfd", "--a", "1.5", "--z", "0.3,0.0",
                   "--method", "euler")
    (rec,) = json_records(proc)
    assert rec["deviation"] < 1e-6 * abs(rec["reference_re"])
    assert abs(rec["value_re"] - rec["reference_re"]) == pytest.approx(
        rec["deviation"], abs=1e-15)


@pytest.mark.parametrize("variant,tol", [("sine", 1e-6), ("hyperbolic", 1e-9),
                                         ("beta", 1e-13)])
def test_zeta3_variants(variant, tol):
    proc = run_cli("zeta3", "--variant", variant, "--terms", "40")
    assert proc.returncode == 0
    (rec,) = json_records(proc)
    assert abs(rec["value_re"] - 1.2020569031595943) < tol


def test_zeta3_beta_uses_every_requested_term():
    proc = run_cli("zeta3", "--variant", "beta", "--terms", "200")
    assert proc.returncode == 0
    (rec,) = json_records(proc)
    assert rec["terms_used"] == 200


def test_converge_table_shape():
    proc = run_cli("converge", "--m", "2", "--max-terms", "10")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,term,partial_sum,accelerated,abs_error_vs_oracle"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert last[0] == "10"
    assert float(last[4]) < 1e-8


def test_csv_and_text_formats():
    proc = run_cli("zeta", "2", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("command,value_re,")
    assert "inputs" not in lines[0]
    proc = run_cli("zeta", "2", "--format", "text")
    assert "value=" in proc.stdout and "method=cvz" in proc.stdout


def test_repeated_runs_deterministic_modulo_timing():
    def stripped(proc):
        recs = json_records(proc)
        for rec in recs:
            rec.pop("elapsed_ms")
        return recs

    a = stripped(run_cli("zeta", "4", "--terms", "32"))
    b = stripped(run_cli("zeta", "4", "--terms", "32"))
    assert a == b


def test_negative_complex_value_as_separate_token():
    def stripped(proc):
        assert proc.returncode == 0, proc.stderr
        (rec,) = json_records(proc)
        rec.pop("elapsed_ms")
        return rec

    for cmd in (("phi", "3"), ("gamma-pfd", "--a", "1.5")):
        spaced = stripped(run_cli(*cmd, "--z", "-0.5,0.1"))
        joined = stripped(run_cli(*cmd, "--z=-0.5,0.1"))
        assert spaced == joined
        assert spaced["inputs"]["z"] == "-0.5,0.1"


def test_negative_a_in_exponent_form_as_separate_token():
    # argparse reads "-2.5e-1" as an option string: its negative-number
    # pattern has no exponent.
    records = []
    for a in (("--a", "-2.5e-1"), ("--a=-0.25",)):
        proc = run_cli("gamma-pfd", *a, "--z", "0.3,0")
        assert proc.returncode == 0, proc.stderr
        (rec,) = json_records(proc)
        rec.pop("elapsed_ms")
        records.append(rec)
    assert records[0] == records[1]
    assert records[0]["inputs"]["a"] == -0.25


def test_verify_suite_choices_are_the_suites():
    from omega_zeta import verify
    from omega_zeta.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == ("all",) + verify.SUITE_NAMES


def test_check_result_fields_and_default_detail():
    from omega_zeta.verify import CheckResult

    result = CheckResult("pfd", "coefficients sum to zero", True)
    assert (result.suite, result.name, result.passed, result.detail) == (
        "pfd", "coefficients sum to zero", True, "")
    assert result == CheckResult("pfd", "coefficients sum to zero", True, "")
    assert result != CheckResult("pfd", "coefficients sum to zero", False)
    assert repr(result) == ("CheckResult(suite='pfd', name='coefficients sum to"
                            " zero', passed=True, detail='')")
    with pytest.raises(AttributeError):
        result.passed = False


@pytest.mark.parametrize("module, absent", [
    ("omega_zeta.cli", ("dataclasses", "inspect", "typing", "omega_zeta.verify")),
    ("omega_zeta", ("dataclasses",)),
])
def test_import_loads_no_unneeded_modules(module, absent):
    # -S keeps the imports of site's .pth files out of sys.modules.
    code = (f"import sys, {module}; "
            f"print(*(m for m in {absent!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_zero_terms_is_a_typed_domain_error():
    proc = run_cli("zeta", "3", "--terms", "0")
    assert proc.returncode == 3
    assert "max_terms must be >= 1" in proc.stderr


def test_gamma_pfd_at_zero_with_cvz():
    proc = run_cli("gamma-pfd", "--a", "1.5", "--z=0,0", "--method", "cvz")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    assert rec["value_re"] == pytest.approx(math.pi / 4, rel=1e-15)
    assert rec["abs_error_estimate"] == 0.0


def test_gamma_pfd_cvz_with_z_beyond_a():
    # The first term's sign is flipped (z^2 > a^2), so it is summed apart.
    mp = pytest.importorskip("mpmath")
    proc = run_cli("gamma-pfd", "--a", "0.3", "--z", "0.45,0", "--method", "cvz")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    ref = float(mp.gamma(mp.mpf("0.75")) * mp.gamma(mp.mpf("-0.15")))
    assert abs(rec["value_re"] - ref) <= 1e-12 * abs(ref)


def test_converge_rejects_m_below_two_before_any_line():
    proc = run_cli("converge", "--m", "1")
    assert proc.returncode == 3
    assert "m must be >= 2, got 1" in proc.stderr
    assert proc.stdout == ""


def test_gamma_pfd_at_z_zero_past_the_coefficient_range():
    proc = run_cli("gamma-pfd", "--a", "85", "--z=0,0")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    assert rec["value_re"] == rec["reference_re"] == pytest.approx(1.0984e253, rel=1e-4)
    assert rec["abs_error_estimate"] == 0.0


@pytest.mark.parametrize("count", ["0", "-4"])
def test_converge_rejects_non_positive_max_terms(count):
    proc = run_cli("converge", "--m", "3", "--max-terms", count)
    assert proc.returncode == 3
    assert "max_terms must be >= 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv,message", [
    (("phi", "3", "--z", "nan,0"), "z must be a finite number, got (nan+0j)"),
    (("phi", "3", "--z", "inf,0"), "z must be a finite number, got (inf+0j)"),
    (("gamma-pfd", "--a", "nan", "--z", "0.3,0"), "a must be a finite real number, got nan"),
    (("gamma-pfd", "--a", "1.5", "--z", "nan,0"), "z must be a finite number, got (nan+0j)"),
], ids=["phi-z-nan", "phi-z-inf", "gamma-pfd-a-nan", "gamma-pfd-z-nan"])
def test_non_finite_input_is_a_typed_domain_error(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert proc.stderr == f"error: {message}\n"


def test_gamma_overflow_reaches_the_user_as_domain_error():
    proc = run_cli("gamma-pfd", "--a", "100", "--z", "0.3,0")
    assert proc.returncode == 3
    assert "exceeds double range" in proc.stderr


def test_gamma_pfd_huge_a_is_not_an_internal_message():
    proc = run_cli("gamma-pfd", "--a", "1e308", "--z=0.1,0")
    assert proc.returncode == 3
    assert "exceeds double range" in proc.stderr
    assert "cannot convert" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("phi", "3", "--z", "1e308,1e308"), ("phi", "5", "--z=-1e308,1e307"),
    ("phi", "2", "--z", "1e308,1.7e308"),
], ids=["m3", "m5", "abs-z-overflows"])
def test_phi_huge_z_is_not_an_internal_message(argv):
    # pi*z overflows in log_gamma's reflection; |z| itself overflows abs().
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert "double range" in proc.stderr
    assert "convert" not in proc.stderr and "too large" not in proc.stderr


def test_phi_large_m_outside_unit_disk_underflows_to_zero():
    # The pole check must not form z^m: 2.5^1100 overflows a float.
    proc = run_cli("phi", "1100", "--z", "2.5,0", "--route", "gamma")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    assert rec["value_re"] == 0.0 and rec["value_im"] == 0.0


def test_phi_product_route_large_m_outside_unit_disk_underflows_to_zero():
    # (z/n)^m overflows for n <= |z|; those factors are formed in log space.
    proc = run_cli("phi", "1100", "--z", "2.5,0", "--route", "product")
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    assert rec["value_re"] == 0.0 and rec["value_im"] == 0.0


@pytest.mark.parametrize("argv", [
    ("zeta", "15"), ("zeta", "20"), ("zeta", "2000", "--terms", "4"),
    ("zeta", "46", "--terms", "16", "--method", "cvz"),
], ids=["m15", "m20", "m2000-n4", "m46-n16-cvz"])
def test_zeta_with_underflowed_terms_returns_within_its_estimate(argv):
    mp = pytest.importorskip("mpmath")
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    (rec,) = json_records(proc)
    ref = float(mp.zeta(int(argv[1])))
    assert abs(rec["value_re"] - ref) <= max(rec["abs_error_estimate"],
                                             8 * 2.0 ** -52 * ref)


def test_verify_all_passes_quickly():
    start = time.perf_counter()
    proc = run_cli("verify", "--suite", "all")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert elapsed < 10.0
    lines = proc.stdout.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = lines[-1].split()[0]
    passed, count = total.split("/")
    assert passed == count


def test_verify_single_suite():
    proc = run_cli("verify", "--suite", "pfd")
    assert proc.returncode == 0
    assert all(line.split()[1].startswith("pfd")
               for line in proc.stdout.splitlines()[:-1])


def test_zeta_value_matches_pi_squared_over_six():
    proc = run_cli("zeta", "2", "--terms", "32")
    (rec,) = json_records(proc)
    assert abs(rec["value_re"] - math.pi ** 2 / 6) < 1e-12


@pytest.mark.parametrize("argv", [
    ("zeta", "2", "--terms", "403", "--method", "cvz"),
    ("zeta3", "--variant", "sine", "--terms", "403", "--method", "cvz"),
    ("gamma-pfd", "--a", "1.5", "--z", "0.3,0", "--terms", "403", "--method", "cvz"),
    ("gamma-pfd", "--a", "0.7", "--z=0.3,0", "--terms", "403", "--method", "cvz"),
], ids=["zeta", "zeta3-sine", "gamma-pfd", "gamma-pfd-a0.7"])
def test_cvz_past_its_double_range_names_the_limit(argv):
    # (3 + sqrt 8)^N, CVZ's scale, overflows a double from N = 403.
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert "at most 402 terms, got 403" in proc.stderr
    assert "(34," not in proc.stderr


def test_every_library_error_exits_with_the_domain_code(monkeypatch, capsys):
    # main maps the hierarchy, not a list of its subclasses: a new one exits 3.
    from omega_zeta import OmegaZetaError, cli

    class UnlistedError(OmegaZetaError):
        pass

    def handler(args):
        raise UnlistedError("raised by a handler")

    monkeypatch.setattr(cli, "_cmd_zeta", handler)
    assert cli.main(["zeta", "3"]) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == "error: raised by a handler\n"


def test_a_failed_verify_check_prints_its_margin_and_exits_one(monkeypatch, capsys):
    from omega_zeta import cli, verify

    original = verify.zeta_via_series

    def perturbed(m, config=None):
        rep = original(m, config)
        return rep._replace(value=rep.value * (1 + 1e-12))

    monkeypatch.setattr(verify, "zeta_via_series", perturbed)
    assert cli.main(["verify", "--suite", "zeta"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL zeta: series reproduces zeta\(2\.\.6\) "
                        r"\(worst \S+ vs bound 2e-14\)", lines[2])
    assert lines[-1] == "5/6 checks passed"
