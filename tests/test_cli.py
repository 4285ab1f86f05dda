"""Tests for the command line front end: JSON report shape, subcommand
examples, seeded determinism, and the exit-code contract."""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lemnis.cli
from lemnis.cli import main, parse_complex
import lemnis.verify as verify_mod
from lemnis.curves import _quartic_with_thetas, _sextic_with_thetas
from lemnis.numerics import ZETA, DomainError, IterationLimitError, _scaled_residual
from lemnis.theta import TAU_I, TAU_ZETA, canonical_torus_point, theta_four
from lemnis.verify import (
    SUITES,
    IdentityPair,
    SplitMix64,
    format_complex,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    ratio_identities_quartic,
    ratio_identities_sextic,
    sweep,
)

REPORT_KEYS = {"command", "inputs", "outputs", "residuals", "pass", "seed", "elapsed_ms"}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def strict_loads(raw):
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(raw, parse_constant=reject)


# ---------------------------------------------------------------------------
# Helpers.


def test_parse_complex_forms():
    assert parse_complex("2+3i") == 2 + 3j
    assert parse_complex("0.5") == 0.5
    assert parse_complex("-1.5i") == -1.5j
    assert parse_complex("1.25-0.5I") == 1.25 - 0.5j
    with pytest.raises(Exception):
        parse_complex("one+twoi")
    for bad in ("nan", "inf", "1+nani", "-inf-2i", "0+infi"):
        with pytest.raises(DomainError):
            parse_complex(bad)


def test_format_complex_round_trips():
    rng = random.Random(5)
    for _ in range(50):
        w = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert parse_complex(format_complex(w)) == w


def test_splitmix64_reference_vector():
    # published outputs of the splitmix64 reference implementation, seed 0
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix64_streams():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    g = SplitMix64(3)
    for _ in range(200):
        x = g.uniform(-2.0, 5.0)
        assert -2.0 <= x < 5.0
        k = g.int_range(1, 6)
        assert 1 <= k <= 6


# ---------------------------------------------------------------------------
# Report schema.


def test_report_schema_and_compact_encoding(capsys):
    code, rep, raw = run_cli(capsys, ["theta", "--a", "0", "--b", "0", "--z", "0", "--tau", "i"])
    assert code == 0
    assert set(rep) == REPORT_KEYS
    for r in rep["residuals"]:
        assert set(r) == {"name", "value", "tol"}
    # stdout is one sorted, compact JSON document
    assert raw == json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# theta subcommand.


def test_theta_constant_at_i(capsys):
    code, rep, _ = run_cli(capsys, ["theta", "--a", "0", "--b", "0", "--z", "0", "--tau", "i"])
    assert code == 0 and rep["pass"]
    value = parse_complex(rep["outputs"]["value"])
    assert abs(value - 1.0864348112133081) < 1e-11
    byname = {r["name"]: r for r in rep["residuals"]}
    assert byname["closed_form"]["value"] < 1e-11


def test_theta_vanishing_characteristic_at_zeta(capsys):
    code, rep, _ = run_cli(
        capsys, ["theta", "--a", "1/2", "--b", "1/2", "--z", "0", "--tau", "zeta"]
    )
    assert code == 0
    assert abs(parse_complex(rep["outputs"]["value"])) < 1e-12


def test_theta_parity_report(capsys):
    code, rep, _ = run_cli(
        capsys, ["theta", "--a", "0", "--b", "1/2", "--z", "0.3+0.1i", "--tau", "i"]
    )
    assert code == 0
    value = parse_complex(rep["outputs"]["value"])
    assert cmath.isfinite(value) and value != 0
    names = [r["name"] for r in rep["residuals"]]
    assert "parity" in names


def test_theta_generic_tau(capsys):
    code, rep, _ = run_cli(
        capsys, ["theta", "--a", "1/3", "--b", "1/6", "--z", "0.1+0.2i", "--tau", "0.3+1.2i"]
    )
    assert code == 0 and rep["pass"]


def test_theta_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--a", "one", "--b", "0", "--tau", "i"])
    assert exc.value.code == 2
    for flag, bad in (("--z", "nan"), ("--z", "0+infi"), ("--tau", "nan+1i")):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--a", "0", "--b", "0", "--tau", "i", flag, bad])
        assert exc.value.code == 2


def test_theta_overflow_exits_2_without_traceback(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--a", "0", "--b", "0", "--z", "0+40i", "--tau", "i"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "overflows" in err and "Traceback" not in err


def test_theta_at_tiny_im_tau_and_far_re_tau_exits_0(capsys):
    # tau is reduced to the fundamental domain before any sum, so Im tau =
    # 1e-300 gives a finite value (about 3e78), and Re tau = 1e300, an even
    # integer, gives theta00(0, i) itself
    code, rep, _ = run_cli(capsys, ["theta", "--a", "0", "--b", "0", "--tau", "0.3+1e-300i"])
    assert code == 0 and rep["pass"]
    assert 1e78 < abs(parse_complex(rep["outputs"]["value"])) < 1e79
    code, rep, _ = run_cli(capsys, ["theta", "--a", "0", "--b", "0", "--tau", "1e300+1i"])
    assert code == 0 and rep["pass"]
    assert abs(parse_complex(rep["outputs"]["value"]) - 1.0864348112133081) < 1e-15


# ---------------------------------------------------------------------------
# agm subcommand.


def test_agm_quartic_example(capsys):
    code, rep, _ = run_cli(capsys, ["agm", "--variant", "quartic", "--a", "2", "--b", "1"])
    assert code == 0 and rep["pass"]
    assert rep["residuals"][0]["value"] < 1e-11
    assert rep["outputs"]["converged"] is True
    assert rep["outputs"]["iterations"] == 20
    assert len(rep["outputs"]["trace"]) == rep["outputs"]["iterations"] + 1


def test_agm_sextic_example(capsys):
    code, rep, _ = run_cli(capsys, ["agm", "--variant", "sextic", "--a", "3", "--b", "5"])
    assert code == 0 and rep["pass"]
    assert rep["residuals"][0]["value"] < 1e-10


def test_agm_fixed_point(capsys):
    code, rep, _ = run_cli(capsys, ["agm", "--variant", "quartic", "--a", "1", "--b", "1"])
    assert code == 0
    assert rep["outputs"]["iterations"] == 0
    assert float(rep["outputs"]["limit"]) == 1.0


def test_agm_rejects_nonpositive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["agm", "--variant", "quartic", "--a", "-1", "--b", "2"])
    assert exc.value.code == 2


def test_agm_residual_is_relative_for_large_limits(capsys):
    # at (1, 1e300) orbit and closed form now agree exactly, so a pair whose
    # difference is one rounding of the limit shows the absolute scale
    code, rep, _ = run_cli(capsys, ["agm", "--variant", "sextic", "--a", "1", "--b", "2e300"])
    assert code == 0 and rep["pass"] is True
    limit = float(rep["outputs"]["limit"])
    difference = float(rep["outputs"]["difference"])
    assert limit > 1e99 and difference > 1e80  # the difference stays absolute
    assert rep["residuals"][0]["value"] == difference / limit


# ---------------------------------------------------------------------------
# curve subcommand.


def test_curve_named_point_quartic(capsys):
    code, rep, _ = run_cli(capsys, ["curve", "--curve", "i", "--point", "P01"])
    assert code == 0 and rep["pass"]
    z = parse_complex(rep["outputs"]["z"])
    assert abs(z - 0.5j) < 1e-9


def test_curve_named_point_sextic(capsys):
    code, rep, _ = run_cli(capsys, ["curve", "--curve", "zeta", "--point", "Pinf1"])
    assert code == 0
    z = parse_complex(rep["outputs"]["z"])
    assert abs(z - (ZETA + 1) / 3) < 1e-9
    assert rep["outputs"]["at_infinity"] is True


def test_curve_multiplication_flag(capsys):
    code, rep, _ = run_cli(capsys, ["curve", "--curve", "i", "--t", "2", "--mul"])
    assert code == 0 and rep["pass"]
    assert abs(parse_complex(rep["outputs"]["mul_t"])) < 1e-12
    byname = {r["name"]: r for r in rep["residuals"]}
    assert byname["mul_group_equivalence"]["value"] < 1e-8
    assert byname["on_curve"]["value"] < 1e-12


def test_curve_multiplication_at_huge_t(capsys):
    # no power of t is taken, so the maps do not overflow far out
    for argv in (
        ["--curve", "i", "--t", "1e200"],
        ["--curve", "zeta", "--t", "1e300"],
        ["--curve", "i", "--t", "-1e300+1e300i", "--branch", "2"],
        ["--curve", "zeta", "--t", "1e308"],
        ["--curve", "zeta", "--t", "-1e308", "--branch", "5"],
        ["--curve", "zeta", "--t", "1e308i", "--branch", "3"],
    ):
        code, rep, _ = run_cli(capsys, ["curve", *argv, "--mul"])
        assert code == 0 and rep["pass"], argv
        byname = {r["name"]: r for r in rep["residuals"]}
        assert byname["mul_group_equivalence"]["value"] < 1e-15


def test_curve_mul_image_next_to_t_one(capsys):
    # the image lies 3.3e-12 from t = 1: a valid point, so a report and not a
    # usage error; its t is only good to about 1e-5 relative, so the
    # equivalence misses 1e-8 and the run exits 1
    code, rep, _ = run_cli(capsys, ["curve", "--curve", "zeta", "--t", "3e5+2e5i", "--branch", "4", "--mul"])
    assert code == 1 and rep["pass"] is False
    assert abs(parse_complex(rep["outputs"]["mul_t"]) - 1) < 1e-11
    byname = {r["name"]: r for r in rep["residuals"]}
    assert byname["on_curve"]["value"] < 1e-12
    assert 1e-8 < byname["mul_group_equivalence"]["value"] < 1e-6


def test_curve_at_large_t(capsys):
    # the quadrature once failed to converge here; argparse reads a bare
    # "-1e9" as an option, hence the --t= form
    for curve, t in (("i", "1e9"), ("zeta", "-1e9")):
        code, rep, _ = run_cli(capsys, ["curve", "--curve", curve, f"--t={t}"])
        assert code == 0 and rep["pass"] is True, rep


def test_curve_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--curve", "i", "--t", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--curve", "i"])
    assert exc.value.code == 2
    for bad in ("nan", "inf+1i"):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--curve", "i", "--t", bad])
        assert exc.value.code == 2


def test_curve_report_is_strict_json_and_a_numerical_failure_exits_1(capsys, monkeypatch):
    code = main(["curve", "--curve", "i", "--t", "2"])
    ok = strict_loads(capsys.readouterr().out)
    assert code == 0
    assert ok["inputs"] == {"branch": 0, "curve": "i", "mul": False, "point": "", "t": "2"}

    # the curve subcommand has no failure report of its own: an
    # IterationLimitError from abel_jacobi takes main's one path, as for
    # every subcommand
    def fail(p):
        raise IterationLimitError("2F1 series did not meet tolerance within the term cap")

    monkeypatch.setattr(lemnis.cli, "abel_jacobi", fail)
    code = main(["curve", "--curve", "i", "--t", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("numerical failure: 2F1 series") and "Traceback" not in captured.err


def test_non_finite_residual_is_null_in_report_and_summary(capsys, monkeypatch):
    monkeypatch.setattr(lemnis.cli.sys.stderr, "isatty", lambda: True)
    # a NaN input is a usage error, so the non-finite value comes from theta
    monkeypatch.setattr(lemnis.cli, "theta", lambda *args: complex("nan+nanj"))
    code = main(["theta", "--a", "0", "--b", "0", "--z", "0.5", "--tau", "i"])
    captured = capsys.readouterr()
    rep = strict_loads(captured.out)
    assert code == 1 and rep["pass"] is False
    assert rep["residuals"][0]["value"] is None
    assert "[BAD] parity" in captured.err and "null (tol 1.0e-10)" in captured.err


def test_non_finite_tol_is_a_usage_error(capsys):
    for bad in ("inf", "nan", "0", "-1e-3"):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--curve", "i", "--t", "2", "--tol", bad])
        assert exc.value.code == 2


def test_negative_values_need_no_equals_sign(capsys):
    # exponent and complex forms, which argparse alone reads as options
    for argv, key, text in (
        (["curve", "--curve", "zeta", "--t", "-1e9"], "t", "-1e9"),
        (["curve", "--curve", "zeta", "--t", "-1-2i"], "t", "-1-2i"),
        (["theta", "--a", "0", "--b", "0", "--z", "-0.3+0.1i", "--tau", "i"], "z", "-0.3+0.1i"),
    ):
        code, rep, _ = run_cli(capsys, argv)
        assert code == 0 and rep["pass"] and rep["inputs"][key] == text, argv
    with pytest.raises(SystemExit) as exc:
        main(["agm", "--variant", "quartic", "--a", "1", "--b", "-1e-3"])
    assert exc.value.code == 2
    assert "mean iteration needs finite positive entries" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify subcommand.


def test_verify_addition_suite(capsys):
    code, rep, _ = run_cli(
        capsys,
        ["verify", "--suite", "addition", "--samples", "100", "--tol", "1e-10", "--seed", "7"],
    )
    assert code == 0 and rep["pass"]
    assert rep["seed"] == 7
    names = {r["name"] for r in rep["residuals"]}
    assert names == {"addition.tau_i", "addition.tau_zeta"}
    assert set(rep["outputs"]["worst_samples"]) == names


def test_verify_reports_each_suites_families_in_table_order(capsys):
    for suite, (families, _) in SUITES.items():
        code, rep, _ = run_cli(capsys, ["verify", "--suite", suite, "--samples", "1"])
        assert code == 0 and rep["pass"], suite
        assert [r["name"] for r in rep["residuals"]] == list(families), suite
        assert list(rep["outputs"]["worst_samples"]) == sorted(families), suite


def test_verify_monodromy_exact_checks(capsys):
    code, rep, _ = run_cli(capsys, ["verify", "--suite", "monodromy", "--samples", "10"])
    assert code == 0 and rep["pass"]
    byname = {r["name"]: r["value"] for r in rep["residuals"]}
    # order and closure checks are exact integer comparisons
    assert byname["monodromy.orders"] == 0.0
    assert byname["monodromy.closure"] == 0.0


def test_verify_deterministic_reports(capsys):
    argv = ["verify", "--suite", "tau-i", "--samples", "10", "--seed", "3"]
    _, rep1, _ = run_cli(capsys, argv)
    _, rep2, _ = run_cli(capsys, argv)
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    enc = lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"))
    assert enc(rep1) == enc(rep2)


def test_a_sweep_sums_each_theta_once(monkeypatch):
    # lattice sums of 20-sample sweeps over all suites, seeds 1-5: the 1+i
    # and 1+zeta lemmas take the thetas their suites already hold, and
    # inverse.t_routes the thetas its sample point was built from
    kernel_module = sys.modules["lemnis.theta"]
    kernel, calls = kernel_module._lattice_sums, []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    TAU_I.theta_nulls, TAU_ZETA.theta_nulls  # summed once per process, before the count
    monkeypatch.setattr(kernel_module, "_lattice_sums", counted)
    per_suite = dict.fromkeys(SUITES, 0)
    for seed in range(1, 6):
        rng = SplitMix64(seed)  # the suites in order on one stream, as sweep runs them
        for name, (_, suite) in SUITES.items():
            before = len(calls)
            for _ in suite(rng, 20):
                pass
            per_suite[name] += len(calls) - before
    assert per_suite == {"addition": 1600, "tau-i": 5 * 481, "tau-zeta": 5 * 329, "inverse": 960,
                         "multiplication": 1792, "monodromy": 0, "meaniter": 0}
    assert sum(per_suite.values()) == 8402  # 1,680.4 per sweep
    before = len(calls)
    for seed in range(1, 6):
        sweep(list(SUITES), seed, 20)
    assert len(calls) - before == 8402


def test_the_public_lemmas_equal_the_suites_reuse():
    # every 1+i and 1+zeta residual a suite yields is the public lemma's, bit
    # for bit, at the suite's own sample z and th = theta_four(z, tau)
    for name, family, public, mod, per_z in (
        ("tau-i", "tau_i.one_plus_i", one_plus_i_multiple, TAU_I, 3),
        ("tau-zeta", "tau_zeta.one_plus_zeta", one_plus_zeta_multiple, TAU_ZETA, 4),
    ):
        yielded = [(r, s) for f, r, s in SUITES[name][1](SplitMix64(26), 50) if f == family]
        assert len(yielded) == 50 * per_z
        for residual, sample in yielded:
            tag, pair_name = sample.split()
            z = parse_complex(tag.removeprefix("z="))
            pairs = {p.name: p for p in public(z, theta_four(z, mod))}
            assert repr(pairs[pair_name].residual) == repr(residual), sample


def test_identity_pair_stays_frozen_and_computes_its_residual_once(monkeypatch):
    pair = IdentityPair("theta00", 1j, 1 + 1e-12j)
    for name in ("name", "lhs", "rhs", "residual"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pair, name, 0j)
    assert IdentityPair(name="theta00", lhs=1j, rhs=1 + 1e-12j) == pair
    assert repr(pair) == "IdentityPair(name='theta00', lhs=1j, rhs=(1+1e-12j))"
    assert dataclasses.replace(pair, rhs=1j).residual == 0.0 and pair.residual == _scaled_residual(1j, 1 + 1e-12j)
    # each pair a checked lemma returns costs one _scaled_residual, read twice
    real, calls = verify_mod._scaled_residual, []

    def counted(lhs, rhs):
        calls.append((lhs, rhs))
        return real(lhs, rhs)

    monkeypatch.setattr(verify_mod, "_scaled_residual", counted)
    rng = random.Random(31)
    for _ in range(10):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        zi, zz = canonical_torus_point(TAU_I, z), canonical_torus_point(TAU_ZETA, z)
        for lemma, args in (
            (one_plus_i_multiple, (z, theta_four(z, TAU_I))),
            (one_plus_zeta_multiple, (z, theta_four(z, TAU_ZETA))),
            (ratio_identities_quartic, _quartic_with_thetas(zi)),
            (ratio_identities_sextic, _sextic_with_thetas(zz)),
        ):
            del calls[:]
            pairs = lemma(*args)
            assert [p.residual for p in pairs] == [real(p.lhs, p.rhs) for p in pairs]
            assert calls == [(p.lhs, p.rhs) for p in pairs]


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "addition", "--samples", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Failure exit code.


def test_exit_1_when_residual_exceeds_tolerance(capsys, monkeypatch):
    # the mirrored characteristic's value is skewed by 1e-9, so the parity
    # residual is about 1e-9 whatever the rounding of the series
    exact = lemnis.cli.theta

    def skewed(c, z, m):
        value = exact(c, z, m)
        return value * (1 + 1e-9) if c.b < 0 else value

    monkeypatch.setattr(lemnis.cli, "theta", skewed)
    code, rep, _ = run_cli(
        capsys,
        ["theta", "--a", "0", "--b", "1/2", "--z", "0.3+0.1i", "--tau", "i", "--tol", "1e-30"],
    )
    assert code == 1
    assert rep["pass"] is False
    assert rep["residuals"][0]["name"] == "parity" and rep["residuals"][0]["value"] > 1e-10


def test_usage_errors_print_the_subcommand_usage(capsys):
    # found while the subcommand runs, or a DomainError from the library
    # (theta overflows at z = 40i), the error shows that subcommand's usage
    for argv in (
        ["agm", "--variant", "quartic", "--a", "1", "--b", "-1e-3"],
        ["theta", "--a", "1/0", "--b", "0", "--tau", "i"],
        ["theta", "--a", "one", "--b", "0", "--tau", "i"],
        ["theta", "--a", "1e400", "--b", "0", "--tau", "i"],
        ["theta", "--a", "0", "--b", "0", "--tau", "nan+1i"],
        ["theta", "--a", "0", "--b", "0", "--z", "0+40i", "--tau", "i"],
        ["curve", "--curve", "i"],
        ["curve", "--curve", "i", "--t", "0"],
        ["verify", "--samples", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(f"usage: lemnis {argv[0]} "), (argv, err)
        assert "Traceback" not in err, argv


def _without_elapsed(text):
    return re.sub(r'"elapsed_ms":[-+.0-9e]+', '"elapsed_ms":_', text)


def test_repeated_in_process_calls_match_fresh_interpreters(capsys, monkeypatch):
    # one process, one parser: every call prints what a fresh `lemnis` prints
    sequence = (
        ["theta", "--a", "1/3", "--b", "1/6", "--z", "0.2-0.1i", "--tau", "zeta"],
        ["verify", "--samples", "3", "--seed", "11"],
        ["agm", "--variant", "sextic", "--a", "1", "--b", "3"],
        ["curve", "--curve", "i", "--t", "2+1i", "--mul"],
        ["agm", "--variant", "quartic", "--a", "1", "--b", "-1e-3"],
        ["verify", "--samples", "3", "--seed", "11"],
    )
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = [str(Path(lemnis.cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for k, argv in enumerate(sequence):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        if k == 0:
            first_builds = built.count("lemnis")
        fresh = subprocess.run(
            [sys.executable, "-m", "lemnis.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert code == fresh.returncode == (2 if k == 4 else 0), argv
        assert _without_elapsed(got.out) == _without_elapsed(fresh.stdout), argv
        assert got.err == fresh.stderr, argv
        assert got.err.startswith("usage: lemnis agm ") == (k == 4), argv
    assert built.count("lemnis") == first_builds <= 1


# the README's `lemnis` lines, then values with a leading minus sign, usage
# errors and inputs at the edges of binary64, each with the exit code it must end with
_README_CLI = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Command line")[1]
_README_LINES = re.findall(r"^lemnis (.+)$", _README_CLI.split("## Demos")[0], re.M)
_ARGV_CODES = [(line.split(), 0) for line in _README_LINES] + [
    (["curve", "--curve", "zeta", "--t", "-1e9"], 0),
    (["curve", "--curve", "zeta", "--t", "-1-2i"], 0),
    (["theta", "--a", "0", "--b", "0", "--z", "-0.3+0.1i", "--tau", "i"], 0),
    (["agm", "--variant", "quartic", "--a", "1", "--b", "-1e-3"], 2),
    (["theta", "--a", "one", "--b", "0", "--tau", "i"], 2),
    (["theta", "--a", "1/0", "--b", "0", "--tau", "i"], 2),
    (["curve", "--curve", "i", "--t", "0"], 2),
    (["curve", "--curve", "i", "--t", "1e-13"], 2),
    (["curve", "--curve", "i", "--t", "1.7e308+1.7e308i"], 2),
    (["curve", "--curve", "zeta", "--t", "-1.7e308-1.7e308i"], 2),
    (["verify", "--samples", "0"], 2),
    (["theta", "--a", "0", "--b", "0", "--tau", "0.3+1e-300i"], 0),
    (["theta", "--a", "0", "--b", "0", "--tau", "1e300+1i"], 0),
    (["curve", "--curve", "i", "--t", "1e200", "--mul"], 0),
    (["curve", "--curve", "zeta", "--t", "1e308", "--mul"], 0),
    *((["curve", "--curve", "i", "--point", pt, "--mul"], 0) for pt in ("P1", "P01", "P02", "Pinf")),
    *((["curve", "--curve", "zeta", "--point", pt, "--mul"], 0) for pt in ("P1", "P01", "P02", "P03", "Pinf1", "Pinf2")),
    (["agm", "--variant", "sextic", "--a", "1e300", "--b", "1e-300"], 0),
    (["agm", "--variant", "sextic", "--a", "1e-300", "--b", "1e300"], 0),
    (["agm", "--variant", "sextic", "--a", "5e-324", "--b", "1e308"], 0),
    (["theta", "--a", "-1/2", "--b", "1/4", "--z", "1e308-12419.6i", "--tau", "-1.04e11+1e300i"], 0),
    (["theta", "--a", "0", "--b", "0", "--z", "0.1", "--tau", "5e-324+5e-324i"], 2),
]


def test_the_exit_code_table_holds_the_readme_lines():
    assert len(_README_LINES) == 9 and len(_ARGV_CODES) == 39


@pytest.mark.parametrize("argv, want", _ARGV_CODES, ids=[" ".join(argv) for argv, _ in _ARGV_CODES])
def test_readme_lines_and_negative_arguments_end_with_their_exit_code(capsys, argv, want):
    # a return value, or SystemExit for a usage error; any other exception fails the test
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == want, err
    assert "Traceback" not in err


def test_a_modulus_is_its_tau_and_a_zero_im_t_takes_the_upper_side(capsys):
    _, rep, _ = run_cli(capsys, ["theta", "--a", "0", "--b", "0", "--tau", "0+1i"])
    assert "closed_form" in [r["name"] for r in rep["residuals"]]
    for curve in ("i", "zeta"):
        for x in ("-2", "0.5"):
            up, down = (
                run_cli(capsys, ["curve", "--curve", curve, "--t", f"{x}{sign}0i"])[1]["outputs"] for sign in "+-"
            )
            assert (up["u"], up["z"]) == (down["u"], down["z"]), (curve, x)
