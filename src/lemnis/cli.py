"""Command line front end.

Every subcommand writes one JSON report to stdout and, when stderr is a
terminal, a short human-readable summary to stderr.  Exit status: 0 when all
reported residuals are within tolerance, 1 on a numerical failure, 2 on a
usage error.  `--tol` sets only the pass tolerance: every series is summed
to the same accuracy whatever it is.  A value that starts with a minus sign
needs no `=`: `--t -1e9` and `--z -0.3+0.1i` read as values.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy  # noqa: F401  perfbench's import_times reads numpy's `-X importtime` line for lemnis.cli

from .curves import (
    _curve_residual,
    abel_jacobi,
    equivalent_mod_group,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    special_point,
)
from .hypergeometric import SchwarzVariant
from .meaniter import MeanPair, closed_form_limit, iterate_until_converged
from .numerics import DomainError, IterationLimitError
from .theta import TAU_I, TAU_ZETA, Modulus, ThetaChar, canonical_torus_point, theta, theta_constants
from .verify import SUITES, format_complex, limit_residual, sweep

_DEFAULT_TOL = 1e-10


def parse_complex(text: str) -> complex:
    """Parse 're+imi' (and plain reals / pure imaginaries)."""
    cleaned = text.strip().replace(" ", "").replace("I", "i").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"complex number must be finite, got {text!r}")
    return value


def format_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _tol_arg(text: str) -> float:
    val = float(text)
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(f"tol must be positive and finite, got {text!r}")
    return val


def _emit(report: dict, started: float) -> int:
    report["elapsed_ms"] = round(1000.0 * (time.perf_counter() - started), 3)
    sys.stdout.write(
        json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    )
    if sys.stderr.isatty():
        lines = [f"{report['command']}: {'PASS' if report['pass'] else 'FAIL'}"]
        for r in report["residuals"]:
            value = r["value"]
            mark = "ok " if value is not None and value < r["tol"] else "BAD"
            shown = "null" if value is None else f"{value:.3e}"
            lines.append(f"  [{mark}] {r['name']:<40} {shown} (tol {r['tol']:.1e})")
        sys.stderr.write("\n".join(lines) + "\n")
    return 0 if report["pass"] else 1


def _finish(command: str, inputs: dict, outputs: dict, residuals: list, seed: int | None, started: float) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        # strict JSON has no Infinity or NaN; a non-finite residual is null and fails
        "residuals": [
            {**r, "value": r["value"] if math.isfinite(r["value"]) else None} for r in residuals
        ],
        "pass": all(r["value"] < r["tol"] for r in residuals),
        "seed": seed,
    }
    return _emit(report, started)


# ---------------------------------------------------------------------------
# theta subcommand.

def _cmd_theta(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = args.tol
    char = ThetaChar(args.a, args.b)
    a, b = char.a, char.b
    z = parse_complex(args.z)
    if args.tau == "i":
        mod = TAU_I
    elif args.tau == "zeta":
        mod = TAU_ZETA
    else:
        mod = Modulus.generic(parse_complex(args.tau))
    value = theta(char, z, mod)
    mirrored = theta(ThetaChar(-a, -b), z, mod)
    flipped = theta(char, -z, mod)
    parity = abs(mirrored - flipped) / max(1.0, abs(flipped))
    residuals = [{"name": "parity", "value": parity, "tol": tol}]
    if z == 0:
        try:
            table = theta_constants(mod)
        except DomainError:
            table = {}
        key, factor = char.reduce()
        if key in table:
            residuals.append(
                {"name": "closed_form", "value": abs(value - factor * table[key]), "tol": tol}
            )
    inputs = {"a": format_rational(a), "b": format_rational(b), "z": format_complex(z), "tau": args.tau}
    outputs = {"value": format_complex(value)}
    return _finish("theta", inputs, outputs, residuals, None, started)


# ---------------------------------------------------------------------------
# agm subcommand.

def _cmd_agm(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    variant = SchwarzVariant[args.variant.upper()]
    tol = args.tol
    if tol is None:
        tol = 1e-11 if variant is SchwarzVariant.QUARTIC else 1e-10
    pair = MeanPair(args.a, args.b)
    trace = iterate_until_converged(pair, variant)
    closed = closed_form_limit(pair, variant)
    diff = abs(trace.limit - closed)
    inputs = {"variant": args.variant, "a": repr(args.a), "b": repr(args.b)}
    outputs = {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "trace": [[repr(a), repr(b)] for a, b in trace.orbit],
        "limit": repr(trace.limit),
        "closed_form": repr(closed),
        "difference": repr(diff),
    }
    residuals = [{"name": "limit_vs_closed_form", "value": limit_residual(trace.limit, closed), "tol": tol}]
    return _finish("agm", inputs, outputs, residuals, None, started)


# ---------------------------------------------------------------------------
# curve subcommand.

def _cmd_curve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = args.tol
    curve = SchwarzVariant.QUARTIC if args.curve == "i" else SchwarzVariant.SEXTIC
    if args.point is not None:
        point = special_point(curve, args.point)
    else:
        if args.t is None:
            raise DomainError("either --t or --point is required")
        point = lift_branch(curve, parse_complex(args.t), args.branch)
    inputs = {"curve": args.curve, "t": args.t or "", "branch": args.branch,
              "point": args.point or "", "mul": bool(args.mul)}
    z = abel_jacobi(point)
    outputs = {
        "t": format_complex(point.t),
        "u": format_complex(point.u),
        "at_infinity": point.at_infinity,
        "z": format_complex(z.z),
        "alpha": repr(z.alpha),
        "beta": repr(z.beta),
    }
    residuals = [{"name": "on_curve", "value": _curve_residual(point), "tol": tol}]
    if args.mul:
        image = (mul_one_plus_i if curve is SchwarzVariant.QUARTIC else mul_one_plus_zeta)(point)
        z_img = abel_jacobi(image)
        target = canonical_torus_point(curve.modulus, (1 + curve.unit) * z.z)
        witness = equivalent_mod_group(z_img, target, tol=max(tol, 1e-8))
        outputs["mul_t"] = format_complex(image.t)
        outputs["mul_u"] = format_complex(image.u)
        outputs["mul_at_infinity"] = image.at_infinity
        outputs["mul_z"] = format_complex(z_img.z)
        outputs["mul_unit"] = format_complex(witness.unit) if witness.unit is not None else ""
        residuals.append(
            {"name": "mul_group_equivalence", "value": witness.distance, "tol": max(tol, 1e-8)}
        )
    return _finish("curve", inputs, outputs, residuals, None, started)


# ---------------------------------------------------------------------------
# verify subcommand: seeded residual sweeps over the identity families of
# `lemnis.verify`.

def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if not 1 <= args.samples <= 10000:
        raise DomainError("--samples must lie in [1, 10000]")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    worst = sweep(names, args.seed, args.samples)
    residuals = [{"name": family, "value": value, "tol": args.tol} for family, (value, _) in worst.items()]
    inputs = {"suite": args.suite, "samples": args.samples, "tol": args.tol}
    outputs = {"worst_samples": {family: sample for family, (_, sample) in worst.items()}}
    return _finish("verify", inputs, outputs, residuals, args.seed, started)


# ---------------------------------------------------------------------------
# Argument wiring.

@functools.cache  # one parser per process: main reads it and never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnis",
        description="Theta quotients, special curves, and mean iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="evaluate one theta value with residual checks")
    p_theta.add_argument("--a", required=True, help="characteristic a as p/q")
    p_theta.add_argument("--b", required=True, help="characteristic b as p/q")
    p_theta.add_argument("--z", default="0+0i", help="argument as re+imi")
    p_theta.add_argument(
        "--tau", required=True, help="modulus: 'i', 'zeta', or a complex re+imi (generic)"
    )
    p_theta.add_argument("--tol", type=_tol_arg, default=_DEFAULT_TOL)
    p_theta.set_defaults(func=_cmd_theta, subparser=p_theta)

    p_verify = sub.add_parser("verify", help="run seeded identity sweeps")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=sorted(SUITES) + ["all"],
    )
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--tol", type=_tol_arg, default=_DEFAULT_TOL)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify, subparser=p_verify)

    p_agm = sub.add_parser("agm", help="run a mean iteration against its closed form")
    p_agm.add_argument("--variant", required=True, choices=["quartic", "sextic"])
    p_agm.add_argument("--a", type=float, required=True)
    p_agm.add_argument("--b", type=float, required=True)
    p_agm.add_argument("--tol", type=_tol_arg, default=None)
    p_agm.set_defaults(func=_cmd_agm, subparser=p_agm)

    p_curve = sub.add_parser("curve", help="map a curve point to its torus image")
    p_curve.add_argument("--curve", required=True, choices=["i", "zeta"])
    p_curve.add_argument("--t", default=None, help="t coordinate as re+imi")
    p_curve.add_argument("--branch", type=int, default=0)
    p_curve.add_argument("--point", default=None, help="named special point, e.g. P1, P01, Pinf1")
    p_curve.add_argument("--mul", action="store_true", help="also apply the unit multiplication map")
    p_curve.add_argument("--tol", type=_tol_arg, default=_DEFAULT_TOL)
    p_curve.set_defaults(func=_cmd_curve, subparser=p_curve)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    # argparse takes "-1e9", "-1-2i" or "-1/2" after an option for another
    # option, since only plain decimals read as negative numbers; joined as
    # "--t=-1e9" it is a value.  Every lemnis option is long, so a word with
    # one leading "-", other than "-h", is always meant as a value.
    out: list[str] = []
    for word in argv:
        value_like = word[:1] == "-" and word[1:2] != "-" and word != "-h"
        if value_like and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    # usage errors, also those found while a subcommand runs, print that
    # subcommand's usage line
    try:
        return args.func(args)
    except DomainError as exc:
        args.subparser.error(str(exc))
    except IterationLimitError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
