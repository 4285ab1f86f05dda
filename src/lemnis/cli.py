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
import json
import math
import sys
import time
from fractions import Fraction

import numpy  # noqa: F401  perfbench's import_times reads numpy's `-X importtime` line for lemnis.cli

from .curves import (
    Curve,
    CurvePoint,
    _curve_residual,
    _quartic_ratios,
    _quartic_with_thetas,
    _sextic_ratios,
    _sextic_with_thetas,
    abel_jacobi,
    equivalent_mod_group,
    inverse_quartic_t_routes,
    lift_branch,
    mul_one_plus_i,
    mul_one_plus_zeta,
    special_point,
)
from .hypergeometric import SchwarzVariant
from .meaniter import (
    MeanPair,
    closed_form_limit,
    cubic_preimage_x0,
    iterate_until_converged,
)
from .monodromy import (
    AffineMap,
    Ring,
    as_affine,
    base_change_affine,
    general_m0_m1,
    group_closure,
    m0_m1_closed_form,
    n_matrices,
    ring_one,
)
from .numerics import (
    OMEGA,
    DomainError,
    IterationLimitError,
    PathError,
    _scaled_residual,
)
from .theta import (
    HALF_CHARS,
    Modulus,
    OmegaPower,
    TAU_I,
    TAU_ZETA,
    ThetaChar,
    TorusPoint,
    addition_check,
    canonical_torus_point,
    i_multiple,
    omega_multiple,
    one_plus_i_multiple,
    one_plus_zeta_multiple,
    quasi_period_factor,
    theta,
    theta_constants,
    theta_dz,
    theta_four,
)

_DEFAULT_TOL = 1e-10
_MASK64 = (1 << 64) - 1

# Per curve: the theta inverse with its thetas, the ratio identities, the unit multiplication.
_PER_CURVE = {
    Curve.C_I: (_quartic_with_thetas, _quartic_ratios, mul_one_plus_i),
    Curve.C_ZETA: (_sextic_with_thetas, _sextic_ratios, mul_one_plus_zeta),
}


class SplitMix64:
    """Deterministic 64-bit generator; splittable, tiny, reproducible."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def int_range(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


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


def format_complex(w: complex) -> str:
    sign = "+" if w.imag >= 0 or math.isnan(w.imag) else "-"
    return f"{w.real!r}{sign}{abs(w.imag)!r}i"


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
        "trace": [[repr(p.a), repr(p.b)] for p in trace.pairs],
        "limit": repr(trace.limit),
        "closed_form": repr(closed),
        "difference": repr(diff),
    }
    residuals = [{"name": "limit_vs_closed_form", "value": _limit_residual(trace.limit, closed), "tol": tol}]
    return _finish("agm", inputs, outputs, residuals, None, started)


# ---------------------------------------------------------------------------
# curve subcommand.

def _cmd_curve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = args.tol
    curve = Curve(args.curve)
    if args.point is not None:
        point = special_point(curve, args.point)
    else:
        if args.t is None:
            raise DomainError("either --t or --point is required")
        t = parse_complex(args.t)
        if abs(t) < 1e-12 or abs(t - 1) < 1e-12:
            raise DomainError("ramification value; select the fiber point with --point")
        point = lift_branch(curve, t, args.branch)
    inputs = {
        "curve": args.curve,
        "t": args.t if args.t is not None else "",
        "branch": args.branch,
        "point": args.point if args.point is not None else "",
        "mul": bool(args.mul),
    }
    try:
        z = abel_jacobi(point)
    except (PathError, IterationLimitError) as exc:
        return _finish(
            "curve",
            inputs,
            {"error": str(exc)},
            [{"name": "path", "value": math.inf, "tol": tol}],
            None,
            started,
        )
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
        image = _PER_CURVE[curve][2](point)
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
# verify subcommand: seeded residual sweeps over the identity families.

def _rand_torus(rng: SplitMix64, mod: Modulus) -> TorusPoint:
    return canonical_torus_point(
        mod, rng.uniform(0.03, 0.97) * mod.value + rng.uniform(0.03, 0.97)
    )


class _Worst:
    """Track the max residual of a family and the sample that produced it."""

    def __init__(self) -> None:
        self.value = 0.0
        self.sample = ""

    def push(self, value: float, sample: str) -> None:
        if value >= self.value:
            self.value = value
            self.sample = sample


def _jacobi_derivative(mod: Modulus) -> _Worst:
    # Jacobi's derivative identity theta11'(0) = -pi theta00(0) theta01(0) theta10(0)
    k00, k01, k10, _ = theta_four(0j, mod)
    lhs = theta_dz(HALF_CHARS[3], 0j, mod)
    rhs = -math.pi * (k00 * k01 * k10)
    worst = _Worst()
    worst.push(_scaled_residual(lhs, rhs), "z=0")
    return worst


def _limit_residual(limit: float, closed: float) -> float:
    # relative once the limit exceeds 1, so huge pairs are judged fairly
    return abs(limit - closed) / max(1.0, abs(limit))


def _suite_addition(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    out: dict[str, _Worst] = {}
    for label, mod in (("tau_i", TAU_I), ("tau_zeta", TAU_ZETA)):
        worst = _Worst()
        for _ in range(n):
            z1, z2 = _rand_torus(rng, mod), _rand_torus(rng, mod)
            res = addition_check(z1.z, z2.z, mod)
            worst.push(max(res), f"z1={format_complex(z1.z)} z2={format_complex(z2.z)}")
        out[f"addition.{label}"] = worst
    return out


def _suite_tau_i(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    mod = TAU_I
    quasi, parity, shift, itimes, oneplusi, squares = (_Worst() for _ in range(6))
    for _ in range(n):
        z = _rand_torus(rng, mod).z
        tag = f"z={format_complex(z)}"
        # one kernel call per point; each identity's other side is its own theta call
        at_z, at_neg, at_iz = (theta_four(w, mod) for w in (z, -z, 1j * z))
        for k, char in enumerate(HALF_CHARS):
            p, q = rng.int_range(-2, 2), rng.int_range(-2, 2)
            shifted = theta(char, z + p * mod.value + q, mod)
            factor = quasi_period_factor(char, p, q, z, mod)
            quasi.push(_scaled_residual(shifted, factor * at_z[k]), tag + f" p={p} q={q}")
            parity.push(_scaled_residual(theta(ThetaChar(-char.a, -char.b), z, mod), at_neg[k]), tag)
            cs = ThetaChar(char.a + p, char.b + q)
            _, cf = cs.reduce()  # reduces to char itself
            shift.push(_scaled_residual(theta(cs, z, mod), cf * at_z[k]), tag)
            pref, target = i_multiple(char, z)
            itimes.push(_scaled_residual(at_iz[k], pref * theta(target, z, mod)), tag)
        for pair in one_plus_i_multiple(z):
            oneplusi.push(pair.residual, tag + f" {pair.name}")
        th00, th01, th10, th11 = at_z
        rt2 = math.sqrt(2.0)
        squares.push(_scaled_residual(rt2 * th01 ** 2, th00 ** 2 + th11 ** 2), tag)
        squares.push(_scaled_residual(rt2 * th10 ** 2, th00 ** 2 - th11 ** 2), tag)
    return {
        "tau_i.quasi_periodicity": quasi,
        "tau_i.parity": parity,
        "tau_i.char_shift": shift,
        "tau_i.i_times": itimes,
        "tau_i.one_plus_i": oneplusi,
        "tau_i.two_squares": squares,
        "tau_i.jacobi_derivative": _jacobi_derivative(mod),
    }


def _suite_tau_zeta(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    mod = TAU_ZETA
    omega_fam, onepz, lincomb = _Worst(), _Worst(), _Worst()
    for _ in range(n):
        z = _rand_torus(rng, mod).z
        tag = f"z={format_complex(z)}"
        # one kernel call per point; each law's target side is its own theta call
        at_w, at_w2 = theta_four(OMEGA * z, mod), theta_four(OMEGA * OMEGA * z, mod)
        for k, char in enumerate(HALF_CHARS):
            for power, lhs in ((OmegaPower.OMEGA, at_w[k]), (OmegaPower.OMEGA_SQ, at_w2[k])):
                pref, target = omega_multiple(char, z, power)
                omega_fam.push(
                    _scaled_residual(lhs, pref * theta(target, z, mod)), tag + f" {power.name}"
                )
        for pair in one_plus_zeta_multiple(z):
            onepz.push(pair.residual, tag + f" {pair.name}")
        th00, th01, th10, th11 = theta_four(z, mod)
        e12 = complex(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))
        lincomb.push(_scaled_residual(th01 ** 2, (th00 ** 2 - OMEGA * OMEGA * th11 ** 2) / e12), tag)
        lincomb.push(_scaled_residual(th10 ** 2, e12 * (th00 ** 2 + OMEGA * th11 ** 2)), tag)
    hi = _Worst()
    table = theta_constants(mod)
    for char, closed in table.items():
        hi.push(abs(theta(char, 0j, mod) - closed), f"char=({char.a},{char.b})")
    return {
        "tau_zeta.omega_times": omega_fam,
        "tau_zeta.one_plus_zeta": onepz,
        "tau_zeta.linear_combination": lincomb,
        "tau_zeta.constants": hi,
        "tau_zeta.jacobi_derivative": _jacobi_derivative(mod),
    }


def _sample_point(rng: SplitMix64, curve: Curve) -> tuple[TorusPoint, CurvePoint, tuple]:
    mod = curve.modulus
    with_thetas = _PER_CURVE[curve][0]
    for _ in range(200):
        zp = _rand_torus(rng, mod)
        p, th = with_thetas(zp)
        if p.at_infinity:
            continue
        if abs(p.t) < 0.05 or abs(p.t - 1) < 0.05 or abs(p.t) > 40.0:
            continue
        return zp, p, th
    raise IterationLimitError("failed to sample a well-conditioned curve point")


def _suite_inverse(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    routes, on_curve, ratios = _Worst(), _Worst(), _Worst()
    for _ in range(n):
        for curve, (_, identities, _) in _PER_CURVE.items():
            zp, p, th = _sample_point(rng, curve)
            tag = f"z={format_complex(zp.z)}"
            if curve is Curve.C_I:
                routes.push(_scaled_residual(*inverse_quartic_t_routes(zp)), tag)
            on_curve.push(_curve_residual(p), tag)
            for pair in identities(p, th):
                ratios.push(pair.residual, tag + f" {pair.name}")
    return {
        "inverse.t_routes": routes,
        "inverse.on_curve": on_curve,
        "inverse.ratio_identities": ratios,
    }


def _suite_multiplication(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    quartic, sextic = _Worst(), _Worst()
    for _ in range(n):
        for curve, fam in ((Curve.C_I, quartic), (Curve.C_ZETA, sextic)):
            zp, p, _ = _sample_point(rng, curve)
            with_thetas, _, mul = _PER_CURVE[curve]
            if curve is Curve.C_ZETA and abs(4 * p.t - 3) < 0.05:
                continue
            image = mul(p)
            z2 = canonical_torus_point(curve.modulus, (1 + curve.unit) * zp.z)
            direct, _ = with_thetas(z2)
            if image.at_infinity or direct.at_infinity:
                continue
            tag = f"z={format_complex(zp.z)}"
            fam.push(_scaled_residual(image.t, direct.t), tag)
            fam.push(_scaled_residual(image.u, direct.u), tag)
    return {"multiplication.quartic": quartic, "multiplication.sextic": sextic}


def _max_abs_diff(a, b) -> float:
    # the largest entry of |a - b| for two row-major 2x2 complex matrices
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _suite_monodromy(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    orders, hom, special, dual, closure = (_Worst() for _ in range(5))
    for variant, expect in ((SchwarzVariant.QUARTIC, (2, 4, 4)), (SchwarzVariant.SEXTIC, (2, 6, 3))):
        mats = n_matrices(variant)
        got = tuple(m.order() for m in mats)
        orders.push(0.0 if got == expect else 1.0, f"{variant.name}: {got}")
        n0, n1, _ = mats
        words = [n0, n1, n0 @ n1, n1 @ n0 @ n1]
        for _ in range(n):
            a = words[rng.int_range(0, len(words) - 1)]
            b = words[rng.int_range(0, len(words) - 1)]
            lhs = as_affine(a @ b)
            rhs = as_affine(a) @ as_affine(b)
            hom.push(0.0 if lhs == rhs else 1.0, variant.name)
        alpha = variant.params.alpha
        m0, m1 = general_m0_m1(alpha, 0.0, 0.5)
        for got_m, ref in zip((m0, m1), (n0, n1)):
            special.push(_max_abs_diff(base_change_affine(got_m, alpha), ref.as_complex()), variant.name)
        summary = group_closure([as_affine(m) for m in mats], cap=2000)
        ok = len(summary.units) == variant.root_order
        closure.push(0.0 if ok and summary.has_translation_basis else 1.0, variant.name)
    ga, gb = general_m0_m1(0.3, 0.2, 0.7)
    ca, cb = m0_m1_closed_form(0.3, 0.2, 0.7)
    dual.push(max(_max_abs_diff(ga, ca), _max_abs_diff(gb, cb)), "(0.3,0.2,0.7)")
    ring = Ring.GAUSS
    trans = AffineMap(ring_one(ring), ring_one(ring))
    summary = group_closure([trans], cap=300)
    closure.push(0.0 if set(summary.units) == {ring_one(ring)} else 1.0, "translation-only")
    return {
        "monodromy.orders": orders,
        "monodromy.affine_hom": hom,
        "monodromy.specialization": special,
        "monodromy.dual_route": dual,
        "monodromy.closure": closure,
    }


def _suite_meaniter(rng: SplitMix64, n: int) -> dict[str, _Worst]:
    quartic, sextic, preimage = _Worst(), _Worst(), _Worst()
    for _ in range(n):
        a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        ratio = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        pair = MeanPair(a, a * ratio)
        tag = f"a={a:.6f} b={a * ratio:.6f}"
        tq = iterate_until_converged(pair, SchwarzVariant.QUARTIC)
        quartic.push(_limit_residual(tq.limit, closed_form_limit(pair, SchwarzVariant.QUARTIC)), tag)
        ts = iterate_until_converged(pair, SchwarzVariant.SEXTIC)
        sextic.push(_limit_residual(ts.limit, closed_form_limit(pair, SchwarzVariant.SEXTIC)), tag)
        if pair.a < pair.b:
            x0 = cubic_preimage_x0(pair)
            val = x0 * (9 - 8 * x0) ** 2 / (4 * x0 - 3) ** 3
            preimage.push(abs(val - (pair.b / pair.a) ** 2) / max(1.0, (pair.b / pair.a) ** 2), tag)
    return {
        "meaniter.quartic_limit": quartic,
        "meaniter.sextic_limit": sextic,
        "meaniter.cubic_preimage": preimage,
    }


_SUITES = {
    "addition": _suite_addition,
    "tau-i": _suite_tau_i,
    "tau-zeta": _suite_tau_zeta,
    "inverse": _suite_inverse,
    "multiplication": _suite_multiplication,
    "monodromy": _suite_monodromy,
    "meaniter": _suite_meaniter,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = args.tol
    if not 1 <= args.samples <= 10000:
        raise DomainError("--samples must lie in [1, 10000]")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = SplitMix64(args.seed)
    residuals = []
    worst_samples = {}
    for name in names:
        for family, worst in _SUITES[name](rng, args.samples).items():
            residuals.append({"name": family, "value": worst.value, "tol": tol})
            worst_samples[family] = worst.sample
    inputs = {"suite": args.suite, "samples": args.samples, "tol": tol}
    outputs = {"worst_samples": worst_samples}
    return _finish("verify", inputs, outputs, residuals, args.seed, started)


# ---------------------------------------------------------------------------
# Argument wiring.

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
        choices=sorted(_SUITES) + ["all"],
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
    except (DomainError, PathError) as exc:
        args.subparser.error(str(exc))
    except IterationLimitError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
