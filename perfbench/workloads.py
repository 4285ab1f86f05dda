"""Seeded inputs, ops and output checks of the three benchmark workloads.

An input is a plain tuple, so it compares exactly and prints into a
failure report as it is.  Ops reach lemnis through `sys.modules` at call
time, so a traced pass goes through the wrappers that `tracer` installs.
Nothing here imports lemnis or mpmath at module level: the worker times
`import lemnis` itself, and mpmath is loaded only when outputs are checked.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

VERIFY_SAMPLES = 20
ROUNDTRIP_REL_TOL = 1e-8
SERIES_TOL = 1e-10  # the CLI's default residual tolerance
AGM_TOL = {"quartic": 1e-11, "sextic": 1e-10}  # the `agm` subcommand's defaults
NO_REWRITE_BAND = 2e-3
THETA_DENOMS = (1, 2, 3, 4, 6)
HYP_FAMILIES = (
    (0.25, 0.5, 1.25),  # quartic Schwarz map and limit
    (1.0 / 6.0, 0.5, 7.0 / 6.0),  # sextic Schwarz map and limit
    (0.3, 0.2, 0.7),
    (0.5, 0.5, 1.0),  # gamma - alpha - beta = 0, the logarithmic case
    (1.5, 0.7, 2.9),
    (-0.3, 0.55, 1.35),
)


def lemnis_module(name: str):
    return sys.modules["lemnis." + name]


class Stage:
    """Names the step an op is in, so a failure can say where it happened."""

    __slots__ = ("name",)

    def __init__(self) -> None:
        self.name = ""


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def log_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k log-uniform draws over [lo, hi], one from each of k equal log-width strata.

    Blocks built from these hold the same mix of cheap and costly inputs,
    so the work per block, and with it the run-to-run spread, varies less.
    """
    a, width = math.log10(lo), (math.log10(hi) - math.log10(lo)) / k
    return [10.0 ** (a + (i + rng.random()) * width) for i in range(k)]


# ---------------------------------------------------------------------------
# verify_sweep: one in-process `lemnis verify --suite all` per op.

def verify_inputs(rng: random.Random) -> Iterator[tuple]:
    while True:
        yield ("verify", rng.randrange(2**31))


def op_verify(inp: tuple, at: Stage) -> tuple:
    at.name = "cli.main"
    argv = ["verify", "--suite", "all", "--samples", str(VERIFY_SAMPLES), "--seed", str(inp[1])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lemnis_module("cli").main(argv)
    return rc, buf.getvalue()


def check_verify(inp: tuple, out: tuple) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(text)
    if report.get("pass") is not True or report.get("seed") != inp[1]:
        return f"pass={report.get('pass')!r} seed={report.get('seed')!r}"
    return None


# ---------------------------------------------------------------------------
# curve_roundtrip: lift_branch -> abel_jacobi -> theta-quotient inverse.

def roundtrip_inputs(rng: random.Random, lo: float = 1e-3, hi: float = 1e6) -> Iterator[tuple]:
    # every block of 16 holds each curve once in each of 8 log|t| strata
    while True:
        block = []
        for curve, sheets in (("i", 4), ("zeta", 6)):
            for r in log_strata(rng, lo, hi, 8):
                t = cmath.rect(r, rng.uniform(-math.pi, math.pi))
                block.append(("roundtrip", curve, rng.randrange(sheets), t.real, t.imag))
        rng.shuffle(block)
        yield from block


def roundtrip_probes(rng: random.Random) -> Iterator[tuple]:
    # |t| beyond 1e6: the known large-|t| Abel-Jacobi failure.
    return roundtrip_inputs(rng, 1e6, 1e12)


def op_roundtrip(inp: tuple, at: Stage) -> tuple:
    _, name, k, t_re, t_im = inp
    curves = lemnis_module("curves")
    curve = curves.Curve.C_I if name == "i" else curves.Curve.C_ZETA
    at.name = "lift_branch"
    p = curves.lift_branch(curve, complex(t_re, t_im), k)
    at.name = "abel_jacobi"
    zp = curves.abel_jacobi(p)
    if name == "i":
        at.name = "inverse_quartic"
        q = curves.inverse_quartic(zp)
    else:
        at.name = "inverse_sextic"
        q = curves.inverse_sextic(zp)
    return p.t, p.u, q.t, q.u, q.at_infinity


def check_roundtrip(inp: tuple, out: tuple) -> str | None:
    t, u, t2, u2, at_inf = out
    if at_inf:
        return "inverse landed at infinity"
    et, eu = abs(t2 - t) / abs(t), abs(u2 - u) / abs(u)
    if not (et <= ROUNDTRIP_REL_TOL and eu <= ROUNDTRIP_REL_TOL):
        return f"relative error t {et:.3e} u {eu:.3e}"
    return None


# ---------------------------------------------------------------------------
# series_pointwise: single theta, gauss_2f1 and mean-iteration calls.

def _theta_input(rng: random.Random, im_tau: float) -> tuple:
    aq, bq = rng.choice(THETA_DENOMS), rng.choice(THETA_DENOMS)
    tau = complex(rng.uniform(-0.5, 0.5), im_tau)
    z = rng.uniform(-2.0, 2.0) + rng.uniform(-2.0, 2.0) * tau
    return ("theta", rng.randrange(aq), aq, rng.randrange(bq), bq, z.real, z.imag, tau.real, tau.imag)


def hyp_admitted(params: tuple, z: complex) -> bool:
    """The part of the plane where gauss_2f1 works today.

    The known 2F1 gap (ROADMAP item 3) is everything else: |z| > 1 with
    Re z >= 1/2, the unit circle with Re z >= 1/2 in the logarithmic case,
    and the band around e^{+-i pi/3} where none of the rewrites z, 1 - z,
    z/(z - 1) has modulus below 1 - NO_REWRITE_BAND, so the series run
    into the term cap.  Those inputs run as probes, not as timed ops.
    """
    a, b, g = params
    if min(abs(z), abs(1.0 - z), abs(z) / max(abs(z - 1.0), 1e-300)) > 1.0 - NO_REWRITE_BAND:
        return False
    if abs(z) < 1.0 - 1e-9 or z.real < 0.5:
        return True
    return abs(z) <= 1.0 + 1e-9 and g - a - b > 0.0


def _hyp_z(rng: random.Random, region: int) -> complex:
    """z in the disk (0), on the unit circle (1) or outside it (2)."""
    arg = rng.uniform(-math.pi, math.pi)
    if region == 0:
        return cmath.rect(0.999 * math.sqrt(rng.random()), arg)
    if region == 1:
        return complex(math.cos(arg), math.sin(arg))
    return cmath.rect(log_uniform(rng, 1.0, 4.0), arg)


def _hyp_input(rng: random.Random, region: int, admitted: bool) -> tuple:
    params = rng.choice(HYP_FAMILIES)
    z = _hyp_z(rng, region)
    while hyp_admitted(params, z) is not admitted:
        z = _hyp_z(rng, region)
    return ("gauss_2f1", *params, z.real, z.imag)


def _meaniter_input(rng: random.Random, ratio: float) -> tuple:
    a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return ("meaniter", rng.choice(("quartic", "sextic")), a, a * ratio)


def series_inputs(rng: random.Random) -> Iterator[tuple]:
    # fixed proportions: every block of ten holds 4 theta calls (one per
    # Im tau stratum), 3 2F1 calls (one per region) and 3 mean iterations
    # (one per b/a stratum)
    while True:
        block = [_theta_input(rng, im_tau) for im_tau in log_strata(rng, 1e-4, 2.0, 4)]
        block += [_hyp_input(rng, region, True) for region in range(3)]
        block += [_meaniter_input(rng, ratio) for ratio in log_strata(rng, 1e-3, 1e3, 3)]
        rng.shuffle(block)
        yield from block


def series_probes(rng: random.Random) -> Iterator[tuple]:
    third = cmath.exp(1j * math.pi / 3.0)
    for z in (third, third.conjugate(), (1.0 - 1e-10) * third, 0.5 + 0.9j):
        yield ("gauss_2f1", 0.25, 0.5, 1.25, z.real, z.imag)
    while True:
        yield _hyp_input(rng, rng.randrange(1, 3), False)


def op_series(inp: tuple, at: Stage):
    kind = inp[0]
    at.name = kind
    if kind == "theta":
        _, ap, aq, bp, bq, z_re, z_im, tau_re, tau_im = inp
        th = lemnis_module("theta")
        char = th.ThetaChar(Fraction(ap, aq), Fraction(bp, bq))
        return th.theta(char, complex(z_re, z_im), th.Modulus.generic(complex(tau_re, tau_im)))
    if kind == "gauss_2f1":
        hyp = lemnis_module("hypergeometric")
        return hyp.gauss_2f1(hyp.GaussParams(*inp[1:4]), complex(inp[4], inp[5]))
    mi = lemnis_module("meaniter")
    variant = mi.SchwarzVariant.QUARTIC if inp[1] == "quartic" else mi.SchwarzVariant.SEXTIC
    pair = mi.MeanPair(inp[2], inp[3])
    at.name = "iterate_until_converged"
    trace = mi.iterate_until_converged(pair, variant)
    at.name = "closed_form_limit"
    return trace.limit, trace.converged, mi.closed_form_limit(pair, variant)


def _theta_oracle(a: float, b: float, z: complex, tau: complex, mp) -> complex:
    # theta[a,b](z, tau) = e(a^2 tau / 2 + a (z + b)) * theta_3(pi (z + b + a tau), q)
    q = mp.exp(1j * mp.pi * tau)
    pre = mp.exp(1j * mp.pi * a * a * tau + 2j * mp.pi * a * (z + b))
    return complex(pre * mp.jtheta(3, mp.pi * (z + b + a * tau), q))


def _theta_abs_sum(a: float, im_z: float, im_tau: float) -> float:
    """Sum of |terms| of the theta series: the scale its rounding error grows with."""
    import numpy as np

    centre = round(-im_z / im_tau - a)
    half = math.ceil(math.sqrt(40.0 / (math.pi * im_tau))) + 2
    k = np.arange(centre - half, centre + half + 1) + a
    return float(np.exp(-math.pi * im_tau * k * k - 2.0 * math.pi * k * im_z).sum())


def check_series(inp: tuple, out) -> str | None:
    """Theta and 2F1 against mpmath, the two mean limits against each other.

    mpmath's double-precision context answers first; only a disagreement
    is recomputed at 20 digits before it counts as a failure.
    """
    import mpmath

    kind = inp[0]
    if kind == "meaniter":
        limit, converged, closed = out
        err = abs(limit - closed) / max(1.0, abs(limit))
        if not converged or not err <= AGM_TOL[inp[1]]:
            return f"converged={converged} limit difference {err:.3e}"
        return None
    if kind == "theta":
        _, ap, aq, bp, bq, z_re, z_im, tau_re, tau_im = inp
        z, tau = complex(z_re, z_im), complex(tau_re, tau_im)
        scale = _theta_abs_sum(ap / aq, z.imag, tau.imag)

        def error(mp) -> float:
            a, b = mp.mpf(ap) / aq, mp.mpf(bp) / bq
            return abs(out - _theta_oracle(a, b, z, tau, mp)) / scale
    else:
        params, z = inp[1:4], complex(inp[4], inp[5])

        def error(mp) -> float:
            ref = complex(mp.hyp2f1(*params, z))
            return abs(out - ref) / max(1.0, abs(ref))
    if error(mpmath.fp) <= SERIES_TOL:
        return None
    with mpmath.workdps(20):
        slow = error(mpmath.mp)
    return None if slow <= SERIES_TOL else f"error {slow:.3e} against mpmath"


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], Iterator[tuple]]
    op: Callable
    check: Callable[[tuple, object], str | None]
    warmup_ops: int  # inputs of the warm-up stream run before timing
    batch: int  # ops timed back to back between two host-speed readings, about 0.1 s
    trace_ops: int  # fixed op count of a traced run
    probes: Callable[[random.Random], Iterator[tuple]] | None = None  # known-defect inputs
    probe_ops: int = 0  # run untimed after the loop and reported apart

    def stream(self, seed: int, kind: str = "main") -> Iterator[tuple]:
        make = self.probes if kind == "probe" else self.inputs
        return make(rng_for(self.name, seed, kind))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_sweep", verify_inputs, op_verify, check_verify, 1, 1, 20),
        Workload("curve_roundtrip", roundtrip_inputs, op_roundtrip, check_roundtrip, 2, 16, 200,
                 probes=roundtrip_probes, probe_ops=150),
        Workload("series_pointwise", series_inputs, op_series, check_series, 10, 1000, 5000,
                 probes=series_probes, probe_ops=30),
    )
}


def take(it: Iterator[tuple], n: int) -> list[tuple]:
    return [next(it) for _ in range(n)]
