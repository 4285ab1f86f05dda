"""Self-test of the lemnis benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. one seed generates identical inputs twice (main, warm-up and probe
   streams) and another seed generates different ones;
2. two traced runs of one seed repeat every `*.calls`, `meaniter.steps`
   and `monodromy.closure_elements` exactly;
3. the trace wrappers reach module functions and class members, and
   restore every original binding afterwards, so an untraced run never
   carries wrappers;
4. run.py exits non-zero without printing a result when the lemnis
   sources are missing.

Prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

_failed: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        _failed.append(what)


def same_inputs() -> None:
    for name, w in workloads.WORKLOADS.items():
        kinds = ["main", "warmup"] + (["probe"] if w.probes else [])
        for kind in kinds:
            first = workloads.take(w.stream(7, kind), 200)
            check(first == workloads.take(w.stream(7, kind), 200), f"{name} {kind} inputs repeat for one seed")
        other = workloads.take(w.stream(8), 50)
        check(workloads.take(w.stream(7), 50) != other, f"{name} inputs differ across seeds")


def traced_counts_repeat() -> None:
    env = run.child_env(ROOT / "src")
    for name in workloads.WORKLOADS:
        # at the workload's own trace_ops, the size the benchmark's traced run uses
        a, b = (run.worker(ROOT, env, "trace", name, 3) for _ in range(2))
        counts = [(t["calls"], t["steps"], t["closure_elements"]) for t in (a, b)]
        check(counts[0] == counts[1], f"{name} traced counts repeat exactly: {counts[0][0]}")
        ok = a["failed"] == 0 and a["restored"] and a["nested_ok"]
        check(ok, f"{name} traced run passes, nests and restores")


def wrappers_restored() -> None:
    import lemnis.cli  # noqa: F401

    curves, theta = tracer.layer_module("curves"), tracer.layer_module("theta")
    original_theta = theta.theta
    zp = theta.canonical_torus_point(theta.TAU_I, 0.3 + 0.2j)
    before = tracer.bindings()
    t = tracer.Tracer()
    count = t.install()
    bound = (curves.theta, theta.theta, sys.modules["lemnis"].theta)
    wrapped = all(hasattr(f, "_perfbench_layer") for f in bound)
    check(count > 100 and wrapped, f"install wraps {count} bindings, `theta` at every binding site")
    monodromy = tracer.layer_module("monodromy")
    members = (monodromy.CircuitMatrix.__matmul__, monodromy.CircuitMatrix.__eq__,
               monodromy.CircuitMatrix.order, theta.ThetaChar.__init__, curves.Curve.modulus.fget)
    check(all(hasattr(f, "_perfbench_layer") for f in members),
          "methods, operators, constructors and properties of layer classes are wrapped")
    try:
        curves.inverse_quartic(zp)
    finally:
        t.restore()
    s = t.summary()
    # inverse_quartic enters theta seven times: the TorusPoint.z property twice,
    # lattice_distance once and theta four times
    check(s["calls"]["curves"] == 1 and s["calls"]["theta"] == 7, f"curves -> theta calls caught: {s['calls']}")
    check(tracer.bindings() == before and not tracer.find_wrappers(), "restore puts every binding back")
    check(curves.theta is original_theta, "curves.theta is the original function again")


def fails_without_sources() -> None:
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "curve_roundtrip", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result, f"bare copy exits {proc.returncode} without a result")


def main() -> int:
    same_inputs()
    wrappers_restored()
    traced_counts_repeat()
    fails_without_sources()
    print(json.dumps({"selftest": "pass" if not _failed else "fail", "failed": _failed}))
    return 1 if _failed else 0


if __name__ == "__main__":
    sys.exit(main())
