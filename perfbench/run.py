"""The lemnis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py) with PYTHONPATH=src, closed loop, one
caller.  `--trace 0` prints the end-to-end metrics; `--trace 1` makes a
separate traced run of a fixed number of ops (so its counts repeat;
`--seconds` does not apply) and prints the per-layer metrics.  `--workload all`
runs every workload in turn.  The last line of stdout is the JSON result;
the lines before it are a readable report and a JSON line with the full
report (sample counts, failures with stage and input, probe results and
the machine stamp).  Exits non-zero without a result if the lemnis sources
are missing or any worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

SETUP_SAMPLES = 7  # fresh interpreters timed per run; the median is reported
IMPORT_SAMPLES = 3  # `python -X importtime -c "import lemnis.cli"` per traced run
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # one caller and no extra threads: keep numpy's BLAS pool to one thread,
    # and fix hashing so set iteration, and with it every count, repeats
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    A worker's ops are scaled by reference-loop timings taken right before
    and after them; pinned, the scheduler cannot move the worker to another
    CPU in between.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:  # no affinity control here: run unpinned
        sys.stderr.write(f"perfbench: not pinned to one CPU ({exc})\n")


def worker(root: Path, env: dict, mode: str, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(root: Path, env: dict) -> tuple[float, float]:
    """Cumulative import time of lemnis.cli and of numpy, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lemnis.cli"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing lemnis.cli failed:\n{proc.stderr[-3000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            found[fields[2].strip()] = int(fields[1]) * 1e-6
    return found["lemnis.cli"], found["numpy"]


def stamps(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "src_lines": src_lines,
        "loadavg_start": os.getloadavg(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def failure_lines(failures: list[dict]) -> list[str]:
    return [f"    failed at {f['stage']}: input {f['input']}: {f['error']}" for f in failures[:5]]


def untraced(root: Path, env: dict, name: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    run = worker(root, env, "run", name, seed, "--seconds", repr(seconds))
    # after the run, so the first import's bytecode compile is not a sample
    setups = [worker(root, env, "setup", name, seed) for _ in range(SETUP_SAMPLES)]
    n, failed, raw = run["attempted"], run["failed"], run["raw"]
    metrics = {
        "ops_per_s": metric(run["ops_per_s"], "1/s"),
        "op_p50_ms": metric(run["op_p50_ms"], "ms"),
        "op_p90_ms": metric(run["op_p90_ms"], "ms"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    raw["setup_s"] = statistics.median(s["setup_s_raw"] for s in setups)
    report = {
        "samples": {"ops": n, "beyond_p90": run["beyond_p90"], "batches": run["batches"],
                    "setup_interpreters": SETUP_SAMPLES},
        "host_factor_median": run["host_factor_median"],
        "raw": raw,
        "failed_frac": failed / n,
        "failed_by_stage": run["failed_by_stage"],
        "failures": run["failures"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "loop_s": run["loop_s"],
        "numpy": run["numpy"],
        "probe": run.get("probe"),
    }
    lines = [
        f"  {n} ops in {run['loop_s']:.3f} s of op time, closed loop, 1 caller, {run['batches']} batches; "
        f"times adjusted to the reference host speed (median factor {run['host_factor_median']:.3f})",
        f"  ops_per_s    {run['ops_per_s']:.6g} 1/s   (raw {raw['ops_per_s']:.6g})",
        f"  op_p50_ms    {run['op_p50_ms']:.6g} ms    (raw {raw['op_p50_ms']:.6g})",
        f"  op_p90_ms    {run['op_p90_ms']:.6g} ms    (raw {raw['op_p90_ms']:.6g}; "
        f"{run['beyond_p90']} of {n} ops beyond p90)",
        f"  failed_frac  {failed / n:.6g}       ({failed} of {n} failed {run['failed_by_stage']})",
        f"  setup_s      {metrics['setup_s']['value']:.6g} s     (raw {raw['setup_s']:.6g}; "
        f"median of {SETUP_SAMPLES} fresh interpreters)",
        f"  peak_rss_mb  {run['peak_rss_mb']:.6g} MB",
    ]
    lines += failure_lines(run["failures"])
    probe = run.get("probe")
    if probe:
        lines.append(f"  known-defect probe: {probe['failed']} of {probe['attempted']} failed, "
                     f"failed_frac {probe['failed_frac']:.6g} {probe['failed_by_stage']} "
                     "(untimed, not in the metrics)")
        lines += failure_lines(probe["failures"])
    result = {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    return result, report, lines


def traced(root: Path, env: dict, name: str, seed: int) -> tuple[dict, dict, list[str]]:
    tr = worker(root, env, "trace", name, seed)
    imports = [import_times(root, env) for _ in range(IMPORT_SAMPLES)]
    wall = tr["wall_traced_s"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(tr["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = metric(tr["self_s"].get(layer, 0.0), "s")
        metrics[f"{layer}.self_share"] = metric(tr["self_s"].get(layer, 0.0) / wall, "frac")
    metrics["meaniter.steps"] = metric(tr["steps"], "count")
    metrics["monodromy.closure_elements"] = metric(tr["closure_elements"], "count")
    metrics["cli.import_s"] = metric(statistics.median(i[0] for i in imports), "s")
    metrics["cli.import_numpy_s"] = metric(statistics.median(i[1] for i in imports), "s")
    metrics["trace.overhead_frac"] = metric(wall / tr["wall_untraced_s"] - 1.0, "frac")
    # The layer self times and the time outside lemnis add up to the traced wall
    # time by construction.  What can fail: spans nest, no self time is negative
    # (nested_ok), and the top-level spans fit inside the op calls as the
    # harness timed them, which fit inside the wall time.
    slack = 1e-9 * wall
    accounted = tr["nested_ok"] and tr["in_op_outside_s"] >= -slack and tr["harness_s"] >= -slack
    report = {
        "samples": {"ops": tr["attempted"], "import_interpreters": IMPORT_SAMPLES},
        "wall_traced_s": wall,
        "wall_untraced_s": tr["wall_untraced_s"],
        "outside_lemnis_s": tr["outside_s"],
        "harness_s": tr["harness_s"],
        "in_op_outside_lemnis_s": tr["in_op_outside_s"],
        "accounting_ok": accounted,
        "numpy": tr["numpy"],
        "spans_nested": tr["nested_ok"],
        "bindings_restored": tr["restored"],
        "failures": tr["failures"],
    }
    lines = [f"  {tr['attempted']} ops, traced wall {wall:.6g} s, untraced {tr['wall_untraced_s']:.6g} s, "
             f"trace.overhead_frac {metrics['trace.overhead_frac']['value']:.4g}"]
    for layer in LAYERS:
        lines.append(f"  {layer:<15} calls {metrics[layer + '.calls']['value']:>9}  "
                     f"self_s {metrics[layer + '.self_s']['value']:10.6f}  "
                     f"share {metrics[layer + '.self_share']['value']:.4f}")
    lines += [
        f"  outside lemnis  {tr['outside_s']:.6f} s (share {tr['outside_s'] / wall:.4f}): "
        f"{tr['harness_s']:.6f} s between op calls, {tr['in_op_outside_s']:.6f} s inside them",
        f"  spans nested {tr['nested_ok']}, spans within the timed op calls {accounted}, "
        f"bindings restored {tr['restored']}",
        f"  meaniter.steps {tr['steps']}  monodromy.closure_elements {tr['closure_elements']}",
        f"  cli.import_s {metrics['cli.import_s']['value']:.6g} s  cli.import_numpy_s "
        f"{metrics['cli.import_numpy_s']['value']:.6g} s  (median of {IMPORT_SAMPLES} `-X importtime` runs)",
    ]
    lines += failure_lines(tr["failures"])
    correct = tr["failed"] == 0 and tr["restored"] and accounted
    result = {"correct": correct, "attempted": tr["attempted"], "failed": tr["failed"], "metrics": metrics}
    return result, report, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "lemnis" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lemnis sources at {src / 'lemnis'}; run from a full checkout\n")
        return 2
    env = child_env(src)
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        stamp = stamps(root)
        try:
            if args.trace:
                result, report, lines = traced(root, env, name, args.seed)
            else:
                result, report, lines = untraced(root, env, name, args.seed, args.seconds)
        except BenchError as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
        stamp["loadavg_end"] = os.getloadavg()
        head = f"perfbench {name} seed={args.seed} " + ("traced" if args.trace else f"seconds={args.seconds:g}")
        report = {"workload": name, "seed": args.seed, "trace": args.trace, "stamp": stamp, **report}
        print("\n".join([head, *lines]))
        print(json.dumps({"report": report}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
