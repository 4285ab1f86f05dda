"""One benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run   --workload W --seed S --seconds T
    python3 perfbench/worker.py trace --workload W --seed S

`setup` times `import lemnis` plus the warm-up calls.  `run` does the same
set-up, then the untraced closed loop for T seconds, checking every output
between batches of ops, then runs the workload's known-defect probes.
`trace` runs a fixed number of ops, each batch once untraced and once with
every layer wrapped.  Each mode prints one JSON object as the last line of
stdout.  run.py starts it with PYTHONPATH pointing at the checkout's src/.
"""

import sys
import time
from array import array
from statistics import median

_IMPORTS = {"verify_sweep": ("lemnis", "lemnis.cli")}


def _args(argv: list[str]) -> dict:
    # no argparse: lemnis.cli imports it, and set-up must pay for that itself
    opts = {"mode": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return opts


# The host is shared, and its speed swings by up to 1.6x from one second to
# the next while code and inputs stay the same.  A fixed pure-Python loop,
# timed right before and right after each measured stretch, tracks that
# speed; the end-to-end times are scaled by REF_NOMINAL_S / (its time), which
# is what they would have been with the loop taking REF_NOMINAL_S, about
# its time on an undisturbed core of the 2.0 GHz Xeon host the benchmark was
# built on.  Raw times are reported next to the adjusted ones.
REF_ITERATIONS = 5000
REF_NOMINAL_S = 0.002


def reference_s() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc, table = 0j, {}
    for i in range(REF_ITERATIONS):
        acc = acc * 0.5 + complex(i, 1.0) ** 0.5
        table[i & 63] = acc
    return time.perf_counter() - t0


def host_factor(before_s: float, after_s: float) -> float:
    """Scale from measured to adjusted time for a stretch between two reference timings."""
    return 2.0 * REF_NOMINAL_S / (before_s + after_s)


def _timed_setup(workload: str, seed: int):
    """Import lemnis and run the warm-up ops; returns (set-up seconds, workload)."""
    t0 = time.perf_counter()
    for name in _IMPORTS.get(workload, ("lemnis",)):
        __import__(name)
    t1 = time.perf_counter()
    import workloads  # the harness's own imports are not set-up time

    w = workloads.WORKLOADS[workload]
    warm = workloads.take(w.stream(seed, "warmup"), w.warmup_ops)
    t2 = time.perf_counter()
    for inp in warm:
        w.op(inp, workloads.Stage())
    return (t1 - t0) + (time.perf_counter() - t2), w


def _run_ops(w, inputs, op, limit=None) -> tuple[list, float]:
    """Closed loop, one caller: (input, output, error, stage, seconds) per op.

    Stops when `inputs` ends or after `limit` ops.
    """
    import workloads

    at = workloads.Stage()
    records = []
    clock = time.perf_counter
    start = clock()
    for inp in inputs:
        t0 = clock()
        try:
            out, err = op(inp, at), None
        except (Exception, SystemExit) as exc:  # SystemExit: argparse usage errors
            out, err = None, f"{type(exc).__name__}: {exc}"[:300]
        t1 = clock()
        records.append((inp, out, err, at.name, t1 - t0))
        if len(records) == limit:
            break
    return records, clock() - start


def _failures(w, records, first_index: int = 0) -> list[dict]:
    """Every failed op: raised (at its stage) or returned an output that fails the check."""
    failed = []
    for index, (inp, out, err, stage, _) in enumerate(records, first_index):
        if err is None:
            try:
                err = w.check(inp, out)
            except Exception as exc:
                err = f"checker raised {type(exc).__name__}: {exc}"
            stage = "check"
        if err is not None:
            failed.append({"index": index, "stage": stage, "input": inp, "error": err})
    return failed


def _by_stage(failures: list[dict]) -> dict:
    counts: dict = {}
    for f in failures:
        counts[f["stage"]] = counts.get(f["stage"], 0) + 1
    return counts


def _percentile(sorted_values: list[float], permille: int) -> float:
    # nearest rank, so the value is one that was measured
    rank = -(-permille * len(sorted_values) // 1000)
    return sorted_values[max(rank, 1) - 1]


def mode_setup(opts: dict) -> dict:
    reference_s()  # the first call pays for warming the loop's code path
    before = reference_s()
    setup_s, _ = _timed_setup(opts["workload"], int(opts["seed"]))
    factor = host_factor(before, reference_s())
    return {"setup_s": setup_s * factor, "setup_s_raw": setup_s}


def mode_run(opts: dict) -> dict:
    import resource

    workload, seed = opts["workload"], int(opts["seed"])
    _, w = _timed_setup(workload, seed)
    import numpy
    import tracer

    if tracer.find_wrappers():
        raise SystemExit("untraced run found trace wrappers")
    # Ops run back to back in batches of about 0.1 s, bracketed by reference
    # timings; each batch is checked before the next starts, so memory stays
    # flat.  The run lasts `seconds` of wall time, checks included.
    inputs, failures, lat, raw_lat = w.stream(seed), [], array("d"), array("d")
    busy = busy_raw = 0.0
    factors = array("d")
    reference_s()
    deadline = time.perf_counter() + float(opts["seconds"])
    while time.perf_counter() < deadline:
        before = reference_s()
        records, wall = _run_ops(w, inputs, w.op, limit=w.batch)
        factor = host_factor(before, reference_s())
        factors.append(factor)
        busy_raw += wall
        busy += wall * factor
        failed = _failures(w, records, len(lat))
        failures += failed
        failed_at = {f["index"] - len(lat) for f in failed}
        for i, r in enumerate(records):
            # a failed op misses any latency limit, so it ranks above every success
            raw_lat.append(float("inf") if i in failed_at else r[4])
            lat.append(raw_lat[-1] * factor)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(lat)
    lat, raw_lat = sorted(lat), sorted(raw_lat)
    p90 = _percentile(lat, 900)
    out = {
        "attempted": n,
        "failed": len(failures),
        "failed_by_stage": _by_stage(failures),
        "failures": failures[:20],
        "loop_s": busy_raw,
        "batches": len(factors),
        "host_factor_median": median(factors),
        "ops_per_s": n / busy,
        "op_p50_ms": 1e3 * _percentile(lat, 500),
        "op_p90_ms": 1e3 * p90,
        "beyond_p90": sum(v > p90 for v in lat),
        "raw": {
            "ops_per_s": n / busy_raw,
            "op_p50_ms": 1e3 * _percentile(raw_lat, 500),
            "op_p90_ms": 1e3 * _percentile(raw_lat, 900),
        },
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if w.probes is not None:
        import workloads

        n = w.probe_ops
        probe_records, probe_s = _run_ops(w, workloads.take(w.stream(seed, "probe"), n), w.op)
        probe_failures = _failures(w, probe_records)
        out["probe"] = {
            "attempted": n,
            "failed": len(probe_failures),
            "failed_frac": len(probe_failures) / n,
            "failed_by_stage": _by_stage(probe_failures),
            "failures": probe_failures[:10],
            "seconds": probe_s,
        }
    return out


def mode_trace(opts: dict) -> dict:
    """Each batch of ops runs untraced, then traced, between reference timings.

    Interleaving the two passes batch by batch, and scaling each by its own
    host-speed factor, keeps the host's drift out of trace.overhead_frac.
    """
    workload, seed = opts["workload"], int(opts["seed"])
    _, w = _timed_setup(workload, seed)
    import lemnis.cli  # noqa: F401  every layer is wrapped, so all are loaded first
    import numpy
    import tracer
    import workloads

    def traced_batch(batch):
        t = tracer.Tracer()
        t.install()
        try:
            records, wall = _run_ops(w, batch, w.op)
        finally:
            t.restore()
        return records, wall, t.summary()

    inputs = workloads.take(w.stream(seed), w.trace_ops)
    before = tracer.bindings()
    records, parts, factors, wall, wall_plain, op_s = [], [], [], 0.0, 0.0, 0.0
    reference_s()
    ref = reference_s()
    for start in range(0, len(inputs), w.batch):
        batch = inputs[start:start + w.batch]
        _, plain_s = _run_ops(w, batch, w.op)
        ref_mid = reference_s()
        batch_records, traced_s, part = traced_batch(batch)
        ref_end = reference_s()
        wall_plain += plain_s * host_factor(ref, ref_mid)
        factors.append(host_factor(ref_mid, ref_end))
        wall += traced_s * factors[-1]
        # the harness's own timing of each op call, independent of the spans
        op_s += sum(r[4] for r in batch_records) * factors[-1]
        records += batch_records
        parts.append(part)
        ref = ref_end
    summary = _merge(parts, factors)
    summary["restored"] = tracer.bindings() == before and not tracer.find_wrappers()
    failures = _failures(w, records)
    summary.update(
        attempted=len(records),
        failed=len(failures),
        failures=failures[:20],
        wall_traced_s=wall,
        wall_untraced_s=wall_plain,
        outside_s=wall - summary["top_s"],
        harness_s=wall - op_s,
        in_op_outside_s=op_s - summary["top_s"],
        numpy=numpy.__version__,
    )
    return summary


def _merge(parts: list[dict], factors: list[float]) -> dict:
    """Sum span summaries, each time scaled by its host-speed factor."""
    merged = {"calls": {}, "self_s": {}, "top_s": 0.0, "nested_ok": True, "steps": 0, "closure_elements": 0}
    for p, f in zip(parts, factors):
        for layer, v in p["calls"].items():
            merged["calls"][layer] = merged["calls"].get(layer, 0) + v
        for layer, v in p["self_s"].items():
            merged["self_s"][layer] = merged["self_s"].get(layer, 0.0) + v * f
        merged["top_s"] += p["top_s"] * f
        merged["steps"] += p["steps"]
        merged["closure_elements"] += p["closure_elements"]
        merged["nested_ok"] &= p["nested_ok"]
    return merged


if __name__ == "__main__":
    opts = _args(sys.argv[1:])
    result = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}[opts["mode"]](opts)
    import json

    sys.stdout.write(json.dumps(result) + "\n")
