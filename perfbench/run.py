"""Benchmark of flagparam: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports flagparam from ``src/`` and
exits with code 2, printing no result, when that is missing.

Each workload runs in its own child process (worker.py) with BLAS pinned
to one thread, an address-space cap and a wall timeout.  Hitting a cap
counts as a failed op and is named in the output; it never takes this
process down.  Latencies are drift-normalized: each op's wall time is
divided by the mean of the reference-kernel times measured just before and
just after it, so a host that speeds up or slows down between runs moves
both alike.

``--trace 0`` prints the end-to-end metrics; setup is repeated in
``SETUP_REPEATS`` processes and its median reported.  ``--trace 1`` runs
every other op with spans and prints the per-layer metrics.  The last line
of stdout is always the JSON result; the line before it holds the details
(sample counts, tail percentile, raw times, machine facts).  The warm-up
op is checked and counted like the others but not timed.  A run in which
no op succeeds still prints its result, with ``correct`` false and without
the metrics that only successful ops can give.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
ADDRESS_SPACE_CAP = 2 << 30  # bytes, per workload process and the processes it starts
DEADLINE_S = 170             # whole run, including every child
TAIL_BEYOND = 10             # samples the tail percentile must have beyond it
MAX_ERRORS = 10              # distinct op errors kept in the detail line
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(worker_args, timeout):
    """Run worker.py under the caps; returns (records, cap hit or None, stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args, "--spawn-ns", str(now_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, preexec_fn=cap_address_space,
                            start_new_session=True)
    cap = None
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI process it started
        out, err = proc.communicate()
        cap = "wall_timeout"
    if cap is None and proc.returncode != 0:
        cap = "address_space" if "MemoryError" in err else f"exit code {proc.returncode}"
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return records, cap, err


def ratio(op):
    return op["op_ns"] / statistics.fmean(op["ref_ns"])


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops, checked, setups, done, workload, success_ratio):
    """The end-to-end metrics the records support; none is made up when nothing succeeded."""
    ratios = [ratio(op) for op in ops if op["ok"]]
    residuals = [r["residual"] for r in checked if "residual" in r]  # failed checks too
    rss_kb = done.get("maxrss_children_kb" if workload.startswith("cli-") else "maxrss_kb")
    metrics, extra = {"success_ratio": success_ratio}, {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if ratios:
        tail_value, tail_pct = tail(ratios)
        metrics.update(latency_p50_ref=statistics.median(ratios), latency_tail_ref=tail_value,
                       ops_per_kref=1000.0 / statistics.fmean(ratios))
        extra = {"tail_percentile": tail_pct, "tail_samples": len(ratios)}
    if rss_kb:
        metrics["peak_rss_mb"] = rss_kb / 1024.0
    if residuals:
        worst = max(r if math.isfinite(r) else 1e300 for r in residuals)
        metrics["accuracy_digits"] = -math.log10(max(worst, 1e-300))
    return {m["name"]: metrics[m["name"]] for m in SPEC["end_to_end"] if m["name"] in metrics}, extra


def per_layer(ops, checked, layers):
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    refs = [r["ref_ns"][1] for r in checked] + [r["ref_ns"][0] for r in checked[:1]]
    metrics = dict(layers)
    metrics["raw.latency_p50_ms"] = median_or_zero([op["op_ns"] / 1e6 for op in plain])
    metrics["raw.ref_ms"] = median_or_zero(refs) / 1e6
    metrics["coset.levels"] = median_or_zero([op["levels"] for op in good])
    if traced and plain:
        overhead = statistics.median(map(ratio, traced)) / statistics.median(map(ratio, plain))
        metrics["trace.overhead"] = overhead - 1.0
    for i, name in enumerate(("cli.rho_to_param_process_ms", "cli.param_to_rho_process_ms")):
        metrics[name] = median_or_zero([op["process_ns"][i] / 1e6 for op in plain if "process_ns" in op])
    return {m["name"]: float(metrics.get(m["name"], 0.0)) for m in SPEC["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "flagparam" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'flagparam'} not found; run from a flagparam checkout",
              file=sys.stderr)
        return 2
    # bytecode is written before any timing, so the first run's setup is not a compile
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups, caps = [], []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        budget = DEADLINE_S - (time.monotonic() - started) - args.seconds - 30
        records, cap, _ = run_worker(common + ["--setup-only"], min(budget, 40))
        setups += [r["ns"] / 1e9 for r in records if r["kind"] == "setup"]
        if cap:
            caps.append(cap)
    budget = DEADLINE_S - (time.monotonic() - started)
    records, cap, err = run_worker(common + ["--trace", str(args.trace)], budget)
    if cap:
        caps.append(cap)
    setups += [r["ns"] / 1e9 for r in records if r["kind"] == "setup"]
    ops = [r for r in records if r["kind"] == "op"]
    checked = [r for r in records if r["kind"] == "warmup"] + ops
    done = next((r for r in records if r["kind"] == "done"), {})
    machine = next(({k: v for k, v in r.items() if k != "kind"}
                    for r in records if r["kind"] == "machine"), {})
    layers = next((r for r in records if r["kind"] == "layers"), None)
    if not any(op["ok"] for op in ops):
        print(f"error: no op succeeded ({caps or 'no cap hit'}); worker stderr:\n{err[-2000:]}",
              file=sys.stderr)

    in_flight = len(caps)  # each process cap hit interrupted an op or a set-up
    attempted = len(checked) + in_flight
    failed = sum(not r["ok"] for r in checked) + in_flight
    caps += sorted({r["error"][len("cap: "):] for r in checked
                    if r.get("error", "").startswith("cap: ")})
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "caps_hit": caps, "machine": machine,
              "address_space_cap_bytes": ADDRESS_SPACE_CAP, "blas_env": BLAS_ENV,
              "errors": sorted({r["error"] for r in checked if "error" in r})[:MAX_ERRORS]}
    if args.trace:
        metrics = per_layer(ops, checked, (layers or {}).get("values", {}))
    else:
        metrics, extra = end_to_end(ops, checked, setups, done, args.workload,
                                    (attempted - failed) / attempted)
        plain = [op["op_ns"] / 1e6 for op in ops if op["ok"]]
        refs = [r["ref_ns"][1] / 1e6 for r in checked]
        detail.update(extra, setup_samples_s=setups)
        if plain:
            detail.update({"raw.latency_p50_ms": statistics.median(plain),
                           "raw.ref_ms": statistics.median(refs)})

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in machine.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {UNITS[name]}")
    if args.trace and layers:
        print("layer split, median per traced op (ms): inclusive / self")
        for name, ms in sorted(layers["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {layers['incl_ms'].get(name, 0.0):10.3f} {ms:10.3f}")
    correct = failed == 0
    print(f"correct: {str(correct).lower()}  attempted {attempted}  failed {failed}"
          + (f"  caps hit: {', '.join(caps)}" if caps else ""))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
