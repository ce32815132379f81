"""Steadiness report: the same benchmark run repeatedly, one seed per run.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--compare EARLIER.json]

Every workload in BENCHMARK.json runs for its ``run_seconds``, as the
benchmark is configured.

With ``--runs 1`` it is the one command that runs every workload and
prints every end-to-end metric with its unit and the correctness verdict.

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and IQR / median, next to
the metric's bound from BENCHMARK.json and a third of it.  The raw,
unnormalized op latency and reference time are reported the same way, so
the spread that drift normalization removes is measured, not asserted.
All results are saved to ``.perfbench/steadiness-<time>.json``; with
``--compare`` the medians are checked against an earlier report's: a
metric whose median got worse by more than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = ("raw.latency_p50_ms", "raw.ref_ms")


def spread(values):
    if len(values) < 2:  # one run: every workload and metric once, no spread
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200).stdout
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py printed no result")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({name: detail[name] for name in RAW if name in detail})
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "values": values,
            "tail_percentile": detail.get("tail_percentile", 100.0)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path, help="earlier report to check medians against")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            r = runs[-1]
            print(f"# {workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} p50={r['values'].get('latency_p50_ref', math.nan):.4g} ref",
                  file=sys.stderr, flush=True)

    earlier = json.loads(args.compare.read_text())["medians"] if args.compare else {}
    medians, problems = {}, []
    print(f"{'workload':22s} {'metric':18s} {'unit':8s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'iqr/med':>8s} {'bound':>6s} {'bound/3':>7s}  note")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        medians[workload] = {}
        for name in list(metrics) + list(RAW):
            values = [r["values"][name] for r in mine if name in r["values"]]
            if not values:  # no run had a successful op to measure it from
                print(f"{workload:22s} {name:18s} missing in every run")
                problems.append((workload, name, "missing"))
                continue
            median, q1, q3, rel = spread(values)
            medians[workload][name] = median
            bound = metrics[name]["bound"] if name in metrics else None
            unit = metrics[name]["unit"] if name in metrics else "ms"
            note = []
            if bound is not None and name != "setup_s" and rel > bound / 3:
                note.append("spread above bound/3")
            if bound is not None and name in earlier.get(workload, {}):
                before = earlier[workload][name]
                worse = (median - before) / before
                if metrics[name]["better"] == "higher":
                    worse = -worse
                note.append(f"{worse:+.3f} vs earlier")
                if worse > bound:
                    note.append("WORSE THAN BOUND")
            if any("bound" in n for n in note):
                problems.append((workload, name, " ".join(note)))
            bound_text = f"{bound:6.3f} {bound / 3:7.4f}" if bound is not None else f"{'-':>6s} {'-':>7s}"
            print(f"{workload:22s} {name:18s} {unit:8s} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{rel:8.4f} {bound_text}  {' '.join(note)}")
        pct = [r["tail_percentile"] for r in mine]
        print(f"{workload:22s} tail percentile {min(pct):.1f}-{max(pct):.1f}; "
              f"all correct: {all(r['correct'] for r in mine)}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs, "medians": medians}, indent=1))
    print(f"saved {path.relative_to(ROOT)}; {len(problems)} problem(s)")
    return 1 if problems or not all(r["correct"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
