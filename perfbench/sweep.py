#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py [--workloads descent,cli] [--seeds 1-10]
        [--seconds 25] [--traced] [--out perfbench/baseline.json]

``--seeds`` is a range (``1-10``: ten seeds, as the acceptance runs use) or a
repeat (``3x10``: seed 3 ten times, which isolates run-to-run noise). For every
workload it runs ``run.py`` once per entry (untraced) and reports for each
end-to-end metric the median, the quartiles and the spread
``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives them,
next to the metric's bound in ``BENCHMARK.json``; a spread of a third of the
bound or more is flagged. Runs of one seed must repeat their work-counter
fingerprint. With ``--traced`` it adds one traced run per workload. The
metrics come from each run's last stdout line; the environment record and
the fingerprint from the run's ``.perfbench/result-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    if "x" in text:
        seed, _, times = text.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = ROOT / ".perfbench" / f"result-{workload}-{seed}-trace{trace}.json"
    return result, json.loads(record.read_text(encoding="utf-8"))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        fingerprints = {}
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds, 0)
            summary.setdefault("env", record["env"])
            if fingerprints.setdefault(seed, record["fingerprint"]) != record["fingerprint"]:
                raise SystemExit(f"{workload} seed {seed}: fingerprint differs between runs")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
        entry = {"metrics": {}, "fingerprints": fingerprints, "counters": record["counters"]}
        for name, bound in bounds.items():
            s = spread(values[name])
            s["bound"] = bound
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- wide"
            print(f"  {workload:12s} {name:16s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={bound}{flag}", flush=True)
        if args.traced:
            result, record = run_once(workload, seeds[0], args.seconds, 1)
            if record["fingerprint"] != fingerprints[seeds[0]]:
                raise SystemExit(f"{workload}: traced fingerprint differs from untraced")
            entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced seed {seeds[0]}: overhead "
                  f"{entry['traced']['bench.trace_overhead']:.3f}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
