"""Repeat the benchmark over seeds, report spreads, and write ``baseline.json``.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads NAME...] [--write FILE]

For each workload it runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once (first seed). For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
With ``--write`` it stores those figures, every run's values, the traced
per-layer table and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, environment
from workloads import WORKLOADS

NOTES = [
    "Medians and quartiles are over runs with different seeds; each run's value is itself a "
    "median over the repetitions that fit into run_seconds.",
    "failed_frac is failed / attempted processes of each run; it is 0 at the seed commit, "
    "so it is carried by the result line's attempted and failed fields, not as a gated metric.",
    "The 512^2 working set (2 MiB per array) stays in cache here, so "
    "stepping.step_explicit.ns_per_cell is a computed per-cell rate, not a DRAM-bandwidth figure.",
    "src_fluxlim_lines is an ungated figure.",
]


def cache_sizes() -> dict:
    """Per-level cache sizes of CPU 0 as the kernel reports them (Linux only)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"run_seconds": seconds, "seeds": args.seeds,
           "environment": {**environment(), "caches": cache_sizes()}, "notes": NOTES, "workloads": {}}
    for name in args.workloads:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        print(f"{name}: correct {entry['correct']} failed {entry['failed']} of {entry['attempted']}",
              flush=True)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                                           "q1": q1, "q3": q3, "spread": spread, "runs": values}
            flag = "ok" if spread < bound / 3 else ("wide" if spread < bound else "OVER BOUND")
            print(f"  {metric:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound} {flag}", flush=True)
        traced = run_once(name, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced: trace_overhead_frac {entry['per_layer']['trace_overhead_frac']:.4f} "
              f"trace.coverage_frac {entry['per_layer']['trace.coverage_frac']:.4f}", flush=True)
        doc["workloads"][name] = entry
    if args.write:
        args.write.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
