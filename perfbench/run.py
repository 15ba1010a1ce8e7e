"""fluxlim benchmark: time-to-solution of four CLI workloads, with a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs the workload's ``fluxlim`` command in a fresh
single-threaded interpreter started with an absolute path to ``src``, so the
current directory does not matter. Every repetition is checked: exit code 0,
every ``VERDICT`` line PASS, and the numeric outputs matching the reference
computed at the seed commit (``refs/``). Set-up probes (fresh interpreter,
``import fluxlim``, ``parse_config``, ``build_problem``) alternate with the
repetitions. Repetitions start only while they fit into ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over the repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced process (see ``spans.py``). The last line of
standard output is one JSON object; the lines before it are a readable
summary. Files go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans
from workloads import N_INPUT_SETS, WORKLOADS, Inputs, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "cell-steps/s", "peak_rss_mb": "MiB"}
# p99 only for functions that reach P99_MIN_CALLS calls on some workload
P99_SPANS = ("stepping.step_explicit", "stepping.face_coefficients", "stepping.div_coeff_grad",
             "stepping.finalize", "stepping.cg", "grid.face_gradient", "grid.cell_gradient",
             "grid.field_density", "limiter.limiter", "diagnostics.relative_entropy",
             "diagnostics.dissipation_terms")
PER_LAYER_EXTRA = {
    "fluxlim.import_s": "s", "config.parse_config_s": "s", "config.build_problem_s": "s",
    "limiter.active_face_frac": "ratio", "stepping.finalize.floor_hits": "count",
    "stepping.cg.iters": "count", "stepping.picard.sweeps_per_step": "ratio",
    "stepping.step_explicit.ns_per_cell": "ns", "cli.output_bytes": "bytes",
    "trace_overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in spans.SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.p50_us"] = "us"
        if span in P99_SPANS:
            units[f"{span}.p99_us"] = "us"
    return {**units, **PER_LAYER_EXTRA}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


def spawn(argv: list[str], cwd: Path) -> Proc:
    """Run one child to completion; wall time is spawn to exit."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout)


@dataclass
class Samples:
    setup: list[dict] = field(default_factory=list)  # probe timings incl. "setup_s"
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


class Runner:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs: Inputs = generate(name, seed, ROOT, self.work)
        ref_file = HERE / "refs" / f"{name}.json"
        refs = json.loads(ref_file.read_text(encoding="utf-8")) if ref_file.is_file() else {}
        self.ref = refs.get("sets", {}).get(str(seed % N_INPUT_SETS))
        self.out = self.work / "out"
        self.samples = Samples()
        self.output_bytes = 0

    def probe(self, keep: bool = True) -> float:
        p = spawn([sys.executable, str(HERE / "setup_probe.py"), *map(str, self.inputs.configs)],
                  self.work)
        if keep:
            self.samples.attempted += 1
            if p.code != 0:
                self.samples.fail(f"setup probe exit {p.code}: {self._stderr_tail()}")
            else:
                self.samples.setup.append({**json.loads(p.stdout.splitlines()[-1]), "setup_s": p.wall_s})
        return p.wall_s

    def rep(self, traced_to: Path | None = None) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        args = [*self.inputs.argv, "--out", str(self.out)]
        if traced_to is None:
            argv = [sys.executable, "-m", "fluxlim.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(traced_to), *args]
        p = spawn(argv, self.work)
        s = self.samples
        s.attempted += 1
        (s.walls if traced_to is None else s.traced_walls).append(p.wall_s)
        if traced_to is None:
            s.rss.append(p.rss_mb)
        problems = self.check(p)
        if problems:
            s.fail("; ".join(problems[:3]))
        files = list(self.out.iterdir()) if self.out.is_dir() else []
        self.output_bytes = len(p.stdout.encode()) + sum(f.stat().st_size for f in files)
        return p.wall_s

    def check(self, p: Proc) -> list[str]:
        if p.code != 0:
            return [f"exit code {p.code}: {self._stderr_tail()}"]
        problems = check.verdict_failures(p.stdout)
        if self.ref is None:
            return problems + ["no reference for this input set"]
        for name in self.inputs.outputs:
            problems += check.mismatches(self.out / name, self.ref[name], self.inputs.rtol)
        return problems

    def _stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
        return text.splitlines()[-1] if text else "(no stderr)"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Runner, dict]:
    """Alternate set-up probes and repetitions while they fit into ``seconds``."""
    r = Runner(name, seed)
    r.probe(keep=False)  # warm-up: byte-compiled files and the file cache
    spans_file = r.work / "spans_0.npz"  # the first traced repetition gives the per-layer table
    start = time.perf_counter()
    longest = probe_s = 0.0
    while True:
        t = time.perf_counter()
        probe_s = max(probe_s, r.probe())
        r.rep()
        if trace:
            r.rep(traced_to=r.work / f"spans_{len(r.samples.traced_walls)}.npz")
        longest = max(longest, time.perf_counter() - t)
        probes_left = max(0, MIN_SETUP_PROBES - len(r.samples.setup))
        if time.perf_counter() - start + longest + probes_left * probe_s > seconds:
            break
    while len(r.samples.setup) < MIN_SETUP_PROBES and r.samples.attempted < 4 * MIN_SETUP_PROBES:
        r.probe()
    s = r.samples
    if not s.setup or not s.walls or (trace and not spans_file.is_file()):
        return r, {}
    setup_s = statistics.median(p["setup_s"] for p in s.setup)
    wall_s = statistics.median(s.walls)
    if not trace:
        return r, {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "cell_steps_per_s": r.inputs.cell_steps / max(wall_s - setup_s, 1e-9),
            "peak_rss_mb": statistics.median(s.rss),
        }
    stats, top_s, counters = spans.summarize(spans_file)
    metrics = {}
    for span, st in stats.items():
        for key, value in st.items():
            if key != "p99_us" or span in P99_SPANS:
                metrics[f"{span}.{key}"] = value
    se = stats["stepping.step_semi_implicit"]["calls"]
    metrics.update({
        "fluxlim.import_s": statistics.median(p["import_s"] for p in s.setup),
        "config.parse_config_s": statistics.median(p["parse_config_s"] for p in s.setup),
        "config.build_problem_s": statistics.median(p["build_problem_s"] for p in s.setup),
        "limiter.active_face_frac": counters["limiter.active_faces"] / max(counters["limiter.faces"], 1),
        "stepping.finalize.floor_hits": counters["stepping.finalize.floor_hits"],
        "stepping.cg.iters": counters["stepping.cg.iters"],
        "stepping.picard.sweeps_per_step": stats["stepping.cg"]["calls"] / se if se else 0.0,
        "stepping.step_explicit.ns_per_cell":
            stats["stepping.step_explicit"]["total_s"] * 1e9 / max(counters["stepping.step_explicit.cells"], 1),
        "cli.output_bytes": r.output_bytes,
        "trace_overhead_frac": statistics.median(s.traced_walls) / wall_s - 1.0,
        "trace.coverage_frac": (top_s + setup_s) / s.traced_walls[0],
    })
    return r, metrics


def summary(r: Runner, seed: int, metrics: dict, trace: bool) -> list[str]:
    s = r.samples
    lines = [f"workload {r.name} seed {seed} input set {seed % N_INPUT_SETS} "
             + " ".join(f"{k}={v!r}" for k, v in r.inputs.params.items())]
    reps = len(s.walls) + len(s.traced_walls)
    lines.append(f"  failed_frac {(s.failed / s.attempted) if s.attempted else 1.0:.4f} ratio "
                 f"({s.failed} of {s.attempted} processes; {reps} repetitions, "
                 f"{len(s.setup)} set-up probes)")
    lines += [f"  problem: {p}" for p in s.problems[:5]]
    for label, xs in (("wall_s", s.walls), ("setup_s", [p["setup_s"] for p in s.setup]),
                      ("traced wall_s", s.traced_walls)):
        if xs:
            q1, q2, q3 = quartiles(xs)
            lines.append(f"  {label} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  (n={len(xs)})")
    units = per_layer_units() if trace else END_TO_END
    width = max(map(len, units))
    lines += [f"  {k:<{width}} {metrics[k]:.6g} {u}" for k, u in units.items() if k in metrics]
    return lines


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "fluxlim").glob("*.py")))
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions,
            "src_fluxlim_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fluxlim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fluxlim sources under {ROOT / 'src'}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    units = per_layer_units() if args.trace else END_TO_END
    results = []
    for name in names:
        r, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary(r, args.seed, metrics, bool(args.trace))), flush=True)
        results.append((r, metrics))

    attempted = sum(r.samples.attempted for r, _ in results)
    failed = sum(r.samples.failed for r, _ in results)
    if any(not m for _, m in results):
        failed = max(failed, 1)
    out = {}
    for r, metrics in results:
        prefix = f"{r.name}." if len(results) > 1 else ""
        out.update({prefix + k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics})
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
