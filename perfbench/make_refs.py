"""Write the reference fingerprints in ``refs/`` from the current checkout.

    python3 perfbench/make_refs.py [WORKLOAD...]

Runs every input set of each workload once, requires exit code 0 and PASS
verdicts, and stores the fingerprint of each numeric output (see
``check.py``). The committed references were made at the seed commit; run
this again only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import check
from run import HERE, ROOT, Runner, spawn
from workloads import N_INPUT_SETS, WORKLOADS


def main(names: list[str]) -> int:
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    (HERE / "refs").mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        sets = {}
        for index in range(N_INPUT_SETS):
            r = Runner(name, index)
            p = spawn([sys.executable, "-m", "fluxlim.cli", *r.inputs.argv, "--out", str(r.out)], r.work)
            bad = check.verdict_failures(p.stdout)
            if p.code != 0 or bad:
                sys.stderr.write(f"{name} set {index}: exit {p.code} {bad}\n")
                return 1
            sets[str(index)] = {f: check.fingerprint(r.out / f) for f in r.inputs.outputs}
            print(f"{name} set {index}: {p.wall_s:.2f} s", flush=True)
        doc = {"commit": commit, "rtol": r.inputs.rtol, "sets": sets}
        (HERE / "refs" / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
