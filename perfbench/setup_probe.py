"""Set-up probe: a fresh interpreter imports fluxlim, parses and builds configs.

Run as ``python setup_probe.py CONFIG...`` with ``fluxlim`` importable. It
prints one JSON line with the seconds spent in ``import fluxlim``, in
``parse_config`` and in ``build_problem`` (summed over the configs); the
caller times the whole process from spawn to exit as ``setup_s``.
"""

import time

t0 = time.perf_counter()
import fluxlim  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

parse_s = build_s = 0.0
for path in sys.argv[1:]:
    text = Path(path).read_text(encoding="utf-8")
    t = time.perf_counter()
    cfg = fluxlim.parse_config(text)
    parse_s += time.perf_counter() - t
    if getattr(cfg, "threads", 1) != 1:
        sys.exit(f"{path}: the benchmark runs single-threaded, got threads = {cfg.threads}")
    t = time.perf_counter()
    fluxlim.build_problem(cfg)
    build_s += time.perf_counter() - t
print(json.dumps({"import_s": t1 - t0, "parse_config_s": parse_s, "build_problem_s": build_s}))
