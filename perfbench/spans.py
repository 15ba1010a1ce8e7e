"""Span tracing of one fluxlim CLI process, from outside the package.

Run as ``python spans.py SPANS_FILE CLI_ARG...`` with ``fluxlim`` importable:
it wraps each function of ``SPANS`` at every ``fluxlim`` module binding
through which it is called, runs ``fluxlim.cli.main`` on the arguments, and
at exit writes the spans it kept in memory to ``SPANS_FILE`` (``.npz``).
Each span records its name, start, end and parent; all spans of one process
share the run id stored with them. ``summarize`` turns such a file into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time
import uuid
from array import array

import numpy as np

# (span name, module, attribute); dotted attributes live on a class
SPANS = [
    ("stepping.run", "fluxlim.stepping", "run"),
    ("stepping.step_explicit", "fluxlim.stepping", "step_explicit"),
    ("stepping.step_semi_implicit", "fluxlim.stepping", "step_semi_implicit"),
    ("stepping.face_coefficients", "fluxlim.stepping", "_face_coefficients"),
    ("stepping.div_coeff_grad", "fluxlim.stepping", "_div_coeff_grad"),
    ("stepping.finalize", "fluxlim.stepping", "_finalize"),
    ("stepping.cg", "fluxlim.stepping", "cg"),
    ("grid.face_gradient", "fluxlim.grid", "face_gradient"),
    ("grid.cell_gradient", "fluxlim.grid", "cell_gradient"),
    ("grid.field_density", "fluxlim.grid", "Field.density"),
    ("grid.save_snapshot", "fluxlim.grid", "save_snapshot"),
    ("limiter.limiter", "fluxlim.limiter", "limiter"),
    ("diagnostics.record", "fluxlim.diagnostics", "record"),
    ("diagnostics.relative_entropy", "fluxlim.diagnostics", "relative_entropy"),
    ("diagnostics.dissipation_terms", "fluxlim.diagnostics", "dissipation_terms"),
    ("studies.report_render", "fluxlim.studies", "StudyReport.to_text"),
    ("studies.report_render", "fluxlim.studies", "StudyReport.to_csv"),
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))
P99_MIN_CALLS = 1000

# counters kept at the span boundaries
COUNTERS = ("limiter.faces", "limiter.active_faces", "stepping.finalize.floor_hits",
            "stepping.cg.iters", "stepping.step_explicit.cells")


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, nid: int, fn, before=None, after=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(kwargs)
            idx = len(self.start)
            parent = self.stack[-1]
            self.name.append(nid)
            self.parent.append(parent)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(path, run_id=self.run_id, names=np.array(SPAN_NAMES),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 counter_names=np.array(COUNTERS),
                 counters=np.array([self.counts[c] for c in COUNTERS], dtype=np.int64))


def _hooks(tracer: Tracer, name: str):
    counts = tracer.counts
    fc_id = SPAN_NAMES.index("stepping.face_coefficients")
    if name == "limiter.limiter":
        def after(args, out, parent):
            if parent >= 0 and tracer.name[parent] == fc_id:
                counts["limiter.faces"] += np.size(out)
                counts["limiter.active_faces"] += int(np.count_nonzero(out))
        return None, after
    if name == "stepping.finalize":
        def after(args, out, parent):
            counts["stepping.finalize.floor_hits"] += int(np.min(args[0]) < 0.0)
        return None, after
    if name == "stepping.step_explicit":
        def after(args, out, parent):
            counts["stepping.step_explicit.cells"] += args[0].values.size
        return None, after
    if name == "stepping.cg":
        def before(kwargs):
            chained = kwargs.get("callback")

            def callback(xk):
                counts["stepping.cg.iters"] += 1
                if chained is not None:
                    chained(xk)
            return {**kwargs, "callback": callback}
        return before, None
    return None, None


def install(tracer: Tracer) -> list[str]:
    """Wrap every function of ``SPANS`` at each of its fluxlim bindings.

    Returns the entries that could not be found, so a renamed function
    shows up as a warning and zero calls instead of a crash.
    """
    import fluxlim  # noqa: F401  (imports every submodule)
    import fluxlim.cli  # noqa: F401

    modules = [m for n, m in list(sys.modules.items()) if n == "fluxlim" or n.startswith("fluxlim.")]
    missing = []
    for name, module, attr in SPANS:
        nid = SPAN_NAMES.index(name)
        owner = importlib.import_module(module)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            raw = vars(cls).get(fn_name) if cls is not None else None
            if raw is None:
                missing.append(f"{module}.{attr}")
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = tracer.wrap(nid, fn, *_hooks(tracer, name))
            setattr(cls, fn_name, classmethod(wrapped) if is_cm else wrapped)
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(nid, fn, *_hooks(tracer, name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return missing


def summarize(path) -> tuple[dict, float, dict]:
    """Per-function stats, total top-level span time (s) and counters of a spans file."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    dur = (data["end"] - data["start"]).astype(float)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_ns = dur - child
    stats = {}
    for nid, span in enumerate(names):
        m = name == nid
        d = dur[m]
        stats[span] = {
            "calls": int(m.sum()),
            "total_s": float(d.sum()) / 1e9,
            "self_s": float(self_ns[m].sum()) / 1e9,
            "p50_us": float(np.percentile(d, 50)) / 1e3 if d.size else 0.0,
            "p99_us": float(np.percentile(d, 99)) / 1e3 if d.size >= P99_MIN_CALLS else 0.0,
        }
    top_s = float(dur[parent < 0].sum()) / 1e9
    counters = dict(zip((str(c) for c in data["counter_names"]), data["counters"].tolist()))
    return stats, top_s, counters


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for entry in install(tracer):
        sys.stderr.write(f"trace: {entry} not found; reported with zero calls\n")
    import fluxlim.cli

    try:
        return fluxlim.cli.main(cli_args)
    finally:
        tracer.save(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
