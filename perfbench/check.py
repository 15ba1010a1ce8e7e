"""Output check: verdict lines plus numeric outputs against a stored reference.

A full reference would be megabytes per input set (a 512^2 snapshot alone is
5.7 MB of text), so the reference keeps a fingerprint of every numeric
column: its length, its scale max|x|, an evenly strided sample with the
position of the maximum, and projections onto fixed positive weight vectors.
A column matches when every sampled value lies within ``rtol * scale`` of the
reference and every projection within ``rtol`` of the projection of |x|
plus the same per-entry allowance. Text columns must match exactly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_SAMPLES = 64
N_PROJECTIONS = 4


def _weights(n: int) -> np.ndarray:
    """Fixed weights in [0.5, 1.5], by formula so they do not depend on a RNG stream."""
    i = np.arange(n)
    return np.stack([1.0 + 0.5 * np.cos(0.6180339887 * (k + 1) * i) for k in range(N_PROJECTIONS)])


def _column_fingerprint(x: np.ndarray) -> dict:
    idx = np.unique(np.append(np.linspace(0, x.size - 1, N_SAMPLES).astype(int), np.argmax(x)))
    w = _weights(x.size)
    return {"n": int(x.size), "scale": float(np.max(np.abs(x))), "idx": idx.tolist(),
            "sample": x[idx].tolist(), "proj": (w @ x).tolist(), "proj_abs": (w @ np.abs(x)).tolist()}


def _read_table(path: Path) -> tuple[str, list[np.ndarray | list[str]]]:
    """Header line and columns of a CSV or of a snapshot (one value per line)."""
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    if path.suffix != ".csv":
        return head, [np.array(body.split(), dtype=float)]
    rows = [line.split(",") for line in body.splitlines()]
    columns = []
    for col in zip(*rows):
        try:
            columns.append(np.array(col, dtype=float))
        except ValueError:
            columns.append(list(col))
    return head, columns


def fingerprint(path: Path) -> dict:
    head, columns = _read_table(path)
    cols = []
    for col in columns:
        if isinstance(col, list):
            cols.append({"text_sha256": hashlib.sha256("\n".join(col).encode()).hexdigest()})
        else:
            cols.append(_column_fingerprint(col))
    return {"head": head, "columns": cols}


def _column_mismatch(x: np.ndarray, ref: dict, rtol: float) -> str | None:
    if x.size != ref["n"]:
        return f"{x.size} entries, reference {ref['n']}"
    if not np.isfinite(x).all():
        return "non-finite entries"
    allowance = rtol * ref["scale"]
    err = float(np.max(np.abs(x[ref["idx"]] - np.array(ref["sample"]))))
    if err > allowance:
        return f"sampled entry off by {err!r}, allowance {allowance!r}"
    w = _weights(x.size)
    proj_err = np.abs(w @ x - np.array(ref["proj"]))
    proj_allow = rtol * np.array(ref["proj_abs"]) + allowance * w.sum(axis=1)
    if np.any(proj_err > proj_allow):
        return f"weighted sum off by {float(proj_err.max())!r}"
    return None


def mismatches(path: Path, ref: dict, rtol: float) -> list[str]:
    """Reasons why the file at ``path`` does not match its reference fingerprint."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    head, columns = _read_table(path)
    if head != ref["head"]:
        return [f"{path.name}: header {head[:60]!r} differs from the reference"]
    if len(columns) != len(ref["columns"]):
        return [f"{path.name}: {len(columns)} columns, reference {len(ref['columns'])}"]
    out = []
    for k, (col, rc) in enumerate(zip(columns, ref["columns"])):
        if "text_sha256" in rc:
            ok = isinstance(col, list) and \
                hashlib.sha256("\n".join(col).encode()).hexdigest() == rc["text_sha256"]
            why = None if ok else "text differs"
        elif isinstance(col, list):
            why = "text where the reference has numbers"
        else:
            why = _column_mismatch(col, rc, rtol)
        if why:
            out.append(f"{path.name} column {k}: {why}")
    return out


def verdict_failures(stdout: str) -> list[str]:
    """``VERDICT`` lines of a study report that do not read PASS."""
    return [line for line in stdout.splitlines()
            if line.startswith("VERDICT ") and line.split()[2:3] != ["PASS"]]
