"""Check that two fluxlim checkouts give byte-identical outputs.

    python scripts/same_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout runs the same command matrix with its own ``src/`` and ``configs/``:

  * every ``configs/*.cfg`` with its command (``COMMANDS``; ``study contraction``
    on the a/b pair and on a/a);
  * semi-implicit ``study contraction`` on the a/b pair at about 10x the CFL step;
  * ``check monotonicity --samples 2000``;
  * semi-implicit ``simulate`` on ``bump.cfg`` with ``dt = 0.002`` and ``snapshot_stride = 25``;
  * semi-implicit ``study smoothing`` at about 10x the CFL step;
  * semi-implicit ``study viscosity`` at 10x the CFL step of its largest eps, so that each
    member's eps enters the reduced matrices;
  * the ``implicit_1d`` benchmark's command: semi-implicit ``simulate`` on ``bump.cfg`` at
    2000 cells and 10x the CFL step to ``t_end = 0.01``;
  * ``simulate`` on ``bump.cfg`` with ``eps = 0.1``;
  * a 2D ``simulate`` on ``bump.cfg`` at 48^2 cells;
  * a semi-implicit ``simulate`` that backtracks (halves its relaxation): five steps of
    300x the CFL step at chi 3 from a 60-cell snapshot on [-5, 5] with vacuum, which the
    script writes (``vacuum_snapshot``);
  * ``study viscosity`` from that snapshot at chi 2 to ``t_end = 0.05``, whose report names
    the snapshot's 60 cells (its verdicts fail, so it exits 3);
  * a 2D ``simulate`` with ``snapshot_stride = 5`` from a non-square snapshot, 40 x 24 cells
    of width 0.25, which the script writes (``non_square_snapshot``);
  * ``steady check`` on a 1D ``multi_peak`` of two peaks at chi 2 on 400 cells;
  * a 2D ``simulate`` of a ``factorized`` peak at 48^2 cells to ``t_end = 0.05``;
  * a ``simulate`` of a ``uniform`` field of amplitude 0, the empty box;
  * 2D ``study contraction`` on the a/b pair at 32^2 cells, a batch of two 2D members;
  * 2D ``study viscosity`` at 32^2 cells to ``t_end = 0.1``, a batch of four 2D members, some
    with eps > 0 (its verdicts fail, so it exits 3; the exit codes are compared all the same).
  * explicit ``study contraction`` on the a/b pair at 401 cells to ``t_end = 0.05``, a 1D batch
    whose cells are not a multiple of the 8 doubles of a 64-byte cache line;
  * ``simulate`` on ``bump.cfg`` in 2D at 256^2 cells to ``t_end = 0.02``, and 2D ``study
    contraction`` on the a/b pair at 192^2 cells to ``t_end = 0.01`` (2 x 36,864 cells): batches
    of at least ``stepping._THREADED_CELLS`` cells, which step their two axes on two threads on
    a host with two CPUs;
  * four config errors, ``simulate`` on ``bump.cfg`` with ``scheme = rk4``, ``chi = -1``,
    ``dt = 0`` or ``dim = 3``: each exits 1, and its stderr names the key;
  * ``simulate`` on ``bump.cfg`` with ``dim = 2``, ``scheme = semi_implicit`` and ``dt = 0.01``,
    which exits 1 with the ``scheme`` text, and with ``dt = 0.1``, above the CFL ceiling, which
    exits 2: neither writes an output.

Every command runs in a fresh directory of its own, with relative paths, so stdout and
stderr name no path of either run (a run directory that appears anyway is masked). The
exit code, stdout, stderr and every file under the command's ``out`` directory must be
equal byte for byte. Prints one line per command and exits 0 when all are equal, 1 when
any differs. Standard library only; the checkouts need numpy, as fluxlim does.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# The command each shipped config runs with; contraction_b.cfg is the second run of the pair
COMMANDS = {
    "bump.cfg": ["simulate"],
    "steady.cfg": ["steady", "check"],
    "viscosity.cfg": ["study", "viscosity"],
    "smoothing.cfg": ["study", "smoothing"],
    "contraction_a.cfg": ["study", "contraction"],
    "contraction_b.cfg": None,
}
SMOOTHING_10_CFL_DT = "0.000309"  # 10x the CFL step 0.45 h^2/2 of smoothing.cfg's 1024 cells
CONTRACTION_10_CFL_DT = "0.0014"  # 10x the CFL step 0.45 h^2/2 of the contraction pair's 400 cells
VISCOSITY_10_CFL_DT = "0.00184"  # 10x the CFL step 0.45 h^2/(2 (1 + 0.1)) of viscosity.cfg's 400 cells
IMPLICIT_1D_DT = "5.625e-05"  # 10x the CFL step of 2000 cells on bump.cfg's box, as in implicit_1d
VACUUM_H = 10.0 / 60.0  # the spacing of vacuum_snapshot's 60 cells on [-5, 5]
VACUUM_DT = 300.0 * 0.45 * VACUUM_H**2 / 2.0  # 300x its CFL step
NON_SQUARE_H = 0.25  # the cell width of non_square_snapshot's 40 x 24 cells on [-5, 5] x [-3, 3]


def vacuum_snapshot() -> str:
    """A 1D snapshot file of 60 cells on [-5, 5] from ``random.Random(4)``: each cell is 0
    with probability 0.3, otherwise uniform in [0, 1)."""
    rng = random.Random(4)
    values = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(60)]
    return f"1 60 {VACUUM_H!r} -5.0\n" + "".join(f"{v!r}\n" for v in values)


def non_square_snapshot() -> str:
    """A 2D snapshot file of 40 x 24 cells of width ``NON_SQUARE_H`` on [-5, 5] x [-3, 3],
    each uniform in [0, 1) from ``random.Random(7)``."""
    rng = random.Random(7)
    head = f"2 40 24 {NON_SQUARE_H!r} {NON_SQUARE_H!r} -5.0 -3.0\n"
    return head + "".join(f"{rng.random()!r}\n" for _ in range(40 * 24))


def edit(text: str, **keys) -> str:
    """The config ``text`` with ``keys`` set: their old lines are dropped and new ones appended."""
    kept = [line for line in text.splitlines() if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def matrix(configs: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """(label, CLI arguments, config files to write) of every command for the ``configs`` directory."""
    found = sorted(p.name for p in configs.glob("*.cfg"))
    unknown = [name for name in found if name not in COMMANDS]
    if unknown:
        sys.exit(f"no command for {', '.join(unknown)}; add it to COMMANDS in {Path(__file__).name}")
    text = {name: (configs / name).read_text(encoding="utf-8") for name in found}
    cases = []
    for name in found:
        if COMMANDS[name] is None:
            continue
        cases.append((name, COMMANDS[name] + ["--config", "a.cfg"], {"a.cfg": text[name]}))
    if "contraction_a.cfg" in text and "contraction_b.cfg" in text:
        cases.append(("contraction_a.cfg + contraction_b.cfg",
                      ["study", "contraction", "--config", "a.cfg", "--config2", "b.cfg"],
                      {"a.cfg": text["contraction_a.cfg"], "b.cfg": text["contraction_b.cfg"]}))
        semi_implicit = dict(scheme="semi_implicit", dt=CONTRACTION_10_CFL_DT)
        cases.append(("contraction_a.cfg + contraction_b.cfg semi-implicit",
                      ["study", "contraction", "--config", "a.cfg", "--config2", "b.cfg"],
                      {"a.cfg": edit(text["contraction_a.cfg"], **semi_implicit),
                       "b.cfg": edit(text["contraction_b.cfg"], **semi_implicit)}))
    cases.append(("check monotonicity --samples 2000", ["check", "monotonicity", "--samples", "2000"], {}))
    bump, smoothing, viscosity = (text.get(name, "") for name in ("bump.cfg", "smoothing.cfg", "viscosity.cfg"))
    cases += [
        ("bump.cfg semi-implicit", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit(bump, scheme="semi_implicit", dt="0.002", snapshot_stride="25")}),
        ("smoothing.cfg semi-implicit", ["study", "smoothing", "--config", "a.cfg"],
         {"a.cfg": edit(smoothing, scheme="semi_implicit", dt=SMOOTHING_10_CFL_DT)}),
        ("viscosity.cfg semi-implicit", ["study", "viscosity", "--config", "a.cfg"],
         {"a.cfg": edit(viscosity, scheme="semi_implicit", dt=VISCOSITY_10_CFL_DT)}),
        ("bump.cfg implicit_1d", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit(bump, cells="2000", scheme="semi_implicit", dt=IMPLICIT_1D_DT, picard_tol="1e-10",
                        t_end="0.01", diag_stride="20")}),
        ("bump.cfg eps = 0.1", ["simulate", "--config", "a.cfg"], {"a.cfg": edit(bump, eps="0.1")}),
        ("bump.cfg 2D 48^2", ["simulate", "--config", "a.cfg"], {"a.cfg": edit(bump, dim="2", cells="48")}),
        ("vacuum snapshot semi-implicit, backtracking", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit("", ic="snapshot", ic_path="vacuum.txt", chi="3", scheme="semi_implicit",
                        dt=repr(VACUUM_DT), t_end=repr(5 * VACUUM_DT), diag_stride="1"),
          "vacuum.txt": vacuum_snapshot()}),
        ("vacuum snapshot study viscosity", ["study", "viscosity", "--config", "a.cfg"],
         {"a.cfg": edit("", ic="snapshot", ic_path="vacuum.txt", chi="2", t_end="0.05"),
          "vacuum.txt": vacuum_snapshot()}),
        ("non-square 2D snapshot", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit("", ic="snapshot", ic_path="non_square.txt", chi="3", eps="0.1", t_end="0.1",
                        diag_stride="5", snapshot_stride="5"),
          "non_square.txt": non_square_snapshot()}),
        ("multi_peak steady check", ["steady", "check", "--config", "a.cfg"],
         {"a.cfg": edit("", ic="multi_peak", ic_centers="-1.5 1", ic_amplitudes="1 0.6", chi="2", cells="400")}),
        ("factorized 2D 48^2", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit("", dim="2", cells="48", ic="factorized", t_end="0.05", diag_stride="5")}),
        ("uniform at amplitude 0", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit("", ic="uniform", ic_amplitude="0.0")}),
        ("contraction_a.cfg + contraction_b.cfg 2D 32^2",
         ["study", "contraction", "--config", "a.cfg", "--config2", "b.cfg"],
         {"a.cfg": edit(text.get("contraction_a.cfg", ""), dim="2", cells="32"),
          "b.cfg": edit(text.get("contraction_b.cfg", ""), dim="2", cells="32")}),
        ("viscosity.cfg 2D 32^2", ["study", "viscosity", "--config", "a.cfg"],
         {"a.cfg": edit(viscosity, dim="2", cells="32", t_end="0.1")}),
        ("contraction_a.cfg + contraction_b.cfg 401 cells",
         ["study", "contraction", "--config", "a.cfg", "--config2", "b.cfg"],
         {"a.cfg": edit(text.get("contraction_a.cfg", ""), cells="401", t_end="0.05"),
          "b.cfg": edit(text.get("contraction_b.cfg", ""), cells="401", t_end="0.05")}),
        ("bump.cfg 2D 256^2", ["simulate", "--config", "a.cfg"],
         {"a.cfg": edit(bump, dim="2", cells="256", t_end="0.02")}),
        ("contraction_a.cfg + contraction_b.cfg 2D 192^2",
         ["study", "contraction", "--config", "a.cfg", "--config2", "b.cfg"],
         {"a.cfg": edit(text.get("contraction_a.cfg", ""), dim="2", cells="192", t_end="0.01"),
          "b.cfg": edit(text.get("contraction_b.cfg", ""), dim="2", cells="192", t_end="0.01")}),
    ]
    cases += [(f"bump.cfg {key} = {value}", ["simulate", "--config", "a.cfg"], {"a.cfg": edit(bump, **{key: value})})
              for key, value in (("scheme", "rk4"), ("chi", "-1"), ("dt", "0"), ("dim", "3"))]
    cases += [("bump.cfg 2D semi-implicit", ["simulate", "--config", "a.cfg"],
               {"a.cfg": edit(bump, dim="2", scheme="semi_implicit", dt="0.01")}),
              ("bump.cfg dt = 0.1 above the CFL ceiling", ["simulate", "--config", "a.cfg"],
               {"a.cfg": edit(bump, dt="0.1")})]
    return cases


def outcome(checkout: Path, args: list[str], files: dict[str, str], where: Path) -> dict[str, bytes]:
    """Run one command of ``checkout`` in the empty directory ``where``; its exit code, masked
    stdout and stderr, and the bytes of every output file, by name."""
    where.mkdir(parents=True)
    for name, content in files.items():
        (where / name).write_text(content, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-m", "fluxlim.cli", *args, "--out", "out"], cwd=where,
                         capture_output=True, env=env)
    mask = str(where).encode()
    seen = {"exit code": str(res.returncode).encode(), "stdout": res.stdout.replace(mask, b"<run>"),
            "stderr": res.stderr.replace(mask, b"<run>")}
    out = where / "out"
    seen.update((f"out/{p.relative_to(out)}", p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file())
    return seen


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (Path(a).resolve() for a in argv)
    cases = {label: (args, files) for label, args, files in matrix(old / "configs")}
    cases_new = {label: (args, files) for label, args, files in matrix(new / "configs")}
    differ = sorted(set(cases) ^ set(cases_new))
    for label in differ:
        print(f"DIFFERENT {label}: run by one checkout only")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for k, label in enumerate(label for label in cases if label in cases_new):
            a = outcome(old, *cases[label], Path(tmp, "old", str(k)))
            b = outcome(new, *cases_new[label], Path(tmp, "new", str(k)))
            bad = [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
            if bad:
                differ.append(label)
            note = "" if cases[label][1] == cases_new[label][1] else " (the checkouts' configs differ)"
            verdict = f"DIFFERENT {label}" if bad else f"same {label}"
            print(f"{verdict}: exit {b['exit code'].decode()}, {len(b)} outputs{note}"
                  + (f"; differ: {', '.join(bad)}" if bad else ""), flush=True)
    total = len(set(cases) | set(cases_new))
    print(f"{len(differ)} of {total} commands differ" if differ else f"all {total} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
