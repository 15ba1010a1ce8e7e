from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fluxlim import studies
from fluxlim.config import RunConfig, build_problem, parse_config
from fluxlim.diagnostics import l1_distance
from fluxlim.grid import Field, make_grid, save_snapshot
from fluxlim.limiter import Params
from fluxlim.profiles import poly_spike
from fluxlim.stepping import StepControls, cfl_dt, march, run, time_mesh
from fluxlim.studies import contraction_study, monotonicity_test, smoothing_study, steady_study, viscosity_study


def small_bump_cfg(**kw):
    base = dict(dim=1, box_halfwidth=5.0, cells=120, chi=1.0, eps=0.0, t_end=0.01,
                diag_stride=5, ic="gaussian", ic_width=1.0, ic_mass=1.0)
    base.update(kw)
    return RunConfig(**base)


class TestMonotonicityTest:
    def test_verdicts_pass(self):
        rep = monotonicity_test(samples=5000, seed=3)
        passed = {v.name: v.passed for v in rep.verdicts}
        assert passed["monotone_min_gap"] and passed["unclamped_negative"]
        assert len(rep.rows) == 9  # 3 dims x 3 constants

    def test_deterministic_given_seed(self):
        a = monotonicity_test(samples=2000, seed=11)
        b = monotonicity_test(samples=2000, seed=11)
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            monotonicity_test(samples=0)
        # above the cap the probe is rejected before sampling anything
        with pytest.raises(ValueError, match="samples"):
            monotonicity_test(samples=studies._MAX_SAMPLES + 1)

    def test_report_surface(self):
        rep = monotonicity_test(samples=1000, seed=0)
        text = rep.to_text()
        assert "VERDICT monotone_min_gap PASS" in text
        assert text.startswith("study monotonicity")
        header = rep.to_csv().splitlines()[0]
        assert header == "dim,c,min_gap_clamped,min_gap_unclamped"


class TestViscosityStudy:
    def test_duplicate_eps_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            viscosity_study(small_bump_cfg(eps_list=(0.1, 0.1, 0.05)))

    def test_increasing_eps_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            viscosity_study(small_bump_cfg(eps_list=(0.05, 0.1)))

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError, match="two entries"):
            viscosity_study(small_bump_cfg(eps_list=(0.1,)))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            viscosity_study(small_bump_cfg(eps_list=(0.1, -0.1)))

    def test_report_structure(self):
        rep = viscosity_study(small_bump_cfg(eps_list=(0.1, 0.05, 0.0)))
        assert rep.columns == ("eps_a", "eps_b", "eps_sum", "l1", "H")
        assert len(rep.rows) == 3  # all pairs of three runs
        names = {v.name for v in rep.verdicts}
        assert names == {"viscosity_l1_decreasing", "viscosity_H_decreasing",
                         "viscosity_fit_slope_positive", "viscosity_fit_intercept_small"}
        for row in rep.rows:
            assert row[3] >= 0.0 and row[4] >= -1e-12

    def test_records_only_the_final_states(self, monkeypatch):
        # the sweep reads its members' final states alone, so diag_stride = 5 records nothing
        # between: the one record per member is its last, and build_problem's t = 0 record is reused
        from fluxlim import stepping

        calls, record = [], stepping.record

        def counted(*args, **kwargs):
            calls.append(kwargs.get("time"))
            return record(*args, **kwargs)

        monkeypatch.setattr(stepping, "record", counted)
        cfg = small_bump_cfg(eps_list=(0.1, 0.05, 0.0))
        viscosity_study(cfg)
        assert calls == [cfg.t_end] * 3

    @pytest.mark.parametrize("scheme,dt", [("explicit", None), ("semi_implicit", 2.5e-3)],
                             ids=["explicit", "semi_implicit"])
    def test_batch_matches_separate_runs(self, pair_probe, scheme, dt):
        # the sweep must report exactly what a lone run per viscosity gives, whether its
        # members step as one batch (explicit) or in turn (semi-implicit)
        eps_list = (0.1, 0.05, 0.0)
        cfg = small_bump_cfg(eps_list=eps_list, scheme=scheme, dt=dt)
        rep = viscosity_study(cfg)
        grid, initial, _ = build_problem(cfg)
        controls = StepControls(scheme, dt=dt or cfl_dt(grid, max(eps_list)))
        finals = []
        for e in eps_list:
            traj, = run([initial], [Params(chi=cfg.chi, eps=e)], controls, [cfg.t_end],
                        diag_stride=cfg.diag_stride)
            finals.append(traj.final)
        rows = []
        for i in range(len(eps_list)):
            for j in range(i + 1, len(eps_list)):
                sigma = studies._SIGMA_REL * float(finals[j].values.max())
                rows.append((eps_list[i], eps_list[j], eps_list[i] + eps_list[j],
                             l1_distance(finals[i], finals[j]),
                             pair_probe(finals[i], finals[j], sigma)[0]))
        assert rep.rows == rows


class TestContractionStudy:
    def test_requires_inviscid(self):
        with pytest.raises(ValueError, match="eps"):
            contraction_study(small_bump_cfg(eps=0.1), small_bump_cfg())

    def test_requires_shared_grid(self, tmp_path):
        # snapshots bring their own grids, which no key of the two configs tells apart
        cfgs = []
        for cells in (16, 17):
            grid = make_grid(1, 5.0, cells)
            save_snapshot(Field.density(grid, np.ones(grid.shape)), tmp_path / f"s{cells}")
            cfgs.append(small_bump_cfg(ic="snapshot", ic_path=str(tmp_path / f"s{cells}")))
        with pytest.raises(ValueError, match="^contraction study requires a shared grid$"):
            contraction_study(*cfgs)

    @pytest.mark.parametrize("key,value", [
        ("dt", 1e-5), ("t_end", 0.02), ("diag_stride", 3), ("chi", 2.0), ("picard_tol", 1e-8),
        ("cells", 121), ("scheme", "semi_implicit"), ("eps_list", (0.2, 0.1)),
    ])
    def test_requires_shared_stepping_keys(self, key, value):
        # the study reads every key but the initial condition's and out from the first config
        with pytest.raises(ValueError, match=f"^invalid value for '{key}': .* one {key}, but they set "):
            contraction_study(small_bump_cfg(), small_bump_cfg(**{key: value}))

    def test_second_config_may_differ_in_ic_and_out(self):
        rep = contraction_study(small_bump_cfg(), small_bump_cfg(ic="uniform", ic_mass=None, out="elsewhere"))
        assert rep.inputs[-1] == ("identical_data", "False")

    def test_requires_positive_data(self):
        spikey = small_bump_cfg(ic="spike", ic_width=0.5)
        with pytest.raises(ValueError, match="positive"):
            contraction_study(spikey, small_bump_cfg())

    def test_identical_data_H_exactly_zero(self):
        cfg = small_bump_cfg(diag_stride=2)
        rep = contraction_study(cfg, cfg)
        assert {v.name: v.passed for v in rep.verdicts}["contraction_identity"]
        assert max(r[1] for r in rep.rows) == 0.0

    @pytest.mark.parametrize("dim,cells,t_end,stride", [
        (1, 400, 0.05, 1),  # 357 rows: 22 blocks of 16 and one of 5
        (1, 400, 0.05, 3),
        (2, 20, 1.5, 1),  # 16 pairs per block, as in 1D
        (2, 60, 0.3, 2),  # one pair per block
    ])
    def test_rows_match_per_step_probes(self, pair_probe, dim, cells, t_end, stride):
        c1 = small_bump_cfg(dim=dim, cells=cells, t_end=t_end, diag_stride=stride,
                            ic_center=(-0.7,), ic_width=1.2)
        c2 = small_bump_cfg(dim=dim, cells=cells, t_end=t_end, diag_stride=stride, ic_center=(0.7,))
        rep = contraction_study(c1, c2)
        # the per-step loop: a Field pair built and probed at every recorded step
        grid, u, _ = build_problem(c1)
        _, v, _ = build_problem(c2)
        dt, n = time_mesh(t_end, cfl_dt(grid, 0.0))
        sigma = studies._SIGMA_REL * float(v.values.max())

        def probe(t, a, b):
            return (t, *pair_probe(a, b, sigma, c1.chi)[:3])

        rows = [probe(0.0, u, v)]
        for k, (a, b) in march([u, v], [Params(chi=c1.chi)] * 2, [dt, dt], [n, n]):
            if k % stride == 0 or k == n:
                rows.append(probe(t_end if k == n else k * dt,
                                  Field.density(grid, a), Field.density(grid, b)))
        assert len(rep.rows) == len(rows) == 2 + (n - 1) // stride
        assert np.array(rep.rows).tobytes() == np.array(rows).tobytes()

    def test_distinct_bumps_all_verdicts(self):
        c1 = small_bump_cfg(ic_center=(-0.7,), ic_width=1.2, diag_stride=1, t_end=0.005)
        c2 = small_bump_cfg(ic_center=(0.7,), ic_width=1.0, diag_stride=1, t_end=0.005)
        rep = contraction_study(c1, c2)
        passed = {v.name: v.passed for v in rep.verdicts}
        assert passed["contraction_H_nonincreasing"] and passed["contraction_dissipation_nonneg"]
        hs = [r[1] for r in rep.rows]
        assert hs[0] > 0 and hs[-1] < hs[0]
        assert all(r[2] >= 0 and r[3] >= 0 for r in rep.rows)


def l1_series(cfg1, cfg2, stride):
    """The L1 distance of the pair at every recorded step, from a per-step loop."""
    grid, u, _ = build_problem(cfg1)
    _, v, _ = build_problem(cfg2)
    dt, n = time_mesh(cfg1.t_end, cfg1.dt or cfl_dt(grid, 0.0))
    out = [l1_distance(u, v)]
    for k, (a, b) in march([u, v], [Params(chi=cfg1.chi)] * 2, [dt, dt], [n, n]):
        if k % stride == 0 or k == n:
            out.append(l1_distance(Field.density(grid, a), Field.density(grid, b)))
    return out


class TestContractionL1:
    def test_shipped_pair(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        c1, c2 = (parse_config((configs / f"contraction_{x}.cfg").read_text()) for x in "ab")
        rep = contraction_study(c1, c2)
        assert {v.name: v.passed for v in rep.verdicts}["contraction_L1_nonincreasing"]
        assert "VERDICT contraction_L1_nonincreasing PASS" in rep.to_text()
        # the table keeps its columns; the verdict lives in the report alone
        assert rep.to_csv().splitlines()[0] == "time,H,D1,D2" and "L1" not in rep.to_csv()
        # the bumps cross where both are sub-critical, so the distance moves by roundoff only
        l1 = l1_series(c1, c2, c1.diag_stride)
        assert max(b - a for a, b in zip(l1, l1[1:])) <= 1e-15 * l1[0]

    def test_semi_implicit_pair_at_ten_cfl_steps(self):
        # the backward-Euler step is monotone in 1D, so all three verdicts, L1 included, hold at dt
        # far above the explicit ceiling
        configs = Path(__file__).resolve().parents[1] / "configs"
        c1, c2 = (parse_config((configs / f"contraction_{x}.cfg").read_text()) for x in "ab")
        dt = 10.0 * cfl_dt(build_problem(c1)[0], 0.0)
        c1, c2 = (replace(c, scheme="semi_implicit", dt=dt, t_end=0.5) for c in (c1, c2))
        rep = contraction_study(c1, c2)
        assert [(v.name, v.passed) for v in rep.verdicts] == [
            ("contraction_H_nonincreasing", True), ("contraction_dissipation_nonneg", True),
            ("contraction_L1_nonincreasing", True)]
        hs = [r[1] for r in rep.rows]
        assert len(hs) == 1 + 356 and hs[-1] < 0.8 * hs[0]  # every one of the 356 steps is recorded

    def test_smooth_2d_pair(self):
        # the 2D step is not monotone, so its L1 distance gets a note, not a verdict
        c1 = small_bump_cfg(dim=2, cells=32, t_end=0.05, diag_stride=2, ic_center=(-0.4,))
        c2 = small_bump_cfg(dim=2, cells=32, t_end=0.05, diag_stride=2, ic_center=(0.5,), ic_width=0.8)
        rep = contraction_study(c1, c2)
        assert "contraction_L1_nonincreasing" not in {v.name for v in rep.verdicts}
        assert any(n.startswith("L1 distance, no verdict") and "worst rise beyond slack 0.0 " in n
                   for n in rep.notes)
        l1 = l1_series(c1, c2, 2)
        assert all(b <= a for a, b in zip(l1, l1[1:]))

    def test_rough_2d_pair_rise_is_a_note(self, tmp_path):
        # the 2D step is not order-preserving on rough data: its tangential-gradient
        # reconstruction lets the L1 distance of this 8^2 pair grow by about 1% in one step
        grid = make_grid(2, 1.0, 8)
        rng = np.random.default_rng(137)
        u = rng.uniform(0.01, 1.0, grid.shape)
        v = u + rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.3)
        cfgs = []
        for name, vals in (("u", u), ("v", v)):
            save_snapshot(Field.density(grid, vals), tmp_path / name)
            cfgs.append(small_bump_cfg(dim=2, t_end=0.01, diag_stride=1, ic="snapshot",
                                       ic_path=str(tmp_path / name)))
        l1 = l1_series(*cfgs, 1)
        rise = max(b - a for a, b in zip(l1, l1[1:]))
        assert rise > 1e-3 * l1[0]
        rep = contraction_study(*cfgs)
        (note,) = [n for n in rep.notes if n.startswith("L1 distance, no verdict")]
        worst = float(note.split("worst rise beyond slack ")[1].split()[0])
        assert worst == pytest.approx(rise, rel=1e-6)
        assert "contraction_L1_nonincreasing" not in {v.name for v in rep.verdicts}


def smoothing_rows_of_lone_runs(cfg):
    """The smoothing study's table for ``cfg`` at the CFL step, from one run() per spike and control."""
    grid, _, _ = build_problem(cfg)
    controls, rows = StepControls(dt=cfl_dt(grid, 0.0)), []
    spikes = [poly_spike(grid, w, cfg.ic_p, center=cfg.ic_center, p_norm=cfg.ic_pnorm) for w in cfg.spike_widths]
    for w, spike in zip(cfg.spike_widths, spikes):
        traj, = run([spike], [Params(chi=cfg.chi)], controls, [cfg.t_end], diag_stride=cfg.diag_stride)
        rows += [("limited", w, rec.time, rec.sup_norm) for rec in traj.records]
    for w, spike in zip(cfg.spike_widths, spikes):
        traj, = run([spike], [Params(chi=0.0)], controls, [w * w], diag_stride=10**9)
        rows.append(("heat", w, traj.records[-1].time, traj.records[-1].sup_norm))
    return rows


class TestSmoothingStudy:
    def test_batch_matches_separate_runs(self, pair_probe):
        # both spike families step as one batch with per-member horizons and
        # dt; every row must equal the one a separate run() gives
        cfg = small_bump_cfg(cells=128, t_end=0.02, diag_stride=7, ic="spike", ic_p=4.0, spike_widths=(0.8, 0.4))
        assert smoothing_study(cfg).rows == smoothing_rows_of_lone_runs(cfg)

    def test_family_centred_at_ic_center(self):
        # every spike of the family, and its heat control, sits at the config's ic_center
        cfg = small_bump_cfg(cells=128, t_end=0.02, diag_stride=7, ic="spike", ic_p=4.0, spike_widths=(0.8, 0.4),
                             ic_center=(1.5,))
        rep = smoothing_study(cfg)
        assert rep.rows == smoothing_rows_of_lone_runs(cfg)
        assert rep.rows != smoothing_study(replace(cfg, ic_center=(0.0,))).rows

    def test_width_order_enforced(self):
        with pytest.raises(ValueError, match="decreasing"):
            smoothing_study(small_bump_cfg(spike_widths=(0.2, 0.4)))

    def test_needs_two_widths(self):
        with pytest.raises(ValueError, match="two"):
            smoothing_study(small_bump_cfg(spike_widths=(0.4,)))

    def test_requires_inviscid(self):
        with pytest.raises(ValueError, match="eps"):
            smoothing_study(small_bump_cfg(eps=0.1))

    def test_requires_spike(self):
        # the family is the config's spike: ic_p sets its norm, and another ic is not overridden
        with pytest.raises(ValueError, match="'ic'.*ic = spike"):
            smoothing_study(small_bump_cfg(spike_widths=(0.8, 0.4)))

    def test_report_structure_small(self):
        cfg = small_bump_cfg(cells=256, t_end=0.05, diag_stride=50, ic="spike", ic_p=4.0,
                             spike_widths=(0.8, 0.4))
        rep = smoothing_study(cfg)
        phases = {row[0] for row in rep.rows}
        assert phases == {"limited", "heat"}
        heat_rows = [r for r in rep.rows if r[0] == "heat"]
        assert len(heat_rows) == 2
        for r in heat_rows:
            assert r[2] == pytest.approx(r[1] ** 2)  # probed at t = w^2
        names = {v.name for v in rep.verdicts}
        assert names == {"smoothing_envelope_stable", "smoothing_heat_slope"}
        assert any("alternative" in n for n in rep.notes)


class TestSteadyStudy:
    def test_sampled_peak_is_stationary(self):
        rep = steady_study(small_bump_cfg(ic="single_peak", cells=300, t_end=0.05))
        assert rep.all_pass
        assert [row[0] for row in rep.rows] == ["drift_rate", "residual_max", "residual_median", "mass"]
        assert rep.rows[0][1] == 0.0  # a sampled peak is an exact fixed point

    @pytest.mark.parametrize("kw,key", [({"ic": "gaussian"}, "'ic'"), ({"ic": "single_peak", "eps": 0.1}, "'eps'")])
    def test_rejects_non_steady_input(self, kw, key):
        with pytest.raises(ValueError, match=key):
            steady_study(small_bump_cfg(**kw))
