import pytest

from fluxlim.config import RunConfig, build_problem
from fluxlim.diagnostics import l1_distance, relative_entropy
from fluxlim.limiter import Params
from fluxlim.profiles import poly_spike
from fluxlim.stepping import StepControls, cfl_dt, run
from fluxlim.studies import contraction_study, monotonicity_test, smoothing_study, viscosity_study


def small_bump_cfg(**kw):
    base = dict(dim=1, box_halfwidth=5.0, cells=120, chi=1.0, eps=0.0, t_end=0.01,
                diag_stride=5, ic="gaussian", ic_width=1.0, ic_mass=1.0)
    base.update(kw)
    return RunConfig(**base)


class TestMonotonicityTest:
    def test_verdicts_pass(self):
        rep = monotonicity_test(samples=5000, seed=3)
        assert rep.verdict("monotone_min_gap").passed
        assert rep.verdict("unclamped_negative").passed
        assert len(rep.rows) == 9  # 3 dims x 3 constants

    def test_deterministic_given_seed(self):
        a = monotonicity_test(samples=2000, seed=11)
        b = monotonicity_test(samples=2000, seed=11)
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            monotonicity_test(samples=0)

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
            viscosity_study(small_bump_cfg(), eps_list=(0.1, 0.1, 0.05))

    def test_increasing_eps_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            viscosity_study(small_bump_cfg(), eps_list=(0.05, 0.1))

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError, match="two entries"):
            viscosity_study(small_bump_cfg(), eps_list=(0.1,))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            viscosity_study(small_bump_cfg(), eps_list=(0.1, -0.1))

    def test_report_structure(self):
        rep = viscosity_study(small_bump_cfg(), eps_list=(0.1, 0.05, 0.0))
        assert rep.columns == ("eps_a", "eps_b", "eps_sum", "l1", "H")
        assert len(rep.rows) == 3  # all pairs of three runs
        names = {v.name for v in rep.verdicts}
        assert names == {"viscosity_l1_decreasing", "viscosity_H_decreasing",
                         "viscosity_fit_slope_positive", "viscosity_fit_intercept_small"}
        for row in rep.rows:
            assert row[3] >= 0.0 and row[4] >= -1e-12

    def test_batch_matches_separate_runs(self):
        # the batched sweep must report exactly what one run() per viscosity gives
        cfg = small_bump_cfg()
        eps_list = (0.1, 0.05, 0.0)
        rep = viscosity_study(cfg, eps_list=eps_list)
        grid, initial = build_problem(cfg)
        controls = StepControls(dt=cfl_dt(grid, max(eps_list)))
        finals = [run(initial, Params(chi=cfg.chi, eps=e), controls, cfg.t_end,
                      diag_stride=cfg.diag_stride).final for e in eps_list]
        rows = []
        for i in range(len(eps_list)):
            for j in range(i + 1, len(eps_list)):
                sigma = cfg.sigma_rel * float(finals[j].values.max())
                rows.append((eps_list[i], eps_list[j], eps_list[i] + eps_list[j],
                             l1_distance(finals[i], finals[j]),
                             relative_entropy(finals[i], finals[j], sigma=sigma)))
        assert rep.rows == rows


class TestContractionStudy:
    def test_requires_inviscid(self):
        with pytest.raises(ValueError, match="eps"):
            contraction_study(small_bump_cfg(eps=0.1), small_bump_cfg())

    def test_requires_shared_grid(self):
        with pytest.raises(ValueError, match="grid"):
            contraction_study(small_bump_cfg(), small_bump_cfg(cells=121))

    def test_requires_positive_data(self):
        spikey = small_bump_cfg(ic="spike", ic_width=0.5)
        with pytest.raises(ValueError, match="positive"):
            contraction_study(spikey, small_bump_cfg())

    def test_identical_data_H_exactly_zero(self):
        cfg = small_bump_cfg(diag_stride=2)
        rep = contraction_study(cfg, cfg)
        assert rep.verdict("contraction_identity").passed
        assert max(r[1] for r in rep.rows) == 0.0

    def test_distinct_bumps_all_verdicts(self):
        c1 = small_bump_cfg(ic_center=(-0.7,), ic_width=1.2, diag_stride=1, t_end=0.005)
        c2 = small_bump_cfg(ic_center=(0.7,), ic_width=1.0, diag_stride=1, t_end=0.005)
        rep = contraction_study(c1, c2)
        assert rep.verdict("contraction_H_nonincreasing").passed
        assert rep.verdict("contraction_dissipation_nonneg").passed
        hs = [r[1] for r in rep.rows]
        assert hs[0] > 0 and hs[-1] < hs[0]
        assert all(r[2] >= 0 and r[3] >= 0 for r in rep.rows)


class TestSmoothingStudy:
    def test_batch_matches_separate_runs(self):
        # both spike families step as one batch with per-member horizons and
        # dt; every row must equal the one a separate run() gives
        cfg = small_bump_cfg(cells=128, t_end=0.02, diag_stride=7)
        widths = (0.8, 0.4)
        rep = smoothing_study(cfg, p=4.0, spike_widths=widths)
        grid, _ = build_problem(cfg)
        controls = StepControls(dt=cfl_dt(grid, 0.0))
        rows = []
        for w in widths:
            traj = run(poly_spike(grid, w, 4.0, p_norm=cfg.ic_pnorm), Params(chi=cfg.chi),
                       controls, cfg.t_end, diag_stride=cfg.diag_stride)
            rows += [("limited", w, rec.time, rec.sup_norm) for rec in traj.records]
        for w in widths:
            traj = run(poly_spike(grid, w, 4.0, p_norm=cfg.ic_pnorm), Params(chi=0.0),
                       controls, w * w, diag_stride=10**9)
            rows.append(("heat", w, traj.records[-1].time, traj.records[-1].sup_norm))
        assert rep.rows == rows

    def test_width_order_enforced(self):
        with pytest.raises(ValueError, match="decreasing"):
            smoothing_study(small_bump_cfg(), spike_widths=(0.2, 0.4))

    def test_needs_two_widths(self):
        with pytest.raises(ValueError, match="two"):
            smoothing_study(small_bump_cfg(), spike_widths=(0.4,))

    def test_requires_inviscid(self):
        with pytest.raises(ValueError, match="eps"):
            smoothing_study(small_bump_cfg(eps=0.1))

    def test_report_structure_small(self):
        cfg = small_bump_cfg(cells=256, t_end=0.05, diag_stride=50)
        rep = smoothing_study(cfg, p=4.0, spike_widths=(0.8, 0.4))
        phases = {row[0] for row in rep.rows}
        assert phases == {"limited", "heat"}
        heat_rows = [r for r in rep.rows if r[0] == "heat"]
        assert len(heat_rows) == 2
        for r in heat_rows:
            assert r[2] == pytest.approx(r[1] ** 2)  # probed at t = w^2
        names = {v.name for v in rep.verdicts}
        assert names == {"smoothing_envelope_stable", "smoothing_heat_slope"}
        assert any("alternative" in n for n in rep.notes)
