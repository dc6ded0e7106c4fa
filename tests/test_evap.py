import math
from dataclasses import replace

import numpy as np
import pytest

from codtsim.config import load_config
from codtsim.constants import BOLTZMANN, PhysicalConstants
from codtsim.errors import DomainError
from codtsim.evap import (
    RampSchedule,
    bimodal_profile,
    castin_dum_lambdas,
    evaporation_efficiency,
    expand,
    fit_bimodal,
    timeline,
)
from codtsim.optics import crossing_from_offsets
from codtsim.trapchar import ThermoMetrics

RB = PhysicalConstants(gravity=0.0)


def bundled_schedule(*overrides):
    """The schedule ``evap`` commands run, from the bundled config with ``--set`` overrides."""
    return RampSchedule.from_config(load_config(None, list(overrides))["evap"])


class TestSchedule:
    # the bundled ramps: 10 W -> 40 mW in 1 s, and 230 um -> 0 in 1 s at tau = 0.2 s
    def test_power_time_constant_from_endpoints(self):
        # 10 W -> 40 mW in 1 s: tau = 1/ln(250)
        schedule = bundled_schedule()
        assert schedule.power_tau == pytest.approx(1.0 / math.log(250.0), rel=1e-12)
        assert schedule.power_tau == pytest.approx(0.181, abs=1e-3)
        assert schedule.at(0.0)[0] == pytest.approx(10.0)
        assert schedule.at(1.0)[0] == pytest.approx(0.04)

    def test_increasing_power_segment_rejected(self):
        with pytest.raises(DomainError):
            replace(bundled_schedule(), power_start=0.04, power_end=10.0)

    def test_constant_amplitude_segment(self):
        schedule = replace(bundled_schedule(), amplitude_start=100e-6, amplitude_end=100e-6, amplitude_duration=0.5)
        for t in (0.0, 0.2, 0.5):
            assert schedule.at(t)[1] == 100e-6

    def test_amplitude_reaches_endpoint_exactly(self):
        schedule = bundled_schedule()
        assert schedule.at(0.0)[1] == pytest.approx(230e-6)
        assert schedule.at(1.0)[1] == 0.0
        ts = np.linspace(0, 1, 400)
        vals = np.array([schedule.at(t)[1] for t in ts])
        assert np.all(np.diff(vals) <= 1e-15)  # monotone decay
        # continuity at the linear-tail junction
        t_tail = 0.95
        eps = 1e-9
        assert schedule.at(t_tail - eps)[1] == pytest.approx(schedule.at(t_tail + eps)[1], rel=1e-6)

    def test_reopen_amplitudes_on_two_dimensions(self):
        schedule = bundled_schedule()
        t_reopen = schedule.ramp_duration + schedule.hold + 0.01
        power, amp_h, amp_v = schedule.at(t_reopen)
        assert amp_h == pytest.approx(70e-6)
        assert amp_v == pytest.approx(70e-6)
        assert power == pytest.approx(5.0)

    def test_segment_end_held_exactly_until_reopen(self):
        schedule = bundled_schedule("evap.amplitude_end_um=10", "evap.amplitude_duration_s=0.5")
        # t == duration is still inside a segment; after it the exact endpoint holds
        assert schedule.at(1.0)[0] == schedule.power_start * math.exp(-1.0 / schedule.power_tau)
        assert schedule.at(1.0 + 1e-9)[0] == 0.04
        assert schedule.at(0.5 + 1e-9)[1:] == (10 * 1e-6, 0.0)
        assert schedule.at(1.2)[1:] == (10 * 1e-6, 0.0)
        assert schedule.total_duration == pytest.approx(1.0 + 0.3 + 0.2)
        assert schedule.at(schedule.total_duration)[1:] == (70e-6, 70e-6)

    def test_schedule_continuity(self):
        schedule = bundled_schedule()
        ts = np.linspace(0, schedule.ramp_duration, 500)
        p, a, _ = np.array([schedule.at(t) for t in ts]).T
        assert np.max(np.abs(np.diff(p) / p[:-1])) < 0.05
        assert np.max(np.abs(np.diff(a))) < 5e-6


@pytest.fixture(scope="module")
def columns(layout, input_pair):
    schedule = bundled_schedule()
    return schedule, {k: np.asarray(v) for k, v in timeline(RB, layout, input_pair, schedule, n_samples=14).items()}


class TestTimeline:
    def test_monotone_depth_during_evaporation(self, columns):
        schedule, columns = columns
        depths = columns["depth_uK"][(columns["valid"] == 1) & (columns["t_s"] <= 1.0)]
        assert len(depths) >= 5
        assert np.all(np.diff(depths) < 0)

    def test_reopen_raises_depth_and_lowers_frequency(self, columns):
        schedule, columns = columns
        t_reopen = schedule.ramp_duration + schedule.hold
        t, valid = columns["t_s"], columns["valid"] == 1
        pre = np.flatnonzero(valid & (t <= t_reopen))[-1]
        post = np.flatnonzero(valid & (t > t_reopen))[-1]
        assert columns["depth_uK"][post] > columns["depth_uK"][pre]
        assert columns["mean_frequency_hz"][post] < columns["mean_frequency_hz"][pre]

    def test_power_column_follows_schedule(self, columns):
        schedule, columns = columns
        assert len(columns["power_w"]) == len(columns["t_s"]) == 14
        for t, power in zip(columns["t_s"].tolist(), columns["power_w"].tolist()):
            assert power == pytest.approx(schedule.at(t)[0], rel=1e-12)

    def test_repeated_samples_characterized_once(self, layout, input_pair, monkeypatch):
        import codtsim.evap as evap

        calls = []
        real = evap.characterize
        monkeypatch.setattr(evap, "characterize", lambda *a, **k: calls.append(1) or real(*a, **k))
        schedule = bundled_schedule()
        columns = timeline(RB, layout, input_pair, schedule, n_samples=9)
        assert {len(c) for c in columns.values()} == {9}
        keys = list(zip(columns["power_w"], columns["amplitude_h_um"], columns["amplitude_v_um"]))
        assert len(calls) == len(set(keys)) == 9 - 1  # t = 1.3125 and 1.5 s repeat
        # the repeated sample carries exactly what a fresh characterization gives
        t = columns["t_s"][-1]
        fresh = evap._painted_trap(RB, layout, input_pair, *schedule.at(t))
        schedule_columns = ("t_s", "power_w", "amplitude_h_um", "amplitude_v_um")
        assert list(columns) == [*schedule_columns, *fresh]
        assert {k: columns[k][-1] for k in fresh} == fresh
        assert all(columns[k][-2] == columns[k][-1] for k in columns if k != "t_s")

    @pytest.mark.parametrize("gravity, depth_uk", [(0.0, 91.135), (9.81, 88.92)])
    def test_wide_paint_seeds_past_its_central_ridge(self, layout, input_pair, monkeypatch, gravity, depth_uk):
        # from the origin, Newton stops at the symmetric centre of a 1 mm
        # paint, a ridge 2.6% above the sweep ends: the escape scan falls
        # below it without rising above it, so its escape depth is exactly 0.
        # Seeded at the sweep start, the report finds the well there.  91.135
        # uK is the 0 g depth at 2,048 phases, twice the derived count.
        import codtsim.evap as evap

        reports = []
        real = evap.characterize
        monkeypatch.setattr(evap, "characterize", lambda *a: reports.append(real(*a)) or reports[-1])
        row = evap._painted_trap(PhysicalConstants(gravity=gravity), layout, input_pair, 10.0, 1000e-6, 0.0)
        centre, sweep_end = reports
        assert centre.valid[0] and centre.depth_escape[0] == 0.0
        assert np.linalg.norm(centre.minimum_position[0]) < 10e-6
        assert abs(sweep_end.minimum_position[0, 1]) == pytest.approx(1008e-6, abs=5e-6)
        assert row["valid"] == 1
        assert row["depth_uK"] == pytest.approx(depth_uk, rel=1e-4 if gravity == 0 else 1e-3)
        # the row says where it was seeded: the crossing of the sweep start
        start = crossing_from_offsets(layout, -1000e-6, -1000e-6, 0.0) * 1e6
        assert [row["seed_x_um"], row["seed_y_um"], row["seed_z_um"]] == start.tolist()


class TestEvaporationEfficiency:
    def _metrics(self, n, psd):
        return ThermoMetrics(atom_number=n, temperature=1e-6, psd=psd, truncation_parameter=10.0)

    def test_unit_gamma_when_psd_inverse_of_n(self):
        out = evaporation_efficiency(self._metrics(1e6, 1e-3), self._metrics(1e5, 1e-2))
        assert out["gamma"] == pytest.approx(1.0, rel=1e-12)

    def test_quoted_endpoints_give_gamma_1p46(self):
        # N: 2e6 -> 1e4 and psd: 1.15e-3 -> 2.612 under the naive endpoint
        # convention; the published 2.7 is not reproduced by this formula.
        out = evaporation_efficiency(self._metrics(2e6, 1.15e-3), self._metrics(1e4, 2.612))
        assert out["gamma"] == pytest.approx(1.46, abs=0.01)
        assert out["convention"] == "naive-endpoint"

    def test_gamma_invariant_under_doubled_log_ratios(self):
        g1 = evaporation_efficiency(self._metrics(1e6, 1e-3), self._metrics(1e5, 1e-2))["gamma"]
        g2 = evaporation_efficiency(self._metrics(1e6, 1e-3), self._metrics(1e4, 1e-1))["gamma"]
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_equal_atom_numbers_rejected(self):
        with pytest.raises(DomainError):
            evaporation_efficiency(self._metrics(1e6, 1e-3), self._metrics(1e6, 1e-2))

    def test_gamma_positive_when_psd_rises_and_n_falls(self):
        out = evaporation_efficiency(self._metrics(2e6, 1e-3), self._metrics(1e5, 0.5))
        assert out["gamma"] > 0


class TestExpansion:
    def test_integrator_matches_isotropic_analytic_solution(self):
        omega = 2 * math.pi * 180.0
        ts = np.linspace(1e-4, 0.03, 40)
        # a release from (w, w, 0) expands radially as sqrt(1 + w^2 t^2)
        lam = castin_dum_lambdas(np.array([omega, omega, 0.0]), ts)
        exact = np.sqrt(1 + (omega * ts) ** 2)
        np.testing.assert_allclose(lam[:, 0], exact, rtol=1e-6)
        np.testing.assert_allclose(lam[:, 1], exact, rtol=1e-6)
        np.testing.assert_array_equal(lam[:, 2], 1.0)

    def test_zero_temperature_has_no_thermal_cloud(self):
        # T = 0: zero thermal widths at every time, and a 0/0 aspect that is nan without a warning
        res = expand((20.0, 180.0, 180.0), (10e-6, 5e-6, 5e-6), 0.0, np.array([0.0, 5e-3, 20e-3]), RB)
        assert all(np.all(res[f"thermal_s{a}_um"] == 0.0) for a in "xyz")
        assert np.all(np.isnan(res["thermal_aspect_zy"]))
        assert all(np.all(res[f"tf_r{a}_um"] > 0) for a in "xyz")

    def test_long_expansion_matches_analytic_solution_quickly(self):
        # a 10 s microgravity expansion: the step size grows with the cloud,
        # so the cost does not grow with the expansion time
        omega = 2 * math.pi * 180.0
        ts = np.array([0.0, 0.5, 2.0, 10.0])
        lam = castin_dum_lambdas(np.array([omega, omega, 0.0]), ts)
        exact = np.sqrt(1 + (omega * ts) ** 2)
        np.testing.assert_allclose(lam[:, 0], exact, rtol=1e-6)
        np.testing.assert_allclose(lam[:, 1], exact, rtol=1e-6)
        np.testing.assert_array_equal(lam[:, 2], 1.0)

    def test_isotropic_release_keeps_unit_aspect(self):
        ts = np.linspace(0, 0.02, 11)
        lam = castin_dum_lambdas(2 * math.pi * np.array([150.0, 150.0, 150.0]), ts)
        ratios = lam[:, 2] / lam[:, 1]
        np.testing.assert_allclose(ratios, 1.0, atol=1e-6)

    def test_lambdas_start_at_one_and_grow(self):
        ts = np.linspace(0, 0.02, 11)
        lam = castin_dum_lambdas(2 * math.pi * np.array([120.0, 40.0, 350.0]), ts)
        np.testing.assert_allclose(lam[0], 1.0, atol=1e-12)
        assert np.all(np.diff(lam, axis=0) >= 0)

    def test_aspect_ratio_inversion_for_elongated_release(self):
        res = expand((120.0, 35.0, 350.0), (4e-6, 14e-6, 1.4e-6), 50e-9, np.linspace(0, 0.03, 61), RB)
        tf = res["tf_aspect_zy"]
        assert tf[0] < 1.0 < tf[-1]  # inversion at finite time
        thermal = res["thermal_aspect_zy"]
        gaps = np.abs(thermal - 1.0)
        assert np.all(np.diff(gaps) <= 1e-12)  # monotone toward isotropy

    def test_thermal_widths_closed_form(self):
        ts = np.array([0.0, 5e-3, 10e-3])
        res = expand((100.0, 100.0, 100.0), (1e-6, 1e-6, 1e-6), 1e-6, ts, RB)
        vt2 = BOLTZMANN * 1e-6 / RB.atom_mass
        sigma0 = math.sqrt(vt2) / (2 * math.pi * 100.0)  # the in-trap rms radius
        expected = np.sqrt(sigma0**2 + vt2 * ts**2)
        np.testing.assert_allclose(res["thermal_sx_um"] * 1e-6, expected, rtol=1e-12)


class TestBimodalFit:
    def _profile(self, noise=0.0, seed=1, a_tf=1200.0):
        rng = np.random.default_rng(seed)
        x = np.linspace(-300, 300, 201) * 1e-6
        truth = dict(a_th=600.0, sigma=80e-6, a_tf=a_tf, radius=45e-6, center=5e-6, offset=150.0)
        clean = bimodal_profile(x, *truth.values())
        sigma = noise * clean.max() if noise else None
        y = clean if not noise else np.clip(clean + rng.normal(0, sigma, x.size), 0, None)
        return x, y, truth, sigma

    def test_zero_noise_self_consistency(self):
        x, y, truth, _ = self._profile(noise=0.0)
        fit = fit_bimodal(x, y, np.full(x.size, 1.0))
        assert fit["thermal_sigma_um"] == pytest.approx(truth["sigma"] * 1e6, rel=1e-8)
        assert fit["tf_radius_um"] == pytest.approx(truth["radius"] * 1e6, rel=1e-8)
        assert fit["center_um"] == pytest.approx(truth["center"] * 1e6, rel=1e-6)

    def test_noisy_recovery_within_5_percent(self):
        x, y, truth, sigma = self._profile(noise=0.02, seed=5)
        fit = fit_bimodal(x, y, np.full(x.size, sigma))
        assert fit["thermal_sigma_um"] == pytest.approx(truth["sigma"] * 1e6, rel=0.05)
        assert fit["tf_radius_um"] == pytest.approx(truth["radius"] * 1e6, rel=0.05)
        assert 0.7 <= fit["chi2_red"] <= 1.4

    def test_pure_gaussian_drives_tf_amplitude_to_zero(self):
        x, y, truth, sigma = self._profile(noise=0.02, seed=7, a_tf=0.0)
        fit = fit_bimodal(x, y, np.full(x.size, sigma))
        assert fit["tf_amplitude"] < 0.05 * fit["thermal_amplitude"]
        assert 0.6 <= fit["chi2_red"] <= 1.4

    def test_bimodal_beats_pure_thermal_on_bimodal_data(self):
        x, y, _, sigma = self._profile(noise=0.02, seed=9)
        fit = fit_bimodal(x, y, np.full(x.size, sigma))
        assert fit["thermal_only"]["chi2_red"] > 2.0 * fit["chi2_red"]

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            fit_bimodal(np.linspace(0, 1, 10), np.ones(10))

    def test_constant_profile_rejected(self):
        with pytest.raises(DomainError):
            fit_bimodal(np.linspace(0, 1, 50), np.full(50, 3.0))

    @pytest.mark.parametrize("column, value", [(0, math.nan), (1, math.nan), (1, math.inf), (1, -math.inf)])
    def test_non_finite_profile_rejected(self, column, value):
        # scipy's least_squares raised "Initial guess is outside of provided bounds" on these
        x, y, _, _ = self._profile()
        [x, y][column][100] = value
        with pytest.raises(DomainError, match="positions and counts must be finite"):
            fit_bimodal(x, y)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_uncertainty_rejected(self, value):
        x, y, _, _ = self._profile()
        sigma = np.ones(x.size)
        sigma[3] = value
        with pytest.raises(DomainError, match="uncertainties must be positive and finite"):
            fit_bimodal(x, y, sigma)
