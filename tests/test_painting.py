import numpy as np
import pytest

from codtsim.constants import PhysicalConstants
from codtsim.errors import DomainError
from codtsim.optics import OpticalLayout, deflection_to_displacement
from codtsim.painting import (
    GridSpec,
    characterize_sites,
    compensate_powers,
    grid_waveform,
    line_paint,
    minimum_jerk,
    split_ramp,
    transport_ramp,
    vertical_tones,
)
from codtsim.potential import ModulationWaveform, time_averaged_potential

RB = PhysicalConstants(gravity=0.0)


def assert_waveforms_equal(a: ModulationWaveform, b: ModulationWaveform) -> None:
    for name in ("times", "freq_offsets_mhz", "weights"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestSynthesizeWaveform:
    """The waveform constructors: line paint, vertical tones, grid dwell, constant."""

    def test_vertical_tone_separation_at_calibration(self, layout):
        # 190 um two-site spacing at 86 um/MHz -> tones separated by ~2.21 MHz
        wf = vertical_tones(layout, [-95.0 * 1e-6, 95.0 * 1e-6])
        v1 = wf.freq_offsets_mhz[:, 1]
        sep = v1.max() - v1.min()
        assert sep == pytest.approx(190.0 / 86.0, rel=1e-6)
        assert sep == pytest.approx(2.21, abs=0.01)

    def test_static_zero_offsets_equal_unmodulated(self, layout, input_pair):
        wf = ModulationWaveform.constant()
        pot = time_averaged_potential(RB, layout, input_pair, wf, n_phases=4)
        from codtsim.optics import build_beamlines
        from codtsim.potential import static_potential

        static = static_potential(RB, build_beamlines(layout, input_pair))
        pts = np.array([[0, 0, 0], [10e-6, 4e-6, -6e-6]], dtype=float)
        np.testing.assert_allclose(pot(pts), static(pts), rtol=1e-12)

    def test_line_paint_sweep_amplitude_in_mhz(self):
        # A = 460 um at 86 um/MHz on every channel -> +/-5.35 MHz sweep
        layout = OpticalLayout(
            calibration_um_per_mhz={"h1": 86.0, "v1": 86.0, "h2": 86.0, "v2": 86.0}
        )
        wf = line_paint(layout, 460.0 * 1e-6)
        h1 = wf.freq_offsets_mhz[:, 0]
        assert h1.max() == pytest.approx(460.0 / 86.0, rel=1e-9)
        assert h1.max() == pytest.approx(5.35, abs=0.01)
        assert h1.min() == pytest.approx(-5.35, abs=0.01)
        # vertical channels stay put for a pure horizontal paint
        assert np.all(wf.freq_offsets_mhz[:, 1::2] == 0)

    def test_line_paint_mirror_knots_merge_exactly(self, layout, input_pair):
        # knots k and n - k sit at the same sweep position bit for bit, so the
        # average at the knots keeps the two turning points and 63 mirror pairs
        wf = line_paint(layout, 230.0 * 1e-6)
        n = wf.times.size
        assert n == 128
        freqs = wf.freq_offsets_mhz
        np.testing.assert_array_equal(freqs[1 : n // 2], freqs[: n // 2 : -1])
        sampled, _ = wf.sample(n)
        np.testing.assert_array_equal(sampled, freqs)
        pot = time_averaged_potential(RB, layout, input_pair, wf, n_phases=n)
        assert pot.records.shape == (2 * (2 + 63), 19)

    def test_out_of_range_displacement_rejected(self, layout):
        with pytest.raises(DomainError):
            line_paint(layout, 1500.0 * 1e-6)

    def test_grid_dwell_knots_equal_loop_reference(self, layout, input_pair):
        spec = GridSpec(counts=(1, 3, 3), spacing=(0.0, 480e-6, 480e-6), center=(30e-6, 0.0, 0.0))
        site_weights = np.linspace(0.6, 1.2, 9)
        wf = grid_waveform(layout, spec, input_pair, site_weights)
        times, freqs, wts = dwell_knots_loop(layout, spec, site_weights)
        np.testing.assert_array_equal(wf.times, times)
        np.testing.assert_array_equal(wf.freq_offsets_mhz, freqs)
        np.testing.assert_array_equal(wf.weights, wts)

    def test_site_collision_warns(self, layout, input_pair):
        spec = GridSpec(counts=(1, 2, 1), spacing=(0.0, 15e-6, 0.0))
        with pytest.warns(UserWarning):
            grid_waveform(layout, spec, input_pair)


def dwell_knots_loop(layout, spec, site_weights):
    """Per-channel loop over segments and transition steps: the reference for the dwell grid."""
    import math

    from codtsim.optics import CHANNELS, offsets_from_crossing

    freqs, wts = [], []
    for n_idx, idx in enumerate(spec.site_indices()):
        h1, h2, v = offsets_from_crossing(layout, spec.site_position(idx))
        freqs.append([off / deflection_to_displacement(layout, ch, 1.0) for ch, off in zip(CHANNELS, (h1, v, h2, v))])
        w = float(site_weights[n_idx])
        wts.append((w, 1.0, w, 1.0))
    n = len(freqs)
    seg_dt = 1e-3 / n
    trans_dt = 0.05 * seg_dt
    times, f_knots, w_knots = [], [], []
    for k in range(n):
        t0 = k * seg_dt
        times += [t0, t0 + seg_dt - trans_dt]
        f_row, w_row = [freqs[k], freqs[k]], [wts[k], wts[k]]
        for m in range(1, 6):
            frac = 0.5 * (1 - math.cos(math.pi * m / 6))
            times.append(t0 + seg_dt - trans_dt + trans_dt * m / 6)
            nxt = (k + 1) % n
            f_row.append([f + (g - f) * frac for f, g in zip(freqs[k], freqs[nxt])])
            w_row.append([w + (x - w) * frac for w, x in zip(wts[k], wts[nxt])])
        f_knots += f_row
        w_knots += w_row
    return np.array(times), np.array(f_knots), np.array(w_knots)


class TestSplitRamp:
    def _tones(self, layout, positions_um):
        return vertical_tones(layout, [p * 1e-6 for p in positions_um])

    def test_two_steps_are_exactly_endpoints(self, layout):
        initial = self._tones(layout, [0.0, 0.0])
        final = self._tones(layout, [-95.0, 95.0])
        seq = split_ramp(initial, final, steps=2)
        assert len(seq) == 2
        assert_waveforms_equal(seq[0], initial)
        assert_waveforms_equal(seq[-1], final)

    def test_midpoint_is_arithmetic_mean(self, layout):
        initial = self._tones(layout, [0.0, 0.0])
        final = self._tones(layout, [-95.0, 95.0])
        seq = split_ramp(initial, final, steps=3)
        np.testing.assert_allclose(
            seq[1].freq_offsets_mhz,
            0.5 * (initial.freq_offsets_mhz + final.freq_offsets_mhz),
            atol=1e-15,
        )

    def test_power_budget_conserved(self, layout):
        initial = self._tones(layout, [0.0, 0.0])
        final = self._tones(layout, [-95.0, 95.0])
        for wf in split_ramp(initial, final, steps=5):
            for ch in range(4):
                assert np.mean(wf.weights[:, ch]) <= 1.0 + 1e-12
                assert np.mean(wf.weights[:, ch]) == pytest.approx(
                    np.mean(initial.weights[:, ch]), rel=1e-12
                )

    def test_minima_census_during_split(self, layout, input_pair):
        # at any ramp stage the sampled field has one or two minima, never more
        initial = self._tones(layout, [0.0, 0.0])
        final = self._tones(layout, [-95.0, 95.0])
        z = np.linspace(-160e-6, 160e-6, 321)
        pts = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
        for wf in split_ramp(initial, final, steps=5):
            u = time_averaged_potential(RB, layout, input_pair, wf, n_phases=8)(pts)
            interior = (u[1:-1] < u[:-2]) & (u[1:-1] <= u[2:])
            n_minima = int(np.sum(interior))
            assert n_minima in (1, 2)

    def test_mismatched_structure_rejected(self, layout):
        initial = self._tones(layout, [0.0, 0.0])
        final = self._tones(layout, [-95.0, 0.0, 95.0])
        with pytest.raises(DomainError):
            split_ramp(initial, final, steps=3)


class TestTransportRamp:
    def test_zero_displacement_constant(self, layout):
        seq = transport_ramp(layout, [[0, 0, 0]], [[0, 0, 0]], steps=5)
        for wf in seq[1:]:
            assert_waveforms_equal(wf, seq[0])

    def test_out_of_plane_and_back_endpoints_identical(self, layout):
        fwd = transport_ramp(layout, [[0, 0, 0]], [[330e-6, 0, 0]], steps=9)
        back = transport_ramp(layout, [[330e-6, 0, 0]], [[0, 0, 0]], steps=9)
        assert_waveforms_equal(fwd[-1], back[0])
        assert_waveforms_equal(back[-1], fwd[0])

    def test_grid_expansion_frequency_change(self, layout):
        # 190 -> 480 um vertical move: channel change = 290 um / calibration
        start = [[0, 0, 95e-6]]
        end = [[0, 0, 240e-6]]
        seq = transport_ramp(layout, start, end, steps=3)
        v_start = seq[0].freq_offsets_mhz[:, 1].max()
        v_end = seq[-1].freq_offsets_mhz[:, 1].max()
        assert (v_end - v_start) == pytest.approx((240 - 95) / 86.0, rel=1e-9)

    def test_minimum_jerk_profile_endpoints(self):
        s = np.linspace(0, 1, 101)
        p = minimum_jerk(s)
        assert p[0] == 0.0 and p[-1] == pytest.approx(1.0)
        dp = np.gradient(p, s)
        assert abs(dp[0]) < 1e-3 and abs(dp[-1]) < 1e-3

    def test_unreachable_waypoint_rejected(self, layout):
        with pytest.raises(DomainError):
            transport_ramp(layout, [[0, 0, 0]], [[0, 0, 2e-3]], steps=3)


@pytest.fixture(scope="module")
def grid_table(layout, input_pair):
    spec = GridSpec(counts=(1, 3, 3), spacing=(0.0, 480e-6, 480e-6))
    return spec, characterize_sites(RB, layout, input_pair, spec)


class TestSites:
    def test_all_sites_valid(self, grid_table):
        _, table = grid_table
        assert all(r.report.valid for r in table.rows)
        assert len(table.rows) == 9

    def test_radius_deviations_opposite_sign(self, grid_table):
        _, table = grid_table
        c = table.central_row()
        for row in table.rows:
            d1 = row.radius_beam1 / c.radius_beam1 - 1
            d2 = row.radius_beam2 / c.radius_beam2 - 1
            if abs(d1) > 1e-6:
                assert d1 * d2 < 0

    def test_grid_mirror_symmetry(self, grid_table):
        _, table = grid_table
        by_index = {r.index: r for r in table.rows}
        for (i, j, k), row in by_index.items():
            mirror = by_index[(i, 2 - j, k)]
            assert row.report.depth == pytest.approx(mirror.report.depth, rel=0.01, abs=0)
            assert row.radius_beam1 == pytest.approx(mirror.radius_beam2, rel=0.01)

    def test_compensation_fixed_point_on_uniform_grid(self, layout, input_pair):
        spec = GridSpec(counts=(1, 1, 3), spacing=(0.0, 0.0, 300e-6))
        table = characterize_sites(RB, layout, input_pair, spec)
        after = compensate_powers(RB, layout, input_pair, spec, table=table)
        for row in after.rows:
            assert row.weight_beam1 == pytest.approx(1.0, abs=1e-6)
            assert row.weight_beam2 == pytest.approx(1.0, abs=1e-6)

    def test_compensation_refuses_gravity_before_characterizing(self, layout, input_pair, monkeypatch):
        # depth and frequencies scale with power only at zero gravity
        import codtsim.painting

        def no_characterization(*args, **kwargs):
            raise AssertionError("characterized a site before refusing gravity")

        monkeypatch.setattr(codtsim.painting, "characterize", no_characterization)
        spec = GridSpec(counts=(1, 1, 3), spacing=(0.0, 0.0, 300e-6))
        with pytest.raises(DomainError, match="zero gravity"):
            compensate_powers(PhysicalConstants(gravity=9.81), layout, input_pair, spec, table=None)

    def test_compensation_is_one_balance_scan(self, layout, input_pair, grid_table, monkeypatch):
        # BALANCE_STEPS candidates per non-central site, then the grid once
        import codtsim.painting

        spec, table = grid_table
        calls = []
        real = codtsim.painting.characterize
        monkeypatch.setattr(codtsim.painting, "characterize", lambda *a, **k: calls.append(1) or real(*a, **k))
        compensate_powers(RB, layout, input_pair, spec, table=table)
        n_sites = len(table.rows)
        assert len(calls) == (n_sites - 1) * codtsim.painting.BALANCE_STEPS + n_sites == 113

    def test_compensation_reduces_frequency_spread(self, layout, input_pair, grid_table):
        spec, table = grid_table
        after = compensate_powers(RB, layout, input_pair, spec, table=table)
        assert after.converged
        assert after.frequency_spread() < table.frequency_spread()
        assert after.depth_spread() < 1e-3
        weights = [w for r in after.rows for w in (r.weight_beam1, r.weight_beam2)]
        assert np.mean(weights) <= 1.0 + 1e-9
