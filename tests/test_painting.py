import math
from dataclasses import replace

import numpy as np
import pytest

from codtsim.constants import PhysicalConstants
from codtsim.errors import DomainError
from codtsim.optics import OpticalLayout, deflection_to_displacement, offsets_from_crossing
from codtsim.painting import (
    BALANCE_STEPS,
    GridSpec,
    characterize_sites,
    compensate_powers,
    grid_waveform,
    line_paint,
    minimum_jerk,
    transport_ramp,
)
from codtsim.potential import ModulationWaveform, beam_records, time_averaged_potential

RB = PhysicalConstants(gravity=0.0)


def _local_radius(record, position) -> float:
    """Geometric-mean 1/e^2 radius of one beam record at the axial position of ``position``."""
    zeta = (position - record[0:3]) @ record[3:6]
    w_h, w_v = record[12:14] * np.sqrt(1.0 + ((zeta - record[14:16]) / record[16:18]) ** 2)
    return math.sqrt(w_h * w_v)


def assert_waveforms_equal(a: ModulationWaveform, b: ModulationWaveform) -> None:
    for name in ("times", "freq_offsets_mhz", "weights"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestSynthesizeWaveform:
    """The waveform constructors: line paint, grid dwell (a vertical column is one), constant."""

    def test_vertical_tone_separation_at_calibration(self, layout):
        # 190 um two-site spacing at 86 um/MHz -> tones separated by ~2.21 MHz
        wf = grid_waveform(layout, GridSpec(counts=(1, 1, 2), spacing=(0.0, 0.0, 190.0 * 1e-6)))
        v1 = wf.freq_offsets_mhz[:, 1]
        sep = v1.max() - v1.min()
        assert sep == pytest.approx(190.0 / 86.0, rel=1e-6)
        assert sep == pytest.approx(2.21, abs=0.01)

    def test_static_zero_offsets_equal_unmodulated(self, layout, input_pair):
        wf = ModulationWaveform.constant()
        pot = time_averaged_potential(RB, layout, input_pair, wf)
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
        pot = time_averaged_potential(RB, layout, input_pair, wf)  # derives one phase per knot
        assert pot.records.shape == (2 * (2 + 63), 19)

    def test_out_of_range_displacement_rejected(self, layout):
        with pytest.raises(DomainError):
            line_paint(layout, 1500.0 * 1e-6)

    def test_grid_dwell_knots_equal_loop_reference(self, layout):
        spec = GridSpec(counts=(1, 3, 3), spacing=(0.0, 480e-6, 480e-6), center=(30e-6, 0.0, 0.0))
        site_weights = np.linspace(0.6, 1.2, 9)
        wf = grid_waveform(layout, spec, site_weights)
        times, freqs, wts = dwell_knots_loop(layout, spec, site_weights)
        np.testing.assert_array_equal(wf.times, times)
        np.testing.assert_array_equal(wf.freq_offsets_mhz, freqs)
        np.testing.assert_array_equal(wf.weights, wts)

    def test_site_collision_warns(self, layout, input_pair):
        # the site table warns, from the local beam widths it computes for its radii
        spec = GridSpec(counts=(1, 2, 1), spacing=(0.0, 15e-6, 0.0))
        with pytest.warns(UserWarning, match="sites will merge"):
            characterize_sites(RB, layout, input_pair, spec)


def dwell_knots_loop(layout, spec, site_weights):
    """Loop over segments and transition steps: the reference for the dwell grid."""
    import math

    freqs = offsets_from_crossing(layout, spec.site_positions()) / deflection_to_displacement(layout, np.ones(4))
    wts = [(w, 1.0, w, 1.0) for w in site_weights.tolist()]
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


class TestTransportRamp:
    def test_zero_displacement_constant(self, layout):
        seq = transport_ramp(layout, [[0, 0, 0]], [[0, 0, 0]], steps=5, profile="minimum-jerk")
        for wf in seq[1:]:
            assert_waveforms_equal(wf, seq[0])

    def test_out_of_plane_and_back_endpoints_identical(self, layout):
        fwd = transport_ramp(layout, [[0, 0, 0]], [[330e-6, 0, 0]], steps=9, profile="minimum-jerk")
        back = transport_ramp(layout, [[330e-6, 0, 0]], [[0, 0, 0]], steps=9, profile="minimum-jerk")
        assert_waveforms_equal(fwd[-1], back[0])
        assert_waveforms_equal(back[-1], fwd[0])

    def test_grid_expansion_frequency_change(self, layout):
        # 190 -> 480 um vertical move: channel change = 290 um / calibration
        start = [[0, 0, 95e-6]]
        end = [[0, 0, 240e-6]]
        seq = transport_ramp(layout, start, end, steps=3, profile="minimum-jerk")
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
            transport_ramp(layout, [[0, 0, 0]], [[0, 0, 2e-3]], steps=3, profile="minimum-jerk")


@pytest.fixture(scope="module")
def grid_table(layout, input_pair):
    spec = GridSpec(counts=(1, 3, 3), spacing=(0.0, 480e-6, 480e-6))
    return spec, characterize_sites(RB, layout, input_pair, spec)


class TestSites:
    def test_all_sites_valid(self, grid_table):
        _, table = grid_table
        assert table.reports.valid.all()
        assert len(table.reports.valid) == len(table.indices) == 9

    def test_radius_deviations_opposite_sign(self, grid_table):
        _, table = grid_table
        d1, d2 = (table.radii / table.radii[table.central_index()] - 1).T
        resolved = np.abs(d1) > 1e-6
        assert resolved.any() and np.all(d1[resolved] * d2[resolved] < 0)

    def test_radii_equal_a_loop_over_records(self, layout, input_pair, grid_table):
        _, table = grid_table
        records = beam_records(layout, input_pair, offsets_from_crossing(layout, table.positions), table.weights)
        expected = [[_local_radius(r, p) for r in recs] for recs, p in zip(records, table.positions)]
        np.testing.assert_array_equal(table.radii, expected)

    def test_grid_mirror_symmetry(self, grid_table):
        _, table = grid_table
        row_of = {tuple(idx): n for n, idx in enumerate(table.indices.tolist())}
        depth = table.reports.depth_escape
        for (i, j, k), n in row_of.items():
            mirror = row_of[(i, 2 - j, k)]
            assert depth[n] == pytest.approx(depth[mirror], rel=0.01, abs=0)
            assert table.radii[n, 0] == pytest.approx(table.radii[mirror, 1], rel=0.01)

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_3d_array_sites_report_their_own_well(self, layout, input_pair, gravity, monkeypatch):
        # off the focal plane (x != 0) a site's well spills along its beams'
        # arms toward deeper wells; each report stays at its own site, from
        # one Newton pass and one escape scan
        from codtsim import trapchar

        calls = []
        for name in ("_newton", "_ray_barrier"):
            real = getattr(trapchar, name)
            monkeypatch.setattr(trapchar, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        spec = GridSpec(counts=(3, 3, 3), spacing=(480e-6, 480e-6, 480e-6))
        table = characterize_sites(PhysicalConstants(gravity=gravity), layout, input_pair, spec)
        assert calls == ["_newton", "_ray_barrier"]
        reports = table.reports
        for idx, position, radii, minimum, valid in zip(
            table.indices, table.positions, table.radii, reports.minimum_position, reports.valid
        ):
            shift = np.linalg.norm(minimum - position)
            assert valid and shift < radii.min(), idx

    def test_compensation_fixed_point_on_uniform_grid(self, layout, input_pair):
        spec = GridSpec(counts=(1, 1, 3), spacing=(0.0, 0.0, 300e-6))
        table = characterize_sites(RB, layout, input_pair, spec)
        after = compensate_powers(RB, layout, input_pair, spec, table=table, objective="equal-depth")
        np.testing.assert_allclose(after.weights, 1.0, rtol=0, atol=1e-6)

    def test_compensation_converges_at_1g(self, layout, input_pair):
        # the power rescale only picks candidate weights; the chosen ones are
        # characterized exactly, so the sagged 1 g grid homogenizes as at 0 g
        ground = PhysicalConstants(gravity=9.81)
        spec = GridSpec(counts=(1, 3, 3), spacing=(0.0, 480e-6, 480e-6))
        table = characterize_sites(ground, layout, input_pair, spec)
        after = compensate_powers(ground, layout, input_pair, spec, table=table, objective="equal-depth")
        assert after.converged
        assert after.depth_spread() < 1e-4 < table.depth_spread()
        assert after.frequency_spread() < 0.1 * table.frequency_spread()
        assert np.all(after.reports.minimum_position[:, 2] < after.positions[:, 2])  # every site sags
        assert after.weights.mean() <= 1.0 + 1e-9

    def test_compensation_is_one_balance_scan(self, layout, input_pair, grid_table, monkeypatch):
        # BALANCE_STEPS candidates per non-central site in one batch, then the grid once
        import codtsim.painting

        spec, table = grid_table
        batches = []
        real = codtsim.painting.characterize_batch
        monkeypatch.setattr(
            codtsim.painting, "characterize_batch", lambda pot, seeds: batches.append(len(seeds)) or real(pot, seeds)
        )
        compensate_powers(RB, layout, input_pair, spec, table=table, objective="equal-depth")
        n_sites = len(table.indices)
        assert batches == [(n_sites - 1) * codtsim.painting.BALANCE_STEPS, n_sites]
        assert sum(batches) == 113

    @pytest.mark.parametrize("objective", ["equal-depth", "equal-mean-frequency"])
    def test_compensation_pick_equals_a_loop_over_candidates(self, layout, input_pair, grid_table, objective, monkeypatch):
        # the first non-central site has no usable candidate and keeps its weights;
        # the second loses its first six candidates
        import codtsim.painting

        spec, table = grid_table
        batches, trials = [], []
        real = codtsim.painting.characterize_batch
        real_sites = codtsim.painting.characterize_sites

        def spy(pot, seeds):
            reports = real(pot, seeds)
            if not batches:
                valid = reports.valid.copy()
                valid[: BALANCE_STEPS + 6] = False
                reports = replace(reports, valid=valid)
            batches.append(reports)
            return reports

        monkeypatch.setattr(codtsim.painting, "characterize_batch", spy)
        monkeypatch.setattr(
            codtsim.painting, "characterize_sites", lambda *a, weights: trials.append(weights) or real_sites(*a, weights=weights)
        )
        compensate_powers(RB, layout, input_pair, spec, table=table, objective=objective)
        c, reports = table.central_index(), table.reports
        ref_depth, ref_freqs, ref_mean = reports.depth_escape[c], reports.frequencies[c], reports.mean_frequency[c]
        candidates = batches[0]
        deltas = np.linspace(-0.35, 0.35, BALANCE_STEPS)
        pairs = table.weights.copy()
        sites = [n for n in range(len(table.indices)) if n != c]
        for s, n in enumerate(sites):
            base = 0.5 * (pairs[n, 0] + pairs[n, 1])
            best = None
            for delta, i in zip(deltas, range(s * BALANCE_STEPS, (s + 1) * BALANCE_STEPS)):
                depth = candidates.depth_escape[i]
                if not candidates.valid[i] or depth <= 0:
                    continue
                if objective == "equal-depth":
                    scale = ref_depth / depth
                    res = np.max(np.abs(candidates.frequencies[i] * math.sqrt(scale) - ref_freqs) / ref_freqs)
                else:
                    scale = (ref_mean / candidates.mean_frequency[i]) ** 2
                    res = abs(depth * scale - ref_depth) / ref_depth
                if best is None or res < best[0]:
                    best = (res, base * (1 + delta) * scale, base * (1 - delta) * scale)
            if best is not None:
                pairs[n] = best[1:]
        assert np.all(pairs[sites[0]] == 1.0) and not np.array_equal(pairs, table.weights)
        pairs /= max(1.0, pairs.mean())
        [trial] = trials
        np.testing.assert_array_equal(trial, pairs)

    def test_compensation_kernel_calls_do_not_grow_per_site(self, layout, input_pair, monkeypatch):
        # Newton steps every candidate of a stage in one batch, so its
        # derivative calls do not grow with the grid; the escape scans go
        # through the kernel in shared calls of up to kernels._CHUNK
        # point-records, longest scan first, so every call of a scan but its
        # last is at least half full (one call per scan held ~3,100)
        import math

        from codtsim import kernels, trapchar

        calls = {"intensity_sum": [], "intensity_derivatives": []}
        scan_calls, scans = [], []  # point-records per kernel call inside one _ray_barrier call, per call
        for name, seen in calls.items():
            real = getattr(kernels, name)

            def counted(p, r, _f=real, _seen=seen, _name=name):
                _seen.append(np.asarray(p).size // 3 * np.shape(r)[-2])  # point-records
                if _name == "intensity_sum" and scan_calls:
                    scan_calls[-1].append(_seen[-1])
                return _f(p, r)

            monkeypatch.setattr(kernels, name, counted)
        real_scan = trapchar._ray_barrier

        def scan(*args):
            scan_calls.append([])
            try:
                return real_scan(*args)
            finally:
                scans.append(scan_calls.pop())

        monkeypatch.setattr(trapchar, "_ray_barrier", scan)
        counts = {}
        for grid in ((1, 3, 3), (1, 5, 5)):
            spec = GridSpec(counts=grid, spacing=(0.0, 480e-6, 480e-6))
            table = characterize_sites(RB, layout, input_pair, spec)
            for seen in (*calls.values(), scans):
                seen.clear()
            compensate_powers(RB, layout, input_pair, spec, table=table, objective="equal-depth")
            counts[grid] = {name: list(seen) for name, seen in calls.items()}
            sums = calls["intensity_sum"]
            assert len(sums) <= math.ceil(sum(sums) / (kernels._CHUNK / 2)) + len(scans), (grid, sums)
            for scan_sums in scans:
                assert all(n >= kernels._CHUNK / 2 for n in scan_sums[:-1]), (grid, scan_sums)
        small, large = counts[(1, 3, 3)], counts[(1, 5, 5)]
        assert len(large["intensity_derivatives"]) <= 1.5 * len(small["intensity_derivatives"])

    def test_compensation_reduces_frequency_spread(self, layout, input_pair, grid_table):
        spec, table = grid_table
        after = compensate_powers(RB, layout, input_pair, spec, table=table, objective="equal-depth")
        assert after.converged
        assert after.frequency_spread() < table.frequency_spread()
        assert after.depth_spread() < 1e-3
        assert after.weights.mean() <= 1.0 + 1e-9
