import json
from pathlib import Path

import numpy as np
import pytest

from codtsim.constants import BOLTZMANN, PhysicalConstants
from codtsim.config import load_config
from codtsim.errors import ConfigError, DomainError, ModelValidityError
from codtsim.optics import OpticalLayout, build_beamlines, deflection_to_displacement
from codtsim.potential import (
    DipolePotential,
    ModulationWaveform,
    RIPPLE_TOL,
    _derived_phase_records,
    _merge_records,
    _phase_records,
    beam_records,
    beams_to_records,
    static_potential,
    time_averaged_potential,
    write_field,
)
from codtsim.painting import GridSpec, grid_waveform, line_paint
from codtsim.trapchar import characterize


def fd_gradient(f, x, h: float) -> np.ndarray:
    """Central-difference gradient: x +/- h e_i."""
    pts = np.repeat(x[None, :], 6, axis=0)
    for i in range(3):
        pts[2 * i, i] += h
        pts[2 * i + 1, i] -= h
    vals = f(pts)
    return (vals[0::2] - vals[1::2]) / (2 * h)


def fd_hessian(f, x, h: float) -> np.ndarray:
    """Central-difference Hessian: x +/- h e_i on the diagonal, x +/- h e_i +/- h e_j off it."""
    e = h * np.eye(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    pts = [x] + [x + s * e[i] for i in range(3) for s in (1.0, -1.0)]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    pts += [x + si * e[i] + sj * e[j] for i, j in pairs for si, sj in signs]
    vals = f(np.array(pts))
    hess = np.diag((vals[1:7:2] - 2 * vals[0] + vals[2:7:2]) / h**2)
    for n, (i, j) in enumerate(pairs):
        a, b, c, d = vals[7 + 4 * n : 11 + 4 * n]
        hess[i, j] = hess[j, i] = (a - b - c + d) / (4 * h**2)
    return hess


def potential_at(constants, beams, point):
    """Dipole + gravity potential (J) of the given beams at one point."""
    return static_potential(constants, beams).at(point)


def load_field(path) -> tuple[np.ndarray, np.ndarray]:
    """Node positions (N, 3) and values (N,) of a field written by ``write_field``, read off its header."""
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text())
    values = np.fromfile(path.parent / header["data_file"], dtype=header["dtype"])
    index = np.stack(np.meshgrid(*[np.arange(d) for d in header["dims"]], indexing="ij"), axis=-1).reshape(-1, 3)
    return np.array(header["origin_m"]) + index @ np.array(header["axes_m"]), values


class TestDipolePotential:
    @pytest.mark.parametrize("case", ["static", "line-painted", "static-gravity"])
    def test_closed_form_derivatives_match_central_differences(self, case, layout, input_pair):
        # central differences approach the closed form at O(h^2): the error
        # falls 4x per step halving, with no floor left by a missing term
        constants = PhysicalConstants(gravity=9.81 if case == "static-gravity" else 0.0)
        x = np.array([3e-6, -4e-6, 2e-6])  # off every symmetry plane of the trap
        if case == "line-painted":
            wf = line_paint(layout, 230.0 * 1e-6)
            pot = time_averaged_potential(constants, layout, input_pair, wf)
            assert pot.records.shape[0] >= 100
            x[1] = 150e-6  # on the painted plateau
        else:
            pot = static_potential(constants, build_beamlines(layout, input_pair))
        u, grad, hess = (a[0] for a in pot.derivatives(x[None, :]))
        assert u == pytest.approx(pot.at(x), rel=1e-14, abs=0)
        steps = 0.4e-6 / 2.0 ** np.arange(4)
        grad_err = [np.max(np.abs(fd_gradient(pot, x, h) - grad)) / np.max(np.abs(grad)) for h in steps]
        hess_err = [np.max(np.abs(fd_hessian(pot, x, h) - hess)) / np.max(np.abs(hess)) for h in steps]
        assert grad_err[0] < 1e-2 and hess_err[0] < 1e-2
        for err in (grad_err, hess_err):
            np.testing.assert_allclose(np.divide(err[:-1], err[1:]), 4.0, rtol=0.05)

    def test_far_field_vanishes(self, no_gravity, layout, input_pair):
        beams = build_beamlines(layout, input_pair)
        u = potential_at(no_gravity, beams, np.array([0.05, 0.02, 0.02]))
        u0 = potential_at(no_gravity, beams, np.zeros(3))
        assert abs(u) < 1e-6 * abs(u0)

    def test_single_beam_peak_depth_8_to_9_mk(self, no_gravity, layout):
        # stigmatic 10 W, w = 10.5 um with the default polarizability
        from codtsim.optics import AstigmaticBeam

        beam = AstigmaticBeam(
            power=10.0,
            wavelength=1.064e-6,
            waist_h=10.5e-6,
            waist_v=10.5e-6,
            focus_h=0.0,
            focus_v=0.0,
            origin=np.zeros(3),
            direction=np.array([1.0, 0.0, 0.0]),
        )
        u = potential_at(no_gravity, [beam], np.zeros(3))
        depth_mk = -u / BOLTZMANN * 1e3
        assert 8.0 <= depth_mk <= 9.0

    def test_crossed_center_is_sum_of_singles(self, no_gravity, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair)
        point = np.zeros(3)
        u_both = potential_at(no_gravity, [b1, b2], point)
        u_1 = potential_at(no_gravity, [b1], point)
        u_2 = potential_at(no_gravity, [b2], point)
        assert u_both == pytest.approx(u_1 + u_2, rel=0.005)

    def test_power_linearity_of_optical_part(self, no_gravity, layout, input_pair):
        from dataclasses import replace

        b1, b2 = build_beamlines(layout, input_pair)
        pts = np.array([[0, 0, 0], [10e-6, 5e-6, -3e-6], [100e-6, 0, 20e-6]], dtype=float)
        u = static_potential(no_gravity, [b1, b2])(pts)
        scaled = [replace(b, power=3.0 * b.power) for b in (b1, b2)]
        u3 = static_potential(no_gravity, scaled)(pts)
        np.testing.assert_allclose(u3, 3.0 * u, rtol=1e-12)

    def test_gravity_toggle_adds_mgz_exactly(self, layout, input_pair):
        beams = build_beamlines(layout, input_pair)
        g0 = PhysicalConstants(gravity=0.0)
        g1 = PhysicalConstants(gravity=9.81)
        pts = np.array([[0, 0, 0], [0, 0, 25e-6], [30e-6, -10e-6, -40e-6]], dtype=float)
        du = static_potential(g1, beams)(pts) - static_potential(g0, beams)(pts)
        np.testing.assert_allclose(du, g1.atom_mass * 9.81 * pts[:, 2], rtol=1e-12)

    def test_mirror_symmetry_through_vertical_plane(self, no_gravity, layout, input_pair):
        beams = build_beamlines(layout, input_pair)
        pot = static_potential(no_gravity, beams)
        pts = np.array([[20e-6, 15e-6, 5e-6], [-40e-6, 60e-6, -10e-6]])
        mirrored = pts * np.array([1.0, -1.0, 1.0])
        np.testing.assert_allclose(pot(pts), pot(mirrored), rtol=1e-12)


class TestModulationWaveform:
    def test_invariants_enforced(self):
        times = np.array([0.0, 0.5e-3])
        freqs = np.array([[0.0] * 4, [1.0] * 4])
        with pytest.raises(DomainError, match="channel h1: mean amplitude weight exceeds 1"):
            ModulationWaveform(times, freqs, np.full((2, 4), 1.5))
        with pytest.raises(DomainError, match="time-sorted"):
            ModulationWaveform(times[::-1], freqs, np.ones((2, 4)))
        with pytest.raises(DomainError, match="channel v2: amplitude weights must be >= 0"):
            ModulationWaveform(times, freqs, np.array([[1.0, 1.0, 1.0, -0.5], [1.0] * 4]))
        with pytest.raises(DomainError, match="four channels"):
            ModulationWaveform(times, freqs[:, :3], np.ones((2, 3)))
        with pytest.raises(DomainError, match="inconsistent"):
            ModulationWaveform(times, freqs, np.ones((3, 4)))
        with pytest.raises(DomainError, match=r"\[0, period\)"):
            ModulationWaveform(np.array([0.0, 1e-3]), freqs, np.ones((2, 4)))

    def test_range_validation_against_layout(self, no_gravity, layout, input_pair):
        # the deflection map checks every sampled offset against the AOD range
        wf = ModulationWaveform.constant((20.0, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            time_averaged_potential(no_gravity, layout, input_pair, wf)

    def test_sampling_hold_and_linear(self):
        # a one-knot drive is held over the period; more knots are read linearly
        hold = ModulationWaveform.constant((2.0, 0.0, -1.0, 0.5), (0.5, 1.0, 1.0, 0.25))
        f, w = hold.sample(4)
        np.testing.assert_array_equal(f, np.tile([2.0, 0.0, -1.0, 0.5], (4, 1)))
        np.testing.assert_array_equal(w, np.tile([0.5, 1.0, 1.0, 0.25], (4, 1)))
        # held bit for bit whatever the value and the knot time
        rng = np.random.default_rng(1)
        for t0 in (0.0, 0.37e-3, 1e-3 * (1 - 2**-40)):
            freqs, wts = rng.normal(size=4) * 10.0 ** rng.uniform(-8, 3, 4), rng.uniform(0, 1, 4)
            f, w = ModulationWaveform(np.array([t0]), [freqs], [wts]).sample(7)
            np.testing.assert_array_equal(f, np.tile(freqs, (7, 1)))
            np.testing.assert_array_equal(w, np.tile(wts, (7, 1)))
        times = np.array([0.0, 0.5e-3])
        lin = ModulationWaveform(times, np.array([[0.0] * 4, [2.0] * 4]), np.ones((2, 4)))
        f, _ = lin.sample(4)
        np.testing.assert_allclose(f[:, 0], [0.0, 1.0, 2.0, 1.0])


class TestTimeAveragedPotential:
    def test_constant_waveform_equals_static(self, no_gravity, layout, input_pair):
        wf = ModulationWaveform.constant()
        pot_avg = time_averaged_potential(no_gravity, layout, input_pair, wf)
        assert pot_avg.records.shape == (2, 19)  # one phase
        beams = build_beamlines(layout, input_pair)
        pot_static = static_potential(no_gravity, beams)
        pts = np.array([[0, 0, 0], [5e-6, -8e-6, 4e-6], [200e-6, 40e-6, 0]], dtype=float)
        np.testing.assert_allclose(pot_avg(pts), pot_static(pts), rtol=1e-12)

    def test_two_vertical_tones(self, no_gravity, layout, input_pair):
        # two equal-weight tones produce two crossings, each near half the
        # single-crossing average; the field is symmetric under tone exchange
        z_sep = 95e-6
        dfv = z_sep / 86e-6  # MHz at the calibrated vertical scale
        times = np.array([0.0, 0.5e-3])
        freqs = np.array([[0.0, dfv, 0.0, dfv], [0.0, -dfv, 0.0, -dfv]])
        wf = ModulationWaveform(times, freqs, np.ones((2, 4)))
        # two phases land on the two knots: each tone for half the period
        # (a 2-knot drive is linear between its knots, so the derived count sweeps it)
        pot = DipolePotential(no_gravity, _phase_records(layout, input_pair, wf, 2))
        static = static_potential(no_gravity, build_beamlines(layout, input_pair))
        u_site = pot.at(np.array([0.0, 0.0, z_sep]))
        u_single = static.at(np.zeros(3))
        assert u_site == pytest.approx(0.5 * u_single, rel=0.02)
        u_mirror = pot.at(np.array([0.0, 0.0, -z_sep]))
        assert u_site == pytest.approx(u_mirror, rel=1e-12)

    def test_phase_count_convergence(self, no_gravity, layout, input_pair):
        # from 5 um to ~0.74 mm the trap at the derived count equals the trap
        # at twice that count; along the painted line f1 and the side the
        # minimum picks are rounding, so they are left out.  The 1 mm paint
        # is checked against its 2,048-phase depth in test_trapchar.
        # Measured: depths and f3 agree within 8e-5, f2 within 3.1e-3.
        for amplitude in (5.0, 60.0, 230.0, 370.0, 740.0):
            wf = line_paint(layout, amplitude * 1e-6)
            n = len(_derived_phase_records(layout, input_pair, wf)) // 2
            reports = [
                characterize(DipolePotential(no_gravity, _merge_records(_phase_records(layout, input_pair, wf, m))), np.zeros(3))
                for m in (n, 2 * n)
            ]
            derived, doubled = reports
            assert derived.valid and doubled.valid, amplitude
            assert derived.depth_escape == pytest.approx(doubled.depth_escape, rel=1e-4), amplitude
            assert derived.depth_peak == pytest.approx(doubled.depth_peak, rel=1e-4), amplitude
            [(_, f2, f3)], [(_, f2_doubled, f3_doubled)] = derived.frequencies, doubled.frequencies
            assert f3 == pytest.approx(f3_doubled, rel=1e-4), amplitude
            assert f2 == pytest.approx(f2_doubled, rel=5e-3), amplitude

    def test_derived_phase_counts(self, layout, input_pair):
        # the smallest power of two, not below the knot count, whose largest
        # beam step d keeps the ripple 2 exp(-pi^2 w^2 / (2 d^2)) below RIPPLE_TOL
        cases = (
            (ModulationWaveform.constant(), 1),
            (line_paint(layout, 230.0 * 1e-6), 128),  # steps of 7.19 um against a bound of 7.34 um
            (line_paint(layout, 370.0 * 1e-6), 256),
            (line_paint(layout, 740.0 * 1e-6), 512),
            (grid_waveform(layout, GridSpec(counts=(1, 1, 2), spacing=(0.0, 0.0, 190e-6))), 2048),
        )

        def ripple(offsets, w_min):
            steps = np.roll(offsets, -1, axis=0) - offsets
            largest = np.hypot(steps[:, 0::2], steps[:, 1::2]).max()
            return 2 * np.exp(-((np.pi * w_min / largest) ** 2) / 2) if largest else 0.0

        for wf, expected in cases:
            records = _derived_phase_records(layout, input_pair, wf)
            n = len(records) // 2
            assert n == expected
            # the bound holds on the phases built, and fails at half their count
            freqs, _ = wf.sample(n)
            offsets = deflection_to_displacement(layout, freqs)
            assert ripple(offsets, records[:, 12:14].min()) <= RIPPLE_TOL
            if n > wf.times.size:
                assert ripple(offsets[::2], records.reshape(n, 2, 19)[::2, :, 12:14].min()) > RIPPLE_TOL

    def test_records_match_per_phase_beamlines(self, no_gravity, input_pair):
        def per_phase_records(layout, wf, n_phases):
            freqs, wts = wf.sample(n_phases)
            rows = []
            for f, w in zip(freqs, wts):
                offs = deflection_to_displacement(layout, f)
                rec = beams_to_records(build_beamlines(layout, input_pair, offs))
                rec[:, 18] *= [float(w[0] * w[1]) / n_phases, float(w[2] * w[3]) / n_phases]
                rows.append(rec)
            return np.vstack(rows)

        grid = GridSpec((1, 3, 3), (0.0, 480e-6, 480e-6))
        for mode in ("calibrated", "geometric"):
            layout = OpticalLayout(deflection_mode=mode)
            waveforms = (
                line_paint(layout, 370.0 * 1e-6, 40.0 * 1e-6),
                grid_waveform(layout, grid, np.linspace(0.6, 1.2, 9)),
            )
            for wf in waveforms:
                for n_phases in (1, 7, 64):
                    got = _phase_records(layout, input_pair, wf, n_phases)
                    ref = per_phase_records(layout, wf, n_phases)
                    if mode == "calibrated":
                        np.testing.assert_array_equal(got, ref)
                    else:  # tan() of an array may round differently from tan() of a scalar
                        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_beam_records_match_packed_beamlines(self):
        # the object model is the reference: each row packs build_beamlines
        # for its offsets, powers times the row's weights
        from codtsim.optics import InputBeam

        inputs = (InputBeam(power=8.0), InputBeam(power=12.0, wavelength=1.07e-6, collimated_radius=1.8e-3))
        offsets = np.array(
            [[0.0, 0.0, 0.0, 0.0], [40e-6, -20e-6, 10e-6, 30e-6], [-300e-6, 120e-6, 250e-6, -80e-6]]
        )
        weights = np.array([[1.0, 1.0], [0.7, 1.3], [0.25, 0.9]])
        for mode in ("calibrated", "geometric"):
            layout = OpticalLayout(deflection_mode=mode)
            got = beam_records(layout, inputs, offsets, weights)
            assert got.shape == (3, 2, 19)
            for row, offs, w in zip(got, offsets, weights):
                ref = beams_to_records(build_beamlines(layout, inputs, offs))
                ref[:, 18] *= w
                np.testing.assert_array_equal(row, ref)

    def test_merged_records_equal_unmerged_sum(self, no_gravity, layout, input_pair):
        grid = GridSpec((1, 3, 3), (0.0, 480e-6, 480e-6))
        static_mhz = np.array([40.0, -20.0, 10.0, 30.0]) * 1e-6 / deflection_to_displacement(layout, np.ones(4))
        waveforms = (
            line_paint(layout, 230.0 * 1e-6, 40.0 * 1e-6),
            grid_waveform(layout, grid, np.linspace(0.6, 1.2, 9)),
            ModulationWaveform.constant(static_mhz),
        )
        rng = np.random.default_rng(5)
        for wf in waveforms:
            raw = _phase_records(layout, input_pair, wf, 128)
            pot = DipolePotential(no_gravity, _merge_records(raw))
            # merged records are pairwise distinct, fewer than the phase records, same total power
            n_merged = pot.records.shape[0]
            assert len(np.unique(pot.records[:, :18], axis=0)) == n_merged < raw.shape[0]
            assert pot.records[:, 18].sum() == pytest.approx(raw[:, 18].sum(), rel=1e-14)
            # random points within a few waists of random phase positions
            centers = raw[rng.integers(raw.shape[0], size=400), 0:3]
            pts = centers + rng.normal(scale=10e-6, size=(400, 3))
            ref = DipolePotential(no_gravity, raw)(pts)
            assert np.min(np.abs(ref)) > 0
            np.testing.assert_allclose(pot(pts), ref, rtol=1e-12, atol=0)

    def test_all_distinct_records_pass_unchanged(self, no_gravity, layout, input_pair):
        wf = line_paint(layout, 230.0 * 1e-6)
        raw = _phase_records(layout, input_pair, wf, 1)
        np.testing.assert_array_equal(_merge_records(raw), raw)

    def test_paint_past_the_phase_cap_rejected(self, no_gravity, layout):
        # a 1 nm wavelength focuses to a ~10 nm waist, which would need 2^17
        # phases for the bundled sweep: it is refused, not built
        from codtsim.optics import InputBeam

        wf = line_paint(layout, 230.0 * 1e-6)
        with pytest.raises(ModelValidityError, match="more than 65536 phases"):
            time_averaged_potential(no_gravity, layout, (InputBeam(wavelength=1e-9),) * 2, wf)

    def test_extreme_off_axis_slope_rejected(self, no_gravity, input_pair):
        layout = OpticalLayout(off_axis_size_slope=1e4)  # beam 2 waist <= 0 beyond 100 um
        wf = line_paint(layout, 370.0 * 1e-6)
        with pytest.raises(ModelValidityError):
            time_averaged_potential(no_gravity, layout, input_pair, wf)


class TestScalarField:
    def test_round_trip_serialization(self, tmp_path, no_gravity, layout, input_pair):
        # the header locates every stored value where the potential was sampled
        pot = static_potential(no_gravity, build_beamlines(layout, input_pair))
        half = np.array([50e-6, 30e-6, 30e-6])
        write_field(tmp_path / "field", pot, np.zeros(3), half, (9, 7, 7))
        nodes, values = load_field(tmp_path / "field")
        np.testing.assert_array_equal(values, pot(nodes))
        np.testing.assert_allclose(nodes.min(axis=0), -half, rtol=1e-12)
        np.testing.assert_allclose(nodes.max(axis=0), half, rtol=1e-12)

    def test_node_coordinates_shape_and_minimum(self, tmp_path, no_gravity, layout, input_pair):
        pot = static_potential(no_gravity, build_beamlines(layout, input_pair))
        write_field(tmp_path / "field", pot, np.zeros(3), 40e-6, (11, 11, 11))
        nodes, values = load_field(tmp_path / "field")
        assert nodes.shape == (11**3, 3)
        # the deepest node sits near the crossing
        deepest = nodes[np.argmin(values)]
        assert np.linalg.norm(deepest) < 12e-6

    def test_invalid_dims_rejected(self):
        # the field grid's dims are checked once, where they are set
        with pytest.raises(ConfigError, match="trap.field_dims"):
            load_config(overrides=["trap.field_dims=[2,0,2]"])
