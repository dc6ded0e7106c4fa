import numpy as np
import pytest

from codtsim.constants import PhysicalConstants
from codtsim.errors import DomainError, ModelValidityError
from codtsim.optics import CHANNELS, OpticalLayout, build_beamlines, deflection_to_displacement
from codtsim.potential import (
    DipolePotential,
    ModulationWaveform,
    ScalarField3D,
    _phase_records,
    beam_records,
    beams_to_records,
    dipole_potential_at,
    static_potential,
    time_averaged_field,
    time_averaged_potential,
)


class TestDipolePotential:
    @pytest.mark.parametrize("case", ["static", "line-painted", "static-gravity"])
    def test_closed_form_derivatives_match_central_differences(self, case, layout, input_pair):
        # central differences approach the closed form at O(h^2): the error
        # falls 4x per step halving, with no floor left by a missing term
        from codtsim.painting import synthesize_waveform
        from codtsim.trapchar import fd_gradient, fd_hessian

        constants = PhysicalConstants(gravity=9.81 if case == "static-gravity" else 0.0)
        x = np.array([3e-6, -4e-6, 2e-6])  # off every symmetry plane of the trap
        if case == "line-painted":
            wf = synthesize_waveform(layout, "line-paint", {"amplitude_um": 230.0})
            pot = time_averaged_potential(constants, layout, input_pair, wf, 128)
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
        u = dipole_potential_at(no_gravity, beams, np.array([0.05, 0.02, 0.02]))
        u0 = dipole_potential_at(no_gravity, beams, np.zeros(3))
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
        u = dipole_potential_at(no_gravity, [beam], np.zeros(3))
        depth_mk = -u / no_gravity.boltzmann * 1e3
        assert 8.0 <= depth_mk <= 9.0

    def test_crossed_center_is_sum_of_singles(self, no_gravity, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair)
        point = np.zeros(3)
        u_both = dipole_potential_at(no_gravity, [b1, b2], point)
        u_1 = dipole_potential_at(no_gravity, [b1], point)
        u_2 = dipole_potential_at(no_gravity, [b2], point)
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
        with pytest.raises(DomainError):
            ModulationWaveform(
                times=tuple(np.array([0.0, 0.5e-3]) for _ in range(4)),
                freq_offsets_mhz=tuple(np.array([0.0, 1.0]) for _ in range(4)),
                weights=tuple(np.array([1.5, 1.5]) for _ in range(4)),  # mean > 1
            )
        with pytest.raises(DomainError):
            ModulationWaveform(
                times=tuple(np.array([0.5e-3, 0.0]) for _ in range(4)),  # unsorted
                freq_offsets_mhz=tuple(np.array([0.0, 1.0]) for _ in range(4)),
                weights=tuple(np.array([1.0, 1.0]) for _ in range(4)),
            )

    def test_range_validation_against_layout(self, layout):
        wf = ModulationWaveform.constant((20.0, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            wf.validate_against(layout)

    def test_sampling_hold_and_linear(self):
        times = tuple(np.array([0.0, 0.5e-3]) for _ in range(4))
        freqs = tuple(np.array([0.0, 2.0]) for _ in range(4))
        wts = tuple(np.array([1.0, 1.0]) for _ in range(4))
        hold = ModulationWaveform(times, freqs, wts, interpolation="hold")
        f, _ = hold.sample(4)
        np.testing.assert_allclose(f[:, 0], [0.0, 0.0, 2.0, 2.0])
        lin = ModulationWaveform(times, freqs, wts, interpolation="linear")
        f, _ = lin.sample(4)
        np.testing.assert_allclose(f[:, 0], [0.0, 1.0, 2.0, 1.0])


class TestTimeAveragedPotential:
    def test_constant_waveform_equals_static(self, no_gravity, layout, input_pair):
        wf = ModulationWaveform.constant()
        pot_avg = time_averaged_potential(no_gravity, layout, input_pair, wf, n_phases=16)
        beams = build_beamlines(layout, input_pair)
        pot_static = static_potential(no_gravity, beams)
        pts = np.array([[0, 0, 0], [5e-6, -8e-6, 4e-6], [200e-6, 40e-6, 0]], dtype=float)
        np.testing.assert_allclose(pot_avg(pts), pot_static(pts), rtol=1e-12)

    def test_two_vertical_tones(self, no_gravity, layout, input_pair):
        # two equal-weight tones produce two crossings, each near half the
        # single-crossing average; the field is symmetric under tone exchange
        z_sep = 95e-6
        dfv = z_sep / 86e-6  # MHz at the calibrated vertical scale
        times = tuple(np.array([0.0, 0.5e-3]) for _ in range(4))
        freqs = (
            np.array([0.0, 0.0]),
            np.array([dfv, -dfv]),
            np.array([0.0, 0.0]),
            np.array([dfv, -dfv]),
        )
        wts = tuple(np.array([1.0, 1.0]) for _ in range(4))
        wf = ModulationWaveform(times, freqs, wts, interpolation="hold")
        pot = time_averaged_potential(no_gravity, layout, input_pair, wf, n_phases=8)
        static = static_potential(no_gravity, build_beamlines(layout, input_pair))
        u_site = pot.at(np.array([0.0, 0.0, z_sep]))
        u_single = static.at(np.zeros(3))
        assert u_site == pytest.approx(0.5 * u_single, rel=0.02)
        u_mirror = pot.at(np.array([0.0, 0.0, -z_sep]))
        assert u_site == pytest.approx(u_mirror, rel=1e-12)

    def test_phase_count_convergence(self, no_gravity, layout, input_pair):
        from codtsim.painting import synthesize_waveform

        wf = synthesize_waveform(layout, "line-paint", {"amplitude_um": 100.0})
        pts = np.array([[0, 0, 0], [0, 50e-6, 0], [0, 0, 8e-6]], dtype=float)
        u_256 = time_averaged_potential(no_gravity, layout, input_pair, wf, n_phases=256)(pts)
        u_512 = time_averaged_potential(no_gravity, layout, input_pair, wf, n_phases=512)(pts)
        assert np.max(np.abs(u_512 / u_256 - 1)) < 1e-3

    def test_records_match_per_phase_beamlines(self, no_gravity, input_pair):
        from codtsim.painting import GridSpec, synthesize_waveform

        def per_phase_records(layout, wf, n_phases):
            freqs, wts = wf.sample(n_phases)
            rows = []
            for f, w in zip(freqs, wts):
                offs = [
                    deflection_to_displacement(layout, ch, float(f[i]))
                    for i, ch in enumerate(CHANNELS)
                ]
                rec = beams_to_records(build_beamlines(layout, input_pair, offs))
                rec[:, 18] *= [float(w[0] * w[1]) / n_phases, float(w[2] * w[3]) / n_phases]
                rows.append(rec)
            return np.vstack(rows)

        grid = GridSpec((1, 3, 3), (0.0, 480e-6, 480e-6))
        for mode in ("calibrated", "geometric"):
            layout = OpticalLayout(deflection_mode=mode)
            line = {"amplitude_um": 370.0, "vertical_amplitude_um": 40.0}
            dwell = {"grid": grid, "site_weights": np.linspace(0.6, 1.2, 9)}
            waveforms = (
                synthesize_waveform(layout, "line-paint", line),
                synthesize_waveform(layout, "grid", dwell),
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
        from codtsim.painting import GridSpec, synthesize_waveform

        grid = GridSpec((1, 3, 3), (0.0, 480e-6, 480e-6))
        cases = (
            ("line-paint", {"amplitude_um": 230.0, "vertical_amplitude_um": 40.0}),
            ("grid", {"grid": grid, "site_weights": np.linspace(0.6, 1.2, 9)}),
            ("static-offset", {"displacements_um": (40.0, -20.0, 10.0, 30.0)}),
        )
        rng = np.random.default_rng(5)
        for kind, params in cases:
            wf = synthesize_waveform(layout, kind, params)
            raw = _phase_records(layout, input_pair, wf, 128)
            pot = time_averaged_potential(no_gravity, layout, input_pair, wf, 128)
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
        from codtsim.painting import synthesize_waveform

        wf = synthesize_waveform(layout, "line-paint", {"amplitude_um": 230.0})
        raw = _phase_records(layout, input_pair, wf, 1)
        pot = time_averaged_potential(no_gravity, layout, input_pair, wf, 1)
        np.testing.assert_array_equal(pot.records, raw)

    def test_extreme_off_axis_slope_rejected(self, no_gravity, input_pair):
        from codtsim.painting import synthesize_waveform

        layout = OpticalLayout(off_axis_size_slope=1e4)  # beam 2 waist <= 0 beyond 100 um
        wf = synthesize_waveform(layout, "line-paint", {"amplitude_um": 370.0})
        with pytest.raises(ModelValidityError):
            time_averaged_potential(no_gravity, layout, input_pair, wf, n_phases=32)


class TestScalarField:
    def test_round_trip_serialization(self, tmp_path, no_gravity, layout, input_pair):
        wf = ModulationWaveform.constant()
        field = time_averaged_field(
            no_gravity,
            layout,
            input_pair,
            wf,
            region=(np.zeros(3), np.array([50e-6, 30e-6, 30e-6])),
            dims=(9, 7, 7),
            n_phases=1,
        )
        field.save(tmp_path / "field")
        loaded = ScalarField3D.load(tmp_path / "field")
        np.testing.assert_array_equal(loaded.values, field.values)
        np.testing.assert_allclose(loaded.origin, field.origin)
        np.testing.assert_allclose(loaded.axes, field.axes)

    def test_node_coordinates_shape_and_minimum(self, no_gravity, layout, input_pair):
        wf = ModulationWaveform.constant()
        field = time_averaged_field(
            no_gravity,
            layout,
            input_pair,
            wf,
            region=(np.zeros(3), np.array([40e-6, 40e-6, 40e-6])),
            dims=(11, 11, 11),
            n_phases=1,
        )
        nodes = field.node_coordinates()
        assert nodes.shape == (11**3, 3)
        # the deepest node sits near the crossing
        deepest = nodes[np.argmin(field.values.ravel())]
        assert np.linalg.norm(deepest) < 12e-6

    def test_invalid_dims_rejected(self):
        with pytest.raises(DomainError):
            ScalarField3D(
                origin=np.zeros(3), axes=np.zeros((3, 3)), dims=(2, 2, 2), values=np.zeros((2, 2, 2))
            )
