import math
import re
from dataclasses import replace

import numpy as np
import pytest

from codtsim.errors import DomainError, ModelValidityError
from codtsim.optics import (
    CHANNELS,
    AstigmaticBeam,
    InputBeam,
    OpticalLayout,
    beam_intensity,
    build_beamlines,
    crossing_from_offsets,
    deflection_to_displacement,
    focus_input_beam,
    frequency_offset,
    max_displacement,
    offsets_from_crossing,
    plate_shifts,
)


class TestFocusInputBeam:
    def test_waist_matches_quoted_spot(self, layout, input_beam):
        # f = 60 mm, lambda = 1.064 um, w_in = 1.95 mm
        beam = focus_input_beam(layout, input_beam)
        expected = 0.060 * 1.064e-6 / (math.pi * 1.95e-3)
        assert beam.waist_h == pytest.approx(expected)
        assert beam.waist_h == pytest.approx(10.5e-6, rel=0.02)

    def test_rayleigh_range_from_quoted_waist(self, layout):
        # a 10.5 um waist must reproduce the quoted 320 um Rayleigh range
        z_r = math.pi * (10.5e-6) ** 2 / 1.064e-6
        assert z_r == pytest.approx(320e-6, rel=0.02)
        beam = focus_input_beam(layout, InputBeam())
        assert beam.rayleigh_h == pytest.approx(math.pi * beam.waist_h**2 / 1.064e-6)

    def test_scaling_law(self, layout):
        base = InputBeam(collimated_radius=0.9e-3)
        beam = focus_input_beam(layout, base)
        doubled = focus_input_beam(
            layout, InputBeam(power=base.power, collimated_radius=2 * base.collimated_radius)
        )
        assert doubled.waist_h == pytest.approx(beam.waist_h / 2)
        assert doubled.rayleigh_h == pytest.approx(beam.rayleigh_h / 4)

    def test_power_throughput_applied(self, layout, input_beam):
        beam = focus_input_beam(layout, input_beam)
        assert beam.power == pytest.approx(input_beam.power * layout.power_throughput)

    def test_input_radius_limited_by_aperture(self, layout):
        with pytest.raises(DomainError):
            focus_input_beam(layout, InputBeam(collimated_radius=4e-3))

    def test_sub_wavelength_waist_rejected(self):
        layout = OpticalLayout(aod_aperture=(0.2, 0.2))
        with pytest.raises(ModelValidityError):
            focus_input_beam(layout, InputBeam(collimated_radius=0.08))


class TestWindowAstigmatism:
    def test_normal_incidence_shift(self):
        _, sag, tan = plate_shifts(0.0, 1.45, 10e-3)
        expected = 10e-3 * (1 - 1 / 1.45)
        assert sag == pytest.approx(expected)
        assert tan == pytest.approx(expected)

    def test_zero_tilt_is_stigmatic(self, input_beam):
        layout = OpticalLayout(window_tilt=0.0)
        beam = focus_input_beam(layout, input_beam)
        assert abs(beam.focus_h - beam.focus_v) <= 1e-15
        assert abs(beam.waist_h - beam.waist_v) <= 1e-15

    def test_tilted_window_splits_foci(self, layout, input_beam):
        beam = focus_input_beam(layout, input_beam)
        split = beam.focus_h - beam.focus_v
        assert split > 0
        # tangential focus sits downstream of the sagittal one by ~0.25 mm
        assert split == pytest.approx(254.3e-6, rel=1e-3)

    def test_beam_width_even_and_monotone(self, layout, input_beam):
        beam = focus_input_beam(layout, input_beam)
        z = np.linspace(0, 5 * beam.rayleigh_v, 50)
        w_plus = beam.width_v(beam.focus_v + z)
        w_minus = beam.width_v(beam.focus_v - z)
        np.testing.assert_allclose(w_plus, w_minus, rtol=1e-12)
        assert np.all(np.diff(w_plus) > 0)


class TestBeamIntensity:
    def test_peak_intensity_closed_form(self):
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
        peak = beam_intensity(beam, np.zeros(3))
        assert peak == pytest.approx(2 * 10.0 / (math.pi * (10.5e-6) ** 2), rel=1e-12)
        assert peak == pytest.approx(5.77e10, rel=1e-2)

    def test_one_waist_off_axis_gives_e_minus_2(self, layout, input_beam):
        beam = focus_input_beam(layout, input_beam)
        peak = beam_intensity(beam, np.zeros(3))
        # beam along x: horizontal transverse is -y for this construction
        w = float(beam.width_h(0.0))
        off = beam_intensity(beam, w * beam.h_axis)
        assert off == pytest.approx(peak * math.exp(-2), rel=1e-9)

    def test_power_conserved_by_quadrature(self, layout, input_beam):
        # transverse integral at z = 2 zR equals the beam power within 0.1%
        # (trapezoid rule on a 1201^2 grid: spectrally accurate for a Gaussian)
        beam = focus_input_beam(layout, input_beam)
        z = 2 * beam.rayleigh_h
        lim = 30 * float(beam.width_h(z))
        s = np.linspace(-lim, lim, 1201)
        yy, zz = np.meshgrid(s, s, indexing="ij")
        pts = np.column_stack([np.full(yy.size, z), yy.ravel(), zz.ravel()])
        inten = beam_intensity(beam, pts).reshape(yy.shape)
        total = np.trapezoid(np.trapezoid(inten, s, axis=1), s)
        assert total == pytest.approx(beam.power, rel=1e-3)


class TestDeflection:
    def test_ideal_thin_lens_scale(self, layout):
        # without the window the geometric map is f tan(theta) projected
        # onto the beam axis tilted by half the crossing angle
        bare = replace(layout, deflection_mode="geometric", window_thickness=0.0)
        disp = deflection_to_displacement(bare, np.ones(4))[0]  # h1
        theta = layout.aod_full_deflection / layout.aod_freq_range_mhz
        expected = layout.focal_length * math.tan(theta) * math.cos(math.radians(15.0))
        assert disp == pytest.approx(expected, rel=1e-12)
        assert disp * 1e6 == pytest.approx(94.41, abs=0.1)

    def test_geometric_scales_within_simulated_bands(self, layout):
        geometric = replace(layout, deflection_mode="geometric")
        h, v = deflection_to_displacement(geometric, np.ones(4))[0:2] * 1e6  # h1, v1
        assert 80 <= h <= 100 and 80 <= v <= 100
        assert 83 <= v <= 93  # vertical band 88 +/- 5 um/MHz
        assert 88 <= h <= 96  # horizontal band 92 +/- 4 um/MHz

    def test_calibrated_values_exact(self, layout):
        _, v1, h2, _ = deflection_to_displacement(layout, np.ones(4)) * 1e6
        assert v1 == pytest.approx(86.0)
        assert h2 == pytest.approx(92.0)

    def test_zero_maps_to_zero_and_linear(self, layout):
        assert deflection_to_displacement(layout, np.zeros(4))[0] == 0.0  # h1
        df = np.linspace(-15, 15, 7)
        disp = deflection_to_displacement(layout, np.repeat(df[:, None], 4, axis=1))[:, 3]  # v2
        np.testing.assert_allclose(disp, df * 86e-6, rtol=1e-12)

    def test_out_of_range_rejected(self, layout):
        with pytest.raises(DomainError):
            deflection_to_displacement(layout, [15.5, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("mode", ["calibrated", "geometric"])
    def test_frequency_offset_inverts_the_map(self, layout, mode):
        layout = replace(layout, deflection_mode=mode)
        d = np.linspace(-1.0, 1.0, 41)[:, None] * max_displacement(layout)
        back = deflection_to_displacement(layout, frequency_offset(layout, d))
        for ch, col, back_col in zip(CHANNELS, d.T, back.T):
            for target, got in zip(col, back_col):
                assert got == pytest.approx(target, rel=1e-12, abs=0.0), (ch, target)

    @pytest.mark.parametrize("mode", ["calibrated", "geometric"])
    def test_frequency_offset_past_the_range_rejected(self, layout, mode):
        layout = replace(layout, deflection_mode=mode)
        d = 1.001 * max_displacement(layout)[0]  # h1
        with pytest.raises(DomainError, match="unreachable"):
            frequency_offset(layout, [d, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("mode", ["calibrated", "geometric"])
    def test_first_unreachable_entry_in_row_major_order_named(self, layout, mode):
        # row 1 is past the range on v2 and row 2 on h1 and v2: the error names
        # row 1's v2, the entry a loop over rows, then channels, meets first
        layout = replace(layout, deflection_mode=mode)
        reach = max_displacement(layout)
        drive = np.zeros((3, 4))
        drive[1, 3] = -1.5 * reach[3]
        drive[2, [0, 3]] = 2.0 * reach[[0, 3]]
        with pytest.raises(DomainError, match=re.escape(f"displacement {drive[1, 3] * 1e6:.1f} um on v2 needs")):
            frequency_offset(layout, drive)

    def test_range_must_be_positive(self, layout):
        for mhz in (0.0, -1.0):
            with pytest.raises(DomainError, match="aod_freq_range_mhz"):
                replace(layout, aod_freq_range_mhz=mhz)


def closest_approach(beam_a: AstigmaticBeam, beam_b: AstigmaticBeam) -> tuple[float, np.ndarray]:
    """Minimum distance between two beam axes and the midpoint of the connecting segment."""
    d1, d2 = beam_a.direction, beam_b.direction
    w0 = beam_a.origin - beam_b.origin
    a, b, c = d1 @ d1, d1 @ d2, d2 @ d2
    d, e = d1 @ w0, d2 @ w0
    denom = a * c - b * b
    assert abs(denom) > 1e-18, "beam axes are parallel"
    p1 = beam_a.origin + (b * e - c * d) / denom * d1
    p2 = beam_b.origin + (a * e - b * d) / denom * d2
    return float(np.linalg.norm(p1 - p2)), 0.5 * (p1 + p2)


class TestBeamlines:
    def test_zero_offsets_intersect_at_origin(self, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair)
        gap, point = closest_approach(b1, b2)
        assert gap < 1e-9
        assert np.linalg.norm(point) < 1e-9

    def test_single_horizontal_offset_diamond_mapping(self, layout, input_pair):
        # H1 = +86 um: the in-plane crossing shifts per the diamond map; the
        # axes stay coplanar, so their closest approach remains zero.
        b1, b2 = build_beamlines(layout, input_pair, (86e-6, 0.0, 0.0, 0.0))
        gap, point = closest_approach(b1, b2)
        assert gap < 1e-12
        expected = crossing_from_offsets(layout, 86e-6, 0.0, 0.0)
        np.testing.assert_allclose(point, expected, atol=1e-12)
        s, c = math.sin(layout.half_angle), math.cos(layout.half_angle)
        assert point[0] == pytest.approx(-86e-6 / (2 * s))
        assert point[1] == pytest.approx(86e-6 / (2 * c))

    def test_common_vertical_offset_translates_crossing(self, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair, (0.0, 86e-6, 0.0, 86e-6))
        gap, point = closest_approach(b1, b2)
        assert gap < 1e-12
        np.testing.assert_allclose(point, [0.0, 0.0, 86e-6], atol=1e-12)

    def test_unequal_vertical_offsets_are_skew(self, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair, (0.0, 50e-6, 0.0, -50e-6))
        gap, _ = closest_approach(b1, b2)
        assert gap > 10e-6

    def test_offsets_out_of_range_rejected(self, layout, input_pair):
        with pytest.raises(DomainError):
            build_beamlines(layout, input_pair, (2e-3, 0.0, 0.0, 0.0))

    def test_offsets_from_crossing_round_trip(self, layout):
        targets = np.array([[120e-6, -340e-6, 210e-6], [-80e-6, 0.0, 35e-6]])
        h1, v1, h2, v2 = offsets_from_crossing(layout, targets).T
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_allclose(
            crossing_from_offsets(layout, h1, h2, v1), targets, atol=1e-15
        )

    def test_opposite_spot_scaling(self, layout, input_pair):
        b1, b2 = build_beamlines(layout, input_pair, (400e-6, 0.0, 400e-6, 0.0))
        b1_ref, _ = build_beamlines(layout, input_pair)
        assert b1.waist_h > b1_ref.waist_h  # beam 1 grows
        assert b2.waist_h < b1_ref.waist_h  # beam 2 shrinks


class TestLayoutInvariants:
    def test_crossing_angle_consistency_enforced(self):
        with pytest.raises(DomainError):
            OpticalLayout(beam_separation=40e-3)

    def test_default_layout_valid(self):
        OpticalLayout()

    def test_throughput_bounds(self):
        with pytest.raises(DomainError):
            OpticalLayout(power_throughput=1.2)
