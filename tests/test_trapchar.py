import math
from dataclasses import replace

import numpy as np
import pytest

from codtsim.constants import PhysicalConstants
from codtsim.errors import DomainError
from codtsim.optics import AstigmaticBeam
from codtsim import trapchar
from codtsim.potential import DipolePotential, beam_records, beams_to_records, static_potential
from codtsim.trapchar import (
    FAR_FIELD_RATIO,
    FAR_FIELD_RAYLEIGH_RANGES,
    NEAR_FIELD_WAISTS,
    _ray_barrier,
    characterize,
    characterize_crossed_trap,
    misalignment_sweep,
    phase_space_density,
    reachable_volume,
    thermo_metrics,
)

RB = PhysicalConstants(gravity=0.0)


def stigmatic_beam(power=1.0, waist=10.5e-6):
    return AstigmaticBeam(
        power=power,
        wavelength=1.064e-6,
        waist_h=waist,
        waist_v=waist,
        focus_h=0.0,
        focus_v=0.0,
        origin=np.zeros(3),
        direction=np.array([1.0, 0.0, 0.0]),
    )


def stigmatic_potential(beams, points):
    """Closed-form U of stigmatic beams focused at their origins, J."""
    u = np.zeros(len(points))
    for b in beams:
        rel = points - b.origin
        zeta = rel @ b.direction
        r2 = np.sum(rel**2, axis=1) - zeta**2
        w2 = b.waist_h**2 * (1 + (zeta / b.rayleigh_h) ** 2)
        u -= RB.dipole_coefficient * 2 * b.power / (math.pi * w2) * np.exp(-2 * r2 / w2)
    return u


class TestCharacterize:
    def test_harmonic_bowl_identity(self):
        # three identical beams along x, y and z focused at the origin make an
        # isotropic bowl: per axis two beams curve across it (4 U/w^2 each) and
        # one along it (2 U/zR^2)
        base = stigmatic_beam(power=5.0, waist=100e-6)
        beams = [replace(base, direction=d) for d in np.eye(3)]
        u0 = RB.dipole_coefficient * 2 * base.power / (math.pi * base.waist_h**2)
        curvature = 8 * u0 / base.waist_h**2 + 2 * u0 / base.rayleigh_h**2
        f_bowl = math.sqrt(curvature / RB.atom_mass) / (2 * math.pi)
        report = characterize(static_potential(RB, beams), np.array([30e-6, -20e-6, 10e-6]))
        assert report.valid
        assert report.frequencies == pytest.approx([f_bowl] * 3, rel=1e-9, abs=0)
        assert np.linalg.norm(report.minimum_position) < 1e-12
        assert report.depth_peak == pytest.approx(3 * u0, rel=1e-9, abs=0)
        # U rises monotonically along every axis to its asymptote 0 far past
        # the search box: no ray escapes, so the escape depth is the whole bowl
        assert report.depth_escape == pytest.approx(3 * u0, rel=1e-9, abs=0)

    def test_single_beam_gaussian_trap_formulas(self):
        # radial omega = sqrt(4 U0/(m w^2)), axial omega = sqrt(2 U0/(m zR^2))
        beam = stigmatic_beam(power=1.0)
        pot = static_potential(RB, [beam])
        u0 = -pot.at(np.zeros(3))
        m = RB.atom_mass
        w = beam.waist_h
        zr = beam.rayleigh_h
        report = characterize(pot, np.array([2e-6, 1e-6, -1e-6]))
        f_radial = math.sqrt(4 * u0 / (m * w**2)) / (2 * math.pi)
        f_axial = math.sqrt(2 * u0 / (m * zr**2)) / (2 * math.pi)
        assert report.frequencies[0] == pytest.approx(f_axial, rel=0.01)
        assert report.frequencies[1] == pytest.approx(f_radial, rel=0.01)
        assert report.frequencies[2] == pytest.approx(f_radial, rel=0.01)

    def test_crossed_gaussian_closed_form_oracle(self):
        # two stigmatic beams crossing at 90 deg at their common focus, no window
        # or off-axis terms: per beam, curvature 4 U/w^2 across it and 2 U/zR^2
        # along it, summed per axis (Grimm, Weidemueller & Ovchinnikov,
        # Adv. At. Mol. Opt. Phys. 42, 95, 2000); peak depth U1 + U2
        b1 = stigmatic_beam(power=1.0, waist=10.5e-6)
        b2 = replace(stigmatic_beam(power=1.5, waist=14e-6), direction=np.array([0.0, 1.0, 0.0]))
        u1, u2 = (RB.dipole_coefficient * 2 * b.power / (math.pi * b.waist_h**2) for b in (b1, b2))
        curvature = np.array(
            [
                2 * u1 / b1.rayleigh_h**2 + 4 * u2 / b2.waist_h**2,
                4 * u1 / b1.waist_h**2 + 2 * u2 / b2.rayleigh_h**2,
                4 * u1 / b1.waist_h**2 + 4 * u2 / b2.waist_h**2,
            ]
        )
        expected = np.sort(np.sqrt(curvature / RB.atom_mass) / (2 * math.pi))
        report = characterize(static_potential(RB, [b1, b2]), np.array([1e-6, -2e-6, 0.5e-6]))
        assert report.valid
        assert np.linalg.norm(report.minimum_position) < 1e-12
        assert report.frequencies == pytest.approx(expected, rel=1e-9, abs=0)
        assert report.depth_peak == pytest.approx(u1 + u2, rel=1e-9, abs=0)
        axes = np.eye(3)[np.argsort(curvature)]
        np.testing.assert_allclose(np.abs(report.principal_axes), axes, atol=1e-12)
        # U rises monotonically along every axis to its asymptote 0 far past
        # the box edge: no ray escapes, so the escape depth is U1 + U2 too
        assert report.depth_escape == pytest.approx(u1 + u2, rel=1e-9, abs=0)

    def test_restarts_in_deeper_basin_the_escape_scan_finds(self, layout, input_pair):
        # a 230 um line paint sampled at 64 phases is a ripple of wells; the one
        # at the seed spills over a ~14 uK barrier into a well 1.3% deeper
        from codtsim.painting import line_paint
        from codtsim.potential import time_averaged_potential

        wf = line_paint(layout, 230.0 * 1e-6)
        pot = time_averaged_potential(RB, layout, input_pair, wf, 64)
        report = characterize(pot, np.zeros(3))
        assert report.valid and report.seeds_tried == 2
        assert pot.at(report.minimum_position) < 1.01 * pot.at(np.zeros(3))
        assert report.depth_escape > 0.9 * report.depth_peak

    def test_static_characterization_kernel_call_budget(self, layout, input_pair, monkeypatch):
        # Newton on closed-form derivatives: a few derivative calls, then one
        # escape scan and one peak-depth call; a finite-difference descent took ~90
        from codtsim import kernels
        from codtsim.painting import line_paint
        from codtsim.potential import time_averaged_potential

        calls, points = [], []
        for name in ("intensity_sum", "intensity_derivatives"):
            real = getattr(kernels, name)

            def counted(p, r, _f=real, _n=name):
                calls.append(_n)
                points.append(len(p))
                return _f(p, r)

            monkeypatch.setattr(kernels, name, counted)
        report = characterize_crossed_trap(RB, layout, input_pair)
        assert report.valid
        assert calls.count("intensity_sum") == 2
        # the escape scan ends each ray at its asymptote, not at the box edge
        # (15,629 points when every ray ran out to the box at the scan step)
        scans = [n for n, call in zip(points, calls) if call == "intensity_sum"]
        assert scans[0] <= 4000, scans
        assert len(calls) <= 12, calls
        # one derivative call at the seed and one per Newton step: no step backtracked
        assert calls.count("intensity_derivatives") == report.newton_iterations + 1
        assert report.seeds_tried == 1
        assert report.gradient_norm * 10.5e-6 < 1e-12 * report.depth_peak  # |grad U| at rounding level

        # a 128-phase line paint carries ~150 records; its scan ran to 16,246 points
        wf = line_paint(layout, 230.0 * 1e-6)
        painted = time_averaged_potential(RB, layout, input_pair, wf, 128)
        calls.clear()
        points.clear()
        report = characterize(painted, np.zeros(3))
        assert report.valid
        scans = [n for n, call in zip(points, calls) if call == "intensity_sum"]
        assert len(scans) == 2 and scans[0] <= 4000, scans

    def test_hessian_symmetry(self, layout, input_pair):
        # the closed-form Hessian that characterize diagonalizes, on skew
        # displaced beams and at points off every symmetry plane
        from codtsim.optics import build_beamlines

        beams = build_beamlines(layout, input_pair, (40e-6, -20e-6, 10e-6, 30e-6))
        pot = static_potential(PhysicalConstants(gravity=9.81), beams)
        pts = np.random.default_rng(3).normal(scale=8e-6, size=(5, 3))
        for h in pot.derivatives(pts)[2]:
            assert np.max(np.abs(h - h.T)) <= 1e-6 * np.max(np.abs(h))

    def test_static_trap_independent_of_seed_and_box(self, layout, input_pair, monkeypatch):
        records = beam_records(layout, input_pair, np.zeros(4))[0]
        seed = np.array([3e-6, -2e-6, 4e-6])
        wide_box = tuple(2 * h for h in trapchar.SEARCH_HALF_EXTENTS)
        for constants in (RB, PhysicalConstants(gravity=9.81)):
            ref = characterize_crossed_trap(constants, layout, input_pair)
            if constants.gravity:  # a falling ray escapes a little below the level asymptote
                assert ref.depth_escape < ref.depth_peak
            else:  # no ray escapes: the level rays end at their asymptote
                assert ref.depth_escape == ref.depth_peak
            from_seed = characterize(DipolePotential(constants, records), seed)
            with monkeypatch.context() as m:
                m.setattr(trapchar, "SEARCH_HALF_EXTENTS", wide_box)
                in_wide_box = characterize_crossed_trap(constants, layout, input_pair)
            for report in (from_seed, in_wide_box):
                assert report.valid
                assert report.frequencies == pytest.approx(ref.frequencies, rel=1e-9, abs=0)
                assert report.depth_peak == pytest.approx(ref.depth_peak, rel=1e-9, abs=0)
                assert report.depth_escape == pytest.approx(ref.depth_escape, rel=1e-9, abs=0)
                shift = np.linalg.norm(report.minimum_position - ref.minimum_position)
                assert shift <= 1e-9 * np.linalg.norm(ref.minimum_position)

    def test_power_scaling_of_depth_and_frequencies(self, layout):
        from codtsim.optics import InputBeam

        weak = (InputBeam(power=2.0), InputBeam(power=2.0))
        strong = (InputBeam(power=8.0), InputBeam(power=8.0))
        r_weak = characterize_crossed_trap(RB, layout, weak)
        r_strong = characterize_crossed_trap(RB, layout, strong)
        assert r_strong.depth == pytest.approx(4 * r_weak.depth, rel=5e-3, abs=0)
        np.testing.assert_allclose(r_strong.frequencies, 2 * r_weak.frequencies, rtol=5e-3)

    def test_depth_conventions_ordering(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        assert report.depth_peak >= report.depth_escape > 0
        # depth is the escape-saddle one
        assert report.depth == report.depth_escape
        with pytest.raises(DomainError):
            report.depth_uk("bogus")

    def test_gravity_opens_weak_trap(self, layout):
        from codtsim.optics import InputBeam

        constants = PhysicalConstants(gravity=9.81)
        feeble = (InputBeam(power=1e-4), InputBeam(power=1e-4))
        report = characterize_crossed_trap(constants, layout, feeble)
        assert not report.valid

    def test_flat_potential_invalid_trough_valid(self):
        flat = characterize(static_potential(RB, [stigmatic_beam(power=0.0)]), np.zeros(3))
        assert not flat.valid and "curvature" in flat.reason

        # one flat direction, like the long axis of a line-painted trap, stays
        # a trap: a beam with an infinite Rayleigh range is a uniform cylinder
        beam = stigmatic_beam()
        records = beams_to_records([beam])
        records[:, 16:18] = np.inf
        pot = DipolePotential(RB, records)
        report = characterize(pot, np.zeros(3))
        assert report.valid
        assert report.frequencies[0] == 0.0
        u0 = -pot.at(np.zeros(3))
        f_radial = math.sqrt(4 * u0 / (RB.atom_mass * beam.waist_h**2)) / (2 * math.pi)
        np.testing.assert_allclose(report.frequencies[1:], f_radial, rtol=1e-6)

    def test_saddle_point_detected(self):
        # two parallel beams 16 um apart: across them the origin is a maximum
        # a saddle is reported invalid, like the other failed searches
        beams = [replace(stigmatic_beam(), origin=np.array([0.0, y, 0.0])) for y in (8e-6, -8e-6)]
        report = characterize(static_potential(RB, beams), np.zeros(3))
        assert report.valid is False
        assert "saddle" in report.reason


class TestReachableVolume:
    def test_vertical_span_exact(self, layout):
        result = reachable_volume(layout, 1.38e-3, 1.32e-3)
        assert result["vertical_span_mm"] == pytest.approx(2.64, abs=1e-12)

    def test_diamond_area_from_intersection_oracle(self, layout):
        # brute-force oracle: the convex hull of crossings enumerated over a
        # grid of per-beam offsets, vertices at (+/-A/sin a, 0), (0, +/-A/cos a)
        from scipy.spatial import ConvexHull

        from codtsim.optics import crossing_from_offsets

        result = reachable_volume(layout, 1.38e-3, 1.32e-3)
        a = 1.38e-3
        s, c = math.sin(layout.half_angle), math.cos(layout.half_angle)
        offsets = np.linspace(-a, a, 41)
        h1, h2 = (g.ravel() for g in np.meshgrid(offsets, offsets, indexing="ij"))
        crossings = crossing_from_offsets(layout, h1, h2, 0.0 * h1)[:, :2]
        hull = ConvexHull(crossings)
        assert result["planar_area_mm2"] == pytest.approx(hull.volume * 1e6, rel=1e-12, abs=0)
        np.testing.assert_allclose(result["hull_points_mm"], crossings[hull.vertices] * 1e3, rtol=1e-12)
        expected_mm2 = 2 * (a / s) * (a / c) * 1e6
        assert result["planar_area_mm2"] == pytest.approx(expected_mm2, rel=1e-3)
        assert result["planar_area_mm2"] == pytest.approx(15.2, rel=0.01)
        assert result["prism_volume_mm3"] == pytest.approx(result["planar_area_mm2"] * 2.64, rel=1e-9)
        assert result["hull_volume_mm3"] == pytest.approx(result["prism_volume_mm3"], rel=1e-6)

    def test_zero_range_degenerates(self, layout):
        result = reachable_volume(layout, 0.0, 0.0)
        assert result["planar_area_mm2"] == 0.0
        assert result["prism_volume_mm3"] == 0.0


class TestThermoMetrics:
    def test_psd_reproduces_quoted_value(self):
        # N = 2e6, T = 20 uK and the implied 347 Hz mean frequency
        psd = phase_space_density(2e6, 20e-6, 347.0, RB)
        assert psd == pytest.approx(1.15e-3, rel=0.05)

    def test_truncation_parameter(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        metrics = thermo_metrics(report, 2e6, 20e-6)
        eta = report.depth / (RB.boltzmann * 20e-6)
        assert metrics.truncation_parameter == pytest.approx(eta)
        # 240 uK depth at 20 uK would give eta = 12
        assert 240e-6 * RB.boltzmann / (RB.boltzmann * 20e-6) == pytest.approx(12.0)

    def test_psd_linear_in_atom_number(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        m1 = thermo_metrics(report, 1e6, 20e-6)
        m2 = thermo_metrics(report, 2e6, 20e-6)
        assert m2.psd == pytest.approx(2 * m1.psd, rel=1e-12)

    def test_invalid_report_rejected(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        object.__setattr__ if False else setattr(report, "valid", False)
        with pytest.raises(DomainError):
            thermo_metrics(report, 1e6, 20e-6)


class TestMisalignment:
    def test_zero_offset_ratio_is_one(self, layout, input_pair):
        [row] = misalignment_sweep(RB, layout, input_pair, [0.0])
        assert row["depth_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_even_and_non_increasing(self, layout, input_pair):
        offsets = np.array([-8e-6, -4e-6, 0.0, 4e-6, 8e-6])
        rows = misalignment_sweep(RB, layout, input_pair, offsets)
        ratios = np.array([r["depth_ratio"] for r in rows])
        np.testing.assert_allclose(ratios, ratios[::-1], rtol=1e-6)
        upper = ratios[2:]
        assert np.all(np.diff(upper) < 0)
        assert ratios[2] == pytest.approx(1.0, abs=1e-9)


def _ray_barrier_reference(f, x0, u0, direction, domain, step):
    """One ray at a time with a Python running maximum.

    The ray takes ``step`` steps out to the near field (the farthest record
    origin plus a few waists), then geometric steps out to many Rayleigh
    ranges past the farthest focus, or, when it falls, on to where gravity
    alone lies below the escape level.  Returns the barrier, whether the
    ray escaped, and the ray's lowest sample value inside the domain.
    """
    rec = f.records
    center, half = domain
    d = direction / np.linalg.norm(direction)
    escape_level = u0 - 1e-2 * abs(u0)
    mg = f.constants.atom_mass * f.constants.gravity
    near = max(np.linalg.norm(r[0:3] - x0) for r in rec) + NEAR_FIELD_WAISTS * rec[:, 12:14].max()
    foci = [r[0:3] + focus * r[3:6] for r in rec for focus in r[14:16]]
    end = max(np.linalg.norm(p - x0) for p in foci) + FAR_FIELD_RAYLEIGH_RANGES * rec[:, 16:18].max()
    if mg * d[2] < 0:  # gravity alone is at the escape level half way to the end
        end = max(end, 2 * (escape_level - mg * x0[2]) / (mg * d[2]))
    ts = list(np.arange(step, near + step, step))
    while ts[-1] < end:
        ts.append(ts[-1] * FAR_FIELD_RATIO)
    ts[-1] = min(ts[-1], end)
    pts = x0[None, :] + np.array(ts)[:, None] * d[None, :]
    vals = f(pts)
    inside = np.all(np.abs(pts - center) <= half, axis=1)
    lowest = float(vals[inside].min()) if inside.any() else np.inf
    barrier = u0
    for v in vals:
        barrier = max(barrier, float(v))
        if v < escape_level:
            return barrier, True, lowest
    # U far out along a ray that never escaped: m g z0 when level, +inf when rising
    asymptote = {1.0: np.inf, 0.0: mg * x0[2], -1.0: -np.inf}[float(np.sign(mg * d[2]))]
    return max(barrier, asymptote), False, lowest


class TestRayBarrier:
    def _check(self, pot, layout, x0, domain, step):
        directions = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
        directions += [s * layout.beam_direction(i) for i in (1, 2) for s in (1.0, -1.0)]
        u0 = pot.at(x0)
        got, deeper = _ray_barrier(pot, x0, u0, directions, domain, step)
        ref = [_ray_barrier_reference(pot, x0, u0, d, domain, step) for d in directions]
        np.testing.assert_allclose(got, [b for b, _, _ in ref], rtol=1e-12, atol=0)
        # the deeper basin is the lowest sample of all rays, reported only below the escape level
        lowest = min(low for _, _, low in ref)
        if lowest < u0 - 1e-2 * abs(u0):
            assert pot.at(deeper) == pytest.approx(lowest, rel=1e-12, abs=0)
        else:
            assert deeper is None
        return [escaped for _, escaped, _ in ref]

    def test_painted_trap_matches_scalar_scan(self, layout, input_pair):
        from codtsim.painting import line_paint
        from codtsim.potential import time_averaged_potential

        wf = line_paint(layout, 230.0 * 1e-6)
        pot = time_averaged_potential(RB, layout, input_pair, wf, 64)
        domain = (np.zeros(3), np.array([4e-3, 690e-6, 1e-3]))
        self._check(pot, layout, np.zeros(3), domain, 2e-6)

    def test_escape_under_gravity_matches_scalar_scan(self, layout):
        from codtsim.optics import InputBeam, build_beamlines

        lab = PhysicalConstants(gravity=9.81)
        pot = static_potential(lab, build_beamlines(layout, (InputBeam(power=0.05),) * 2))
        # 3 um below the minimum: +z escapes at its first sample, -z over the tilted barrier
        domain = (np.zeros(3), np.array(trapchar.SEARCH_HALF_EXTENTS))
        escaped = self._check(pot, layout, np.array([0.0, 0.0, -3e-6]), domain, 2e-6)
        assert any(escaped) and not all(escaped)

    def test_level_rays_end_at_their_asymptote(self, layout, input_pair):
        # at zero gravity U < 0 everywhere and tends to 0 far from the beams:
        # no ray escapes, and every barrier is the asymptote 0 for any box
        from codtsim.potential import beam_records

        pot = DipolePotential(RB, beam_records(layout, input_pair, np.zeros(4))[0])
        x0 = np.array([1e-6, 0.0, 0.0])
        for half in (np.array(trapchar.SEARCH_HALF_EXTENTS), np.full(3, 50e-6)):
            escaped = self._check(pot, layout, x0, (np.zeros(3), half), 2e-6)
            assert not any(escaped)
            barriers, deeper = _ray_barrier(pot, x0, pot.at(x0), np.eye(3), (np.zeros(3), half), 2e-6)
            assert deeper is None and np.all(barriers == 0.0)

    def test_falling_ray_runs_on_until_gravity_alone_escapes(self, layout, input_pair):
        # in the 10 mK trap gravity alone needs ~10 cm to fall below the escape
        # level; along a beam arm tilted 1e-5 below level the fading beam
        # still lifts U past the 3 cm far-field end, so the scan runs on
        from codtsim.potential import beam_records

        lab = PhysicalConstants(gravity=9.81)
        pot = DipolePotential(lab, beam_records(layout, input_pair, np.zeros(4))[0])
        x0 = characterize_crossed_trap(lab, layout, input_pair).minimum_position
        u0 = pot.at(x0)
        domain = (np.zeros(3), np.array(trapchar.SEARCH_HALF_EXTENTS))
        directions = [layout.beam_direction(1) - [0.0, 0.0, 1e-5], -np.eye(3)[2]]
        got, deeper = _ray_barrier(pot, x0, u0, directions, domain, 2e-6)
        ref = [_ray_barrier_reference(pot, x0, u0, d, domain, 2e-6) for d in directions]
        assert all(escaped for _, escaped, _ in ref) and deeper is None
        np.testing.assert_allclose(got, [b for b, _, _ in ref], rtol=1e-12, atol=0)
