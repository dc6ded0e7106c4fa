import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codtsim.constants import BOLTZMANN, PhysicalConstants
from codtsim.errors import DomainError, ModelValidityError
from codtsim.optics import AstigmaticBeam
from codtsim import trapchar
from codtsim.potential import DipolePotential, beam_records, beams_to_records, static_potential
from codtsim.trapchar import (
    FAR_FIELD_RATIO,
    FAR_FIELD_RAYLEIGH_RANGES,
    NEAR_FIELD_WAISTS,
    TrapReport,
    _intensity_ceiling,
    _ray_barrier,
    characterize,
    characterize_batch,
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
        assert report.frequencies[0] == pytest.approx([f_bowl] * 3, rel=1e-9, abs=0)
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
        [(f1, f2, f3)] = report.frequencies
        assert f1 == pytest.approx(f_axial, rel=0.01)
        assert f2 == pytest.approx(f_radial, rel=0.01)
        assert f3 == pytest.approx(f_radial, rel=0.01)

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
        assert report.frequencies[0] == pytest.approx(expected, rel=1e-9, abs=0)
        assert report.depth_peak == pytest.approx(u1 + u2, rel=1e-9, abs=0)
        axes = np.eye(3)[np.argsort(curvature)]
        np.testing.assert_allclose(np.abs(report.principal_axes[0]), axes, atol=1e-12)
        # U rises monotonically along every axis to its asymptote 0 far past
        # the box edge: no ray escapes, so the escape depth is U1 + U2 too
        assert report.depth_escape == pytest.approx(u1 + u2, rel=1e-9, abs=0)

    def test_seeded_ripple_well_keeps_its_report(self, layout, input_pair):
        # a 230 um line paint sampled at 64 phases is a ripple of wells; the one
        # at the seed is reported, and its escape depth is the lowest barrier
        # it spills over toward a deeper well, as the scalar scan finds it
        from codtsim.painting import line_paint
        from codtsim.potential import _merge_records, _phase_records

        wf = line_paint(layout, 230.0 * 1e-6)
        pot = DipolePotential(RB, _merge_records(_phase_records(layout, input_pair, wf, 64)))
        report = characterize(pot, np.zeros(3))
        assert report.valid
        assert np.linalg.norm(report.minimum_position) < 1e-6
        [x0] = report.minimum_position
        u0 = pot.at(x0)
        step = max(10 * pot.records[:, 12:14].min() / 50, 2e-6)
        rays = np.concatenate([report.principal_axes[0], np.unique(pot.records[:, 3:6], axis=0)])
        ref = [_ray_barrier_reference(pot, x0, u0, d, step) for d in np.concatenate([rays, -rays])]
        assert any(escaped for _, escaped in ref)
        barrier = min(b for b, _ in ref)
        assert report.depth_escape == pytest.approx(barrier - u0, rel=1e-12, abs=0)
        # 14.27 of the 397.3 uK peak-to-min depth, the minimum at x = 0.51 um
        assert report.columns()["depth_uK"][0] == pytest.approx(14.27, abs=0.01)

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
                points.append(np.asarray(p).size // 3)  # over all items of a batch
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
        assert report.gradient_norm * 10.5e-6 < 1e-12 * report.depth_peak  # |grad U| at rounding level

        # a 128-phase line paint carries ~150 records; its scan ran to 16,246 points
        wf = line_paint(layout, 230.0 * 1e-6)
        painted = time_averaged_potential(RB, layout, input_pair, wf)
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
        assert r_strong.depth_escape == pytest.approx(4 * r_weak.depth_escape, rel=5e-3, abs=0)
        np.testing.assert_allclose(r_strong.frequencies, 2 * r_weak.frequencies, rtol=5e-3)

    def test_depth_conventions_ordering(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        assert report.depth_peak >= report.depth_escape > 0

    def test_gravity_opens_weak_trap(self, layout):
        from codtsim.optics import InputBeam

        constants = PhysicalConstants(gravity=9.81)
        feeble = (InputBeam(power=1e-4), InputBeam(power=1e-4))
        report = characterize_crossed_trap(constants, layout, feeble)
        assert not report.valid

    def test_flat_potential_invalid_trough_valid(self):
        flat = characterize(static_potential(RB, [stigmatic_beam(power=0.0)]), np.zeros(3))
        assert not flat.valid[0] and "curvature" in flat.reason[0]

        # one nearly flat direction, like the long axis of a line-painted trap,
        # stays a trap: a beam with a 1 m Rayleigh range is a long cylinder
        beam = stigmatic_beam()
        records = beams_to_records([beam])
        records[:, 16:18] = 1.0
        pot = DipolePotential(RB, records)
        report = characterize(pot, np.zeros(3))
        assert report.valid
        u0 = -pot.at(np.zeros(3))
        f_radial = math.sqrt(4 * u0 / (RB.atom_mass * beam.waist_h**2)) / (2 * math.pi)
        [(f1, *radial)] = report.frequencies
        np.testing.assert_allclose(radial, f_radial, rtol=1e-6)
        assert f1 < 1e-3 * f_radial

    def test_saddle_point_detected(self):
        # two parallel beams 16 um apart: across them the origin is a maximum
        # a saddle is reported invalid, like the other failed searches
        beams = [replace(stigmatic_beam(), origin=np.array([0.0, y, 0.0])) for y in (8e-6, -8e-6)]
        report = characterize(static_potential(RB, beams), np.zeros(3))
        assert report.valid.tolist() == [False]
        assert "saddle" in report.reason[0]


def _padded(records, n_records):
    """``records`` followed by zero-power copies of its last record, ``n_records`` in all."""
    pad = np.repeat(records[-1:], n_records - len(records), axis=0)
    pad[:, 18] = 0.0
    return np.concatenate([records, pad])


class TestBatch:
    @pytest.fixture(scope="class")
    def mixed(self, layout, input_pair):
        """Records and seeds of six traps, padded to one record count, and the reason each gives per gravity."""
        from codtsim.optics import InputBeam
        from codtsim.painting import line_paint
        from codtsim.potential import _merge_records, _phase_records

        crossed = beam_records(layout, input_pair, np.zeros(4))[0]
        feeble = beam_records(layout, (InputBeam(power=1e-4),) * 2, np.zeros(4))[0]
        parallel = [replace(stigmatic_beam(), origin=np.array([0.0, y, 0.0])) for y in (8e-6, -8e-6)]
        parallel = beams_to_records(parallel)
        flat = beams_to_records([stigmatic_beam(power=0.0)])
        comb = _merge_records(_phase_records(layout, input_pair, line_paint(layout, 230.0 * 1e-6), 64))
        midpoint = 0.5 * (crossed[0, 0:3] + crossed[1, 0:3])
        items = [
            # records, seed, reason at 0 g, reason at 9.81 m/s^2
            (crossed, midpoint, "", ""),
            (parallel, np.zeros(3), "saddle", "saddle"),
            (flat, np.zeros(3), "curvature", "no minimum"),
            (feeble, midpoint, "", "no minimum"),  # gravity opens it to the box
            (comb, np.zeros(3), "", ""),  # both comb seeds spill into a deeper well
            (comb, np.array([-100e-6, 0.0, 0.0]), "", ""),
        ]
        n_records = max(len(r) for r, *_ in items)
        records = np.array([_padded(r, n_records) for r, *_ in items])
        return records, np.array([seed for _, seed, *_ in items]), [(g0, g1) for *_, g0, g1 in items]

    @staticmethod
    def _assert_batch_equals_single(constants, records, seeds):
        """The items characterized one at a time, joined into one report; every batch order gives its columns."""
        alone = [characterize(DipolePotential(constants, r), seed) for r, seed in zip(records, seeds)]
        single = TrapReport(**{f.name: np.concatenate([getattr(r, f.name) for r in alone]) for f in fields(TrapReport)})
        order = np.random.default_rng(7).permutation(len(records))
        for perm in (np.arange(len(records)), order):  # a permuted batch permutes the items
            batch = characterize_batch(DipolePotential(constants, records[perm]), seeds[perm])
            for f in fields(batch):
                got, want = getattr(batch, f.name), getattr(single, f.name)[perm]
                assert got.dtype.kind == want.dtype.kind and np.array_equal(got, want), f.name
        return single

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_batch_equals_one_at_a_time(self, mixed, gravity):
        records, seeds, reasons = mixed
        constants = PhysicalConstants(gravity=gravity)
        single = self._assert_batch_equals_single(constants, records, seeds)
        for valid, reason, expected in zip(single.valid, single.reason, reasons):
            expected = expected[gravity != 0.0]
            assert valid == (expected == "") and expected in reason
        # unpadded pairs: consecutive escape scans share kernel calls
        pairs = np.concatenate([records[[0, 1, 3], :2], np.repeat(records[:1, :2], 4, axis=0)])
        pairs[3:, 1, 2] += np.array([2e-6, 4e-6, 6e-6, 8e-6])
        single = self._assert_batch_equals_single(constants, pairs, seeds[[0, 1, 3, 0, 0, 0, 0]])
        assert single.valid.sum() >= 5

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_report_fields_of_valid_and_invalid_items(self, mixed, gravity):
        records, seeds, _ = mixed
        report = characterize_batch(DipolePotential(PhysicalConstants(gravity=gravity), records), seeds)
        n, valid = len(seeds), report.valid
        assert set(valid.tolist()) == {True, False}
        assert np.array_equal(report.seed, seeds)
        assert report.newton_iterations.shape == (n,) and report.newton_iterations.dtype.kind == "i"
        assert np.all((0 <= report.newton_iterations) & (report.newton_iterations <= trapchar.MAX_NEWTON_ITER))
        assert report.gradient_norm.shape == (n,) and np.all(np.isfinite(report.gradient_norm))
        assert np.all((report.reason == "") == valid)
        assert np.all(report.depth_escape[~valid] == 0.0) and np.all(report.depth_peak[~valid] == 0.0)
        assert np.array_equal(report.frequencies[~valid], np.zeros((n - valid.sum(), 3)))
        assert np.array_equal(report.principal_axes[~valid], np.broadcast_to(np.eye(3), (n - valid.sum(), 3, 3)))
        # one entry per item in every artifact column, each a plain Python value as a CSV line takes it
        columns = {name: column.tolist() for name, column in report.columns().items()}
        assert all(len(column) == n for column in columns.values())
        assert columns["valid"] == valid.astype(int).tolist()
        for i in range(n):
            assert [type(c[i]) for c in columns.values()] == [int, str] + [float] * 9 + [int] + [float] * 4

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_columns_keep_the_per_item_arithmetic(self, mixed, layout, input_pair, gravity):
        # each item's mean frequency is Python's cube root of its product, and its
        # |grad U| numpy's norm of its own gradient: numpy's vector power and
        # norm(axis=1) round a few percent of items differently, which the
        # mixed batch alone may not show, so a 48-trap misalignment sweep joins it
        crossed = beam_records(layout, input_pair, np.zeros(4))[0]
        sweep = np.repeat(crossed[None], 48, axis=0)
        sweep[:, 1, 2] += np.linspace(-16e-6, 16e-6, 48)
        for records, seeds in (mixed[:2], (sweep, 0.5 * (sweep[:, 0, 0:3] + sweep[:, 1, 0:3]))):
            pot = DipolePotential(PhysicalConstants(gravity=gravity), records)
            report = characterize_batch(pot, seeds)
            _, grad, _ = (a[:, 0] for a in pot.derivatives(report.minimum_position[:, None, :]))
            for i, valid in enumerate(report.valid):
                mean = float(np.prod(report.frequencies[i])) ** (1 / 3) if valid else 0.0
                assert report.mean_frequency[i] == mean, i
                assert report.gradient_norm[i] == np.linalg.norm(grad[i]), i

    def test_one_newton_pass_and_one_escape_scan(self, mixed, monkeypatch):
        records, seeds, _ = mixed
        calls = []
        for name in ("_newton", "_ray_barrier"):
            real = getattr(trapchar, name)
            monkeypatch.setattr(trapchar, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        for gravity in (0.0, 9.81):
            calls.clear()
            characterize_batch(DipolePotential(PhysicalConstants(gravity=gravity), records), seeds)
            assert calls == ["_newton", "_ray_barrier"]

    def test_the_first_failing_item_raises(self, layout, input_pair):
        # a waist so small that the intensity overflows fails in Newton; a
        # 1 km waist next to a 10.5 um one fails the escape-scan length cap
        crossed = beam_records(layout, input_pair, np.zeros(4))[0]
        seed = 0.5 * (crossed[0, 0:3] + crossed[1, 0:3])
        overflow = crossed.copy()
        overflow[:, 12:14] = 1e-160
        wide = beams_to_records([stigmatic_beam(), stigmatic_beam(waist=1e3)])
        records = np.array([crossed, overflow, crossed, wide, overflow])
        seeds = np.array([seed, seed + 1e-6, seed, np.zeros(3), seed + 2e-6])
        cases = (([0, 1, 2, 3, 4], "not finite"), ([0, 3, 2, 1, 4], "samples per ray"), ([0, 4, 1], "not finite"))
        for order, message in cases:
            with pytest.raises(ModelValidityError, match=message) as batch_error:
                characterize_batch(DipolePotential(RB, records[order]), seeds[order])
            for i in order:  # one at a time, the first failing item raises
                try:
                    characterize(DipolePotential(RB, records[i]), seeds[i])
                except ModelValidityError as exc:
                    assert str(exc) == str(batch_error.value)
                    break
            else:
                pytest.fail("no item fails on its own")


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

    def test_zero_range_degenerates(self, layout):
        result = reachable_volume(layout, 0.0, 0.0)
        assert result["planar_area_mm2"] == 0.0
        assert result["prism_volume_mm3"] == 0.0


class TestThermoMetrics:
    def test_psd_reproduces_quoted_value(self):
        # N = 2e6, T = 20 uK and the implied 347 Hz mean frequency
        psd = phase_space_density(2e6, 20e-6, 347.0)
        assert psd == pytest.approx(1.15e-3, rel=0.05)

    def test_truncation_parameter(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        metrics = thermo_metrics(report, 2e6, 20e-6)
        eta = report.depth_escape / (BOLTZMANN * 20e-6)
        assert metrics.truncation_parameter == pytest.approx(eta)
        # 240 uK depth at 20 uK would give eta = 12
        assert 240e-6 * BOLTZMANN / (BOLTZMANN * 20e-6) == pytest.approx(12.0)

    def test_psd_linear_in_atom_number(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        m1 = thermo_metrics(report, 1e6, 20e-6)
        m2 = thermo_metrics(report, 2e6, 20e-6)
        assert m2.psd == pytest.approx(2 * m1.psd, rel=1e-12)

    def test_invalid_report_rejected(self, layout, input_pair):
        report = characterize_crossed_trap(RB, layout, input_pair)
        report.valid[0] = False
        with pytest.raises(DomainError):
            thermo_metrics(report, 1e6, 20e-6)


class TestMisalignment:
    def test_zero_offset_ratio_is_one(self, layout, input_pair):
        columns = misalignment_sweep(RB, layout, input_pair, [0.0])
        assert list(columns) == ["offset_um", "depth_ratio"] and columns["offset_um"].tolist() == [0.0]
        [ratio] = columns["depth_ratio"]
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_even_and_non_increasing(self, layout, input_pair):
        offsets = np.array([-8e-6, -4e-6, 0.0, 4e-6, 8e-6])
        ratios = misalignment_sweep(RB, layout, input_pair, offsets)["depth_ratio"]
        np.testing.assert_allclose(ratios, ratios[::-1], rtol=1e-6)
        upper = ratios[2:]
        assert np.all(np.diff(upper) < 0)
        assert ratios[2] == pytest.approx(1.0, abs=1e-9)


def _ray_barrier_reference(f, x0, u0, direction, step):
    """One ray at a time with a Python running maximum.

    The ray takes ``step`` steps out to the near field (the farthest record
    origin plus a few waists), then geometric steps out to many Rayleigh
    ranges past the farthest focus, or, when it falls, on to where gravity
    alone lies below the escape level.  Returns the barrier and whether the
    ray escaped.
    """
    rec = f.records
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
    barrier = u0
    for v in f(pts):
        barrier = max(barrier, float(v))
        if v < escape_level:
            return barrier, True
    # U far out along a ray that never escaped: m g z0 when level, +inf when rising
    asymptote = {1.0: np.inf, 0.0: mg * x0[2], -1.0: -np.inf}[float(np.sign(mg * d[2]))]
    return max(barrier, asymptote), False


def _scan(pot, x0, u0, directions, step):
    """The escape scan of one potential, as the batch of one of ``_ray_barrier``."""
    directions = np.asarray(directions, dtype=float)
    barriers, failures = _ray_barrier(
        DipolePotential(pot.constants, pot.records[None]), np.asarray(x0, dtype=float)[None], np.array([u0]),
        directions, np.zeros(len(directions), dtype=np.intp), np.array([step]),
    )
    assert failures == {}
    return barriers


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(1, 4),
    cut=st.floats(0.0, 2e-3),
    gravity=st.sampled_from([0.0, 9.81]),
    aim=st.sampled_from(["random", "along the first beam", "through the last focus"]),
)
def test_potential_floor_holds_past_the_cut(seed, n_records, cut, gravity, aim):
    # the lower bound on U at a cut distance is never above U past it: at
    # random distances, and where the ray comes closest to each beam axis or
    # crosses each focus, where a record's own bound is tightest.  Each ray
    # starts next to the first beam's axis
    from codtsim import kernels

    rng = np.random.default_rng(seed)
    frames = np.linalg.qr(rng.normal(size=(n_records, 3, 3)))[0].transpose(0, 2, 1)  # rows: direction, h, v
    records = np.zeros((n_records, 19))
    records[:, 0:3] = rng.uniform(-1e-3, 1e-3, (n_records, 3))
    records[:, 3:12] = frames.reshape(n_records, 9)
    records[:, 12:14] = rng.uniform(5e-6, 50e-6, (n_records, 2))
    records[:, 14:16] = rng.uniform(-1e-3, 1e-3, (n_records, 2))
    records[:, 16:18] = math.pi * records[:, 12:14] ** 2 / rng.uniform(0.5e-6, 2e-6, (n_records, 1))
    records[:, 18] = rng.uniform(0.0, 5.0, n_records)
    x0 = records[0, 0:3] + rng.uniform(-2e-3, 2e-3) * frames[0, 0] + rng.uniform(-20e-6, 20e-6, 2) @ frames[0, 1:]
    if aim == "random":
        d = rng.normal(size=3)
    elif aim == "along the first beam":
        d = frames[0, 0] * rng.choice([-1.0, 1.0])
    else:
        d = records[-1, 0:3] + records[-1, rng.integers(14, 16)] * frames[-1, 0] - x0
    d = d / np.linalg.norm(d)
    if gravity and d[2] < 0:  # the cut leaves falling rays alone
        d = -d
    lab = PhysicalConstants(gravity=gravity)
    mg, c = lab.atom_mass * gravity, lab.dipole_coefficient

    start = np.einsum("rj,raj->ra", x0 - records[:, 0:3], frames)  # (zeta, xi, nu) at x0
    rate = frames @ d
    with np.errstate(divide="ignore", invalid="ignore"):
        closest = -(start[:, 1:] * rate[:, 1:]).sum(axis=1) / (rate[:, 1:] ** 2).sum(axis=1)
        foci = (records[:, 14:16] - start[:, :1]) / rate[:, :1]
    t = np.concatenate([closest, foci.ravel(), cut + rng.exponential(1e-3, 16)])
    t = np.maximum(cut, t[np.isfinite(t)])
    pts = x0 + t[:, None] * d
    u = -c * kernels.intensity_sum(pts, records) + mg * pts[:, 2]

    ceiling = c * _intensity_ceiling(records[None], x0[None], d[None], np.array([[cut]]))[0, 0]
    gravity_at_cut = mg * (x0[2] + cut * d[2])
    floor = gravity_at_cut - ceiling
    assert np.all(floor - 1e-9 * (abs(gravity_at_cut) + ceiling) <= u), (floor, u.min())


class TestRayBarrier:
    def _check(self, pot, layout, x0, step):
        directions = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
        directions += [s * layout.beam_direction(i) for i in (1, 2) for s in (1.0, -1.0)]
        u0 = pot.at(x0)
        got = _scan(pot, x0, u0, directions, step)
        ref = [_ray_barrier_reference(pot, x0, u0, d, step) for d in directions]
        np.testing.assert_allclose(got, [b for b, _ in ref], rtol=1e-12, atol=0)
        return [escaped for _, escaped in ref]

    def test_painted_trap_matches_scalar_scan(self, layout, input_pair):
        from codtsim.painting import line_paint
        from codtsim.potential import _merge_records, _phase_records

        wf = line_paint(layout, 230.0 * 1e-6)
        pot = DipolePotential(RB, _merge_records(_phase_records(layout, input_pair, wf, 64)))
        self._check(pot, layout, np.zeros(3), 2e-6)

    def test_escape_under_gravity_matches_scalar_scan(self, layout):
        from codtsim.optics import InputBeam, build_beamlines

        lab = PhysicalConstants(gravity=9.81)
        pot = static_potential(lab, build_beamlines(layout, (InputBeam(power=0.05),) * 2))
        # 3 um below the minimum: +z escapes at its first sample, -z over the tilted barrier
        escaped = self._check(pot, layout, np.array([0.0, 0.0, -3e-6]), 2e-6)
        assert any(escaped) and not all(escaped)

    def test_level_rays_end_at_their_asymptote(self, layout, input_pair):
        # at zero gravity U < 0 everywhere and tends to 0 far from the beams:
        # no ray escapes, and every barrier is the asymptote 0
        from codtsim.potential import beam_records

        pot = DipolePotential(RB, beam_records(layout, input_pair, np.zeros(4))[0])
        x0 = np.array([1e-6, 0.0, 0.0])
        escaped = self._check(pot, layout, x0, 2e-6)
        assert not any(escaped)
        barriers = _scan(pot, x0, pot.at(x0), np.eye(3), 2e-6)
        assert np.all(barriers == 0.0)

    def test_ray_table_skips_a_failed_item_inside_a_kernel_group(self, layout, input_pair, monkeypatch):
        # items with 3, 4 and 2 rays; the middle one (a 1 km waist next to a
        # 10.5 um one) takes more than MAX_RAY_SAMPLES per ray, and its
        # neighbours still share one kernel call without it
        from codtsim import kernels

        crossed = beam_records(layout, input_pair, np.zeros(4))[0]
        moved = crossed.copy()
        moved[1, 2] += 2e-6
        wide = beams_to_records([stigmatic_beam(), stigmatic_beam(waist=1e3)])
        records = np.array([crossed, wide, moved])
        x0 = 0.5 * (records[:, 0, 0:3] + records[:, 1, 0:3])
        pots = [DipolePotential(RB, r) for r in records]
        u0 = np.array([p.at(x) for p, x in zip(pots, x0)])
        arms = [layout.beam_direction(i) for i in (1, 2)]
        rays = np.concatenate([np.eye(3), np.random.default_rng(5).normal(size=(4, 3)), arms])
        owner = np.repeat([0, 1, 2], [3, 4, 2])
        shapes = []
        real = kernels.intensity_sum
        monkeypatch.setattr(kernels, "intensity_sum", lambda p, r: shapes.append(np.shape(p)) or real(p, r))
        barriers, failures = _ray_barrier(DipolePotential(RB, records), x0, u0, rays, owner, np.full(3, 2e-6))
        assert list(failures) == [1] and "samples per ray" in failures[1]
        assert len(shapes) == 1 and shapes[0][0] == 2, shapes  # one call, the two good items
        assert np.isnan(barriers[owner == 1]).all()
        for i in (0, 2):
            ref = [_ray_barrier_reference(pots[i], x0[i], u0[i], d, 2e-6)[0] for d in rays[owner == i]]
            np.testing.assert_allclose(barriers[owner == i], ref, rtol=1e-12, atol=0)

    @staticmethod
    def _kept(monkeypatch, x0):
        """Scan points per kernel call from here on, the padding (copies of ``x0``) left out."""
        from codtsim import kernels

        kept = []
        real = kernels.intensity_sum
        monkeypatch.setattr(
            kernels, "intensity_sum", lambda p, r: kept.append(int((np.reshape(p, (-1, 3)) != x0).any(axis=1).sum())) or real(p, r)
        )
        return kept

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_rays_cut_at_their_first_sample_get_their_asymptote(self, layout, input_pair, gravity, monkeypatch):
        # from the crossed trap's minimum the bound already holds at the first
        # sample of these rays: no kernel call, and each barrier is the
        # asymptote, 0 at 0 g; m g z0 on the level -x ray and +inf on the
        # rising +z ray at 1 g
        lab = PhysicalConstants(gravity=gravity)
        pot = DipolePotential(lab, beam_records(layout, input_pair, np.zeros(4))[0])
        [x0] = characterize_crossed_trap(lab, layout, input_pair).minimum_position
        u0 = pot.at(x0)
        directions = [-np.eye(3)[0], np.eye(3)[2], -layout.beam_direction(1)]
        ref = [_ray_barrier_reference(pot, x0, u0, d, 2e-6) for d in directions]
        kept = self._kept(monkeypatch, x0)
        got = _scan(pot, x0, u0, directions, 2e-6)
        assert kept == []
        assert not any(escaped for _, escaped in ref)
        np.testing.assert_allclose(got, [b for b, _ in ref], rtol=1e-12, atol=0)
        mgz = lab.atom_mass * gravity * x0[2]
        assert list(got) == [mgz, np.inf if gravity else 0.0, mgz]

    def test_ray_escapes_before_its_cut(self, layout, input_pair, monkeypatch):
        # 3 um below the crossing at 0 g the +z ray escapes over the barrier
        # at its first sample; the cut keeps a few samples, not its ~160
        from codtsim.trapchar import _sample_distances

        pot = DipolePotential(RB, beam_records(layout, input_pair, np.zeros(4))[0])
        x0 = characterize_crossed_trap(RB, layout, input_pair).minimum_position[0] - [0.0, 0.0, 3e-6]
        u0 = pot.at(x0)
        barrier, escaped = _ray_barrier_reference(pot, x0, u0, np.eye(3)[2], 2e-6)
        kept = self._kept(monkeypatch, x0)
        got = _scan(pot, x0, u0, [np.eye(3)[2]], 2e-6)
        assert escaped and barrier == u0
        assert len(kept) == 1 and 1 <= kept[0] <= 8, kept
        np.testing.assert_allclose(got, [barrier], rtol=1e-12, atol=0)

    def test_items_of_at_most_one_sample_share_a_padded_call(self, layout, input_pair, monkeypatch):
        # items with rays keeping 1 + 0, 1 and 0 samples: one kernel call of
        # the first two, each padded to two points so that no block holds one
        from codtsim import kernels

        crossed = beam_records(layout, input_pair, np.zeros(4))[0]
        pot = DipolePotential(RB, crossed)
        [x] = characterize_crossed_trap(RB, layout, input_pair).minimum_position
        x0, u0 = np.repeat(x[None], 3, axis=0), np.full(3, pot.at(x))
        rays = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        owner = np.array([0, 0, 1, 2])
        shapes = []
        real = kernels.intensity_sum
        monkeypatch.setattr(kernels, "intensity_sum", lambda p, r: shapes.append(np.shape(p)) or real(p, r))
        barriers, failures = _ray_barrier(
            DipolePotential(RB, np.repeat(crossed[None], 3, axis=0)), x0, u0, rays, owner, np.full(3, 2e-6)
        )
        assert failures == {} and shapes == [(2, 2, 3)]
        ref = [_ray_barrier_reference(pot, x, u0[0], d, 2e-6)[0] for d in rays]
        np.testing.assert_allclose(barriers, ref, rtol=1e-12, atol=0)

    def test_no_kernel_block_holds_one_point(self, layout, input_pair, monkeypatch):
        # a scan longer than one kernel block is a call of its own; where its
        # last block would hold one point, which numpy hands to gemv rather
        # than gemm, it is padded by one, so the barriers do not move
        from codtsim import kernels

        lab = PhysicalConstants(gravity=9.81)
        pot = DipolePotential(lab, beam_records(layout, input_pair, np.zeros(4))[0])
        [x0] = characterize_crossed_trap(lab, layout, input_pair).minimum_position
        directions = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
        directions += [s * layout.beam_direction(i) for i in (1, 2) for s in (1.0, -1.0)]
        blocks = []
        real = kernels._intensity_chunk
        monkeypatch.setattr(kernels, "_intensity_chunk", lambda p, *a: blocks.append(p.shape[-2]) or real(p, *a))
        whole = _scan(pot, x0, pot.at(x0), directions, 2e-6)
        [points] = blocks[1:]  # after the call for U at x0
        blocks.clear()
        monkeypatch.setattr(kernels, "_CHUNK", (points - 1) * 2)
        split = _scan(pot, x0, pot.at(x0), directions, 2e-6)
        assert blocks[1:] == [points - 1, 2]
        assert np.array_equal(split, whole)

    @pytest.mark.parametrize("gravity, most", [(0.0, 250), (9.81, 2040)])
    def test_crossed_trap_scan_size(self, layout, input_pair, gravity, most, monkeypatch):
        # before the cut the scan took 1,571 points at 0 g and 2,040 at 1 g,
        # where the ray falling along -z keeps every sample
        from codtsim import kernels

        points = []
        real = kernels.intensity_sum
        monkeypatch.setattr(kernels, "intensity_sum", lambda p, r: points.append(np.size(p) // 3) or real(p, r))
        report = characterize_crossed_trap(PhysicalConstants(gravity=gravity), layout, input_pair)
        assert report.valid and len(points) == 2  # the scan, then the peak depth
        assert points[0] <= most, points

    def test_falling_ray_runs_on_until_gravity_alone_escapes(self, layout, input_pair):
        # in the 10 mK trap gravity alone needs ~10 cm to fall below the escape
        # level; along a beam arm tilted 1e-5 below level the fading beam
        # still lifts U past the 3 cm far-field end, so the scan runs on
        from codtsim.potential import beam_records

        lab = PhysicalConstants(gravity=9.81)
        pot = DipolePotential(lab, beam_records(layout, input_pair, np.zeros(4))[0])
        [x0] = characterize_crossed_trap(lab, layout, input_pair).minimum_position
        u0 = pot.at(x0)
        directions = [layout.beam_direction(1) - [0.0, 0.0, 1e-5], -np.eye(3)[2]]
        got = _scan(pot, x0, u0, directions, 2e-6)
        ref = [_ray_barrier_reference(pot, x0, u0, d, 2e-6) for d in directions]
        assert all(escaped for _, escaped in ref)
        np.testing.assert_allclose(got, [b for b, _ in ref], rtol=1e-12, atol=0)
