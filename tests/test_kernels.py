import numpy as np
import pytest

from codtsim import kernels
from codtsim.optics import beam_intensity, build_beamlines
from codtsim.potential import beams_to_records


@pytest.fixture(scope="module")
def beams():
    from codtsim.optics import InputBeam, OpticalLayout

    layout = OpticalLayout()
    return build_beamlines(layout, (InputBeam(), InputBeam()), (40e-6, -20e-6, 10e-6, 30e-6))


@pytest.fixture(scope="module")
def records(beams):
    return beams_to_records(beams)


def test_matches_per_beam_intensity(beams, records):
    # beam_intensity evaluates one beam from its fields, independently of the record layout
    rng = np.random.default_rng(12)
    pts = rng.normal(scale=50e-6, size=(500, 3))
    a = kernels.intensity_sum(pts, records)
    b = sum(beam_intensity(beam, pts) for beam in beams)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_record_shape_validated(records):
    with pytest.raises(ValueError):
        kernels.intensity_sum(np.zeros((2, 3)), np.zeros((1, 5)))


def test_chunked_numpy_path(records):
    # exceed one chunk to exercise the blocked evaluation
    old = kernels._CHUNK
    kernels._CHUNK = 64
    try:
        pts = np.random.default_rng(1).normal(scale=30e-6, size=(200, 3))
        a = kernels.intensity_sum(pts, records)
    finally:
        kernels._CHUNK = old
    b = kernels.intensity_sum(pts, records)
    np.testing.assert_allclose(a, b, rtol=0, atol=0)


def test_blocks_bounded_by_points_times_records(monkeypatch):
    from codtsim.constants import PhysicalConstants
    from codtsim.optics import InputBeam, OpticalLayout
    from codtsim.painting import line_paint
    from codtsim.potential import time_averaged_potential

    layout = OpticalLayout()
    wf = line_paint(layout, 230.0 * 1e-6, 40.0 * 1e-6)
    records = time_averaged_potential(PhysicalConstants(gravity=0.0), layout, (InputBeam(), InputBeam()), wf).records
    pts = np.random.default_rng(3).normal(scale=(150e-6, 40e-6, 20e-6), size=(500, 3))
    whole = kernels.intensity_sum(pts, records)
    blocks = []
    real_chunk = kernels._intensity_chunk

    def spy(p, r, *buffers):
        blocks.append(p.shape[-2] * r.shape[-2])  # points (k, 3) against records (m, 19)
        return real_chunk(p, r, *buffers)

    monkeypatch.setattr(kernels, "_intensity_chunk", spy)
    monkeypatch.setattr(kernels, "_CHUNK", 20 * records.shape[0] + 7)
    blocked = kernels.intensity_sum(pts, records)
    assert len(blocks) == 25 and max(blocks) <= kernels._CHUNK
    assert np.min(whole) > 0
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)


def test_batch_items_equal_their_own_calls(records):
    # points (n, k, 3) against records (n, r, 19): item i is its own 2-D call, bit for bit
    rng = np.random.default_rng(4)
    batch = np.repeat(records[None], 3, axis=0)
    batch[1, :, 0:3] += [20e-6, -5e-6, 3e-6]
    batch[2, :, 18] *= [0.5, 2.0]
    pts = rng.normal(scale=30e-6, size=(3, 200, 3))
    values = kernels.intensity_sum(pts, batch)
    derivatives = kernels.intensity_derivatives(pts[:, :4], batch)
    assert values.shape == (3, 200) and derivatives[2].shape == (3, 4, 3, 3)
    for i in range(3):
        assert np.array_equal(values[i], kernels.intensity_sum(pts[i], batch[i]))
        for got, want in zip(derivatives, kernels.intensity_derivatives(pts[i, :4], batch[i])):
            assert np.array_equal(got[i], want)
