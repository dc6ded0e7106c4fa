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
