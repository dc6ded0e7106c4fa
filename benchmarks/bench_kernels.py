"""Benchmark the hot intensity-summation kernel.

The workload mirrors time-averaged field sampling: a painted waveform
discretized into 256 phases (512 beam records) evaluated on a 3D grid.

Usage: python benchmarks/bench_kernels.py [--dims N] [--phases N]
"""

import argparse
import time

import numpy as np

from codtsim import kernels
from codtsim.constants import PhysicalConstants
from codtsim.optics import InputBeam, OpticalLayout
from codtsim.painting import synthesize_waveform
from codtsim.potential import time_averaged_potential


def build_workload(dims: int, phases: int):
    layout = OpticalLayout()
    inputs = (InputBeam(), InputBeam())
    waveform = synthesize_waveform(layout, "line-paint", {"amplitude_um": 370.0})
    pot = time_averaged_potential(
        PhysicalConstants(gravity=0.0), layout, inputs, waveform, n_phases=phases
    )
    grid = np.linspace(-1e-3, 1e-3, dims)
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    return pot.records, np.ascontiguousarray(pts)


def bench(func, pts, records, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(pts, records)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, default=48)
    parser.add_argument("--phases", type=int, default=256)
    args = parser.parse_args()

    records, pts = build_workload(args.dims, args.phases)
    n_eval = pts.shape[0] * records.shape[0]
    print(f"{pts.shape[0]} points x {records.shape[0]} beam records = {n_eval / 1e6:.0f} M evaluations")

    t = bench(kernels.intensity_sum, pts, records)
    print(f"kernel: {t:8.3f} s   ({n_eval / t / 1e6:7.1f} M eval/s)")


if __name__ == "__main__":
    main()
