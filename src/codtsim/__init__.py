"""Simulation and analysis toolkit for a single-lens crossed-beam optical dipole trap.

Covers astigmatic Gaussian beam optics behind a single high-NA lens, AOD-steered
crossing geometry, time-averaged (painted) dipole potentials, trap
characterization, evaporation ramp timelines, time-of-flight condensate
signatures, multi-site array design with power compensation, and beam-pointing
flight statistics.
"""

import os
import sys

# Every BLAS operand here is a 3x3 matrix or has 3 columns, too small for a
# thread pool to speed up, yet numpy's bundled OpenBLAS starts and spins
# nproc - 1 worker threads when it loads, which costs each fresh CLI process
# ~60 ms of CPU.  So BLAS runs on one thread.  The setting only takes effect
# before numpy loads; a caller that imported numpy first keeps its own.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
