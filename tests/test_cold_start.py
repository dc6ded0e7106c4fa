"""Import contract of the CLI: no scipy subpackage on the import path.

Every subcommand runs as a fresh process, so whatever ``codtsim.cli`` imports
at module level is paid on every call. The subpackages below are imported
inside the functions that use them.
"""

import os
import subprocess
import sys
from pathlib import Path

import codtsim.constants as cc

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_SUBPACKAGES = (
    "scipy.constants",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.ndimage",
    "scipy.spatial",
    "scipy.special",
    "scipy.linalg",
)


def test_cli_import_loads_no_scipy_subpackage():
    code = (
        "import codtsim.cli, sys; "
        f"print(' '.join(m for m in {LAZY_SUBPACKAGES!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


def test_flight_analyze_loads_no_scipy_subpackage(tmp_path):
    from codtsim.cli import main

    out = tmp_path / "flight"
    assert main(["flight", "synth", "--out", str(out), "--set", "flight.n_frames=48"]) == 0
    argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--set", "flight.n_frames=48"]
    code = (
        "import sys; from codtsim.cli import main; "
        f"rc = main({argv!r}); "
        f"print(rc, *(m for m in {LAZY_SUBPACKAGES!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0"]


def test_constants_equal_scipy_codata():
    import scipy.constants as sc

    assert cc.ATOMIC_MASS_KG == sc.atomic_mass
    assert cc.VACUUM_PERMITTIVITY == sc.epsilon_0
    assert cc.SPEED_OF_LIGHT == sc.c
    assert cc.BOLTZMANN == sc.k
    assert cc.REDUCED_PLANCK == sc.hbar
    assert cc.RB87_MASS_KG == 86.909180527 * sc.atomic_mass
