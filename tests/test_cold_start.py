"""Import contract of the CLI: no scipy, no OpenSSL, one BLAS thread.

Every subcommand runs as a fresh process, so whatever ``codtsim.cli`` imports
at module level is paid on every call. scipy is imported inside the ``tof``
functions that run it, the manifest digest comes from the interpreter's
builtin sha256 rather than hashlib (whose ``_hashlib`` maps OpenSSL's
libcrypto), and BLAS runs on one thread.
"""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codtsim.constants as cc
from codtsim import config as cfgmod

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY_MODULES = ("scipy", "_hashlib")  # any scipy subpackage loads scipy first


def _fresh(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter that imports codtsim from ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def _run_and_list_heavy_modules(argv: list[str]) -> list[str]:
    """The exit code of ``main(argv)`` in a fresh process, then the heavy modules it ended with."""
    return _fresh(
        "import sys; from codtsim.cli import main; "
        f"rc = main({argv!r}); "
        f"print(rc, *(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )


def test_cli_import_loads_no_scipy_and_no_openssl():
    code = f"import codtsim.cli, sys; print(*(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    assert _fresh(code) == []


def test_paint_grid_loads_no_scipy_and_no_openssl(tmp_path):
    assert _run_and_list_heavy_modules(["paint", "grid", "--out", str(tmp_path / "grid")]) == ["0"]


def test_flight_analyze_loads_no_scipy_and_no_openssl(tmp_path):
    from codtsim.cli import main

    out = tmp_path / "flight"
    assert main(["flight", "synth", "--out", str(out), "--set", "flight.n_frames=48"]) == 0
    argv = ["flight", "analyze", "--out", str(out), "--frames", str(out), "--set", "flight.n_frames=48"]
    assert _run_and_list_heavy_modules(argv) == ["0"]


def test_only_tof_manifests_record_scipy(tmp_path):
    import scipy

    from codtsim.cli import main

    for argv in (["tof", "fit"], ["paint", "grid"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions.get("scipy") == (scipy.__version__ if argv[0] == "tof" else None)


@pytest.mark.parametrize("blocked", [(), ("_sha256", "_sha2")], ids=["builtin", "hashlib-fallback"])
def test_config_digest_is_sha256_of_the_sorted_config(blocked, tmp_path):
    cfg = cfgmod.load_config(None, [])
    expected = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    out = tmp_path / "manifest"
    out.mkdir()
    words = _fresh(
        "import sys; "
        + "".join(f"sys.modules[{name!r}] = None; " for name in blocked)
        + "from pathlib import Path; from codtsim import cli, config; "
        f"cli._write_manifest(Path({str(out)!r}), 'evap schedule', config.load_config(None, []), []); "
        "print('hashlib' in sys.modules)"
    )
    assert words == [str(bool(blocked))]  # the fallback, and only it, went through hashlib
    assert json.loads((out / "manifest.json").read_text())["config_sha256"] == expected


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc (Linux)")
def test_cli_import_runs_one_thread():
    # numpy's OpenBLAS would start a worker thread for the second BLAS thread
    code = "import codtsim.cli, os; print(len(os.listdir('/proc/self/task')))"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["1"]


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # one BLAS thread (codtsim imported first) against two (numpy imported first)
    runs = (
        ["trap", "report", "--set", "trap.save_field=true", "--set", "trap.field_dims=[8,8,8]"],
        ["paint", "grid"],
        ["evap", "timeline", "--set", "evap.timeline_samples=3"],
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    for first, threads in (("codtsim", "1"), ("numpy", "2")):
        argvs = [[*argv, "--out", str(tmp_path / first / argv[1])] for argv in runs]
        code = (
            f"import os, {first}; from codtsim.cli import main; "
            f"assert os.environ['OPENBLAS_NUM_THREADS'] == {threads!r}; "
            f"assert not any(map(main, {argvs!r}))"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    for argv in runs:
        one, two = tmp_path / "codtsim" / argv[1], tmp_path / "numpy" / argv[1]
        names = sorted(p.name for p in one.iterdir())
        assert "manifest.json" in names and names == sorted(p.name for p in two.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(one, two, names, shallow=False)
        assert mismatch == errors == [], argv


def test_constants_equal_scipy_codata():
    import scipy.constants as sc

    assert cc.ATOMIC_MASS_KG == sc.atomic_mass
    assert cc.VACUUM_PERMITTIVITY == sc.epsilon_0
    assert cc.SPEED_OF_LIGHT == sc.c
    assert cc.BOLTZMANN == sc.k
    assert cc.REDUCED_PLANCK == sc.hbar
    assert cc.RB87_MASS_KG == 86.909180527 * sc.atomic_mass
