"""codtsim benchmark: drive the CLI as its users do and report metrics.

    python3 perfbench/run.py --workload painted-ramp --seed 1 --seconds 30 --trace 0

Run from the repository root (it uses the sources under ``src/``). With
``--trace 0`` every CLI call is a fresh process, import included, run one
after another by this single client (a closed loop) until ``--seconds`` are
used up; the end-to-end metrics are medians over the passes. With
``--trace 1`` the same calls are replayed in-process in a traced child and
per-layer metrics are reported. The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Op, run_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
IMPORTTIME_REPS = 3
# every child is stopped by this many seconds after the run started, so that
# a stuck call cannot keep the benchmark past its own time limit
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORTED = {
    "import.codtsim_cli_s": "codtsim.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_constants_s": "scipy.constants",
    "import.scipy_ndimage_s": "scipy.ndimage",
    "import.scipy_spatial_s": "scipy.spatial",
}
SUBCOMMANDS = ("evap.timeline", "paint.grid", "paint.compensate", "trap.misalign-sweep", "flight.synth", "flight.analyze")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics are per pass: totals over the traced passes / passes
PER_LAYER = {
    **{name: "s" for name in IMPORTED},
    **{f"cli.{label}.wall_s": "s" for label in SUBCOMMANDS},
    "cli.write_csv.self_s": "s",
    "cli.write_json.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "config.load_config.self_s": "s",
    "kernels.intensity_sum.calls": "count",
    "kernels.intensity_sum.self_s": "s",
    "kernels.intensity_sum.evals": "count",
    "kernels.intensity_sum.evals_per_call": "count",
    "kernels.intensity_sum.meval_per_s": "Meval/s",
    "kernels.distinct_record_ratio": "ratio",
    "kernels.fixed_meval_per_s": "Meval/s",
    "potential.time_averaged_potential.calls": "count",
    "potential.time_averaged_potential.self_s": "s",
    "potential.records_per_potential": "count",
    "potential.static_potential.calls": "count",
    "optics.build_beamlines.calls": "count",
    "optics.build_beamlines.self_s": "s",
    "optics.deflection_to_displacement.calls": "count",
    "trapchar.characterize.calls": "count",
    "trapchar.characterize.self_s": "s",
    "trapchar.characterize.valid_ratio": "ratio",
    "trapchar.characterize.evals": "count",
    "trapchar.fd_gradient.calls": "count",
    "trapchar.fd_gradient.evals": "count",
    "trapchar.fd_hessian.calls": "count",
    "painting.characterize_sites.calls": "count",
    "painting.characterize_sites.self_s": "s",
    "painting.compensate_powers.self_s": "s",
    "painting.compensate_powers.characterizations": "count",
    "painting.synthesize_waveform.self_s": "s",
    "evap.timeline.self_s": "s",
    "evap.timeline.rows": "count",
    "pointing.synth_frame.calls": "count",
    "pointing.synth_frame.self_s": "s",
    "pointing.write_pgm.self_s": "s",
    "pointing.write_pgm.bytes": "bytes",
    "pointing.read_pgm.self_s": "s",
    "pointing.read_pgm.bytes": "bytes",
    "pointing.detect_spots.calls": "count",
    "pointing.detect_spots.self_s": "s",
    "pointing.detect_spots.frames_per_s": "1/s",
    "pointing.track_spots.self_s": "s",
    "pointing.track_stats.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
# functions the per-layer metrics read; any missing one is reported as absent
TRACED = sorted(
    {name.rsplit(".", 1)[0] for name in PER_LAYER if name.count(".") == 2 and not name.startswith(("cli.", "import."))}
    | {"cli.write_csv", "cli.write_json", "cli.main"}
)


# --- environment -----------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for every child: the checkout's sources, at most nproc threads each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # imports read cached bytecode, as from an installed package; the warm-up
    # import writes it under src/ in the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    limit = nproc()
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= limit):
            env[var] = str(limit)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git ("unknown" outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


# --- running children ------------------------------------------------------


class Runner:
    """Starts children one at a time and reaps each with its resource usage."""

    def __init__(self, env: dict):
        self.env = env
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def python(self, *args: str) -> tuple[int, float, float, float, str]:
        """(exit code, wall s, cpu s, max RSS MB, stderr) of one Python child run to completion."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            stderr = proc.stderr.read().decode(errors="replace")
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stderr.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, stderr


def import_once(runner: Runner) -> float:
    """Wall time of one fresh ``import codtsim.cli`` process."""
    code, wall, _, _, stderr = runner.python("-c", "import codtsim.cli")
    if code != 0:
        raise RuntimeError(f"import codtsim.cli failed:\n{stderr[-2000:]}")
    return wall


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    A package that has no line of its own (scipy imports some subpackages
    lazily) is the sum of its outermost submodule lines.
    """
    nodes = []  # (name, depth, cumulative_s, parent index)
    pending: list[int] = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if not m:
            continue
        depth = len(m.group(2))
        index = len(nodes)
        nodes.append([m.group(3), depth, int(m.group(1)) / 1e6, -1])
        while pending and nodes[pending[-1]][1] > depth:
            nodes[pending.pop()][3] = index
        pending.append(index)
    result = {}
    for package in set(IMPORTED.values()):
        def inside(name):
            return name == package or name.startswith(package + ".")

        total = 0.0
        for name, _, cumulative, parent in nodes:
            if not inside(name):
                continue
            while parent >= 0 and not inside(nodes[parent][0]):
                parent = nodes[parent][3]
            if parent < 0:
                total += cumulative
        result[package] = total
    return result


def run_pass(runner: Runner, ops: list[Op], log: list[dict]) -> tuple[float, float, float]:
    """Run one pass as fresh processes; (wall s, cpu s, peak RSS MB). Failures go to ``log``."""
    wall = cpu = rss = 0.0
    for op in ops:
        code, w, c, r, stderr = runner.python("-m", "codtsim.cli", *op.argv)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        failure = run_check(op) if code == 0 else f"exit code {code}: {stderr.strip()[-300:]}"
        log.append({"label": op.label, "exit": code, "failure": failure})
    return wall, cpu, rss


# --- the two kinds of run --------------------------------------------------


def untraced(runner: Runner, workload: str, seed: int, seconds: float, work: Path, log: list[dict]) -> tuple[dict, dict]:
    import_once(runner)  # warm-up: a fresh checkout compiles its bytecode here
    # one import sample per pass, so that setup_s covers the same stretch of
    # time as the passes; topped up to SETUP_REPS for runs with few passes
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup.append(import_once(runner))
        pass_dir = Path(tempfile.mkdtemp(dir=work))
        try:
            passes.append(run_pass(runner, WORKLOADS[workload](seed, pass_dir), log))
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
    while len(setup) < SETUP_REPS:
        setup.append(import_once(runner))
    walls, cpus, rsss = zip(*passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
    }
    info = {"setup_samples": len(setup), "passes": len(passes), "wall_s_max": max(walls)}
    return metrics, info


def traced(runner: Runner, workload: str, seed: int, seconds: float, work: Path, log: list[dict]) -> tuple[dict, dict]:
    import tracer

    import_once(runner)  # warm-up, as in the untraced run
    imports = []
    for _ in range(IMPORTTIME_REPS):
        code, _, _, _, stderr = runner.python("-X", "importtime", "-c", "import codtsim.cli")
        if code != 0:
            raise RuntimeError(f"import codtsim.cli failed:\n{stderr[-2000:]}")
        imports.append(parse_importtime(stderr))
    # untraced reference for the tracing overhead: one pass minus its imports
    setup = statistics.median(import_once(runner) for _ in range(IMPORTTIME_REPS))
    pass_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        ops = WORKLOADS[workload](seed, pass_dir)
        untraced_wall = run_pass(runner, ops, log)[0]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    untraced_inprocess = untraced_wall - len(ops) * setup

    result_path = work / "trace.json"
    code, _, _, _, stderr = runner.python(
        str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--work", str(work), "--result", str(result_path),
    )
    if code != 0:
        raise RuntimeError(f"traced child failed with exit code {code}:\n{stderr[-2000:]}")
    child = json.loads(result_path.read_text())
    log.extend(child["ops"])

    spans, n = child["spans"], child["passes"]
    agg = tracer.aggregate(spans)
    names, by_caller = agg["names"], agg["by_caller"]

    def stat(name, key):
        """calls, self_s or a summed count of one span name; 0 if it never ran."""
        entry = names.get(name, {"counts": {}})
        return entry[key] if key in entry else entry["counts"].get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    op_labels = [op["label"] for op in child["ops"]]
    op_wall = dict.fromkeys(SUBCOMMANDS, 0.0)
    for s in spans:
        if s[tracer.NAME] == "cli.main" and s[tracer.PARENT] < 0 and s[tracer.OP] is not None:
            label = op_labels[s[tracer.OP]]
            op_wall[label] = op_wall.get(label, 0.0) + s[tracer.END] - s[tracer.START]
    traced_total = sum(op_wall.values()) / n

    m = {name: statistics.median(i[pkg] for i in imports) for name, pkg in IMPORTED.items()}
    m.update({f"cli.{label}.wall_s": op_wall[label] / n for label in SUBCOMMANDS})
    for name in TRACED:
        m[f"{name}.calls"] = stat(name, "calls") / n
        m[f"{name}.self_s"] = stat(name, "self_s") / n
    kernel = "kernels.intensity_sum"
    m.update(
        {
            "cli.artifact_bytes": child["artifact_bytes"] / n,
            f"{kernel}.evals": stat(kernel, "evals") / n,
            f"{kernel}.evals_per_call": ratio(stat(kernel, "evals"), stat(kernel, "calls")),
            f"{kernel}.meval_per_s": ratio(stat(kernel, "evals"), stat(kernel, "self_s")) / 1e6,
            "kernels.distinct_record_ratio": ratio(stat(kernel, "distinct_records"), stat(kernel, "records")),
            "kernels.fixed_meval_per_s": child["fixed_meval_per_s"],
            "potential.records_per_potential": ratio(
                stat("potential.time_averaged_potential", "records"), stat("potential.time_averaged_potential", "calls")
            ),
            "trapchar.characterize.valid_ratio": ratio(
                stat("trapchar.characterize", "valid"), stat("trapchar.characterize", "calls")
            ),
            "trapchar.characterize.evals": by_caller.get("trapchar.characterize", {}).get("evals", 0) / n,
            "trapchar.fd_gradient.evals": by_caller.get("trapchar.fd_gradient", {}).get("evals", 0) / n,
            "painting.compensate_powers.characterizations": tracer.count_within(
                spans, "painting.compensate_powers", "trapchar.characterize"
            ) / n,
            "evap.timeline.rows": stat("evap.timeline", "rows") / n,
            "pointing.write_pgm.bytes": stat("pointing.write_pgm", "bytes") / n,
            "pointing.read_pgm.bytes": stat("pointing.read_pgm", "bytes") / n,
            "pointing.detect_spots.frames_per_s": ratio(
                stat("pointing.detect_spots", "calls"), stat("pointing.detect_spots", "self_s")
            ),
            "trace.overhead_ratio": ratio(traced_total, untraced_inprocess),
            "trace.spans": len(spans) / n,
        }
    )
    metrics = {name: float(m[name]) for name in PER_LAYER}
    info = {
        "passes": n,
        "kernel_path": child["kernel_path"],
        "micro_error": child["micro_error"],
        "codtsim_file": child["codtsim_file"],
        "absent": [name for name in TRACED if name not in child["wrapped"]],
        "hook_errors": child["hook_errors"],
        "traced_inprocess_s_per_pass": traced_total,
        "untraced_inprocess_s_per_pass": untraced_inprocess,
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "codtsim" / "cli.py").is_file():
        print(f"error: {SRC / 'codtsim'} not found; run from a codtsim checkout", file=sys.stderr)
        return 2

    env = child_env()
    runner = Runner(env)
    log: list[dict] = []
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        measure = traced if args.trace else untraced
        metrics, info = measure(runner, args.workload, args.seed, args.seconds, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    failed = [op for op in log if op["failure"] is not None]
    units = END_TO_END if not args.trace else PER_LAYER
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(env), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for op in failed:
        print(f"FAILED {op['label']}: {op['failure']}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':48s} {len(failed) / len(log):14.6g} ratio  ({len(failed)} of {len(log)} operations)")
    result = {
        "correct": not failed,
        "attempted": len(log),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
