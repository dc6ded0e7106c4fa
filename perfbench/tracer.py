"""Outside-in tracing of codtsim: wrap the public functions of each module.

The tracer replaces every public module-level function of the traced layers
with a wrapper that records a span (name, start, end, parent span, operation
id and optional counts). Names bound elsewhere with ``from ... import`` are
patched too, so ``codtsim.evap.characterize`` is traced like
``codtsim.trapchar.characterize``. Spans stay in memory until the run ends.

Run as a script, this module is the traced child of ``run.py --trace 1``: it
imports ``codtsim.cli``, times a fixed kernel micro run, installs the
wrappers, replays the workload's CLI calls in-process through
``codtsim.cli.main`` until the run length is used up, and writes spans and
operation results to a JSON file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

LAYERS = ("cli", "config", "kernels", "potential", "optics", "trapchar", "painting", "evap", "pointing")

# span fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_counts(tracer, args, kwargs, result):
    records = _arg(args, kwargs, 1, "records")
    n_records = records.shape[0] if getattr(records, "ndim", 1) == 2 else 1
    counts = {"evals": len(result) * n_records}
    # distinct geometries (all columns but power) once per records array; the
    # array is kept alive for the operation so that its id is not reused
    if id(records) not in tracer.seen_records:
        import numpy as np

        tracer.seen_records[id(records)] = records
        geometry = np.asarray(records).reshape(n_records, -1)[:, :18]
        counts["records"] = n_records
        counts["distinct_records"] = len(np.unique(geometry, axis=0))
    return counts


def _file_bytes(index, name):
    def hook(tracer, args, kwargs, result):
        return {"bytes": os.stat(_arg(args, kwargs, index, name)).st_size}

    return hook


HOOKS = {
    "kernels.intensity_sum": _kernel_counts,
    "potential.time_averaged_potential": lambda t, a, k, r: {"records": r.records.shape[0]},
    "trapchar.characterize": lambda t, a, k, r: {"valid": int(bool(r.valid))},
    "evap.timeline": lambda t, a, k, r: {"rows": len(r)},
    "pointing.write_pgm": _file_bytes(1, "path"),
    "pointing.read_pgm": _file_bytes(0, "path"),
}


class Tracer:
    """Span recorder that patches codtsim functions in place; ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.seen_records: dict[int, object] = {}
        self.hook_errors = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        span[COUNTS] = hook(self, args, kwargs, result)
                    except Exception:  # a changed signature must not stop the run
                        self.hook_errors += 1
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def install(self, package: str = "codtsim", layers=LAYERS) -> list[str]:
        """Wrap the public functions of ``layers``; return the wrapped span names."""
        wrappers: dict[int, tuple[object, object]] = {}
        names = []
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    names.append(f"{layer}.{attr}")
                    wrappers[id(obj)] = (obj, self._wrap(obj, names[-1]))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if not attr.startswith("_") and entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))
        return sorted(names)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans) -> dict:
    """Per span name: calls, self time and summed counts.

    ``by_caller`` gives, per span name, the counts of its direct children, so
    that kernel evaluations can be charged to the innermost traced caller.
    """
    own = self_times(spans)
    names: dict[str, dict] = {}
    by_caller: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        entry = names.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (s[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if s[PARENT] >= 0 and s[COUNTS]:
            caller = by_caller.setdefault(spans[s[PARENT]][NAME], {})
            for key, value in s[COUNTS].items():
                caller[key] = caller.get(key, 0) + value
    return {"names": names, "by_caller": by_caller}


def count_within(spans, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0
    for s in spans:
        if s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        total += parent >= 0
    return total


def kernel_micro_run(reps: int = 5) -> float:
    """Kernel M evaluations/s on 512 line-paint records (256 phases x 2 beams) at 4096 points.

    Records are built phase by phase from the static two-beam potential, so
    that the size stays fixed whatever the time-averaged path does with them.
    """
    import numpy as np
    from codtsim import config, kernels, optics, potential

    cfg = config.load_config(None, [])
    constants = config.constants_from_config(cfg)
    layout = config.layout_from_config(cfg)
    inputs = config.beams_from_config(cfg)
    n_phases, amplitude = 256, 115e-6
    phase = np.arange(n_phases) / n_phases
    tri = 1.0 - 4.0 * np.abs(phase - 0.5)
    records = []
    for h in amplitude * tri:
        beams = optics.build_beamlines(layout, inputs, (float(h), 0.0, float(h), 0.0))
        rec = potential.static_potential(constants, list(beams)).records.copy()
        rec[:, -1] /= n_phases
        records.append(rec)
    records = np.vstack(records)
    # the line is painted along y; the grid covers it and the crossing around it
    axes = (np.linspace(-20e-6, 20e-6, 16), np.linspace(-150e-6, 150e-6, 16), np.linspace(-20e-6, 20e-6, 16))
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    kernels.intensity_sum(points, records)  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernels.intensity_sum(points, records)
        times.append(time.perf_counter() - t0)
    return points.shape[0] * records.shape[0] / statistics.median(times) / 1e6


def kernel_path() -> str:
    """Module of the kernel implementation that ``codtsim.kernels`` dispatches to."""
    from codtsim import kernels

    return getattr(getattr(kernels, "_impl", None), "__name__", None) or kernels.intensity_sum.__module__


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _call_main(main, argv) -> tuple[int, str | None]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects argv with exit 2
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed operation, not a stopped run
        return 1, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return code, None if code == 0 else f"exit code {code}"


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, run_check

    import codtsim.cli

    try:
        micro, micro_error = kernel_micro_run(), None
    except Exception:  # a changed API costs the micro run, not the traced run
        micro, micro_error = 0.0, traceback.format_exc(limit=3).strip().splitlines()[-1]
    recorder = Tracer()
    wrapped = recorder.install()
    ops, artifact_bytes, passes = [], 0, 0
    start = time.perf_counter()
    while True:
        work = Path(tempfile.mkdtemp(dir=args.work))
        try:
            for op in WORKLOADS[args.workload](args.seed, work):
                recorder.op = len(ops)
                code, failure = _call_main(codtsim.cli.main, op.argv)
                recorder.op = None
                recorder.seen_records.clear()
                if failure is None:
                    failure = run_check(op)
                ops.append({"label": op.label, "exit": code, "failure": failure})
            artifact_bytes += tree_bytes(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passes += 1
        if time.perf_counter() - start >= args.seconds:
            break
    recorder.restore()
    args.result.write_text(
        json.dumps(
            {
                "spans": recorder.spans,
                "ops": ops,
                "passes": passes,
                "artifact_bytes": artifact_bytes,
                "wrapped": wrapped,
                "hook_errors": recorder.hook_errors,
                "fixed_meval_per_s": micro,
                "micro_error": micro_error,
                "kernel_path": kernel_path(),
                "codtsim_file": codtsim.cli.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
