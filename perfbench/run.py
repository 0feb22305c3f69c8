"""Benchmark harness for oseen2d: four scenarios from the source paper.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Load model: a closed loop with one client.  One worker process runs one
repetition at a time, back to back, each in a fresh interpreter; BLAS keeps
its default thread count.  A run starts repetitions until the next one would
end after ``--seconds`` (at least two untraced, or one untraced and two
traced ones).

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``run_s`` and ``setup_s`` are wall seconds scaled by a reference kernel
timed inside each worker around every part of the run, because this
host's speed drifts far more than the bounds allow (see ``worker.py``);
the raw wall seconds are printed next to them.
``--trace 1`` reports the per-layer metrics from traced repetitions, checks
that their exact counts repeat and that each workload takes the route it
exists to exercise, and reports the tracing overhead against an untraced
repetition of the same run.

Every repetition checks its own outputs; one that raises or fails a check
counts as failed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0

WORKLOADS = ("vortex-pair", "vortex-pair-density", "linearization", "selfsim-flows")

# The route each workload exists to exercise (nonzero calls) or bypass (zero).
ROUTES = {
    "vortex-pair": {
        "nonzero": ("solver.step_decomposed", "solver.decomposed_dt",
                    "biot_savart.velocity_periodic", "field.fft",
                    "field.resample_affine", "oseen.fields",
                    "diagnostics.remainder_norms"),
        "zero": ()},
    "vortex-pair-density": {
        "nonzero": ("solver.step_decomposed", "solver.decomposed_dt",
                    "biot_savart.velocity_free_space", "field.fft",
                    "field.resample_affine", "oseen.fields",
                    "diagnostics.remainder_norms"),
        "zero": ("biot_savart.velocity_periodic",)},
    "linearization": {
        "nonzero": ("diagnostics.linearized_spectrum", "linalg.eig",
                    "biot_savart.velocity_free_space", "field.fft"),
        "zero": ("solver.step_decomposed", "propagators.evolve_T_alpha",
                 "propagators.evolve_S1")},
    "selfsim-flows": {
        "nonzero": ("propagators.evolve_T_alpha", "propagators.evolve_S1",
                    "selfsim.semigroup_apply", "biot_savart.velocity_free_space",
                    "field.fft"),
        "zero": ("solver.step_decomposed", "oseen.fields")},
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that are exact counts and must repeat between runs
EXACT_SUFFIXES = (".calls", ".gflop", "_per_step", "_ratio")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed repetition)."""


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "s"


def blas_record() -> dict:
    """Name, version and default thread count of each bundled OpenBLAS."""
    import numpy
    import scipy
    record = {"name": numpy.show_config(mode="dicts")["Build Dependencies"]
              ["blas"].get("name", "unknown"),
              "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                 "OMP_NUM_THREADS")
                      if k in os.environ},
              "threads": {}}
    for module in (numpy, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    record["threads"][f"{module.__name__}:{lib.name}"] = getter()
                    break
    return record


def environment() -> dict:
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_record()}


def repetition(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run one repetition in a fresh worker and return its record."""
    started = time.monotonic()
    cmd = [sys.executable, str(WORKER), workload, str(seed),
           "1" if traced else "0", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "run_s": time.monotonic() - started,
                "wall_s": time.monotonic() - started, "traced": traced}
    if proc.returncode == 3:
        raise HarnessError(f"worker could not import the package:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "run_s": time.monotonic() - started,
                  "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    record.setdefault("run_s", 0.0)
    record["wall_s"] = time.monotonic() - started
    record["traced"] = traced
    return record


def schedule(trace: bool):
    """Kinds of repetition in order: True means traced."""
    if trace:
        yield from (False, True, True)
        while True:
            yield from (False, True)
    while True:
        yield False


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    minimum = 3 if trace else 2
    reps = []
    for traced in schedule(trace):
        if len(reps) >= minimum:
            longest = max(r["wall_s"] for r in reps if r["traced"] == traced)
            if time.monotonic() + longest > start + seconds:
                break
        rep = repetition(workload, seed, traced, hard_deadline)
        reps.append(rep)
        status = "ok" if rep["ok"] else "FAILED"
        print(f"{workload} rep {len(reps)} {'traced' if traced else 'plain'} "
              f"run_s={rep['run_s']:.4f} setup_s={rep.get('setup_s', 0.0):.4f} "
              f"(wall {rep.get('run_wall_s', 0.0):.4f} and {rep.get('setup_wall_s', 0.0):.4f}; "
              f"reference {' '.join(f'{r:.4f}' for r in rep.get('ref_s', []))}) {status}")
        for name, measured, bound in rep.get("checks", []):
            if not (measured <= bound):
                print(f"  check {name}: {measured!r} > {bound!r}")
        if rep.get("error"):
            print(rep["error"].rstrip())
        if time.monotonic() >= hard_deadline:
            break
    failed = sum(not r["ok"] for r in reps)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed}
    plain = [r for r in reps if not r["traced"]]
    if trace:
        result["metrics"], consistent = traced_metrics(workload, reps, plain)
        result["correct"] = result["correct"] and consistent
    else:
        result["metrics"] = {}
        for name, unit in END_TO_END_UNITS.items():
            values = [r.get(name, 0.0) for r in plain]
            median = statistics.median(values)
            q1, q3 = quartiles(values)
            result["metrics"][name] = {"value": median, "unit": unit}
            wall = ""
            if name in ("run_s", "setup_s"):
                raw = statistics.median(r.get(name.replace("_s", "_wall_s"), 0.0)
                                        for r in plain)
                wall = f"; wall {raw:.6g} s"
            print(f"{workload} {name} {median:.6g} {unit} "
                  f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}{wall})")
    print(f"{workload} failed {failed}/{len(reps)}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def traced_metrics(workload: str, reps: list, plain: list):
    """Medians of the traced layer metrics, plus the repeat and route checks."""
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if not traced:
        return {}, False
    consistent = True
    first = traced[0]["layers"]
    for other in traced[1:]:
        for key, value in first.items():
            if key.endswith(EXACT_SUFFIXES) and other["layers"][key] != value:
                print(f"{workload} count {key} did not repeat: "
                      f"{value!r} vs {other['layers'][key]!r}")
                consistent = False
    for layer in ROUTES[workload]["nonzero"]:
        if not first[f"{layer}.calls"] > 0:
            print(f"{workload} route: {layer} was never called")
            consistent = False
    for layer in ROUTES[workload]["zero"]:
        if first[f"{layer}.calls"] != 0:
            print(f"{workload} route: {layer} was called {first[layer + '.calls']} times")
            consistent = False
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in first}
    traced_run = statistics.median(r["run_s"] for r in traced)
    plain_run = statistics.median(r["run_s"] for r in plain)
    values["cpu_s"] = statistics.median(r.get("cpu_s", 0.0) for r in plain)
    values["trace.overhead"] = traced_run / plain_run - 1.0 if plain_run else 0.0
    metrics = {key: {"value": value, "unit": layer_unit(key)}
               for key, value in values.items()}
    for key, entry in metrics.items():
        label = " (computed: 5 N log2 N per complex transform)" if key.endswith(".gflop") else ""
        print(f"{workload} {key} {entry['value']:.6g} {entry['unit']}{label}")
    return metrics, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "oseen2d" / "__init__.py").is_file():
        print(f"perfbench: no oseen2d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": entry for name, r in results.items()
                        for key, entry in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
