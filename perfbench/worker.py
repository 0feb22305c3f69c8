"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
the package import, input generation and the grid tables.  A fresh process
per repetition keeps module-level caches and the ``ru_maxrss`` high-water
mark from leaking between repetitions.

The host is a share of a busy machine whose speed swings by a third or more
for seconds to minutes at a time, so wall seconds alone do not repeat from
one run to the next.  The worker therefore times a fixed reference kernel
before set-up, after set-up, and after each part of the run (the points
where the scenario yields), and reports ``setup_s`` and ``run_s`` as wall
seconds scaled to the reference's nominal speed: each interval is scaled by
the mean of the two references that bracket it.  The kernel's transforms
have the size that dominates the scenario (``workloads.FFT_SIZE``), because
the host's fast spells speed up transforms that fit in cache far more than
ones that spill to memory.  The raw wall seconds are kept as
``setup_wall_s`` and ``run_wall_s``, the references as ``ref_s``.

Prints one JSON record on stdout.  A repetition that raises counts as
failed; exit code 3 means the package could not be imported at all.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# bound here, before a traced run patches numpy.fft, so the reference is
# never counted as the package's work
_FFT2, _IFFT2 = np.fft.fft2, np.fft.ifft2
# seconds the reference takes in a quiet spell of the 2-core Xeon host the
# benchmark was tuned on; it fixes only the scale of the reported seconds
REF_NOMINAL_S = 0.15

# layers whose self time differs from their inclusive time
NESTING = ("solver.solve_cauchy", "solver.step_decomposed", "solver.decomposed_dt",
           "biot_savart.velocity_free_space", "biot_savart.velocity_periodic",
           "field.resample_affine", "propagators.evolve_T_alpha",
           "propagators.evolve_S1", "selfsim.semigroup_apply",
           "diagnostics.remainder_norms", "diagnostics.linearized_spectrum")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def make_reference(size: int):
    """A fixed kernel whose wall seconds measure the host's speed now.

    Complex 2-D FFTs of ``size`` squared into preallocated arrays, about
    2.6 million points whatever the size, then a pure-Python loop, because
    the package's time is split between numpy kernels and interpreter
    overhead.
    """
    data = np.random.default_rng(0).standard_normal((size, size)) + 0j
    spec = np.empty_like(data)
    out = np.empty_like(data)
    loops = max(1, 40 * 256**2 // size**2)

    def reference_s() -> float:
        t0 = time.perf_counter()
        for _ in range(loops):
            _FFT2(data, out=spec)
            _IFFT2(spec, out=out)
        total = 0
        for i in range(1_000_000):
            total += i * i
        return time.perf_counter() - t0

    _IFFT2(_FFT2(data, out=spec), out=out)   # the first call pays page faults
    return reference_s


def timed_run(parts, reference_s, ref: list, record: dict):
    """Drive a scenario's parts, timing the reference after each one.

    Sets ``run_wall_s``, ``cpu_s`` and ``run_s`` (the parts' seconds at
    the reference's nominal speed) in ``record`` and returns the outputs.
    ``ref`` holds the reference taken just before the first part and
    receives one more per part.
    """
    wall = cpu = scaled = 0.0
    done = False
    while not done:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            next(parts)
        except StopIteration as stop:
            outputs, done = stop.value, True
        part = time.perf_counter() - t0
        cpu += _cpu_s() - cpu0
        wall += part
        ref.append(reference_s())
        scaled += part * REF_NOMINAL_S / statistics.mean(ref[-2:])
    record.update(run_wall_s=wall, cpu_s=cpu, run_s=scaled)
    return outputs


def layer_metrics(tracer, nominal_steps: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    out = {}
    for layer, (calls, total, callees, _) in tracer.stats.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.s"] = total
        if layer in NESTING:
            out[f"{layer}.self_s"] = total - callees
    first = tracer.stats["diagnostics.linearized_spectrum"][3]
    out["diagnostics.linearized_spectrum.first_s"] = first
    out["diagnostics.linearized_spectrum.rest_s"] = (
        out["diagnostics.linearized_spectrum.s"] - first)
    out["field.fft.gflop"] = tracer.fft_gflop()

    def solves(scope):
        inside = tracer.inside[scope]
        return (inside["biot_savart.velocity_free_space"]
                + inside["biot_savart.velocity_periodic"])

    def ratio(count, base):
        return count / base if base else 0.0

    steps = out["solver.step_decomposed.calls"]
    step_scopes = ("solver.step_decomposed", "solver.decomposed_dt")
    solver_solves = sum(solves(s) for s in step_scopes)
    out["solver.velocity_solves_per_step"] = ratio(solver_solves, steps)
    # four Lawson stages need four solves; the rest re-solve for dt and CFL
    out["solver.velocity_solve_useful_ratio"] = ratio(4 * steps, solver_solves)
    out["solver.fft_calls_per_step"] = ratio(
        sum(tracer.inside[s]["field.fft"] for s in step_scopes), steps)
    out["solver.oseen_evals_per_step"] = ratio(
        sum(tracer.inside[s]["oseen.fields"] for s in step_scopes), steps)
    for scope, nominal in nominal_steps.items():
        taken = nominal if out[f"{scope}.calls"] else 0
        out[f"{scope}.velocity_solves_per_step"] = ratio(solves(scope), taken)
        out[f"{scope}.fft_calls_per_step"] = ratio(
            tracer.inside[scope]["field.fft"], taken)
    return out


def main() -> int:
    name, seed, trace, spawned = sys.argv[1:5]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError:
        traceback.print_exc()
        return 3
    imported = time.monotonic() - float(spawned)
    setup, run, check = workloads.SCENARIOS[name]
    record = {"ok": False, "error": None, "checks": []}
    try:
        reference_s = make_reference(workloads.FFT_SIZE[name])
        ref = [reference_s()]
        t0 = time.perf_counter()
        inputs = setup(int(seed))
        record["setup_wall_s"] = imported + time.perf_counter() - t0
        ref.append(reference_s())
        record["setup_s"] = record["setup_wall_s"] * REF_NOMINAL_S / statistics.mean(ref)
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install([workloads])
        outputs = timed_run(run(inputs), reference_s, ref, record)
        record["ref_s"] = ref
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, workloads.NOMINAL_STEPS)
        record["checks"] = [(n, float(m), float(b))
                            for n, m, b in check(inputs, outputs)]
        record["ok"] = all(m <= b for _, m, b in record["checks"])
    except Exception:
        record["error"] = traceback.format_exc()
    record.setdefault("setup_s", time.monotonic() - float(spawned))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
