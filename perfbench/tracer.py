"""Per-layer call counts and times, measured from outside the package.

``install()`` replaces each traced function with a wrapper in its defining
module and in every other namespace that bound it by name (``from .x import
f`` copies the reference, so patching only the defining module would miss
those calls).  FFTs are traced at every public entry point of ``numpy.fft``
and ``scipy.fft``, so a switch between the two libraries, or from complex
to real transforms, is still counted.

Each wrapper keeps calls, inclusive seconds and the seconds spent in traced
callees, which gives self time.  Scope layers (the marching steps) also
record how many solves, transforms and background evaluations ran inside
them, which gives exact per-step counts.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter

_FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_FFT_REAL_IN = ("rfft", "rfft2", "rfftn", "ihfft", "ihfft2", "ihfftn")
_FFT_REAL_OUT = ("irfft", "irfft2", "irfftn", "hfft", "hfft2", "hfftn")
FFT_NAMES = _FFT_COMPLEX + _FFT_REAL_IN + _FFT_REAL_OUT

# layer name -> the (module, function) pairs it aggregates
LAYERS = {
    "solver.solve_cauchy": [("oseen2d.solver", "solve_cauchy")],
    "solver.step_decomposed": [("oseen2d.solver", "step_decomposed")],
    "solver.decomposed_dt": [("oseen2d.solver", "decomposed_dt")],
    "biot_savart.velocity_free_space": [("oseen2d.biot_savart", "velocity_free_space")],
    "biot_savart.velocity_periodic": [("oseen2d.biot_savart", "velocity_periodic")],
    "field.resample_affine": [("oseen2d.field", "resample_affine")],
    "oseen.fields": [("oseen2d.oseen", "oseen_velocity"),
                     ("oseen2d.oseen", "oseen_vorticity")],
    "propagators.evolve_T_alpha": [("oseen2d.propagators", "evolve_T_alpha")],
    "propagators.evolve_S1": [("oseen2d.propagators", "evolve_S1")],
    "selfsim.semigroup_apply": [("oseen2d.selfsim", "semigroup_apply")],
    "diagnostics.remainder_norms": [("oseen2d.diagnostics", "remainder_norms")],
    "diagnostics.linearized_spectrum": [("oseen2d.diagnostics", "linearized_spectrum")],
    "linalg.eig": [("scipy.linalg", "eig")],
    "field.fft": [(mod, name) for mod in ("numpy.fft", "scipy.fft")
                  for name in FFT_NAMES],
}

# layers inside which the counted layers below are tallied
SCOPES = ("solver.step_decomposed", "solver.decomposed_dt",
          "propagators.evolve_T_alpha", "propagators.evolve_S1")
COUNTED = ("biot_savart.velocity_free_space", "biot_savart.velocity_periodic",
           "field.fft", "oseen.fields")


class Tracer:
    """Counters filled by the installed wrappers of one worker process."""

    def __init__(self):
        # layer -> [calls, inclusive s, traced-callee s, first call s]
        self.stats = {layer: [0, 0.0, 0.0, 0.0] for layer in LAYERS}
        self.inside = {scope: Counter() for scope in SCOPES}
        self.fft_shapes: Counter = Counter()
        self._stack = [[0.0]]     # callee-seconds accumulator per open span

    def _wrap(self, layer, fn):
        stat = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        scoped = layer in SCOPES
        inside = self.inside.get(layer)
        stats = self.stats

        def traced(*args, **kwargs):
            if scoped:
                before = [stats[c][0] for c in COUNTED]
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                if stat[0] == 0:
                    stat[3] = dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if scoped:
                    for c, b in zip(COUNTED, before):
                        inside[c] += stats[c][0] - b

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, name, fn):
        """A bare counter and timer; the shape key feeds the flop count."""
        stat = self.stats["field.fft"]
        stack = self._stack
        clock = time.perf_counter
        shapes = self.fft_shapes
        real_out = name in _FFT_REAL_OUT

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            stack[-1][0] += dt
            stat[0] += 1
            stat[1] += dt
            real_side = (out.shape if real_out or name in _FFT_COMPLEX
                         else args[0].shape)
            shapes[(name, real_side, _axes(name, args[1:], kwargs))] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_namespaces=()):
        """Patch every traced function, for the rest of the process."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "oseen2d" or n.startswith("oseen2d.")]
        namespaces += list(extra_namespaces)
        for layer, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                module = importlib.import_module(mod_name)
                original = getattr(module, fn_name, None)
                if original is None:      # absent here: the layer reads 0 calls
                    continue
                wrapped = (self._wrap_fft(fn_name, original) if layer == "field.fft"
                           else self._wrap(layer, original))
                for ns in [module] + namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)

    def fft_gflop(self) -> float:
        """Computed, not measured: 5 N log2 N per complex transform of
        length N (times the batch), half that per real transform."""
        flop = 0.0
        for (name, shape, axes), count in self.fft_shapes.items():
            size = math.prod(shape)
            length = math.prod(shape[a] for a in axes) if axes else size
            real = name not in _FFT_COMPLEX
            flop += count * 5.0 * size * math.log2(length) * (0.5 if real else 1.0)
        return flop / 1e9


def _axes(name, args, kwargs):
    """Transformed axes of one call, as a tuple (None: every axis)."""
    if name.endswith("2") or name.endswith("n"):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        if axes is None and name.endswith("2"):
            axes = (-2, -1)
        if axes is None:
            s = kwargs.get("s", args[0] if args else None)
            return None if s is None else tuple(range(-len(s), 0))
        return tuple(axes)
    return (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
