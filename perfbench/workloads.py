"""The four benchmark scenarios, distilled from the source paper's pipeline.

Each scenario has three parts:

* ``setup(seed)`` draws the inputs from the seed and fills the package's
  grid-keyed tables with one untimed call per velocity route;
* ``run(inputs)`` is the timed repetition, a generator that yields
  between its parts (so the worker can time the host's speed there, see
  ``worker.py``) and returns the outputs;
* ``check(inputs, outputs)`` returns ``(name, measured, bound)`` triples.
  A check passes only when ``measured <= bound``, so NaN fails.

The seed moves geometry and parameters, never the step count: the solver's
dt comes from the t/50 rule and the background CFL, which depend only on t
and the circulations, and the rescaled flows use a fixed dt.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from oseen2d.biot_savart import velocity_free_space, velocity_periodic
from oseen2d.diagnostics import linearized_spectrum, remainder_norms
from oseen2d.field import Grid, ScalarField, lp_norm, weighted_norm
from oseen2d.measure import FiniteMeasure, total_variation
from oseen2d.propagators import StepperConfig, evolve_S1, evolve_T_alpha
from oseen2d.selfsim import semigroup_apply
from oseen2d.solver import solve_cauchy

PAIR_GRID = Grid(256, 40.0)
PAIR_T0 = 1e-2
PAIR_T_END = 0.015
PAIR_M = 3.0

SPECTRUM_GRID = Grid(128, 40.0)
SPECTRUM_BASIS = 32

SELFSIM_GRID = Grid(128, 40.0)
SELFSIM_ALPHA = 10.0
SELFSIM_DT = 5e-3
SELFSIM_TAU_END = 0.25
SELFSIM_STEPS = round(SELFSIM_TAU_END / SELFSIM_DT)
SEMIGROUP_TAUS = tuple(1.0 + 0.1 * k for k in range(21))

_LARGEST = sys.float_info.max


def _gaussian(grid: Grid, mass: float, center, width: float) -> ScalarField:
    xx, yy = grid.meshes()
    r2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
    return ScalarField(grid, mass / (2.0 * np.pi * width**2)
                       * np.exp(-r2 / (2.0 * width**2)))


def _warm(grid: Grid, periodic: bool) -> None:
    """One call per velocity route, so lazy grid tables build in setup."""
    blob = _gaussian(grid, 1.0, (0.0, 0.0), 1.0)
    velocity_free_space(blob)
    if periodic:
        shifted = _gaussian(grid, 1.0, (1.0, 0.0), 1.0)
        velocity_periodic(blob - shifted)


# ---------------------------------------------------------------------
# vortex-pair (A11) and vortex-pair-density (A13)
# ---------------------------------------------------------------------

def _pair_atoms(rng: np.random.Generator):
    angle = rng.uniform(0.0, 2.0 * np.pi)
    separation = rng.uniform(3.5, 4.5)
    second = (separation * np.cos(angle), separation * np.sin(angle))
    return (((0.0, 0.0), 1.0), (second, 1.0))


def setup_pair(seed: int) -> dict:
    mu = FiniteMeasure.from_atoms(*_pair_atoms(np.random.default_rng(seed)))
    _warm(PAIR_GRID, periodic=True)
    return {"mu": mu}


def setup_pair_density(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    atoms = _pair_atoms(rng)
    center = tuple(rng.uniform(-3.0, 3.0, size=2))
    width = rng.uniform(0.6, 1.0)
    density = _gaussian(PAIR_GRID, 0.2, center, width)
    _warm(PAIR_GRID, periodic=False)
    return {"mu": FiniteMeasure(atoms=atoms, density=density)}


def run_pair(inputs: dict):
    mu = inputs["mu"]
    run = solve_cauchy(mu, 0.05 * total_variation(mu), PAIR_T0, PAIR_T_END,
                       PAIR_GRID)
    yield
    return {"run": run, "norms": remainder_norms(run, PAIR_M)}


def _circulation_drift(run) -> float:
    circ = [s["circulation"] for s in run.series]
    return max(abs(c - circ[0]) for c in circ)


def check_pair(inputs: dict, outputs: dict) -> list:
    return [
        ("circulation_drift", _circulation_drift(outputs["run"]), 1e-10),
        ("contraction_norm_finite", abs(outputs["norms"].final), _LARGEST),
    ]


def check_pair_density(inputs: dict, outputs: dict) -> list:
    run = outputs["run"]
    circ0 = abs(run.series[0]["circulation"])
    return [
        ("l1_bound_ratio", max(s["l1_bound_ratio"] for s in run.series),
         1.0 + 1e-3),
        ("circulation_drift_rel", _circulation_drift(run) / circ0, 1e-10),
        ("contraction_norm_finite", abs(outputs["norms"].final), _LARGEST),
    ]


# ---------------------------------------------------------------------
# linearization (A9)
# ---------------------------------------------------------------------

def setup_linearization(seed: int) -> dict:
    alphas = np.random.default_rng(seed).uniform(1.0, 100.0, size=3)
    _warm(SPECTRUM_GRID, periodic=False)
    return {"alphas": (0.0, *map(float, alphas))}


def run_linearization(inputs: dict):
    reports = []
    for alpha in inputs["alphas"]:
        if reports:
            yield
        reports.append(linearized_spectrum(alpha, SPECTRUM_BASIS, mean_zero=True,
                                           grid=SPECTRUM_GRID))
    return {"reports": reports}


def check_linearization(inputs: dict, outputs: dict) -> list:
    reports = outputs["reports"]
    exact = np.array(sorted((-(a + b) / 2.0 for a in range(SPECTRUM_BASIS)
                             for b in range(SPECTRUM_BASIS) if (a, b) != (0, 0)),
                            reverse=True))
    evs = np.array(reports[0].eigenvalues)
    dev = max(np.max(np.abs(evs.real - exact)), np.max(np.abs(evs.imag)))
    checks = [("alpha0_exact", float(dev), 1e-8)]
    for rep in reports[1:]:
        trans = rep.labeled_modes.get("translation")
        err = abs(trans + 0.5) if trans is not None else math.inf
        checks.append((f"translation[alpha={rep.alpha:.6g}]", err, 1e-6))
    return checks


# ---------------------------------------------------------------------
# selfsim-flows (A7, A8, A4)
# ---------------------------------------------------------------------

def _band_limited_mean_zero(grid: Grid, seed: int, band: int = 8) -> ScalarField:
    """Normal coefficients on the modes |m| <= band, a Gaussian envelope,
    the mean removed along the unit Gaussian, unit L2 norm."""
    rng = np.random.default_rng(seed)
    n = grid.n
    spec = np.zeros((n, n), dtype=complex)
    modes = np.r_[0:band + 1, n - band:n]
    shape = (modes.size, modes.size)
    spec[np.ix_(modes, modes)] = (rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape))
    spec[0, 0] = 0.0
    xx, yy = grid.meshes()
    values = np.fft.ifft2(spec).real * n * np.exp(-(xx**2 + yy**2) / 8.0)
    values -= values.sum() * grid.cell_area * np.exp(-(xx**2 + yy**2) / 4.0) / (4.0 * np.pi)
    return ScalarField(grid, values / np.sqrt(np.sum(values**2) * grid.cell_area))


def setup_selfsim(seed: int) -> dict:
    field = _band_limited_mean_zero(SELFSIM_GRID, seed)
    _warm(SELFSIM_GRID, periodic=False)
    return {"w0": field}


def run_selfsim(inputs: dict):
    w0 = inputs["w0"]
    cfg = StepperConfig.fixed(SELFSIM_DT)
    t_alpha = evolve_T_alpha(SELFSIM_ALPHA, w0, SELFSIM_TAU_END, cfg).final
    yield
    return {
        "T_alpha": t_alpha,
        "S1": evolve_S1(SELFSIM_ALPHA, w0, SELFSIM_TAU_END, cfg).final,
        "composed": semigroup_apply(0.7, semigroup_apply(0.8, w0)),
        "direct": semigroup_apply(1.5, w0),
        "series": [semigroup_apply(tau, w0) for tau in SEMIGROUP_TAUS],
    }


def check_selfsim(inputs: dict, outputs: dict) -> list:
    w0 = inputs["w0"]
    l1 = lp_norm(w0, 1)
    start = weighted_norm(w0, 2, 3.0)
    checks = []
    for flow in ("T_alpha", "S1"):
        final = outputs[flow]
        checks.append((f"{flow}.integral_drift",
                       abs(final.integral() - w0.integral()) / l1, 1e-12))
        checks.append((f"{flow}.l2m3_end_over_start",
                       weighted_norm(final, 2, 3.0) / start, 1.0))
    law = (lp_norm(outputs["composed"] - outputs["direct"], 2)
           / lp_norm(outputs["direct"], 2))
    checks.append(("semigroup_law", law, 1e-6))
    return checks


SCENARIOS = {
    "vortex-pair": (setup_pair, run_pair, check_pair),
    "vortex-pair-density": (setup_pair_density, run_pair, check_pair_density),
    "linearization": (setup_linearization, run_linearization, check_linearization),
    "selfsim-flows": (setup_selfsim, run_selfsim, check_selfsim),
}

# the size of the transforms that dominate each scenario (periodic solves on
# the grid itself, free-space solves on the doubled grid), which sets the
# size of the transforms in the worker's reference kernel
FFT_SIZE = {"vortex-pair": PAIR_GRID.n, "vortex-pair-density": 2 * PAIR_GRID.n,
            "linearization": 2 * SPECTRUM_GRID.n, "selfsim-flows": 2 * SELFSIM_GRID.n}

# steps of the flows whose marching loop is not itself traced
NOMINAL_STEPS = {"propagators.evolve_T_alpha": SELFSIM_STEPS,
                 "propagators.evolve_S1": SELFSIM_STEPS}
