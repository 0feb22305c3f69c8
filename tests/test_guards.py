"""Every public numeric entry admits a number only inside its range.

One table lists each entry with good keyword arguments and the names of
its numeric parameters.  Replacing one of them with a value that is not a
number (a string, None, a list, NaN, a complex number, an array or a bool)
raises an Oseen2dError; inf, a negative number or zero either still
computes, where it is admissible (p = inf, alpha <= 0, epsilon = inf), or
raises one.  No call ends in a TypeError or ValueError from deep in numpy.
"""

import dataclasses

import numpy as np
import pytest

from oseen2d import (FiniteMeasure, Grid, OseenVortex, StepperConfig,
                     Trajectory, decompose, fit_decay, heat_smooth, lp_norm,
                     oseen_fields, semigroup_apply, solve_cauchy, weighted_norm)
from oseen2d.biot_savart import hls_ratio, velocity_free_space
from oseen2d.diagnostics import (linearized_spectrum, localized_diffuse_series,
                                 remainder_norms, solution_distance)
from oseen2d.errors import DomainError, Oseen2dError, real
from oseen2d.experiments import ExperimentConfig
from oseen2d.field import ScalarField, require_boundary_decay, resample_affine
from oseen2d.measure import require_margin
from oseen2d.oseen import (gaussian_profile, oseen_max_speed, oseen_velocity,
                           oseen_vorticity)
from oseen2d.propagators import (evolve_rescaled_perturbation, evolve_S1,
                                 evolve_T_alpha, march, vortex_advection)
from oseen2d.rng import band_limited_field, generator
from oseen2d.selfsim import commutation_residual, to_self_similar
from oseen2d.solver import (background_fields, initialize_from_measure,
                            propagate_SN, restrict)

GRID = Grid(64, 24.0)
FIELD = ScalarField(GRID, gaussian_profile(*GRID.meshes()))
MU = FiniteMeasure(atoms=(((0.0, 0.0), 1.0), ((1.0, 0.0), 0.05)))
DIFFUSE = FiniteMeasure(density=FIELD)
VORTEX = OseenVortex(1.0)
DECAY = Trajectory("tau", [0.1 * k for k in range(11)],
                   [np.exp(-0.1 * k) * FIELD for k in range(11)])
RUN = solve_cauchy(MU, 0.1, 1.0, 1.2, GRID)
FIXED = StepperConfig.fixed(1e-2)


def rescaled(flow):
    def run(alpha, tau_end, sample_every):
        return flow(alpha, FIELD, tau_end, FIXED, sample_every)
    return run


# name: (callable, good keyword arguments, numeric parameters)
ENTRIES = {
    "Grid": (Grid, dict(n=32, box_size=20), ("n", "box_size")),
    "ScalarField.__mul__": (lambda c: FIELD * c, dict(c=2), ("c",)),
    "lp_norm": (lp_norm, dict(f=FIELD, p=2), ("p",)),
    "weighted_norm": (weighted_norm, dict(f=FIELD, q=2, m=1), ("q", "m")),
    "resample_affine": (lambda scale, x, y: resample_affine(FIELD, scale, (x, y)),
                        dict(scale=1, x=0, y=0), ("scale", "x", "y")),
    "require_boundary_decay": (lambda tol: require_boundary_decay(FIELD, "f", tol),
                               dict(tol=1), ("tol",)),
    "FiniteMeasure": (lambda x, y, mass: FiniteMeasure(atoms=(((x, y), mass),)),
                      dict(x=0, y=0, mass=1), ("x", "y", "mass")),
    "decompose": (decompose, dict(mu=MU, epsilon=1), ("epsilon",)),
    "heat_smooth": (heat_smooth, dict(mu=MU, t=1, grid=GRID), ("t",)),
    "OseenVortex": (lambda alpha, x, y: OseenVortex(alpha, (x, y)),
                    dict(alpha=1, x=0, y=0), ("alpha", "x", "y")),
    "oseen_fields": (oseen_fields, dict(v=VORTEX, t=1, grid=GRID), ("t",)),
    "oseen_vorticity": (lambda t: oseen_vorticity(VORTEX, t, 0.5, 0.0), dict(t=1),
                        ("t",)),
    "oseen_velocity": (lambda t: oseen_velocity(VORTEX, t, 0.5, 0.0), dict(t=1),
                       ("t",)),
    "oseen_max_speed": (oseen_max_speed, dict(v=VORTEX, t=1), ("t",)),
    "semigroup_apply": (semigroup_apply, dict(tau=1, f=FIELD), ("tau",)),
    "commutation_residual": (commutation_residual, dict(tau=1, f=FIELD), ("tau",)),
    "to_self_similar": (lambda t, x, y: to_self_similar(FIELD, t, (x, y)),
                        dict(t=1, x=0, y=0), ("t", "x", "y")),
    "StepperConfig": (StepperConfig, dict(dt=1), ("dt",)),
    "propagate_SN": (lambda s, t: propagate_SN([VORTEX], FIELD, s, t, FIXED),
                     dict(s=1, t=1.05), ("s", "t")),
    "vortex_advection": (vortex_advection, dict(grid=GRID, alpha=1), ("alpha",)),
    "evolve_S1": (rescaled(evolve_S1), dict(alpha=1, tau_end=0.05, sample_every=0.05),
                  ("alpha", "tau_end", "sample_every")),
    "evolve_T_alpha": (rescaled(evolve_T_alpha),
                       dict(alpha=1, tau_end=0.05, sample_every=0.05),
                       ("alpha", "tau_end", "sample_every")),
    "evolve_rescaled_perturbation": (rescaled(evolve_rescaled_perturbation),
                                     dict(alpha=1, tau_end=0.05, sample_every=0.05),
                                     ("alpha", "tau_end", "sample_every")),
    "fit_decay": (lambda norm, lo, hi: fit_decay(DECAY, norm, (lo, hi)),
                  dict(norm=2, lo=0, hi=1), ("norm", "lo", "hi")),
    "initialize_from_measure": (initialize_from_measure,
                                dict(mu=MU, epsilon=1, t0=1, grid=GRID),
                                ("epsilon", "t0")),
    "solve_cauchy": (solve_cauchy, dict(mu=MU, epsilon=1, t0=1, t_end=1.1, grid=GRID,
                                        l1_check_tol=1e-3),
                     ("epsilon", "t0", "t_end", "l1_check_tol")),
    "remainder_norms": (remainder_norms, dict(run=RUN, m=1), ("m",)),
    "solution_distance": (lambda m: solution_distance(RUN, RUN, m), dict(m=1), ("m",)),
    "localized_diffuse_series": (
        lambda p, q, t, x, y: localized_diffuse_series(DIFFUSE, (x, y), [t], p, q, GRID),
        dict(p=4, q=4, t=1, x=0, y=0), ("p", "q", "t", "x", "y")),
    "hls_ratio": (hls_ratio, dict(omega=FIELD, p=1.5), ("p",)),
    "velocity_free_space": (velocity_free_space, dict(omega=FIELD, boundary_tol=1),
                            ("boundary_tol",)),
    "generator": (generator, dict(seed=1), ("seed",)),
    "band_limited_field": (band_limited_field, dict(grid=GRID, seed=1, band=4),
                           ("seed", "band")),
    "linearized_spectrum": (linearized_spectrum,
                            dict(alpha=1, basis_n=16, grid=Grid(64, 40.0)),
                            ("alpha", "basis_n")),
    "ExperimentConfig": (ExperimentConfig, dict(grid_n=64, box_l=40, t0=1, t_end=2,
                                                dt=1, alpha=1, epsilon=1, m=3,
                                                seed=1, basis=16),
                         ("grid_n", "box_l", "t0", "t_end", "dt", "alpha", "epsilon",
                          "m", "seed", "basis")),
}

INTEGERS = {"n", "seed", "band", "basis_n", "grid_n", "basis"}

# None selects a default here: the CFL rule, or 0.05 of the total variation
OPTIONAL = {("StepperConfig", "dt"), ("ExperimentConfig", "dt"),
            ("ExperimentConfig", "epsilon")}


# an int beyond the float range: no float holds it, so no entry computes with it
HUGE = 10**400


def cases(values):
    """(entry, parameter, value) for every numeric parameter of the table."""
    return [pytest.param(name, param, value, id=f"{name}-{param}-"
                         + ("10**400" if value is HUGE else repr(value)))
            for name, (_, _, params) in ENTRIES.items() for param in params
            for value in values if not (value is None and (name, param) in OPTIONAL)]


@pytest.mark.parametrize("entry, param, bad", cases(
    ["1", None, [1.0], np.nan, 1 + 1j, np.array([1.0, 1.0]), True, HUGE]))
def test_a_value_that_is_not_a_number_raises_an_oseen2d_error(entry, param, bad):
    fn, good, _ = ENTRIES[entry]
    with pytest.raises(Oseen2dError):
        fn(**{**good, param: bad})


@pytest.mark.parametrize("call", [
    lambda: oseen_max_speed(VORTEX, HUGE),          # TypeError from np.sqrt
    lambda: march(FIELD, HUGE, [], None),           # TypeError from np.isfinite
    lambda: march(FIELD, 1.0, [HUGE], None),
    lambda: Grid(16, HUGE).h,                       # OverflowError
    lambda: GRID.zeros() * HUGE,                    # OverflowError
    lambda: real("seed", HUGE, 0, np.inf, ends="[)", integer=True),
], ids=["oseen_max_speed", "march-start", "march-stop", "Grid", "ScalarField.__mul__",
        "real-integer"])
def test_an_int_beyond_the_float_range_raises_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("entry, param, bad", cases([np.inf, -1.0, 0]))
def test_an_edge_number_computes_or_raises_an_oseen2d_error(entry, param, bad):
    # admissible for some parameters: p = inf, alpha <= 0, tau = 0, ...
    fn, good, _ = ENTRIES[entry]
    try:
        fn(**{**good, param: bad})
    except Oseen2dError:
        pass


def _arrays(out):
    """Every number a result holds, as a flat list of arrays."""
    if isinstance(out, ScalarField):
        return [out.values]
    if isinstance(out, np.random.Generator):
        return [out.standard_normal(4)]
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (tuple, list)):
        return [a for item in out for a in _arrays(item)]
    return [np.asarray(out)]


# each entry with its first numeric parameter whose good value is an integer
INTEGRAL = {name: next(p for p in params if float(good[p]).is_integer())
            for name, (_, good, params) in ENTRIES.items()
            if any(float(good[p]).is_integer() for p in params)}


@pytest.mark.parametrize("entry, param", INTEGRAL.items())
def test_ints_floats_and_numpy_numbers_give_one_result(entry, param):
    fn, good, _ = ENTRIES[entry]
    value = good[param]
    forms = (int, np.int64) if param in INTEGERS else (int, float, np.float64)
    want, *others = (_arrays(fn(**{**good, param: form(value)})) for form in forms)
    for got in others:
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# name: the entry with every argument good but its grid
GRID_ENTRIES = {
    "ScalarField": lambda grid: ScalarField(grid, FIELD.values),
    "heat_smooth": lambda grid: heat_smooth(MU, 1, grid),
    "oseen_fields": lambda grid: oseen_fields(VORTEX, 1, grid),
    "solve_cauchy": lambda grid: solve_cauchy(MU, 1, 1, 1.1, grid),
    "initialize_from_measure": lambda grid: initialize_from_measure(MU, 1, 1, grid),
    "require_margin": lambda grid: require_margin([(0, 0)], 1, grid),
    "localized_diffuse_series": lambda grid: localized_diffuse_series(
        DIFFUSE, (0, 0), [1], 4, 4, grid),
    "vortex_advection": lambda grid: vortex_advection(grid, 1),
    "background_fields": lambda grid: background_fields((VORTEX,), 1, grid),
    "restrict": lambda grid: restrict(FIELD, grid),
    "band_limited_field": lambda grid: band_limited_field(grid),
    "linearized_spectrum": lambda grid: linearized_spectrum(1.0, 16, grid=grid),
}


@pytest.mark.parametrize("entry", GRID_ENTRIES)
@pytest.mark.parametrize("grid", ["x", None, 64])
def test_a_grid_argument_must_be_a_grid(entry, grid):
    # each raised an AttributeError when it first read an attribute of grid
    with pytest.raises(DomainError, match="grid must be a Grid, got "):
        GRID_ENTRIES[entry](grid)
