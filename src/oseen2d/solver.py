"""Nonlinear Cauchy solver for the 2D vorticity equation with measure data.

The large atoms are carried as analytic vortex backgrounds (which solve
the equation exactly on their own) and only the gridded remainder is
evolved.  Subtracting the exact background equations leaves

    d w~/dt = Lap(w~) - div(u w~) - sum_i div((u - u_i) w_i),

where u = u~ + sum_j u_j, each u_j and w_i analytic.  The self-advection
of each background drops out identically (perpendicular velocity and
gradient), so a single exact vortex has a remainder that stays at
round-off level.  With no backgrounds the remainder is the full
vorticity, so the same stepper marches the plain ("direct") equation.

The initial measure alone fixes the tuple of backgrounds, so the state is
the plain pair (w~, t) under it, and ``march`` steps that pair like every
other flow's with ``partial(step_decomposed, backgrounds, cfg)``.

Both this flow and the rescaled perturbation flow about alpha G (for
long-horizon single-vortex asymptotics, where the box does not have to
chase the sqrt(t) spreading) supply only a stage function and a stability
bound; the one Lawson RK4 core, the one step-size rule and the one
sampler and sum of the analytic backgrounds (``background_fields``) live
in ``propagators``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .biot_savart import (circulation_is_negligible, velocity_free_space,
                          velocity_periodic)
from .errors import DomainError, Oseen2dError, real
from .field import (Grid, ScalarField, lp_norm, require_boundary_decay,
                    require_grid)
from .measure import (AtomicDecomposition, FiniteMeasure, decompose,
                      heat_smooth, require_margin, total_variation)
from .oseen import OseenVortex, gaussian_profile
from .propagators import (StepperConfig, Trajectory, background_cfl_bound,
                          background_fields, cfl_bound, evolve_rescaled,
                          lawson_step, march, vortex_advection)

SNAPSHOTS_PER_DECADE = 16

# Stepper states near t0 carry aliasing-level ringing at the boundary
# (the backgrounds are only marginally resolved there); it is orders of
# magnitude below anything physical, so the advancing solver tolerates it.
SOLVER_BOUNDARY_TOL = 0.05


def total_vorticity(backgrounds: tuple[OseenVortex, ...], w: ScalarField,
                    t: float) -> ScalarField:
    """The total vorticity at time t: the remainder w plus the backgrounds."""
    grid = w.grid
    return ScalarField._owned(grid, w.values + background_fields(backgrounds, t, grid)[2])


def initialize_from_measure(mu: FiniteMeasure, epsilon: float, t0: float, grid: Grid
                            ) -> tuple[tuple[OseenVortex, ...], ScalarField,
                                       AtomicDecomposition]:
    """Decompose mu into its fixed backgrounds and the remainder at t0.

    Retained atoms start as exact vortex backgrounds with zero remainder
    share, each clear of the box margin (``measure.require_margin``, which
    checks t0); the rest of the measure enters as its heat evolution at t0.
    """
    dec = decompose(mu, epsilon)
    require_margin([z for _, z in dec.retained], t0, grid)
    if np.isfinite(dec.d) and t0 > dec.d**2 / 100.0:
        warnings.warn(
            f"t0={t0} is large relative to the vortex separation "
            f"(d^2/100 = {dec.d**2 / 100.0:.3g}); backgrounds interact strongly",
            stacklevel=2)
    remainder_measure = dec.remainder
    if remainder_measure.atoms or remainder_measure.density is not None:
        remainder = heat_smooth(remainder_measure, t0, grid)
    else:
        remainder = grid.zeros()
    backgrounds = tuple(OseenVortex(alpha, z) for alpha, z in dec.retained)
    return backgrounds, remainder, dec


# ---------------------------------------------------------------------
# decomposed stepping
# ---------------------------------------------------------------------

def _remainder_velocity(wf: ScalarField):
    """The one velocity router: periodic inversion for a remainder of
    negligible circulation, free-space convolution otherwise."""
    if circulation_is_negligible(wf):
        return velocity_periodic(wf)
    return velocity_free_space(wf, boundary_tol=SOLVER_BOUNDARY_TOL)


def _decomposed_stage(backgrounds, grid: Grid):
    """Stage function of the remainder equation: the flux
    u w~ + sum_i (u - u_i) w_i and the remainder velocity u~ (None for a
    zero remainder).

    With U = sum_i u_i, W = sum_i w_i and S = sum_i u_i w_i, that flux is
    the identity (u~ + U)(w~ + W) - S, so the stage reads only the summed
    samples (U, W, S) from ``propagators.background_fields``, shared
    across steps.  The background self-advection terms u_i . grad(w_i)
    are dropped analytically (they vanish pointwise by radial symmetry):
    a single vortex with a zero remainder has the flux U W - S = 0 exactly.
    """
    def stage(w, t):
        bg = background_fields(backgrounds, t, grid)
        ut = _remainder_velocity(ScalarField._owned(grid, w)) if np.any(w) else None
        # after the solve, for the peak memory; U is never -0.0, so 0.0 + U is U
        flux = np.add(0.0 if ut is None else ut, bg[:2])
        flux *= w + bg[2]
        flux -= bg[3:]
        return flux, ut
    return stage


def decomposed_dt(backgrounds, cfg: StepperConfig, t: float, grid: Grid,
                  remainder_speed: float, room: float = np.inf) -> float:
    """The step step_decomposed takes from time t, at most ``room``.

    The stability bound is the CFL step of the backgrounds and of the
    speed of the remainder velocity that stage 1 solved; the automatic step
    also keeps dt <= t/50, which resolves the 1/sqrt(t) sharpening of the
    backgrounds near t = 0 (an accuracy rule, not a stability one).
    """
    return cfg.step(min(background_cfl_bound(backgrounds, t, grid),
                        cfl_bound(grid.h, remainder_speed)), room, t / 50.0)


def step_decomposed(backgrounds, cfg: StepperConfig, w: ScalarField, t: float,
                    t_stop: float = np.inf) -> tuple[ScalarField, float]:
    """Advance the remainder w at time t by one integrating-factor RK4 step,
    ending no later than t_stop, with the step size from decomposed_dt.

    Returns the new (w, t); ``partial(step_decomposed, backgrounds, cfg)``
    is the step ``march`` takes.  Backgrounds advance only through
    t -> t + dt inside their formulas.  The remainder velocity routes by
    circulation (periodic inversion for mean-zero remainders, free-space
    otherwise).
    """
    grid = w.grid
    return lawson_step(w, t, t_stop, _decomposed_stage(backgrounds, grid),
                       lambda speed, room: decomposed_dt(backgrounds, cfg, t, grid,
                                                         speed, room))


# ---------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------

@dataclass
class SolverRun:
    """A completed Cauchy-problem run with its snapshot trajectory."""

    grid: Grid
    measure: FiniteMeasure
    decomposition: AtomicDecomposition
    epsilon: float
    t0: float
    t_end: float
    backgrounds: tuple[OseenVortex, ...]
    trajectory: Trajectory                 # remainder (the full field without backgrounds)
    series: list[dict] = dc_field(default_factory=list)

    def total_vorticity(self, index: int) -> ScalarField:
        return total_vorticity(self.backgrounds, self.trajectory.fields[index],
                               self.trajectory.times[index])


def snapshot_schedule(t0: float, t_end: float, per_decade: int) -> list[float]:
    """Geometric snapshot times (uniform in log t), endpoint included."""
    ratio = real("t_end/t0", t_end / t0, 1, np.inf)     # the count is log(ratio)
    count = max(1, int(np.ceil(per_decade * np.log10(ratio))))
    times = [t0 * ratio ** (k / count) for k in range(1, count + 1)]
    times[-1] = t_end
    return times


def solve_cauchy(mu: FiniteMeasure, epsilon: float, t0: float, t_end: float,
                 grid: Grid, cfg: StepperConfig | None = None,
                 l1_check_tol: float = 1e-3) -> SolverRun:
    """Decompose, initialize at t0, and march to t_end.

    Records remainder snapshots on a geometric schedule and checks the
    measure-data a priori bound |omega(t)|_L1 <= |mu| at every snapshot:
    a ratio above 1 + ``l1_check_tol`` raises (DomainError at t0, before
    any step, where only a grid that under-resolves the data breaks it).
    The tolerance is loose because snapshots near t0 carry discretization
    noise when the initial profiles are only marginally resolved (it decays
    within a few multiples of t0); A1 tightens it to 1e-6.  Each snapshot's
    remainder must also be negligible at the box boundary (MarginError
    otherwise): the periodic solves of a mean-zero remainder check no
    boundary, so for such a run this is the only boundary check.

    The run's trajectory holds the remainder frames (norms on demand via
    ``Trajectory.norms``).  Its series holds one dict per snapshot with
    the values that need the backgrounds: ``t``, ``total_l1`` (the L1 norm
    of the total vorticity), ``l1_bound_ratio`` (total_l1 / |mu|, 0 for a
    zero measure) and ``circulation`` (the total circulation).
    """
    real("t_end", t_end, real("t0", t0, 0, np.inf), np.inf)
    real("l1_check_tol", l1_check_tol, 0, np.inf, ends="[]")
    cfg = cfg or StepperConfig.courant()
    backgrounds, remainder, dec = initialize_from_measure(mu, epsilon, t0, grid)
    tv = total_variation(mu)
    background_circulation = sum(v.alpha for v in backgrounds)
    schedule = snapshot_schedule(t0, t_end, SNAPSHOTS_PER_DECADE)
    traj = Trajectory(time_label="t")
    run = SolverRun(grid=grid, measure=mu, decomposition=dec,
                    epsilon=epsilon, t0=t0, t_end=t_end,
                    backgrounds=backgrounds, trajectory=traj)

    def record(t: float, w: ScalarField):
        traj.record(t, w)
        l1 = lp_norm(total_vorticity(backgrounds, w, t), 1)
        if tv > 0 and l1 > tv * (1.0 + l1_check_tol):
            if t == t0:
                raise DomainError(
                    f"the samples at t0 break the L1 bound ({l1} > {tv}): "
                    f"h={grid.h:.3g} under-resolves sqrt(t0)={t0**0.5:.3g}")
            raise Oseen2dError(
                f"L1 bound violated at t={t}: |omega|_1 = {l1} > {tv}")
        require_boundary_decay(w, "solve_cauchy", tol=SOLVER_BOUNDARY_TOL)
        run.series.append({
            "t": t,
            "total_l1": l1,
            "l1_bound_ratio": l1 / tv if tv > 0 else 0.0,
            "circulation": background_circulation + w.integral(),
        })

    march(remainder, t0, schedule, partial(step_decomposed, backgrounds, cfg), record)
    return run


# ---------------------------------------------------------------------
# rescaled single-frame nonlinear evolution (long-horizon asymptotics)
# ---------------------------------------------------------------------

def evolve_rescaled_perturbation(alpha: float, w0: ScalarField, tau_end: float,
                                 cfg: StepperConfig,
                                 sample_every: float = 0.1) -> Trajectory:
    """Full nonlinear rescaled flow of the perturbation about alpha G.

    With w = alpha G + w~ and v = alpha v_G + v~, the vorticity equation in
    self-similar variables reduces to

        d w~/d tau = L w~ - alpha div(v_G w~) - alpha div(v~ G) - div(v~ w~),

    the linearized flow plus its quadratic self-interaction.  The returned
    trajectory samples w~(tau) starting from w~(0) = w0.
    """
    grid = w0.grid
    require_boundary_decay(w0, "evolve_rescaled_perturbation")
    a, advection_max = vortex_advection(grid, alpha)
    g = gaussian_profile(*grid.meshes())

    def stage(w, tau):
        vt = velocity_free_space(ScalarField._owned(grid, w),
                                 boundary_tol=SOLVER_BOUNDARY_TOL)
        flux = np.add(a, vt)
        flux *= w
        flux += alpha * vt * g
        return flux, vt

    return evolve_rescaled(w0, tau_end, cfg, stage, advection_max, sample_every)


def restrict(f: ScalarField, coarse: Grid) -> ScalarField:
    """Restrict to a nested coarser grid by taking every matching sample."""
    n_fine = f.grid.n
    if f.grid.box_size != require_grid(coarse).box_size or n_fine % coarse.n != 0:
        raise DomainError("grids are not nested")
    step = n_fine // coarse.n
    return ScalarField(coarse, f.values[::step, ::step])
