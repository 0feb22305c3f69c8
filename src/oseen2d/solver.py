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

This module owns every vortex background: ``background_fields``, the one
sampler and sum of the analytic backgrounds, and the two flows that carry
them, the remainder equation above and the frozen-background propagator SN
of the uniqueness proof.  Both supply only a stage function and step by
the one rule ``decomposed_dt``; the Lawson RK4 core, the step-size rule it
applies and the self-similar flows without backgrounds live in
``propagators``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .biot_savart import (circulation_is_negligible, velocity_free_space,
                          velocity_periodic)
from .errors import DomainError, StabilityError, real
from .field import (Grid, ScalarField, lp_norm, require_boundary_decay,
                    require_grid)
from .measure import (AtomicDecomposition, FiniteMeasure, decompose,
                      heat_smooth, require_margin, total_variation)
from .oseen import (EXP_UNDERFLOW, OseenVortex, oseen_max_speed, oseen_velocity,
                    oseen_vorticity)
from .propagators import (SOLVER_BOUNDARY_TOL, StepperConfig, Trajectory,
                          cfl_bound, lawson_step, march)

SNAPSHOTS_PER_DECADE = 16

# The narrowest vortex core sqrt(s), in cells h, that SN resolves.
CORE_CELLS = 0.75


# ---------------------------------------------------------------------
# the analytic vortex backgrounds
# ---------------------------------------------------------------------

@lru_cache(maxsize=8)
def _no_backgrounds(grid: Grid) -> np.ndarray:
    return np.broadcast_to(0.0, (5, grid.n, grid.n))     # read-only, no memory


@lru_cache(maxsize=3)
def background_fields(vortices: tuple[OseenVortex, ...], t: float,
                      grid: Grid) -> np.ndarray:
    """The one sampler and the one sum of the analytic vortex backgrounds.

    Returns the read-only (5, n, n) array (U1, U2, W, S1, S2) at time t,
    with U = sum_i u_i, W = sum_i w_i and S = sum_i u_i w_i over the
    vortices, each sampled once on broadcast 1-D coordinates, w_i only on the
    rows x columns where -((c - z_i)/sqrt(t))^2/4 > EXP_UNDERFLOW (outside, it
    and u_i w_i are zeros that change no bit of W or S); one cached zero array
    per grid for no vortex.  A Lawson step samples three stage times, its
    last the next step's first: three entries leave two new per step.
    """
    require_grid(grid)
    if not vortices:
        return _no_backgrounds(grid)
    x = grid.coords()
    fields = np.zeros((5, grid.n, grid.n))
    for v in vortices:
        u1, u2 = oseen_velocity(v, t, x[:, None], x[None, :])
        near = [((x - z) / np.sqrt(t)) ** 2 < -4.0 * EXP_UNDERFLOW for z in v.z]
        r, c = (slice(m.argmax(), m.argmax() + m.sum()) for m in near)  # one run each
        w = oseen_vorticity(v, t, x[r, None], x[None, c])
        for total, sample in zip((fields[0], fields[1], *fields[2:, r, c]),
                                 (u1, u2, w, u1[r, c] * w, u2[r, c] * w)):
            total += sample
    fields.flags.writeable = False
    return fields


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
    backgrounds = tuple(OseenVortex(alpha, z) for alpha, z in dec.retained)
    return backgrounds, heat_smooth(dec.remainder, t0, grid), dec


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
    samples (U, W, S) from ``background_fields``, shared across steps.
    The background self-advection terms u_i . grad(w_i) are dropped
    analytically (they vanish pointwise by radial symmetry): a single
    vortex with a zero remainder has the flux U W - S = 0 exactly.
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
    """The one step rule of the flows with vortex backgrounds: the step that
    step_decomposed and propagate_SN take from time t, at most ``room``.

    The remainder is advected by the total velocity U + u~, so the stability
    bound is the CFL step of the backgrounds' analytic speed sum_i max|u_i|
    plus ``remainder_speed``, the speed of the remainder velocity that
    stage 1 solved (0 for SN, which solves none), as in the self-similar
    flows; the automatic step also keeps dt <= t/50, which resolves the
    1/sqrt(t) sharpening of the backgrounds near t = 0 (an accuracy rule,
    not a stability one).
    """
    speed = sum(oseen_max_speed(v, t) for v in backgrounds)
    return cfg.step(cfl_bound(grid.h, speed + remainder_speed), room, t / 50.0)


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
                       partial(decomposed_dt, backgrounds, cfg, t, grid))


# ---------------------------------------------------------------------
# the frozen multi-vortex background propagator SN (physical time)
# ---------------------------------------------------------------------

def propagate_SN(vortices: Sequence[OseenVortex], f: ScalarField, s: float,
                 t: float, cfg: StepperConfig) -> ScalarField:
    """Evolve f from time s to time t under the frozen vortex backgrounds.

    Pure heat flow when the vortex list is empty.  Total mass is conserved
    to round-off by the divergence-form advection.  Each step is the one
    step_decomposed takes on a zero remainder (``decomposed_dt`` with no
    remainder speed).  With a vortex, its core sqrt(s) must span at least
    CORE_CELLS cells (DomainError otherwise); a ratio, so the rule has no
    scale of its own.
    """
    real("t", t, real("s", s, 0, np.inf), np.inf)
    grid, vortices = f.grid, tuple(vortices)
    if vortices and np.sqrt(s) < CORE_CELLS * grid.h:
        raise DomainError(
            f"h={grid.h:.3g} under-resolves the vortex core sqrt(s)={np.sqrt(s):.3g}: "
            f"SN needs sqrt(s) >= {CORE_CELLS} h")

    # |sum_i u_i| <= sum_i oseen_max_speed(v_i) pointwise, so the sampled
    # speed never binds: the stage returns no velocity and the step reads
    # only the analytic bound
    def stage(w, now):
        return background_fields(vortices, now, grid)[:2] * w, None

    def advance(w, now, stop):
        return lawson_step(w, now, stop, stage,
                           partial(decomposed_dt, vortices, cfg, now, grid))

    return march(f, s, [t], advance)[0]


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


def snapshot_schedule(t0: float, t_end: float) -> list[float]:
    """SNAPSHOTS_PER_DECADE geometric times per decade of t, endpoint included."""
    ratio = real("t_end/t0", t_end / t0, 1, np.inf)     # the count is log(ratio)
    count = max(1, int(np.ceil(SNAPSHOTS_PER_DECADE * np.log10(ratio))))
    times = [t0 * ratio ** (k / count) for k in range(1, count + 1)]
    times[-1] = t_end
    return times


def solve_cauchy(mu: FiniteMeasure, epsilon: float, t0: float, t_end: float,
                 grid: Grid, cfg: StepperConfig | None = None,
                 l1_check_tol: float = 1e-3) -> SolverRun:
    """Decompose, initialize at t0, and march to t_end.

    Records remainder snapshots on a geometric schedule and checks the
    measure-data a priori bound |omega(t)|_L1 <= |mu| at every snapshot:
    a ratio above 1 + ``l1_check_tol`` raises DomainError at t0, before any
    step, where only a grid that under-resolves the data breaks it, and
    StabilityError, naming t, at a later snapshot.
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
    schedule = snapshot_schedule(t0, t_end)
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
            raise StabilityError(
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


def restrict(f: ScalarField, coarse: Grid) -> ScalarField:
    """Restrict to a nested coarser grid by taking every matching sample."""
    n_fine = f.grid.n
    if f.grid.box_size != require_grid(coarse).box_size or n_fine % coarse.n != 0:
        raise DomainError("grids are not nested")
    step = n_fine // coarse.n
    return ScalarField(coarse, f.values[::step, ::step])
