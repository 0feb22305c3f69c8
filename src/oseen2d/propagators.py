"""One integrating-factor RK4 core and the self-similar flows it advances.

Every flow in the package has the form

    dw/dt = Lap(w) - div F(w, t)    (+ div(xi w / 2) in self-similar variables),

with the Laplacian handled exactly in spectral space (Lawson's
integrating-factor RK4) and the flux F evaluated in physical space by a
stage function of the flow.  Each flow supplies only its physics: the
stage function and its stability bound at the one CFL number ``CFL``.
This module owns the rest: ``lawson_step`` takes one step of any such flow
(always dealiased by the 2/3 rule; it reads the speed of stage 1's velocity
only), ``march`` is the one loop through a list of stop times and
``StepperConfig.step`` the one step-size rule.  It supplies the stage
functions and bounds of the flows around one Gaussian in self-similar
variables, which carry no vortex background:

* the one-vortex self-similar flow  dw/dtau + alpha v . grad w = L w,
* the linearization at the Gaussian steady profile
  dw/dtau + alpha (v . grad w + v_w . grad G) = L w,
* the nonlinear perturbation about alpha G, the linearization plus its
  quadratic self-interaction,

plus least-squares decay-rate measurement on the resulting trajectories;
``solver`` owns every vortex background, the sampler of their sum and the
two flows that carry them (the Cauchy solver's remainder equation and the
frozen-background propagator SN), which step by its one rule.

The state lives on the half spectrum of the real transform ``rfft2``.
All advection terms are stepped in divergence form, so the zero mode of
the state is bit-exactly conserved.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .biot_savart import velocity_free_space
from .errors import DegenerateError, DomainError, StabilityError, point, real
from .field import (Grid, ScalarField, _dealias_mask, _deriv_wavenumbers,
                    _irfft2, _ksq, _rfft2, lp_norm, max_speed,
                    require_boundary_decay, require_grid, weighted_norm)
from .oseen import gaussian_profile, velocity_profile

CFL = 0.5

# Stepper states near t0 carry aliasing-level ringing at the boundary
# (the backgrounds are only marginally resolved there); it is orders of
# magnitude below anything physical, so the advancing solver and the
# rescaled perturbation flow tolerate it.
SOLVER_BOUNDARY_TOL = 0.05


@dataclass(frozen=True)
class StepperConfig:
    """Time-step control: a fixed dt, or None for the CFL rule."""

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None:
            real("dt", self.dt, 0, np.inf)

    @staticmethod
    def fixed(dt: float) -> "StepperConfig":
        return StepperConfig(dt=dt)

    @staticmethod
    def courant() -> "StepperConfig":
        return StepperConfig()

    def step(self, bound: float, room: float, accuracy: float = np.inf) -> float:
        """The one step-size rule: the step a flow takes, at most ``room``.

        ``bound`` is the flow's stability bound at the CFL number ``CFL``.
        A fixed config takes its dt; the CFL rule takes the bound, shortened
        to the flow's ``accuracy`` limit.  Raises DomainError when ``room``
        or ``accuracy`` is not > 0 (a stop behind the time, a NaN clock, or
        a time t <= 0 under the limit t/50) and StabilityError when the step
        exceeds the bound.
        """
        if not (room > 0 and accuracy > 0):
            raise DomainError(
                f"no step fits: the stop must lie ahead of the current time and the "
                f"accuracy limit be > 0, got room={room}, accuracy={accuracy}")
        dt = min(self.dt if self.dt is not None else min(bound, accuracy), room)
        if dt > bound:
            raise StabilityError(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
        return dt


def cfl_bound(h: float, speed: float) -> float:
    """The CFL step CFL * h / speed; infinite for a zero speed."""
    return np.inf if speed == 0 else CFL * h / speed


@dataclass
class Trajectory:
    """Time-stamped snapshots of one propagation run; norms on demand."""

    time_label: str                      # "tau" or "t"
    times: list[float] = dc_field(default_factory=list)
    fields: list[ScalarField] = dc_field(default_factory=list)

    def record(self, time: float, w: ScalarField):
        self.times.append(float(time))
        self.fields.append(w)

    @property
    def final(self) -> ScalarField:
        return self.fields[-1]

    def norms(self, norm) -> np.ndarray:
        """Evaluate a norm selector on every frame: scalar p or a (q, m) pair."""
        if isinstance(norm, tuple):
            q, m = norm
            return np.array([weighted_norm(w, q, m) for w in self.fields])
        return np.array([lp_norm(w, norm) for w in self.fields])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log(norm) against time over a window."""

    taus: tuple[float, ...]
    norms: tuple[float, ...]
    rate: float
    residual: float


# ---------------------------------------------------------------------
# the integrating-factor RK4 core: one step and one stop-time loop
# ---------------------------------------------------------------------

# A stage function maps (state samples, stage time) to the flux F of
# dw/dt = Lap(w) - div F, summed over every advective term, and the velocity
# it solved that advects the state (None if it solved none that does), each
# one float (2, n, n) array: lawson_step reads stage 1's speed only.
Stage = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray | None]]

# Relative distance below which a time counts as having reached a stop.
STOP_RTOL = 1e-12


def lawson_step(w: ScalarField, t: float, t_stop: float, stage: Stage,
                pick_dt: Callable[[float, float], float],
                drift: bool = False) -> tuple[ScalarField, float]:
    """One Lawson (integrating-factor) RK4 step of dw/dt = Lap(w) - div F(w, t).

    The Laplacian is handled exactly in spectral space.  Stage 1 is
    evaluated first, so ``pick_dt(speed, room)`` sizes the step from the
    speed of the velocity that stage already solved (0 for None); it returns
    a step no longer than ``room = t_stop - t`` and raises StabilityError
    when that step breaks the flow's bound.  Each stage sends its flux
    through one real transform pair, dealiased by the 2/3 rule; ``drift``
    adds the self-similar drift div(xi w / 2), never dealiased, whose
    divergence form leaves the zero mode untouched.  The state, the
    tendencies and the integrating factors live on the half spectrum.

    Returns the new state and its time.
    """
    grid = w.grid
    nh = grid.n // 2 + 1                   # columns of the half spectrum
    kd = _deriv_wavenumbers(grid)
    ikx, iky = 1j * kd[:, None], 1j * kd[None, :nh]
    mask = _dealias_mask(grid)[:, :nh]
    x = 0.5 * grid.coords()                 # xi / 2 along either axis
    half_xi = np.stack(np.broadcast_arrays(x[:, None], x[None, :])) if drift else None

    def div_hat(f):
        fh = _rfft2(f)
        out = ikx * fh[0]
        out += iky * fh[1]
        return out

    def tendency(values, flux):
        out = div_hat(flux)
        np.multiply(np.negative(out, out=out), mask, out=out)
        if drift:
            out = out + div_hat(half_xi * values)
        return out

    # every caller passes a fresh w_hat, which the inverse transform overwrites
    def nonlinear(w_hat, stage_t):
        values = _irfft2(w_hat, grid.n)
        return tendency(values, stage(values, stage_t)[0])

    flux, velocity = stage(w.values, t)
    dt = pick_dt(0.0 if velocity is None else max_speed(velocity), t_stop - t)
    del velocity                 # not kept alive through the other stages' solves
    eh = np.exp(-0.5 * dt * _ksq(grid)[:, :nh])
    ef = eh * eh
    w_hat = _rfft2(w.values)
    n1 = tendency(w.values, flux)
    n2 = nonlinear(eh * (w_hat + 0.5 * dt * n1), t + 0.5 * dt)
    n3 = nonlinear(eh * w_hat + 0.5 * dt * n2, t + 0.5 * dt)
    n4 = nonlinear(ef * w_hat + dt * eh * n3, t + dt)
    out = ef * w_hat + (dt / 6.0) * (ef * n1 + 2.0 * eh * (n2 + n3) + n4)
    values = _irfft2(out, grid.n)
    return ScalarField._owned(grid, values), t + dt


def march(w: ScalarField, t: float, stops: Sequence[float], advance,
          on_stop: Callable[[float, ScalarField], None] | None = None
          ) -> tuple[ScalarField, float]:
    """The one time-advancing loop: step through each stop time in turn.

    ``advance(w, t, t_stop)`` takes one step ending no later than t_stop
    and returns the new (w, t); ``on_stop(t, w)`` sees the start and every
    stop, with t set to the stop once it is within round-off of it.  A
    start or stop that is not a finite number (an int beyond the float range
    included), and a stop behind the start or the previous stop, raise
    DomainError before any step.  A step that
    does not move time forward (dt = 0 from an infinite speed, or NaN) and
    a state that is not finite at a stop raise StabilityError naming the
    time and the step.
    """
    clock = (t, *stops)
    if not (all(isinstance(time, numbers.Real) and abs(time) <= sys.float_info.max
                for time in clock) and np.all(np.diff(clock) >= 0)):
        raise DomainError(
            f"stop times must be finite and in order from a finite start, "
            f"got t={t}, stops={list(stops)}")
    step = 0
    for stop in (t, *stops):
        while t < stop - STOP_RTOL * abs(stop):
            w, t_next = advance(w, t, stop)
            step += 1
            if not t_next > t:
                raise StabilityError(
                    f"step {step} at t={t:.17g} does not advance (dt={t_next - t:.3g})")
            t = t_next
        t = max(t, stop)
        if not np.all(np.isfinite(w.values)):
            raise StabilityError(f"state is not finite at t={t:.17g} (step {step})")
        if on_stop is not None:
            on_stop(t, w)
    return w, t


# ---------------------------------------------------------------------
# self-similar propagators
# ---------------------------------------------------------------------

def vortex_advection(grid: Grid, alpha: float):
    """alpha v on the grid as one (2, n, n) array, and its largest speed."""
    real("alpha", alpha)
    v = np.stack(velocity_profile(*require_grid(grid).meshes()))
    return alpha * v, abs(alpha) * float(np.max(np.hypot(*v)))


def evolve_rescaled(w0: ScalarField, tau_end: float, cfg: StepperConfig,
                    stage: Stage, advection_max: float,
                    sample_every: float) -> Trajectory:
    """March a rescaled flow d w/d tau = L w - div F(w), sampled at the stop
    times k * sample_every (at least the largest step apart) and at tau_end.

    Every step obeys the explicit-drift bound 4h/L and the CFL bound of
    ``advection_max`` plus the speed of the velocity the stage returns.
    """
    real("tau_end", tau_end, 0, np.inf)
    h, drift_bound = w0.grid.h, 4.0 * w0.grid.h / w0.grid.box_size

    def pick_dt(speed, room):
        return cfg.step(min(drift_bound, cfl_bound(h, advection_max + speed)), room)

    real("sample_every", sample_every, pick_dt(0.0, np.inf), np.inf, ends="[]")
    # a frame of 8 n^2 bytes per sample: at most 2 GiB, before any stop is built
    real("tau_end/sample_every", tau_end / sample_every, 0, 2**28 / w0.grid.n**2,
         ends="[]")

    def advance(w, tau, stop):
        return lawson_step(w, tau, stop, stage, pick_dt, drift=True)

    stops = [k * sample_every for k in range(1, int(tau_end / sample_every) + 1)]
    stops = [s for s in stops if s < tau_end * (1 - STOP_RTOL)] + [tau_end]
    traj = Trajectory(time_label="tau")
    march(w0, 0.0, stops, advance, traj.record)
    return traj


def evolve_S1(alpha: float, w0: ScalarField, tau_end: float, cfg: StepperConfig,
              sample_every: float = 0.05) -> Trajectory:
    """One-vortex self-similar flow d w/d tau + alpha v . grad w = L w."""
    a, advection_max = vortex_advection(w0.grid, alpha)

    def stage(w, tau):
        return a * w, None

    return evolve_rescaled(w0, tau_end, cfg, stage, advection_max, sample_every)


def evolve_T_alpha(alpha: float, w0: ScalarField, tau_end: float,
                   cfg: StepperConfig, sample_every: float = 0.05) -> Trajectory:
    """Linearized-at-Gaussian flow
    d w/d tau + alpha (v . grad w + v_w . grad G) = L w.

    The coupling velocity v_w is the plane Biot-Savart field of the state,
    computed by the free-space method (accurate enough that the derivative
    modes of the Gaussian stay numerically exact eigenfunctions).  It
    advects only G, so the step bound sees alpha v alone.
    """
    grid = w0.grid
    a, advection_max = vortex_advection(grid, alpha)
    g = gaussian_profile(*grid.meshes())

    def stage(w, tau):
        vw = velocity_free_space(ScalarField._owned(grid, w))
        flux = a * w
        flux += alpha * vw * g
        return flux, None

    return evolve_rescaled(w0, tau_end, cfg, stage, advection_max, sample_every)


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


# ---------------------------------------------------------------------
# decay measurement
# ---------------------------------------------------------------------

NOISE_FLOOR = 1e-13


def fit_decay(trajectory: Trajectory, norm, tau_window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of log(norm) over the time window.

    ``norm`` is either a scalar p (plain L^p) or a pair (q, m) for the
    weighted norm.  Requires at least 5 samples in the window and norms
    above the noise floor.
    """
    lo, hi = point("tau_window", tau_window)
    times = np.asarray(trajectory.times)
    mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
    if int(mask.sum()) < 5:
        raise DegenerateError(
            f"need >= 5 samples in window [{lo}, {hi}], got {int(mask.sum())}")
    values = trajectory.norms(norm)[mask]
    if np.any(values <= NOISE_FLOOR):
        raise DegenerateError("norms hit the noise floor inside the window")
    taus = times[mask]
    coeffs = np.polyfit(taus, np.log(values), 1)
    fitted = np.polyval(coeffs, taus)
    residual = float(np.sqrt(np.mean((np.log(values) - fitted) ** 2)))
    return DecayFit(taus=tuple(taus), norms=tuple(values),
                    rate=float(coeffs[0]), residual=residual)
