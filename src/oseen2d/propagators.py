"""One integrating-factor RK4 core and the flows it advances.

Every flow in the package has the form

    dw/dt = Lap(w) - div F(w, t)    (+ div(xi w / 2) in self-similar variables),

with the Laplacian handled exactly in spectral space (Lawson's
integrating-factor RK4) and the flux F evaluated in physical space by a
stage function of the flow.  Each flow supplies only its physics: the
stage function and its stability bound at the one CFL number ``CFL``.
This module owns the rest: ``lawson_step`` takes one step of any such flow
(always dealiased by the 2/3 rule; it reads the speed of stage 1's velocity
only), ``march`` is the one loop through a list of stop times,
``StepperConfig.step`` the one step-size rule, and ``background_fields``
the one sampler and sum of the analytic vortex backgrounds: per time it
caches the summed velocity U, vorticity W and flux S = sum_i u_i w_i (exp
skipped where it underflows), so consecutive steps share samples and no
caller sums per vortex.  It supplies the stage functions and bounds of

* the frozen multi-vortex background propagator SN in physical time,
* the one-vortex self-similar flow  dw/dtau + alpha v . grad w = L w,
* the linearization at the Gaussian steady profile
  dw/dtau + alpha (v . grad w + v_w . grad G) = L w,

plus least-squares decay-rate measurement on the resulting trajectories;
``solver`` supplies those of the nonlinear Cauchy solver and its rescaled
perturbation flow.

The state lives on the half spectrum of the real transform ``rfft2``.
All advection terms are stepped in divergence form, so the zero mode of
the state is bit-exactly conserved.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .biot_savart import velocity_free_space
from .errors import DegenerateError, DomainError, StabilityError, point, real
from .field import (Grid, ScalarField, _dealias_mask, _deriv_wavenumbers,
                    _irfft2, _ksq, _rfft2, lp_norm, max_speed, require_grid,
                    weighted_norm)
from .oseen import (EXP_UNDERFLOW, OseenVortex, gaussian_profile, oseen_max_speed,
                    oseen_velocity, oseen_vorticity, velocity_profile)

CFL = 0.5


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
    start or stop that is not a finite number, and a stop behind the start
    or the previous stop, raise DomainError before any step.  A step that
    does not move time forward (dt = 0 from an infinite speed, or NaN) and
    a state that is not finite at a stop raise StabilityError naming the
    time and the step.
    """
    clock = (t, *stops)
    if not (all(isinstance(time, numbers.Real) for time in clock)
            and np.all(np.isfinite(clock)) and np.all(np.diff(clock) >= 0)):
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
# the frozen multi-vortex background propagator SN (physical time)
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


def background_cfl_bound(vortices: Sequence[OseenVortex], t: float,
                         grid: Grid) -> float:
    """Hard stability bound against the analytic background speed."""
    return cfl_bound(grid.h, sum(oseen_max_speed(v, t) for v in vortices))


# The narrowest vortex core sqrt(s), in cells h, that SN resolves.
CORE_CELLS = 0.75


def propagate_SN(vortices: Sequence[OseenVortex], f: ScalarField, s: float,
                 t: float, cfg: StepperConfig) -> ScalarField:
    """Evolve f from time s to time t under the frozen vortex backgrounds.

    Pure heat flow when the vortex list is empty.  Total mass is conserved
    to round-off by the divergence-form advection.  The automatic step
    also keeps dt <= t/50, which resolves the 1/sqrt(t) sharpening of the
    backgrounds near t = 0 (an accuracy rule, not a stability one).  With
    a vortex, its core sqrt(s) must span at least CORE_CELLS cells
    (DomainError otherwise); a ratio, so the rule has no scale of its own.
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
        bound = background_cfl_bound(vortices, now, grid)
        return lawson_step(w, now, stop, stage,
                           lambda speed, room: cfg.step(bound, room, now / 50.0))

    return march(f, s, [t], advance)[0]


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
    largest = cfg.step(min(drift_bound, cfl_bound(h, advection_max)), np.inf)
    real("sample_every", sample_every, largest, np.inf, ends="[]")
    # a frame of 8 n^2 bytes per sample: at most 2 GiB, before any stop is built
    real("tau_end/sample_every", tau_end / sample_every, 0, 2**28 / w0.grid.n**2,
         ends="[]")

    def pick_dt(speed, room):
        return cfg.step(min(drift_bound, cfl_bound(h, advection_max + speed)), room)

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
