"""One integrating-factor RK4 core and the flows it advances.

Every flow in the package has the form

    dw/dt = Lap(w) - div F(w, t)    (+ div(xi w / 2) in self-similar variables),

with the Laplacian handled exactly in spectral space (Lawson's
integrating-factor RK4) and the flux F evaluated in physical space by a
stage function of the flow.  Each flow supplies only its physics: the
stage function and a stability bound ``bound(cfl)``.  This module owns
the rest: ``lawson_step`` takes one step of any such flow (always
dealiased by the 2/3 rule), ``march`` is the one loop that steps through
a list of stop times, ``StepperConfig.step`` is the one step-size rule,
and ``background_fields`` is the one sampler and the one sum of the
analytic vortex backgrounds: per time it caches the summed velocity U,
vorticity W and flux S = sum_i u_i w_i, so that consecutive steps share
their samples and no caller sums per vortex.  It supplies the stage
functions and bounds of

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

import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .biot_savart import velocity_free_space
from .errors import DegenerateError, DomainError, StabilityError
from .field import (Grid, ScalarField, VectorField, _dealias_mask,
                    _deriv_wavenumbers, _fd_derivative, _irfft2, _ksq, _rfft2,
                    divergence_local, lp_norm, weighted_norm, write_field)
from .oseen import (OseenVortex, gaussian_profile, oseen_max_speed,
                    oseen_velocity, oseen_vorticity, velocity_profile)

CFL_DEFAULT = 0.5


@dataclass(frozen=True)
class StepperConfig:
    """Time-step control: exactly one of a fixed dt or a CFL number."""

    dt: float | None = None
    cfl: float | None = None

    def __post_init__(self):
        if (self.dt is None) == (self.cfl is None):
            raise DomainError("set exactly one of dt and cfl")
        if self.dt is not None and not (self.dt > 0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.cfl is not None and not (self.cfl > 0):
            raise DomainError(f"cfl must be positive, got {self.cfl}")

    @staticmethod
    def fixed(dt: float) -> "StepperConfig":
        return StepperConfig(dt=dt)

    @staticmethod
    def courant(cfl: float = CFL_DEFAULT) -> "StepperConfig":
        return StepperConfig(cfl=cfl)

    def step(self, bound: Callable[[float], float], room: float,
             accuracy: float = np.inf) -> float:
        """The one step-size rule: the step a flow takes, at most ``room``.

        ``bound(cfl)`` is the flow's stability bound at a CFL number.  A
        fixed config takes its dt; a CFL config takes bound(cfl), shortened
        to the flow's ``accuracy`` limit.  Raises StabilityError when the
        step exceeds bound(CFL_DEFAULT).
        """
        dt = min(self.dt if self.dt is not None
                 else min(bound(self.cfl), accuracy), room)
        limit = bound(CFL_DEFAULT)
        if dt > limit:
            raise StabilityError(f"dt={dt:.3e} exceeds the stability bound {limit:.3e}")
        return dt


def cfl_bound(cfl: float, h: float, speed: float) -> float:
    """The CFL step cfl * h / speed; infinite for a zero speed."""
    return np.inf if speed == 0 else cfl * h / speed


SERIES_COLUMNS = ("index", "time", "l1", "l2", "linf", "l2m15", "l2m30",
                  "circulation")


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

    def dump(self, directory) -> None:
        """One field file per frame and series.csv, one row of SERIES_COLUMNS
        per frame."""
        os.makedirs(directory, exist_ok=True)
        for i, w in enumerate(self.fields):
            write_field(w, os.path.join(
                directory, f"w_{self.time_label}_{i:04d}.fld"))
        columns = [self.norms(1), self.norms(2), self.norms(np.inf),
                   self.norms((2, 1.5)), self.norms((2, 3.0)),
                   [w.integral() for w in self.fields]]
        with open(os.path.join(directory, "series.csv"), "w") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for i, values in enumerate(zip(self.times, *columns)):
                row = [str(i)] + [format(v, ".17g") for v in values]
                fh.write(",".join(row) + "\n")


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

# A stage function maps (state samples, stage time) to the physical-space
# flux F = (F1, F2) of dw/dt = Lap(w) - div F, summed over every advective
# term (None when the flow has none), and the speed of the velocity it
# solved for.
Stage = Callable[[np.ndarray, float], tuple]

# Relative distance below which a time counts as having reached a stop.
STOP_RTOL = 1e-12


def lawson_step(w: ScalarField, t: float, t_stop: float, stage: Stage,
                pick_dt: Callable[[float, float], float],
                drift: bool = False) -> tuple[ScalarField, float]:
    """One Lawson (integrating-factor) RK4 step of dw/dt = Lap(w) - div F(w, t).

    The Laplacian is handled exactly in spectral space.  Stage 1 is
    evaluated first, so ``pick_dt(speed, room)`` sizes the step from the
    velocity that stage already solved for; it returns a step no longer
    than ``room = t_stop - t`` and raises StabilityError when that step
    breaks the flow's bound.  Each stage sends its flux through one real
    transform pair, dealiased by the 2/3 rule; ``drift``
    adds the self-similar drift div(xi w / 2), never dealiased, whose
    divergence form leaves the zero mode untouched.  The state, the
    tendencies and the integrating factors live on the half spectrum.

    Returns the new state and its time.
    """
    grid = w.grid
    nh = grid.n // 2 + 1                   # columns of the half spectrum
    kd = _deriv_wavenumbers(grid)
    kx, ky = kd[:, None], kd[None, :nh]
    mask = _dealias_mask(grid)[:, :nh]
    xx, yy = grid.meshes() if drift else (None, None)

    def div_hat(f1, f2):
        fh = _rfft2(np.stack((f1, f2)))
        return 1j * kx * fh[0] + 1j * ky * fh[1]

    def tendency(values, flux):
        out = 0.0
        if flux is not None:
            out = -div_hat(*flux) * mask
        if drift:
            out = out + div_hat(0.5 * xx * values, 0.5 * yy * values)
        return out

    # every caller passes a fresh w_hat, which the inverse transform overwrites
    def nonlinear(w_hat, stage_t):
        values = _irfft2(w_hat, grid.n)
        return tendency(values, stage(values, stage_t)[0])

    flux, speed = stage(w.values, t)
    dt = pick_dt(speed, t_stop - t)
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
    step that does not move time forward (dt = 0 from an infinite speed,
    or NaN) and a state that is not finite at a stop raise StabilityError
    naming the time and the step.
    """
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

def _require_divergence_free(u: VectorField, tol: float = 1e-2):
    """Interior local-stencil check that the velocity is solenoidal.

    Background velocities are not box-periodic (they decay like 1/r), so
    a spectral divergence would see the wrap jump; the local stencil only
    wraps on the outermost rings, which are excluded.  The stencil cannot
    certify fine-grained solenoidality for marginally resolved fields, so
    this guards against grossly compressible inputs (divergence comparable
    to the velocity gradient itself); exact divergence-freeness is the
    analytic responsibility of the caller.
    """
    div = divergence_local(u).values[4:-4, 4:-4]
    h = u.grid.h
    grad_scale = max(
        float(np.max(np.abs(_fd_derivative(c, a, h)[4:-4, 4:-4])))
        for c in (u.x.values, u.y.values) for a in (0, 1))
    if grad_scale == 0.0:
        return
    if float(np.max(np.abs(div))) > tol * grad_scale:
        raise DomainError(
            f"velocity is not divergence-free: max |div| = {np.max(np.abs(div)):.3e} "
            f"vs gradient scale {grad_scale:.3e}")


@lru_cache(maxsize=3)
def background_fields(vortices: tuple[OseenVortex, ...], t: float,
                      grid: Grid) -> np.ndarray:
    """The one sampler and the one sum of the analytic vortex backgrounds.

    Returns the read-only (5, n, n) array (U1, U2, W, S1, S2) at time t,
    with U = sum_i u_i, W = sum_i w_i and S = sum_i u_i w_i over the
    vortices, each sampled once; all zeros for no vortex.  One Lawson step
    samples three stage times and its last is the next step's first, so
    three entries leave two new stage times per step.
    """
    xx, yy = grid.meshes()
    fields = np.zeros((5, grid.n, grid.n))
    for v in vortices:
        u1, u2 = oseen_velocity(v, t, xx, yy)
        w = oseen_vorticity(v, t, xx, yy)
        for total, sample in zip(fields, (u1, u2, w, u1 * w, u2 * w)):
            total += sample
    fields.flags.writeable = False
    return fields


def background_velocity(vortices: Sequence[OseenVortex], t: float,
                        grid: Grid) -> VectorField:
    """Sampled sum of the analytic vortex velocities at time t."""
    u1, u2 = background_fields(tuple(vortices), t, grid)[:2]
    return VectorField(ScalarField._owned(grid, u1), ScalarField._owned(grid, u2))


def background_cfl_bound(vortices: Sequence[OseenVortex], t: float, grid: Grid,
                         cfl: float) -> float:
    """Hard stability bound against the analytic background speed."""
    return cfl_bound(cfl, grid.h, sum(oseen_max_speed(v, t) for v in vortices))


def propagate_SN(vortices: Sequence[OseenVortex], f: ScalarField, s: float,
                 t: float, cfg: StepperConfig) -> ScalarField:
    """Evolve f from time s to time t under the frozen vortex backgrounds.

    Pure heat flow when the vortex list is empty.  Total mass is conserved
    to round-off by the divergence-form advection.  The automatic step
    also keeps dt <= t/50, which resolves the 1/sqrt(t) sharpening of the
    backgrounds near t = 0 (an accuracy rule, not a stability one).
    """
    if not (0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    grid, vortices = f.grid, tuple(vortices)
    _require_divergence_free(background_velocity(vortices, s, grid))

    # |sum_i u_i| <= sum_i oseen_max_speed(v_i) pointwise, so the sampled
    # speed never binds: the stage reports 0 and the step reads only the
    # analytic bound
    def stage(w, now):
        u1, u2 = background_fields(vortices, now, grid)[:2]
        return (u1 * w, u2 * w), 0.0

    def advance(w, now, stop):
        def pick_dt(speed, room):
            return cfg.step(lambda cfl: background_cfl_bound(
                vortices, now, grid, cfl), room, now / 50.0)
        return lawson_step(w, now, stop, stage, pick_dt)

    return march(f, s, [t], advance)[0]


# ---------------------------------------------------------------------
# self-similar propagators
# ---------------------------------------------------------------------

def vortex_advection(grid: Grid, alpha: float):
    """alpha v on the grid, and its largest speed."""
    v1, v2 = velocity_profile(*grid.meshes())
    return alpha * v1, alpha * v2, abs(alpha) * float(np.max(np.hypot(v1, v2)))


def evolve_rescaled(w0: ScalarField, tau_end: float, cfg: StepperConfig,
                    stage: Stage, advection_max: float,
                    sample_every: float) -> Trajectory:
    """March a rescaled flow d w/d tau = L w - div F(w), sampled at the stop
    times k * sample_every and at tau_end.

    Every step obeys the explicit-drift bound 4h/L and the CFL bound of
    ``advection_max`` plus the speed the stage solved for.
    """
    if not sample_every > 0:
        raise DomainError(f"sample_every must be positive, got {sample_every}")
    h, drift_bound = w0.grid.h, 4.0 * w0.grid.h / w0.grid.box_size

    def pick_dt(speed, room):
        return cfg.step(lambda cfl: min(
            drift_bound, cfl_bound(cfl, h, advection_max + speed)), room)

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
    a1, a2, advection_max = vortex_advection(w0.grid, alpha)

    def stage(w, tau):
        return ((a1 * w, a2 * w) if alpha != 0 else None), 0.0

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
    a1, a2, advection_max = vortex_advection(grid, alpha)
    g = gaussian_profile(*grid.meshes())

    def stage(w, tau):
        if alpha == 0:
            return None, 0.0
        vw = velocity_free_space(ScalarField._owned(grid, w))
        return (a1 * w + alpha * vw.x.values * g,
                a2 * w + alpha * vw.y.values * g), 0.0

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
    lo, hi = tau_window
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
