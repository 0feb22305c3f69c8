"""Closed-form Lamb-Oseen vortex profiles and the exact self-similar solution.

The unit vortex profile is G(xi) = exp(-|xi|^2/4) / (4 pi) with velocity
v(xi) = (1/(2 pi)) * xi_perp / |xi|^2 * (1 - exp(-|xi|^2/4)), where
xi_perp = (-xi_2, xi_1).  A vortex of circulation alpha centered at z is
the exact solution

    omega(x, t) = (alpha / t) G((x - z)/sqrt(t)),
    u(x, t)     = (alpha / sqrt(t)) v((x - z)/sqrt(t)),

of both the heat equation and the full vorticity equation: the advection
term vanishes pointwise because the velocity is perpendicular to the
vorticity gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, point, real
from .field import Grid, ScalarField, require_grid

# |xi| below which the velocity profile switches to its power series.
SERIES_CUTOFF_SQ = 1e-8  # (1e-4)^2 on |xi|^2
EXP_UNDERFLOW = -746.0  # numpy's exp is exactly 0 at and below this argument


@dataclass(frozen=True)
class OseenVortex:
    """One analytic vortex background: circulation alpha at center z."""

    alpha: float
    z: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.z, tuple):       # a cache key of solver.background_fields
            raise DomainError(
                f"z must be a pair of finite numbers in a tuple, got {self.z!r}")
        point("z", self.z)
        real("alpha", self.alpha)


def gaussian_profile(x1, x2):
    """G at the point(s) (x1, x2); exp runs only above EXP_UNDERFLOW (it is
    0 below, where numpy's exp is ~10x slower), masked only when needed."""
    arg = -(np.asarray(x1) ** 2 + np.asarray(x2) ** 2) / 4.0
    under = arg <= EXP_UNDERFLOW
    return (np.exp(arg, out=np.zeros_like(arg), where=~under) if under.any()
            else np.exp(arg)) / (4.0 * np.pi)


def _ring_factor(s):
    """(1 - exp(-s/4)) / (2 pi s) with the removable singularity filled in.

    s = |xi|^2.  expm1 runs only where -s/4 > EXP_UNDERFLOW (the factor is
    1/(2 pi s) elsewhere), the exact power series only below the cutoff.
    """
    s = np.asarray(s, dtype=float)
    small = s < SERIES_CUTOFF_SQ
    safe = np.where(small, 1.0, s) if small.any() else s
    ring = safe < -4.0 * EXP_UNDERFLOW
    sr = safe[ring]
    out = np.asarray(1.0 / (2.0 * np.pi * safe))
    out[ring] = -np.expm1(-sr / 4.0) / (2.0 * np.pi * sr)
    out[small] = (1.0 - s[small] / 8.0 + s[small] ** 2 / 96.0) / (8.0 * np.pi)
    return out[()]


def velocity_profile(x1, x2):
    """Velocity components of the unit vortex at the point(s) (x1, x2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    f = _ring_factor(x1**2 + x2**2)
    return -x2 * f, x1 * f


VELOCITY_PROFILE_MAX = 0.0507841687885389  # max |v| of the unit profile, at |xi| ~ 2.2418


def oseen_vorticity(v: OseenVortex, t: float, x1, x2):
    """Pointwise vorticity alpha/t G((x-z)/sqrt(t)) at a time 0 < t < inf."""
    rt = np.sqrt(real("t", t, 0, np.inf))
    return (v.alpha / t) * gaussian_profile((np.asarray(x1) - v.z[0]) / rt,
                                            (np.asarray(x2) - v.z[1]) / rt)


def oseen_velocity(v: OseenVortex, t: float, x1, x2):
    """Pointwise velocity alpha/sqrt(t) v((x-z)/sqrt(t)) at a time 0 < t < inf."""
    rt = np.sqrt(real("t", t, 0, np.inf))
    u1, u2 = velocity_profile((np.asarray(x1) - v.z[0]) / rt,
                              (np.asarray(x2) - v.z[1]) / rt)
    return (v.alpha / rt) * u1, (v.alpha / rt) * u2


def oseen_fields(v: OseenVortex, t: float, grid: Grid) -> tuple[ScalarField, np.ndarray]:
    """Sample the vortex vorticity and velocity on a grid, the velocity as
    one read-only (2, n, n) array."""
    xx, yy = require_grid(grid).meshes()
    w = ScalarField(grid, oseen_vorticity(v, t, xx, yy))
    u = np.stack(oseen_velocity(v, t, xx, yy))
    u.flags.writeable = False
    return w, u


def oseen_max_speed(v: OseenVortex, t: float) -> float:
    """Exact maximum |u| of the vortex at a time 0 < t < inf."""
    return abs(v.alpha) / np.sqrt(real("t", t, 0, np.inf)) * VELOCITY_PROFILE_MAX
