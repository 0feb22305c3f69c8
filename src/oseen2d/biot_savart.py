"""Velocity reconstruction from vorticity.

Two methods:

* ``velocity_periodic`` inverts the curl spectrally on the periodic box.
  It is exact for the periodized problem but only meaningful for fields
  with (numerically) zero mean, since the zero wavenumber is discarded.

* ``velocity_free_space`` convolves with the whole-plane kernel
  K(x) = x_perp / (2 pi |x|^2) by zero-padding to a 2n x 2n grid, so it is
  an aperiodic convolution and remains correct for nonzero circulation.
  The kernel's value at the origin is 0 (principal value of an odd kernel).

Each route applies one cached per-grid pair of half-spectrum multipliers
(x and y component): one ``rfft2``, two products and two ``irfft2``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CirculationError, DomainError
from .field import (BOUNDARY_DECAY_TOL, Grid, ScalarField, VectorField,
                    _deriv_wavenumbers, _ksq, lp_norm, require_boundary_decay)

MEAN_ZERO_REL_TOL = 1e-8

# Universal lattice constant of the punctured-trapezoid quadrature of the
# Biot-Savart kernel: after the analytic self-cell term, the remaining
# O(h^4) error is a*h^4*(d1^2 d2 - d2^3/3, -(d2^2 d1 - d1^3/3)) omega.
# Fitted against the closed-form vortex pair; stable to 1e-12 across
# resolutions, box sizes, profile widths, and centers.
KERNEL_H4_CONSTANT = -0.006065678717


def circulation_is_negligible(omega: ScalarField) -> bool:
    l1 = lp_norm(omega, 1)
    return l1 == 0.0 or abs(omega.integral()) < MEAN_ZERO_REL_TOL * l1


def _apply(multiplier, values: np.ndarray, shape) -> list[np.ndarray]:
    """irfft2(m * rfft2(values)) for each component m; rfft2 zero-pads to shape."""
    what = np.fft.rfft2(values, s=shape)
    return [np.fft.irfft2(m * what, s=shape) for m in multiplier]


@lru_cache(maxsize=8)
def _periodic_multiplier(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum (i k_y, -i k_x)/|k|^2, odd-derivative Nyquist zeroed."""
    kd = _deriv_wavenumbers(grid)
    ksq = _ksq(grid)[:, :grid.n // 2 + 1].copy()
    ksq[0, 0] = np.inf                      # the zero mode is discarded
    return 1j * kd[None, :grid.n // 2 + 1] / ksq, -1j * kd[:, None] / ksq


def velocity_periodic(omega: ScalarField) -> VectorField:
    """Spectral inversion via the stream function, plus the dipole drift.

    Discarding the zero wavenumber forces the box-average velocity to
    vanish, while the true plane velocity of a localized mean-zero
    vorticity has box average -p_perp/(2 L^2), p = integral of x omega(x).
    Adding that constant back makes the periodic inversion agree with the
    plane Biot-Savart field in the core to O(L^-4); it changes neither the
    curl nor the divergence.
    """
    if not circulation_is_negligible(omega):
        raise CirculationError(
            "periodic Biot-Savart needs mean-zero vorticity; "
            f"integral = {omega.integral():.3e}")
    grid = omega.grid
    u1, u2 = _apply(_periodic_multiplier(grid), omega.values, (grid.n, grid.n))
    xx, yy = grid.meshes()
    p1 = float(np.sum(xx * omega.values)) * grid.cell_area
    p2 = float(np.sum(yy * omega.values)) * grid.cell_area
    c = 1.0 / (2.0 * grid.box_size**2)
    return VectorField(ScalarField(grid, u1 + c * p2),
                       ScalarField(grid, u2 - c * p1))


@lru_cache(maxsize=8)
def _free_space_multiplier(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Transformed kernel on the 2n grid plus the singular-cell and lattice
    symbols, on Nyquist-zeroed wavenumbers so each stays Hermitian."""
    n, h = grid.n, grid.h
    offsets = np.fft.fftfreq(2 * n) * 2 * n * h   # signed offsets, 0 first
    dx, dy = offsets[:, None], offsets[None, :]
    rsq = 2.0 * np.pi * (dx**2 + dy**2)
    rsq[0, 0] = np.inf                  # principal value: 0 at the origin
    k = _deriv_wavenumbers(Grid(2 * n, 2 * grid.box_size))
    kx, ky = k[:, None], k[None, :n + 1]
    c2 = grid.cell_area / (4.0 * np.pi)
    c4 = KERNEL_H4_CONSTANT * h**4
    m1 = (grid.cell_area * np.fft.rfft2(-dy / rsq)
          + 1j * (c2 * ky + c4 * (kx**2 * ky - ky**3 / 3.0)))
    m2 = (grid.cell_area * np.fft.rfft2(dx / rsq)
          - 1j * (c2 * kx + c4 * (ky**2 * kx - kx**3 / 3.0)))
    return m1, m2


def velocity_free_space(omega: ScalarField,
                        boundary_tol: float = BOUNDARY_DECAY_TOL) -> VectorField:
    """Aperiodic convolution with the whole-plane Biot-Savart kernel.

    The result samples the true plane velocity of the gridded vorticity up
    to truncation of tails outside the box, which the boundary-decay
    precondition keeps negligible.  ``boundary_tol`` loosens that check
    for callers (the time steppers) whose states carry harmless
    aliasing-level boundary noise.

    Zeroing the kernel at the origin drops the principal-value cell but
    also the cell's interaction with the local vorticity gradient, whose
    exact value over the h x h cell is -(h^2/(4 pi)) grad_perp(omega) to
    leading order.  The cached 2n-grid multiplier restores it and subtracts
    the universal O(h^4) lattice term, which leaves a quadrature accurate
    to ~1e-11 relative at the reference resolution.
    """
    require_boundary_decay(omega, "velocity_free_space", tol=boundary_tol)
    grid, n = omega.grid, omega.grid.n
    u1, u2 = _apply(_free_space_multiplier(grid), omega.values, (2 * n, 2 * n))
    return VectorField(ScalarField(grid, u1[:n, :n]), ScalarField(grid, u2[:n, :n]))


def hls_ratio(omega: ScalarField, p: float) -> float:
    """||u||_{L^q} / ||omega||_{L^p} with 1/q = 1/p - 1/2.

    The pairing is scale-free: rescaling omega by lambda^2 omega(lambda x)
    leaves the ratio unchanged, and it is homogeneous of degree zero in the
    amplitude.  Boundedness of this ratio over a field family is the
    checkable content of the velocity-from-vorticity L^p inequality.
    """
    if not (1.0 < p < 2.0):
        raise DomainError(f"hls_ratio needs p in (1, 2), got {p}")
    denom = lp_norm(omega, p)
    if denom == 0.0:
        raise DomainError("hls_ratio needs a nonzero field")
    q = 2.0 * p / (2.0 - p)
    u = velocity_free_space(omega)
    return lp_norm(u.magnitude(), q) / denom


def weighted_velocity_norm(omega: ScalarField, q: float, m: float) -> float:
    """||b^(m - 2/q) u||_{L^q} with b = (1+|x|^2)^(1/2).

    Admissible regimes: m in (0,1) for any omega, or m in (1,2) for
    mean-zero omega.
    """
    if not (q > 2.0):
        raise DomainError(f"weighted_velocity_norm needs q > 2, got {q}")
    if not (0.0 < m < 2.0) or m == 1.0:
        raise DomainError(f"weighted_velocity_norm needs m in (0,1) or (1,2), got {m}")
    if m > 1.0 and not circulation_is_negligible(omega):
        raise DomainError(
            "weighted_velocity_norm with m in (1,2) needs mean-zero vorticity")
    u = velocity_free_space(omega)
    # the exponent m - 2/q may be negative (a decaying weight), so the
    # plain weighted_norm precondition does not apply here
    xx, yy = omega.grid.meshes()
    w = (1.0 + xx**2 + yy**2) ** ((m - 2.0 / q) / 2.0)
    return lp_norm(ScalarField(omega.grid, w * u.magnitude().values), q)
