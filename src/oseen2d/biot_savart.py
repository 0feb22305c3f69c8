"""Velocity reconstruction from vorticity.

Two methods:

* ``velocity_periodic`` inverts the curl spectrally on the periodic box.
  It is exact for the periodized problem but only meaningful for fields
  with (numerically) zero mean, since the zero wavenumber is discarded.

* ``velocity_free_space`` convolves with the whole-plane kernel
  K(x) = x_perp / (2 pi |x|^2) by zero-padding to a 2n x 2n grid, so it is
  an aperiodic convolution and remains correct for nonzero circulation.
  The kernel's value at the origin is 0 (principal value of an odd kernel).

Each route returns the velocity as one read-only (2, n, n) array of its x
and y components.  It applies one cached per-grid multiplier on the half
spectrum, the components stacked in one array, so each solve makes one
forward and one (batched) inverse transform, all on ``numpy.fft`` with the
complex passes in place.  The free-space route prunes its padded
transforms to four 1-D passes (``rfft``, ``fft``, ``ifft``, ``irfft``)
instead of two full 2n x 2n ones: the forward pass fills only the n data
rows of one zero-filled (2, 2n, n + 1) buffer per solve, which then takes
both products in place, and the inverse pass keeps the n x n corner.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CirculationError, DomainError, real
from .field import (BOUNDARY_DECAY_TOL, Grid, ScalarField, _deriv_wavenumbers,
                    _irfft2, _ksq, _rfft2, lp_norm, require_boundary_decay)

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


@lru_cache(maxsize=8)
def _periodic_multiplier(grid: Grid) -> np.ndarray:
    """Half-spectrum (i k_y, -i k_x)/|k|^2 stacked as (2, n, n/2 + 1),
    odd-derivative Nyquist zeroed."""
    nh = grid.n // 2 + 1
    kd = _deriv_wavenumbers(grid)
    ksq = _ksq(grid)[:, :nh].copy()
    ksq[0, 0] = np.inf                      # the zero mode is discarded
    m = np.stack((1j * kd[None, :nh] / ksq, -1j * kd[:, None] / ksq))
    m.flags.writeable = False
    return m


def velocity_periodic(omega: ScalarField) -> np.ndarray:
    """Spectral inversion via the stream function, plus the dipole drift,
    as one read-only (2, n, n) array (u1, u2).

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
    u = _irfft2(_periodic_multiplier(grid) * _rfft2(omega.values), grid.n)
    x = grid.coords()
    p1 = float(np.sum(x[:, None] * omega.values)) * grid.cell_area
    p2 = float(np.sum(x[None, :] * omega.values)) * grid.cell_area
    c = 1.0 / (2.0 * grid.box_size**2)
    u[0] += c * p2
    u[1] -= c * p1
    u.flags.writeable = False
    return u


@lru_cache(maxsize=8)
def _free_space_multiplier(grid: Grid) -> np.ndarray:
    """Transformed kernel on the 2n grid plus the singular-cell and lattice
    symbols, on Nyquist-zeroed wavenumbers so each stays Hermitian; the x
    and y components stacked as (2, 2n, n + 1)."""
    n, h = grid.n, grid.h
    offsets = np.fft.fftfreq(2 * n) * 2 * n * h   # signed offsets, 0 first
    dx, dy = offsets[:, None], offsets[None, :]
    rsq = 2.0 * np.pi * (dx**2 + dy**2)
    rsq[0, 0] = np.inf                  # principal value: 0 at the origin
    k = _deriv_wavenumbers(Grid(2 * n, 2 * grid.box_size))
    kx, ky = k[:, None], k[None, :n + 1]
    c2 = grid.cell_area / (4.0 * np.pi)
    c4 = KERNEL_H4_CONSTANT * h**4
    m = grid.cell_area * _rfft2(np.stack((-dy / rsq, dx / rsq)))
    m[0] += 1j * (c2 * ky + c4 * (kx**2 * ky - ky**3 / 3.0))
    m[1] -= 1j * (c2 * kx + c4 * (ky**2 * kx - kx**3 / 3.0))
    m.flags.writeable = False
    return m


def velocity_free_space(omega: ScalarField,
                        boundary_tol: float = BOUNDARY_DECAY_TOL) -> np.ndarray:
    """Aperiodic convolution with the whole-plane Biot-Savart kernel, as one
    read-only (2, n, n) array (u1, u2).

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

    The transforms are those of the zero-padded 2n x 2n convolution,
    pruned: rows n..2n-1 of the padded input are zero, so the forward
    ``rfft`` runs on the n data rows only, and only the n x n corner of the
    output is read, so the inverse ``irfft`` runs on the first n rows only.
    One zero-filled (2, 2n, n + 1) buffer per call holds the input spectrum
    in component 1, then the x and y products, and the inverse passes.
    """
    require_boundary_decay(omega, "velocity_free_space", tol=boundary_tol)
    grid, n = omega.grid, omega.grid.n
    m = _free_space_multiplier(grid)
    buf = np.zeros((2, 2 * n, n + 1), dtype=complex)
    np.fft.rfft(omega.values, n=2 * n, axis=1, out=buf[1, :n])
    np.fft.fft(buf[1], axis=0, out=buf[1])
    np.multiply(m[0], buf[1], out=buf[0])
    np.multiply(m[1], buf[1], out=buf[1])
    np.fft.ifft(buf, axis=1, out=buf)
    u = np.fft.irfft(buf[:, :n], n=2 * n, axis=2)[:, :, :n]
    u.flags.writeable = False
    return u


def hls_ratio(omega: ScalarField, p: float) -> float:
    """||u||_{L^q} / ||omega||_{L^p} with 1/q = 1/p - 1/2.

    The pairing is scale-free: rescaling omega by lambda^2 omega(lambda x)
    leaves the ratio unchanged, and it is homogeneous of degree zero in the
    amplitude.  Boundedness of this ratio over a field family is the
    checkable content of the velocity-from-vorticity L^p inequality.
    """
    real("p", p, 1, 2)
    denom = lp_norm(omega, p)
    if denom == 0.0:
        raise DomainError("hls_ratio needs a nonzero field")
    q = 2.0 * p / (2.0 - p)
    u = velocity_free_space(omega)
    return lp_norm(ScalarField._owned(omega.grid, np.hypot(*u)), q) / denom
