"""Independent oracles for expected values: quadrature of the closed-form
profiles straight from scipy, never through the grid code under test.

The frozen constants below were produced by these oracle functions; the
cheap ones are re-derived at test time, the expensive 2D quadratures are
frozen with the generating function kept here for regeneration.

The last section holds the vector calculus that only tests call (curl,
divergence, the 2/3 mask, the vortex Jacobian); it builds on the grid's
own wavenumbers, mask and stencil, so the identities it checks are the
ones the package relies on.
"""

import numpy as np
import scipy.linalg
from scipy import integrate

from oseen2d.field import (ScalarField, _dealias_mask, _deriv_wavenumbers,
                           _fd_derivative)
from oseen2d.oseen import SERIES_CUTOFF_SQ, _ring_factor


def gaussian(r):
    return np.exp(-r * r / 4.0) / (4.0 * np.pi)


def ring_speed(r):
    r = np.asarray(r, dtype=float)
    return np.where(r > 1e-8,
                    (1.0 - np.exp(-r * r / 4.0)) / (2.0 * np.pi * np.maximum(r, 1e-300)),
                    r / (8.0 * np.pi))


def radial_lp(f, p, upper=np.inf):
    """L^p norm of a radial profile by 1D quadrature."""
    val, _ = integrate.quad(lambda r: abs(f(r)) ** p * 2.0 * np.pi * r, 0.0,
                            upper, limit=400)
    return val ** (1.0 / p)


def radial_weighted_l2(f, m, upper=np.inf):
    """||(1+r^2)^(m/2) f||_2 for radial f."""
    return radial_lp(lambda r: (1.0 + r * r) ** (m / 2.0) * f(r), 2.0, upper)


# frozen outputs of the oracles above (and the 2D quadratures below)
GAUSSIAN_L1 = 1.0
GAUSSIAN_L2 = 0.19947114020071635          # = (8 pi)^(-1/2)
GAUSSIAN_L43 = 0.42804899481670894
GAUSSIAN_PEAK = 0.07957747154594767        # = 1/(4 pi)
RING_SPEED_L4 = 0.1360364621904423
DX_GAUSSIAN_L2 = 0.09973557010035818       # = (32 pi)^(-1/2)
WEIGHTED_GAUSSIAN_L2_M3 = 1.7729382747475821   # = sqrt(158/(16 pi))

# plane-quadrature ratio of ||v||_4 to ||omega||_{4/3} for the vortex pair
HLS_RATIO_GAUSSIAN_PLANE = RING_SPEED_L4 / GAUSSIAN_L43

# || (1+|x|^2)^((m-2/q)/2) d1(v) ||_4 for omega = d1(G), q = 4, m = 1.5,
# from dblquad over [-60, 60]^2 (abs error < 1e-13)
WEIGHTED_VELOCITY_DX_GAUSSIAN = 0.1290427997259097


def padded_route(multiplier, values, shape):
    """The unpruned multiplier route: irfft2(m * rfft2(values)) for each
    component m of a stacked half-spectrum multiplier, with numpy's
    transforms; rfft2 zero-pads values to shape."""
    what = np.fft.rfft2(values, s=shape)
    return [np.fft.irfft2(m * what, s=shape) for m in multiplier]


def unsplit_spectrum(modes, diag, coupling, alpha):
    """Eigen-solve of the whole linearization matrix diag - alpha * coupling.

    Returns the eigenvalues sorted by descending real part and the
    translation label: the eigenvalue closest to -1/2 among eigenvectors
    with more than 0.99 of their norm on the modes (1, 0) and (0, 1), or
    None if no eigenvector qualifies.
    """
    eigvals, eigvecs = scipy.linalg.eig(np.diag(diag) - alpha * coupling)
    order = np.argsort(-eigvals.real)
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    translation_idx = [i for i, mode in enumerate(modes)
                       if mode in ((1, 0), (0, 1))]
    best = None
    for j in range(len(modes)):
        vec = eigvecs[:, j]
        corr = (np.sqrt(sum(abs(vec[i])**2 for i in translation_idx))
                / np.linalg.norm(vec))
        if corr > 0.99:
            cand = (abs(eigvals[j] + 0.5), j)
            if best is None or cand < best:
                best = cand
    return eigvals, (complex(eigvals[best[1]]) if best is not None else None)


def minimal_prefix(masses, epsilon):
    """Brute-force oracle for the greedy atom-retention rule."""
    total = sum(abs(m) for m in masses)
    for k in range(len(masses) + 1):
        if total - sum(abs(m) for m in masses[:k]) <= epsilon:
            return k
    return len(masses)


# ---------------------------------------------------------------------
# calculus that only tests use: the identities curl u = omega and
# div u = 0, the 2/3 mask, and the closed-form vortex Jacobian
# ---------------------------------------------------------------------

def divergence(v):
    """Spectral divergence of a VectorField (Nyquist mode dropped)."""
    kd = _deriv_wavenumbers(v.grid)
    dx = 1j * kd[:, None] * np.fft.fft2(v.x.values)
    dy = 1j * kd[None, :] * np.fft.fft2(v.y.values)
    return ScalarField(v.grid, np.fft.ifft2(dx + dy).real)


def curl(v):
    """Spectral scalar curl d(v_y)/dx - d(v_x)/dy."""
    kd = _deriv_wavenumbers(v.grid)
    c = (1j * kd[:, None] * np.fft.fft2(v.y.values)
         - 1j * kd[None, :] * np.fft.fft2(v.x.values))
    return ScalarField(v.grid, np.fft.ifft2(c).real)


def curl_local(v):
    """Scalar curl by the local stencil of field.divergence_local, which
    does not see the wrap jump of a free-space velocity (except on the
    outermost three rings, which callers exclude)."""
    h = v.grid.h
    return ScalarField(v.grid, _fd_derivative(v.y.values, 0, h)
                       - _fd_derivative(v.x.values, 1, h))


def dealias(f):
    """Apply the 2/3-rule mask of the time-marching core to f."""
    return ScalarField(f.grid, np.fft.ifft2(
        _dealias_mask(f.grid) * np.fft.fft2(f.values)).real)


def velocity_jacobian(x1, x2):
    """Analytic Jacobian d v_i / d xi_j of the unit vortex velocity.

    Returns (d1v1, d2v1, d1v2, d2v2).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s = x1**2 + x2**2
    f = _ring_factor(s)
    # derivative of the ring factor with respect to s
    small = s < SERIES_CUTOFF_SQ
    safe = np.where(small, 1.0, s)
    df_full = (np.exp(-safe / 4.0) * (safe + 4.0) - 4.0) / (8.0 * np.pi * safe**2)
    df_series = (-1.0 / 8.0 + s / 48.0) / (8.0 * np.pi)
    df = np.where(small, df_series, df_full)
    d1v1 = -x2 * df * 2.0 * x1
    d2v1 = -f - x2 * df * 2.0 * x2
    d1v2 = f + x1 * df * 2.0 * x1
    d2v2 = x1 * df * 2.0 * x2
    return d1v1, d2v1, d1v2, d2v2
