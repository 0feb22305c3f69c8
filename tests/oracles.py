"""Independent oracles for expected values: quadrature of the closed-form
profiles straight from scipy, never through the grid code under test.

The frozen constants below were produced by these oracle functions; the
cheap ones are re-derived at test time, the expensive 2D quadratures are
frozen with the generating function kept here for regeneration.

The last three sections hold what only tests call: the vector calculus
(curl, divergence, the Laplacian, the 2/3 mask, the vortex Jacobian),
which builds on the grid's own wavenumbers, mask and stencil, so the
identities it checks are the ones the package relies on; the checks
built on the package's operators (the drift-diffusion generator, the
vortex residual, the weighted velocity norm and the per-vortex flux of
the decomposed solver); and the plain-text measure files.
"""

import os

import numpy as np
import scipy.linalg
from scipy import integrate

from oseen2d.biot_savart import circulation_is_negligible, velocity_free_space
from oseen2d.errors import DomainError
from oseen2d.field import (Grid, ScalarField, _dealias_mask, _deriv_wavenumbers,
                           _fd_derivative, _fft2, _ifft2, _ksq, gradient,
                           lp_norm, read_field, require_boundary_decay,
                           write_field)
from oseen2d.measure import FiniteMeasure
from oseen2d.oseen import (SERIES_CUTOFF_SQ, OseenVortex, _ring_factor,
                           gaussian_profile, oseen_velocity, oseen_vorticity)


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
    """Brute-force oracle for the greedy atom-retention rule: the fewest
    leading atoms whose tail has atomic norm at most epsilon."""
    for k in range(len(masses) + 1):
        if sum(abs(m) for m in masses[k:]) <= epsilon:
            return k
    return len(masses)


# ---------------------------------------------------------------------
# calculus that only tests use: the identities curl u = omega and
# div u = 0, the spectral Laplacian, the 2/3 mask, and the closed-form
# vortex Jacobian
# ---------------------------------------------------------------------

def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, _ifft2(-_ksq(f.grid) * _fft2(f.values)).real)


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


# ---------------------------------------------------------------------
# checks that only tests use: the drift-diffusion generator, the residual
# of a sampled vortex in the vorticity equation, the weighted velocity
# norm of the Biot-Savart inequalities, and the decomposed solver's flux
# ---------------------------------------------------------------------

def apply_fokker_planck(w: ScalarField) -> ScalarField:
    """Lap(w) + (xi/2) . grad(w) + w with spectral derivatives."""
    require_boundary_decay(w, "apply_fokker_planck")
    xx, yy = w.grid.meshes()
    g = gradient(w)
    drift = 0.5 * (xx * g.x.values + yy * g.y.values)
    return ScalarField(w.grid, laplacian(w).values + drift + w.values)


def gaussian_gradient(x1, x2):
    """Analytic gradient of G: grad G = -(xi/2) G."""
    g = gaussian_profile(x1, x2)
    return -0.5 * np.asarray(x1) * g, -0.5 * np.asarray(x2) * g


def oseen_vorticity_gradient(v: OseenVortex, t: float, x1, x2):
    """Analytic gradient of the vortex vorticity field."""
    rt = np.sqrt(t)
    g1, g2 = gaussian_gradient((np.asarray(x1) - v.z[0]) / rt,
                               (np.asarray(x2) - v.z[1]) / rt)
    c = v.alpha / t**1.5
    return c * g1, c * g2


def oseen_residual(v: OseenVortex, t: float, grid: Grid) -> float:
    """Max norm of d/dt omega - Lap(omega) + u . grad(omega) on the grid.

    The time derivative and the advection term are analytic; the Laplacian
    is spectral.  A near-zero residual certifies that the sampled
    background solves the vorticity equation on this grid.
    """
    if not (t > 0):
        raise DomainError(f"oseen_residual needs t > 0, got {t}")
    xx, yy = grid.meshes()
    w = ScalarField(grid, oseen_vorticity(v, t, xx, yy))
    require_boundary_decay(w, "oseen_residual")
    rt = np.sqrt(t)
    xi1 = (xx - v.z[0]) / rt
    xi2 = (yy - v.z[1]) / rt
    g = gaussian_profile(xi1, xi2)
    # d/dt [alpha/t G(x/sqrt t)] = -(alpha/t^2) G (1 - |xi|^2/4)
    dt_w = -(v.alpha / t**2) * g * (1.0 - (xi1**2 + xi2**2) / 4.0)
    lap = laplacian(w).values
    u1, u2 = oseen_velocity(v, t, xx, yy)
    gw1, gw2 = oseen_vorticity_gradient(v, t, xx, yy)
    advection = u1 * gw1 + u2 * gw2
    return float(np.max(np.abs(dt_w - lap + advection)))


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


def decomposed_flux(backgrounds, t: float, w: ScalarField, ut1, ut2):
    """The remainder flux u w~ + sum_i (u - u_i) w_i of the decomposed
    solver, with u = u~ + sum_j u_j, summed vortex by vortex from the
    closed-form samples; (ut1, ut2) is the remainder velocity u~."""
    xx, yy = w.grid.meshes()
    samples = [(*oseen_velocity(v, t, xx, yy), oseen_vorticity(v, t, xx, yy))
               for v in backgrounds]
    u1 = ut1 + sum(s[0] for s in samples)
    u2 = ut2 + sum(s[1] for s in samples)
    f1, f2 = u1 * w.values, u2 * w.values
    for b1, b2, wi in samples:
        f1 = f1 + (u1 - b1) * wi
        f2 = f2 + (u2 - b2) * wi
    return f1, f2


# ---------------------------------------------------------------------
# plain-text measure files: atom lines and a density field file
# ---------------------------------------------------------------------

def write_measure(mu: FiniteMeasure, path, density_path=None) -> None:
    """Text format: 'measure v1', atom lines, density path relative to this file."""
    lines = ["measure v1"]
    for (x, y), m in mu.atoms:
        lines.append(f"atom {format(x, '.17g')} {format(y, '.17g')} {format(m, '.17g')}")
    if mu.density is not None:
        if density_path is None:
            raise DomainError("measure has a density: density_path is required")
        write_field(mu.density, density_path)
        base = os.path.dirname(os.path.abspath(path))
        lines.append(f"density {os.path.relpath(density_path, base)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measure(path) -> FiniteMeasure:
    """Read a write_measure file; a relative density path (the rest of its
    line, spaces kept) is taken from the measure file's directory."""
    atoms = []
    density = None
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "measure v1":
            raise DomainError(f"unsupported measure file header: {header!r}")
        for line in fh:
            parts = line.rstrip("\r\n").split(maxsplit=1)
            if not parts:
                continue
            if parts[0] == "atom":
                try:
                    x, y, m = map(float, line.split()[1:])
                except ValueError as exc:
                    raise DomainError(f"malformed atom line: {line!r}") from exc
                atoms.append(((x, y), m))
            elif parts[0] == "density" and len(parts) > 1:
                density = read_field(os.path.join(base, parts[1]))
            else:
                raise DomainError(f"unknown measure file line: {line!r}")
    return FiniteMeasure(atoms=tuple(atoms), density=density)
