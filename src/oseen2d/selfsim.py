"""Self-similar variables and the rescaled heat semigroup.

The change of variables xi = (x - z)/sqrt(t), tau = log(t) maps
omega(x, t) = (1/t) w(xi, tau), and turns the heat flow into the
autonomous flow generated by the drift-diffusion operator

    L w = Lap(w) + (xi/2) . grad(w) + w.

Its semigroup has the explicit Gaussian kernel

    (S(tau) f)(xi) = e^tau / (4 pi a) * integral of
                     exp(-|xi - xi'|^2 / (4 a)) f(xi' e^{tau/2}) d xi',

with a = a(tau) = 1 - e^{-tau}.  The Gaussian steady profile is a fixed
point and gradients satisfy grad S(tau) = e^{tau/2} S(tau) grad.
"""

from __future__ import annotations

import numpy as np

from .errors import point, real
from .field import (ScalarField, _ksq, gradient, require_boundary_decay,
                    resample_affine)

def to_self_similar(omega: ScalarField, t: float, center) -> ScalarField:
    """w(xi) = t * omega(center + xi sqrt(t)) by trigonometric interpolation.

    Resampling zero-extends beyond the box of omega, so wherever the
    evaluation points leave it, omega must be negligible at its boundary.
    """
    rt = np.sqrt(real("t", t, 0, np.inf))
    cx, cy = point("center", center)
    half = 0.5 * omega.grid.box_size
    if rt * half + max(abs(cx), abs(cy)) > half:
        require_boundary_decay(omega, "to_self_similar")
    return t * resample_affine(omega, rt, center)


def _semigroup_quadrature(tau: float, f: ScalarField) -> ScalarField:
    """Separable direct quadrature of the explicit kernel.

    In the source variable zeta = xi' e^{tau/2} the kernel factorizes per
    axis, so the double sum is two dense matrix products.
    """
    grid = f.grid
    a = -np.expm1(-tau)
    s = np.exp(-0.5 * tau)
    x = grid.coords()
    diff = x[:, None] - s * x[None, :]
    A = np.exp(-diff**2 / (4.0 * a)) * (grid.h / np.sqrt(4.0 * np.pi * a))
    return ScalarField(grid, A @ f.values @ A.T)


def _semigroup_spectral(tau: float, f: ScalarField) -> ScalarField:
    """Dilate by trigonometric interpolation, then diffuse exactly in k-space."""
    grid = f.grid
    a = -np.expm1(-tau)
    dilated = resample_affine(f, np.exp(0.5 * tau))
    smoothed = np.fft.ifft2(np.exp(-a * _ksq(grid)) * np.fft.fft2(dilated.values)).real
    return ScalarField(grid, np.exp(tau) * smoothed)


def semigroup_apply(tau: float, f: ScalarField) -> ScalarField:
    """Apply the explicit rescaled-heat semigroup at time tau >= 0.

    tau = 0 returns f itself.  The route follows the kernel's width
    sqrt(1 - e^-tau): a kernel at least one grid cell wide is applied by
    direct quadrature, which needs no interpolation and is at round-off
    there; a thinner one is under-sampled, so the dilation +
    exact-diffusion route, uniformly accurate down to tau = 0, takes it.
    """
    if real("tau", tau, 0, np.inf, ends="[]") == 0.0:
        return ScalarField(f.grid, f.values)
    require_boundary_decay(f, "semigroup_apply")
    if np.sqrt(-np.expm1(-tau)) < f.grid.h:
        return _semigroup_spectral(tau, f)
    return _semigroup_quadrature(tau, f)


def commutation_residual(tau: float, f: ScalarField) -> float:
    """Max-norm residual of grad S(tau) f = e^{tau/2} S(tau) grad f."""
    left = gradient(semigroup_apply(tau, f))
    right = np.exp(0.5 * tau) * np.stack(
        [semigroup_apply(tau, ScalarField._owned(f.grid, g)).values for g in gradient(f)])
    return float(np.max(np.abs(left - right)))
