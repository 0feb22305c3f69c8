"""Gridded scalar fields on a centered periodic box.

The box is [-L/2, L/2)^2 sampled at n points per side (n even), with
spectral differentiation and rectangle-rule quadrature.  Every field of
interest decays like a Gaussian well inside the box, which makes the
periodic truncation error negligible and the rectangle rule spectrally
accurate.

Fields are immutable values: operations return new fields, and the
sample array of a constructed field is marked read-only.  A vector
quantity (a velocity, a gradient) is one read-only (2, n, n) array of
its x and y components.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, MarginError, MismatchError, point, real

FIELD_MAGIC = b"FLD2"
_FIELD_HEADER = struct.Struct("<4sqd")       # magic, n, L

# Boundary values larger than this fraction of the max norm mean the box
# is too small for the operation at hand.
BOUNDARY_DECAY_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform n x n grid on the centered square box of side box_size."""

    n: int
    box_size: float

    def __post_init__(self):
        if real("n", self.n, 16, np.inf, ends="[)", integer=True) % 2:
            raise DomainError(f"n must be even, got {self.n!r}")
        real("box_size", self.box_size, 0, np.inf)

    @property
    def h(self) -> float:
        return self.box_size / self.n

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def coords(self) -> np.ndarray:
        """1D coordinates x_j = -L/2 + j h, shared by both axes."""
        return -0.5 * self.box_size + self.h * np.arange(self.n)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinate arrays of shape (n, n), 'ij' indexing."""
        x = self.coords()
        return np.meshgrid(x, x, indexing="ij")

    def wavenumbers(self) -> np.ndarray:
        """1D angular wavenumbers in FFT order (Nyquist at index n/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros((self.n, self.n)))


def require_grid(grid) -> Grid:
    """``grid`` unchanged if it is a Grid, else DomainError."""
    if not isinstance(grid, Grid):
        raise DomainError(f"grid must be a Grid, got {grid!r}")
    return grid


class ScalarField:
    """Real scalar samples on a Grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        self._fill(require_grid(grid), np.array(values, dtype=float))

    @classmethod
    def _owned(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        """Wrap a float array the package has just computed, without a copy.

        The array is marked read-only in place, so nothing may write to it
        afterwards.  Arrays from callers go through the copying constructor.
        """
        f = object.__new__(cls)
        f._fill(grid, values)
        return f

    def _fill(self, grid: Grid, values: np.ndarray):
        if values.shape != (grid.n, grid.n):
            raise MismatchError(
                f"values shape {values.shape} does not match grid n={grid.n}")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    def __reduce__(self):
        # through the copying constructor: __setattr__ blocks a slot restore
        return ScalarField, (self.grid, self.values)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c):
        if isinstance(c, ScalarField):
            self._check_same_grid(c)
            return ScalarField(self.grid, self.values * c.values)
        return ScalarField(self.grid, self.values * real("c", c))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def _check_same_grid(self, other):
        if not isinstance(other, ScalarField) or other.grid != self.grid:
            raise MismatchError("fields must share one grid")

    # -- basic functionals --------------------------------------------

    def integral(self) -> float:
        return float(np.sum(self.values)) * self.grid.cell_area

    def boundary_max(self) -> float:
        """Largest |value| on the outermost ring of the grid."""
        v = self.values
        edges = (v[0], v[-1], v[:, 0], v[:, -1])
        return float(max(np.abs(edge).max() for edge in edges))


def max_speed(u: np.ndarray) -> float:
    """Largest |u| over the grid of a (2, n, n) velocity array."""
    return float(np.sqrt(np.max(u[0] * u[0] + u[1] * u[1])))


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------

def lp_norm(f: ScalarField, p: float) -> float:
    """L^p norm by rectangle-rule quadrature; grid max for p = inf."""
    if real("p", p, 1, np.inf, ends="[]") == np.inf:
        return float(np.max(np.abs(f.values)))
    a = np.abs(f.values)
    return float((np.sum(a**p) * f.grid.cell_area) ** (1.0 / p))


@lru_cache(maxsize=32)
def _weight_grid(grid: Grid, m: float) -> np.ndarray:
    xx, yy = grid.meshes()
    return (1.0 + xx**2 + yy**2) ** (m / 2.0)


def weighted_norm(f: ScalarField, q: float, m: float) -> float:
    """Norm of (1+|x|^2)^(m/2) f in L^q, weight on unwrapped coordinates."""
    real("q", q, 1, np.inf, ends="[]")
    if real("m", m, 0, np.inf, ends="[)") == 0:
        return lp_norm(f, q)
    w = _weight_grid(f.grid, m)
    return lp_norm(ScalarField(f.grid, w * f.values), q)


# ---------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------

def _rfft2(values: np.ndarray) -> np.ndarray:
    """Half-spectrum DFT over the last two axes (stacked inputs allowed).

    Two one-axis passes, the second in place: numpy's pass along a strided
    axis would otherwise allocate and copy a second complex array.
    """
    h = np.fft.rfft(values, axis=-1)
    return np.fft.fft(h, axis=-2, out=h)


def _irfft2(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _rfft2 to n x n real samples; overwrites ``spectrum``."""
    return np.fft.irfft(np.fft.ifft(spectrum, axis=-2, out=spectrum), n=n, axis=-1)


@lru_cache(maxsize=32)
def _deriv_wavenumbers(grid: Grid) -> np.ndarray:
    """Wavenumbers for odd derivatives: Nyquist mode zeroed."""
    k = grid.wavenumbers().copy()
    k[grid.n // 2] = 0.0
    return k


@lru_cache(maxsize=32)
def _ksq(grid: Grid) -> np.ndarray:
    k = grid.wavenumbers()
    return k[:, None] ** 2 + k[None, :] ** 2


def gradient(f: ScalarField) -> np.ndarray:
    """Spectral gradient of f as one read-only (2, n, n) array."""
    kd = _deriv_wavenumbers(f.grid)
    ik = 1j * np.stack(np.broadcast_arrays(kd[:, None], kd[None, :]))
    g = np.fft.ifft2(ik * np.fft.fft2(f.values)).real
    g.flags.writeable = False
    return g


def _fd_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """8th-order centered first derivative (local stencil, wraps at edges)."""
    def sh(k):
        return np.roll(values, -k, axis=axis)
    return (672.0 * (sh(1) - sh(-1)) - 168.0 * (sh(2) - sh(-2))
            + 32.0 * (sh(3) - sh(-3)) - 3.0 * (sh(4) - sh(-4))) / (840.0 * h)


def divergence_local(u: np.ndarray, grid: Grid) -> ScalarField:
    """Divergence of a (2, n, n) array on grid by local finite differences.

    Free-space velocities are smooth but not box-periodic, so spectral
    differentiation sees the wrap jump; the local stencil does not (except
    on the outermost three rings, which callers should exclude).
    """
    return ScalarField(grid, _fd_derivative(u[0], 0, grid.h)
                       + _fd_derivative(u[1], 1, grid.h))


@lru_cache(maxsize=32)
def _dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask in full-spectrum layout."""
    m = np.fft.fftfreq(grid.n) * grid.n
    keep = np.abs(m) <= grid.n / 3.0
    return keep[:, None] & keep[None, :]


def project_mean_zero(f: ScalarField) -> ScalarField:
    """Remove the mean by subtracting (integral of f) times the unit Gaussian.

    The subtracted profile exp(-|x|^2/4)/(4 pi) integrates to one and has
    finite weighted norms for every m, so the projection stays inside all
    weighted spaces.
    """
    total = f.integral()
    if total == 0.0:
        return f
    xx, yy = f.grid.meshes()
    gauss = np.exp(-(xx**2 + yy**2) / 4.0) / (4.0 * np.pi)
    return ScalarField(f.grid, f.values - total * gauss)


# ---------------------------------------------------------------------
# off-grid evaluation of the trigonometric interpolant
# ---------------------------------------------------------------------

def _interp_matrix(grid: Grid, targets: np.ndarray) -> np.ndarray:
    """Real matrix D with (D @ f)_i = interpolant of the samples f at targets[i].

    The trigonometric interpolant (cosine Nyquist) is the periodic sinc
    D[i, j] = sin(pi x) / (n tan(pi x / n)), x = theta_i - j with theta the
    grid-index coordinate, and 1 where x = 0 mod n.  For accuracy near the
    zeros sin(pi x) is (-1)^(j+k) sin(pi (theta - k)), k = round(theta), and
    x is reduced mod n.  Points outside [-L/2, L/2] get an all-zero row.
    """
    n, L = grid.n, grid.box_size
    theta = (targets + 0.5 * L) / grid.h          # grid-index coordinate
    k = np.round(theta)
    sine = (1.0 - 2.0 * (k % 2)) * np.sin(np.pi * (theta - k)) / n
    j = np.arange(n)
    x = theta[:, None] - j
    x -= n * np.round(x / n)                       # the kernel has period n
    num = np.outer(sine, 1.0 - 2.0 * (j % 2))
    D = np.divide(num, np.tan(x * (np.pi / n)), out=np.ones_like(x), where=x != 0)
    D[np.abs(targets) > 0.5 * L * (1 + 1e-12), :] = 0.0
    return D


def resample_affine(f: ScalarField, scale: float,
                    center: tuple[float, float] = (0.0, 0.0)) -> ScalarField:
    """Evaluate the trigonometric interpolant of f at scale*x + center.

    Returns g with g(x) = f(scale * x + center), sampled on the grid of f,
    zero beyond the box of f.
    """
    real("scale", scale)
    point("center", center)
    x = f.grid.coords()
    Dx = _interp_matrix(f.grid, scale * x + center[0])
    Dy = _interp_matrix(f.grid, scale * x + center[1])
    return ScalarField(f.grid, Dx @ f.values @ Dy.T)


def require_boundary_decay(f: ScalarField, what: str, tol: float = BOUNDARY_DECAY_TOL):
    """MarginError unless |f| at the box boundary is below tol * max|f|."""
    real("tol", tol, 0, np.inf, ends="[]")
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return
    if f.boundary_max() > tol * peak:
        raise MarginError(
            f"{what}: field is not negligible at the box boundary "
            f"(boundary/max = {f.boundary_max() / peak:.3e}, tol {tol:.1e})")


# ---------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------

def write_field(f: ScalarField, path) -> None:
    """Binary field file: magic 'FLD2', n (int64 LE), L (float64 LE), samples."""
    with open(path, "wb") as fh:
        fh.write(_FIELD_HEADER.pack(FIELD_MAGIC, f.grid.n, f.grid.box_size))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_field(path) -> ScalarField:
    """Read a write_field file; DomainError unless it holds exactly one
    field with finite samples."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = _FIELD_HEADER.size
    if len(raw) < head or raw[:4] != FIELD_MAGIC:
        raise DomainError(f"not a field file ({len(raw)} bytes, magic {raw[:4]!r})")
    _, n, L = _FIELD_HEADER.unpack_from(raw)
    if len(raw) != head + 8 * n * n:
        raise DomainError(
            f"field file has {len(raw)} bytes, n={n} needs {head + 8 * n * n}")
    values = np.frombuffer(raw, "<f8", offset=head).reshape(n, n)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"field file holds {int(np.sum(~np.isfinite(values)))} "
                          "non-finite samples")
    return ScalarField(Grid(n, L), values)
