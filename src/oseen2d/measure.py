"""Finite signed measures on the plane: atoms plus an absolutely continuous part.

A measure is a finite list of point masses (position, signed mass) and an
optional gridded density.  The two parts are mutually singular, so the
total variation is the sum of their variations.  Measures with infinitely
many atoms must be pre-truncated: atoms below machine-relevant mass
(< 1e-14 times the total variation) contribute nothing that the solver
can resolve and should simply be folded into the density part or dropped.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MarginError, MismatchError
from .field import Grid, ScalarField, _fft2, _ifft2, _ksq, lp_norm

Point = tuple[float, float]


def _canonical_atoms(atoms) -> tuple[tuple[Point, float], ...]:
    """Sort by descending |mass|, ties lexicographic by (x, y); drop zeros."""
    cleaned = []
    for (pos, mass) in atoms:
        x, y = float(pos[0]), float(pos[1])
        mass = float(mass)
        if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(mass)):
            raise DomainError("atom positions and masses must be finite")
        if mass != 0.0:
            cleaned.append(((x, y), mass))
    cleaned.sort(key=lambda a: (-abs(a[1]), a[0]))
    positions = [a[0] for a in cleaned]
    if len(set(positions)) != len(positions):
        raise DomainError("atom positions must be pairwise distinct")
    return tuple(cleaned)


@dataclass(frozen=True)
class FiniteMeasure:
    """Atoms (position, signed mass) plus an optional density field."""

    atoms: tuple[tuple[Point, float], ...] = ()
    density: ScalarField | None = None

    def __post_init__(self):
        if self.density is not None and not isinstance(self.density, ScalarField):
            raise DomainError(f"density must be a ScalarField, not {type(self.density)}")
        if self.density is not None and not np.all(np.isfinite(self.density.values)):
            raise DomainError("density samples must be finite")
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))

    @staticmethod
    def from_atoms(*atoms) -> "FiniteMeasure":
        return FiniteMeasure(atoms=tuple(atoms))

    def mass(self) -> float:
        """mu(R^2): signed total of atoms plus integral of the density."""
        total = sum(m for _, m in self.atoms)
        if self.density is not None:
            total += self.density.integral()
        return float(total)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Retained large atoms plus a small-atomic-part remainder measure."""

    retained: tuple[tuple[float, Point], ...]   # (alpha_i, z_i)
    remainder: FiniteMeasure
    epsilon: float
    M_pp: float
    d: float

    def __post_init__(self):
        if any(alpha == 0.0 for alpha, _ in self.retained):
            raise DomainError("retained atoms must have nonzero mass")


def total_variation(mu: FiniteMeasure) -> float:
    """Sum of |atom masses| plus the L^1 norm of the density."""
    tv = sum(abs(m) for _, m in mu.atoms)
    if mu.density is not None:
        tv += lp_norm(mu.density, 1)
    return float(tv)


def atomic_norm(mu: FiniteMeasure) -> float:
    """Total variation of the purely atomic part."""
    return float(sum(abs(m) for _, m in mu.atoms))


def decompose(mu: FiniteMeasure, epsilon: float) -> AtomicDecomposition:
    """Split mu into its largest atoms and a remainder of atomic norm <= epsilon.

    The retained set is the minimal prefix of the canonically ordered atom
    list such that the atomic mass left behind, summed as ``atomic_norm``
    sums it, is at most epsilon.  The greedy prefix rule is a deterministic
    choice among the many admissible splits.
    """
    if not (epsilon > 0):
        raise DomainError(f"decompose needs epsilon > 0, got {epsilon}")
    masses = [abs(m) for _, m in mu.atoms]
    k = next(k for k in range(len(masses) + 1) if sum(masses[k:]) <= epsilon)
    retained = tuple((m, pos) for pos, m in mu.atoms[:k])
    remainder = FiniteMeasure(atoms=mu.atoms[k:], density=mu.density)
    centers = [z for _, z in retained]
    if len(centers) >= 2:
        d = min(np.hypot(a[0] - b[0], a[1] - b[1])
                for i, a in enumerate(centers) for b in centers[:i])
    else:
        d = np.inf
    return AtomicDecomposition(retained=retained, remainder=remainder,
                               epsilon=float(epsilon),
                               M_pp=float(sum(abs(a) for a, _ in retained)),
                               d=float(d))


def heat_smooth(mu: FiniteMeasure, t: float, grid: Grid) -> ScalarField:
    """Sample the heat evolution of mu at time t > 0.

    Atoms become Gaussians (4 pi t)^-1 exp(-|x-z|^2/(4t)) evaluated
    pointwise; the density part is smoothed spectrally by exp(-|k|^2 t).
    Every atom must sit at least 6 sqrt(t) away from the box boundary.
    """
    if not (t > 0):
        raise DomainError(f"heat_smooth needs t > 0, got {t}")
    margin = 6.0 * np.sqrt(t)
    half = 0.5 * grid.box_size
    for (zx, zy), _ in mu.atoms:
        if half - abs(zx) < margin or half - abs(zy) < margin:
            raise MarginError(
                f"atom at ({zx}, {zy}) is within 6*sqrt(t)={margin:.3g} "
                f"of the box boundary (L={grid.box_size})")
    xx, yy = grid.meshes()
    vals = np.zeros((grid.n, grid.n))
    for (zx, zy), m in mu.atoms:
        vals += (m / (4.0 * np.pi * t)) * np.exp(
            -((xx - zx) ** 2 + (yy - zy) ** 2) / (4.0 * t))
    if mu.density is not None:
        if mu.density.grid != grid:
            raise MismatchError("density grid must match the target grid")
        vals += _ifft2(np.exp(-_ksq(grid) * t) * _fft2(mu.density.values)).real
    return ScalarField(grid, vals)


def measure_hash(mu: FiniteMeasure) -> str:
    """Stable content hash used in run manifests."""
    h = hashlib.sha256()
    for (x, y), m in mu.atoms:
        h.update(f"atom {x!r} {y!r} {m!r};".encode())
    if mu.density is not None:
        h.update(mu.density.values.tobytes())
    return h.hexdigest()[:16]
