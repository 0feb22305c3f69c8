"""Scalar diagnostics of solutions: distance to the self-similar vortex,
contraction-norm series, localized diffuse-part decay, and the spectrum of
the linearization about the Gaussian steady profile.

The per-vortex attribution of the single evolved remainder uses a smooth
partition of unity of bumps around each vortex center (radius set by the
minimum center separation d): the bump equals one inside |x - z_i| <= d/4
and vanishes beyond d/3.  This is a faithful but not identical stand-in
for the exact per-vortex splitting, which a grid solver cannot observe.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .biot_savart import velocity_free_space
from .errors import ConvergenceError, DomainError, MismatchError
from .field import Grid, ScalarField, lp_norm, weighted_norm
from .measure import FiniteMeasure, heat_smooth
from .oseen import OseenVortex, gaussian_profile, oseen_vorticity, velocity_profile
from .selfsim import to_self_similar
from .solver import SolverRun, restrict


# ---------------------------------------------------------------------
# distance to the self-similar vortex
# ---------------------------------------------------------------------

def oseen_distance(omega: ScalarField, t: float, alpha: float, p: float) -> float:
    """t^(1-1/p) L^p distance of omega to the circulation-alpha vortex at t.

    The prefactor matches the self-similar scaling, so the value is
    invariant along exact vortex solutions and measures only the profile
    mismatch.
    """
    if not (p >= 1):
        raise DomainError(f"oseen_distance needs p >= 1, got {p}")
    if not (t > 0):
        raise DomainError(f"oseen_distance needs t > 0, got {t}")
    grid = omega.grid
    xx, yy = grid.meshes()
    ref = oseen_vorticity(OseenVortex(alpha, (0.0, 0.0)), t, xx, yy)
    diff = ScalarField(grid, omega.values - ref)
    power = 1.0 if p == np.inf else 1.0 - 1.0 / p
    return t**power * lp_norm(diff, p)


# ---------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------

def _bridge(u: np.ndarray) -> np.ndarray:
    """Smooth 0->1 bridge on [0, 1] built from exp(-1/u)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth radial bump: 1 for r <= 1/4, 0 for r >= 1/3."""
    return 1.0 - _bridge((np.asarray(r, dtype=float) - 0.25) * 12.0)


def partition_of_unity(grid: Grid, centers, d: float) -> list[np.ndarray]:
    """[chi_0, chi_1, ..., chi_N] with chi_i localized at centers[i-1].

    chi_i(x) = bump(|x - z_i| / d); chi_0 is the complement.  With a single
    center (d infinite) the whole plane is attributed to it.
    """
    xx, yy = grid.meshes()
    chis = []
    for (zx, zy) in centers:
        if np.isfinite(d):
            chis.append(bump(np.hypot(xx - zx, yy - zy) / d))
        else:
            chis.append(np.ones_like(xx))
    total = sum(chis) if chis else np.zeros_like(xx)
    if np.any(total > 1.0 + 1e-12):
        raise DomainError("vortex bumps overlap; separation d is inconsistent")
    chis.insert(0, 1.0 - total)
    return chis


# ---------------------------------------------------------------------
# contraction-norm series
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionSeries:
    """Running suprema of the per-part remainder norms."""

    times: tuple[float, ...]
    parts: tuple[tuple[float, ...], ...]   # rows: (M0, M1, ..., MN) per time
    running_max: tuple[float, ...]         # M(t) = max over parts, running

    @property
    def final(self) -> float:
        return self.running_max[-1]


def _contraction_norms(grid: Grid, backgrounds, d: float, times, fields,
                       m: float) -> ContractionSeries:
    """Running suprema of the contraction norm of the frames f at times t:
    [t^(1/4)|chi_0 f|_{4/3}, |rescaled chi_i f / alpha_i|_{L2(m)}, ...],
    with chi_i the partition of unity about the background centers."""
    chis = partition_of_unity(grid, [v.z for v in backgrounds], d)
    current = [0.0] * len(chis)
    sup_rows, overall = [], []
    for t, f in zip(times, fields):
        row = [t**0.25 * lp_norm(ScalarField(grid, chis[0] * f.values), 4.0 / 3.0)]
        for chi, v in zip(chis[1:], backgrounds):
            part = ScalarField(grid, chi * f.values / v.alpha)
            row.append(weighted_norm(to_self_similar(part, t, v.z), 2, m))
        current = [max(c, r) for c, r in zip(current, row)]
        sup_rows.append(tuple(current))
        overall.append(max(current))
    return ContractionSeries(times=tuple(times), parts=tuple(sup_rows),
                             running_max=tuple(overall))


def remainder_norms(run: SolverRun, m: float) -> ContractionSeries:
    """Running suprema of the attributed remainder norms along a run."""
    return _contraction_norms(run.grid, run.backgrounds, run.decomposition.d,
                              run.trajectory.times, run.trajectory.fields, m)


def _shared_snapshots(runA: SolverRun, runB: SolverRun, frame):
    """The coarser grid of two runs, and (t, frame(runA, i), frame(runB, i))
    per shared snapshot i, each frame restricted to that grid.

    Raises MismatchError unless the runs share snapshot times; a run on a
    nested finer grid is restricted to the coarser one.
    """
    ta, tb = runA.trajectory.times, runB.trajectory.times
    if len(ta) != len(tb) or any(abs(a - b) > 1e-10 * max(a, 1.0)
                                 for a, b in zip(ta, tb)):
        raise MismatchError("runs do not share snapshot times")
    coarse = runA.grid if runA.grid.n <= runB.grid.n else runB.grid

    def on_coarse(w):
        return w if w.grid == coarse else restrict(w, coarse)

    return coarse, ((t, on_coarse(frame(runA, i)), on_coarse(frame(runB, i)))
                    for i, t in enumerate(ta))


def solution_distance(runA: SolverRun, runB: SolverRun, m: float) -> ContractionSeries:
    """Running suprema of the contraction norm of the difference of two runs.

    The runs must share snapshot times and backgrounds (circulations and
    centers), so that their difference is the difference of their
    remainders.  A run on a nested finer grid is restricted to the coarser
    one.
    """
    coarse, snapshots = _shared_snapshots(
        runA, runB, lambda run, i: run.trajectory.fields[i])
    if runA.backgrounds != runB.backgrounds:
        raise MismatchError("runs do not share backgrounds "
                            "(circulations and centers)")
    return _contraction_norms(coarse, runA.backgrounds, runA.decomposition.d,
                              runA.trajectory.times,
                              (wa - wb for _, wa, wb in snapshots), m)


def total_l1_difference(runA: SolverRun, runB: SolverRun) -> np.ndarray:
    """|omega_A(t) - omega_B(t)|_{L^1} per shared snapshot.

    For runs with identical backgrounds this is just the remainder
    difference; otherwise the analytic backgrounds are included.  The runs
    must share snapshot times (MismatchError otherwise); a run on a nested
    finer grid is restricted to the coarser one.
    """
    _, snapshots = _shared_snapshots(runA, runB, SolverRun.total_vorticity)
    return np.asarray([lp_norm(wa - wb, 1) for _, wa, wb in snapshots])


# ---------------------------------------------------------------------
# localized diffuse-part decay
# ---------------------------------------------------------------------

def localized_diffuse_series(mu0: FiniteMeasure, z, t_values, p: float,
                             q: float, grid: Grid):
    """Localized norms of the heat-smoothed diffuse measure at given times.

    Weight exp(-|x-z|^2/(8 t)) localizes at z; the prefactors t^(1-1/p),
    t^(1/2-1/q) make both the vorticity and the velocity norm vanish as
    t -> 0 whenever the measure carries no atom at z.  Rows are
    (t, vorticity norm, velocity norm).
    """
    if not (q > 2):
        raise DomainError(f"velocity exponent must be > 2, got {q}")
    xx, yy = grid.meshes()
    rows = []
    for t in t_values:
        w0 = heat_smooth(mu0, t, grid)
        # sampling-level boundary junk is irrelevant to these integral norms
        u0 = velocity_free_space(w0, boundary_tol=1e-6)
        cut = np.exp(-((xx - z[0])**2 + (yy - z[1])**2) / (8.0 * t))
        wn = t**(1.0 - 1.0 / p) * lp_norm(ScalarField(grid, w0.values * cut), p)
        un = t**(0.5 - 1.0 / q) * lp_norm(
            ScalarField(grid, u0.magnitude().values * cut), q)
        rows.append((t, wn, un))
    return rows


# ---------------------------------------------------------------------
# spectrum of the linearization about the Gaussian profile
# ---------------------------------------------------------------------

MIN_BASIS = 16      # smallest Hermite basis per axis linearized_spectrum takes


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the linearized operator in the Gaussian-weighted metric."""

    alpha: float
    basis_n: int
    mean_zero: bool
    eigenvalues: tuple[complex, ...]       # sorted by descending real part
    labeled_modes: dict

    @property
    def max_real(self) -> float:
        return float(self.eigenvalues[0].real)


def _hermite_tables(grid: Grid, count: int):
    """1D tables of the normalized Gaussian-derivative factors.

    Returns (phi, psi): phi[a] samples the a-th derivative factor of the
    Gaussian profile normalized in the weighted metric; psi[a] the same
    times the inverse square root of the Gaussian weight (orthonormal in
    plain L^2, used for projections).
    """
    x = grid.coords()
    phi = np.empty((count, grid.n))
    psi = np.empty((count, grid.n))
    phi[0] = np.exp(-x**2 / 4.0) / np.sqrt(4.0 * np.pi)
    psi[0] = np.exp(-x**2 / 8.0) / (4.0 * np.pi) ** 0.25
    if count > 1:
        phi[1] = -(x / np.sqrt(2.0)) * phi[0]
        psi[1] = -(x / np.sqrt(2.0)) * psi[0]
    for a in range(1, count - 1):
        c1 = -1.0 / np.sqrt(a + 1.0)
        c2 = np.sqrt(a / (a + 1.0))
        phi[a + 1] = c1 * (x / np.sqrt(2.0)) * phi[a] - c2 * phi[a - 1]
        psi[a + 1] = c1 * (x / np.sqrt(2.0)) * psi[a] - c2 * psi[a - 1]
    return phi, psi


# three keys in the test suite; per key at basis 32, 8 MB for the matrix
# and 26 KB for the index arrays of the three rotation bases
@lru_cache(maxsize=4)
def _assemble_coupling(basis_n: int, mean_zero: bool, grid: Grid):
    """Basis list, diagonal of L, the alpha-independent coupling matrix C,
    and the three symmetry-adapted bases of the rotation by pi/2.

    Only the columns of the modes (a, b) with a <= b are solved.  The
    reflection x <-> y fixes the grid (both axes share its coordinates),
    G, the weight and every psi table; it maps the mode (a, b) to (b, a)
    and reverses the vortex.  So C[(c, d), (b, a)] = -C[(d, c), (a, b)],
    and each column with a > b is filled from its partner: one free-space
    solve and one projection per pair instead of two.

    The rotation by pi/2 maps the mode (a, b) to s (b, a), s = (-1)^a,
    and keeps the vortex's sense, so it commutes with C; its square is
    the parity (-1)^(a+b).  Each basis is a tuple (p, q, c, w) of arrays
    over its vectors: vector k is (e_p[k] + c[k] e_q[k]) / sqrt(2) for a
    pair, and e_p[k] (c[k] = 0, q[k] = p[k]) for a diagonal mode (a, a);
    w[k] is its squared normalization, 1/2 or 1.  With a < b:
      - rotation +1: (e_ab + s e_ba) / sqrt(2) and (a, a) with a even,
        (0, 0) included without mean_zero;
      - rotation -1: (e_ab - s e_ba) / sqrt(2) and (a, a) with a odd;
      - rotation +i: (e_ab - i s e_ba) / sqrt(2) for a + b odd.
    The -i vectors are the complex conjugates of the +i ones.
    """
    modes = [(a, b) for a in range(basis_n) for b in range(basis_n)]
    if mean_zero:
        modes = [mode for mode in modes if mode != (0, 0)]
    nm = len(modes)
    rows = tuple(np.array(modes).T)             # mode i's (a, b) at [i]
    index = np.zeros((basis_n, basis_n), dtype=int)
    index[rows] = np.arange(nm)                 # (a, b)'s mode number

    phi, psi = _hermite_tables(grid, basis_n + 1)
    xx, yy = grid.meshes()
    v1, v2 = velocity_profile(xx, yy)
    g = gaussian_profile(xx, yy)
    half_weight = np.exp((xx**2 + yy**2) / 8.0) * np.sqrt(4.0 * np.pi)
    grad_g = (-0.5 * xx * g, -0.5 * yy * g)

    diag = np.array([-(a + b) / 2.0 for a, b in modes])
    coupling = np.zeros((nm, nm))
    area = grid.cell_area
    for col, (a, b) in enumerate(modes):
        if a > b:
            continue                                  # filled from (b, a)
        field_ab = np.outer(phi[a], phi[b])
        # grad of the basis function: next-order factors
        dx = np.sqrt((a + 1) / 2.0) * np.outer(phi[a + 1], phi[b])
        dy = np.sqrt((b + 1) / 2.0) * np.outer(phi[a], phi[b + 1])
        coupled = v1 * dx + v2 * dy
        if (a, b) == (0, 0):
            # its own velocity is the vortex profile; the coupling term
            # v . grad G vanishes pointwise by perpendicularity
            vw1, vw2 = v1, v2
        else:
            vw = velocity_free_space(ScalarField._owned(grid, field_ab))
            vw1, vw2 = vw.x.values, vw.y.values
        coupled = coupled + vw1 * grad_g[0] + vw2 * grad_g[1]
        weighted = coupled * half_weight
        proj = psi @ weighted @ psi.T * area          # (basis_n+1)^2 block
        coupling[:, col] = proj[rows]
        if a < b:
            coupling[:, index[b, a]] = -proj.T[rows]
    return modes, diag, coupling, _rotation_bases(rows, index)


def _rotation_bases(rows, index):
    """The (p, q, c, w) bases of the rotation's eigenvalues +1, -1 and +i,
    for the modes (rows[0][i], rows[1][i]) numbered by index[a, b]."""
    a, b = rows
    sign = 1.0 - 2.0 * (a % 2)
    pair = (a < b) & ((a + b) % 2 == 0)

    def basis(keep, c):
        p = np.flatnonzero(keep)
        return p, index[b[p], a[p]], c[p], np.where(a[p] == b[p], 1.0, 0.5)

    return (basis(pair | ((a == b) & (sign > 0)), np.where(pair, sign, 0.0)),
            basis(pair | ((a == b) & (sign < 0)), np.where(pair, -sign, 0.0)),
            basis((a < b) & ((a + b) % 2 == 1), -1j * sign))


def linearized_spectrum(alpha: float, basis_n: int, mean_zero: bool = True,
                        grid: Grid | None = None) -> SpectrumReport:
    """Dense spectrum of  w -> L w - alpha (v . grad w + v_w . grad G).

    The matrix is assembled in the orthonormal basis of Gaussian
    derivatives (the eigenbasis of L, which is exactly diagonal there);
    only the alpha-coupling needs grid quadrature.  The coupling velocity
    of each basis function is its free-space Biot-Savart field.  The
    coupling matrix does not depend on alpha and is cached.  The
    reflection x <-> y maps the mode (a, b) to (b, a) and reverses the
    vortex, so only the modes with a <= b are solved and projected; each
    column (b, a) is minus its partner's with the row indices swapped.

    The operator commutes with rotations about the vortex, and the
    rotation by pi/2 maps the mode (a, b) to (-1)^a (b, a).  So the
    matrix splits into the diagonal blocks of that rotation's eigenspaces
    (see `_assemble_coupling`); the entries between them are quadrature
    error and are dropped.  The blocks of the eigenvalues +1 and -1 are
    real.  The block of -i is the complex conjugate of the block of +i,
    because the matrix is real, so only the +i block is solved and its
    eigenvalues are appended conjugated.  A real eigenvalue of that
    complex block comes back with an imaginary part of round-off size
    (~1e-16), as a conjugate pair.  Only the +i block, which holds the
    translation modes (1, 0) and (0, 1) as one vector, computes
    eigenvectors.
    """
    if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha)):
        raise DomainError(f"alpha must be a finite number, got {alpha!r}")
    if not isinstance(basis_n, numbers.Integral):
        raise DomainError(f"basis_n must be an integer, got {basis_n!r}")
    if basis_n < MIN_BASIS:
        raise DomainError(f"basis_n must be >= {MIN_BASIS}, got {basis_n}")
    # imported here: only the eigen-solve needs scipy, and loading
    # scipy.linalg costs ~0.25 s, the only scipy import the package makes
    import scipy.linalg

    grid = grid or Grid(256, 40.0)
    modes, diag, coupling, (plus, minus, rotating) = _assemble_coupling(
        basis_n, mean_zero, grid)

    def block(p, q, c, w):
        # V^H (diag - alpha C) V for the basis V; entry (k, l) carries the
        # norm sqrt(w[k] w[l]), exactly 1/2 between two pairs
        adapted = (coupling[np.ix_(p, p)] + coupling[np.ix_(p, q)] * c
                   + c.conj()[:, None] * (coupling[np.ix_(q, p)]
                                          + coupling[np.ix_(q, q)] * c))
        return np.diag(diag[p]) - alpha * (np.sqrt(np.outer(w, w)) * adapted)

    try:
        plus_vals = scipy.linalg.eig(block(*plus), right=False)
        minus_vals = scipy.linalg.eig(block(*minus), right=False)
        rot_vals, rot_vecs = scipy.linalg.eig(block(*rotating))
    except scipy.linalg.LinAlgError as exc:            # pragma: no cover
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
    eigvals = np.concatenate([plus_vals, minus_vals, rot_vals, rot_vals.conj()])
    eigvals = eigvals[np.argsort(-eigvals.real)]

    labeled = {}
    row = rotating[0].tolist().index(modes.index((0, 1)))
    on_translation = (np.abs(rot_vecs[row])
                      > 0.99 * np.linalg.norm(rot_vecs, axis=0))
    if on_translation.any():
        dist = np.where(on_translation, np.abs(rot_vals + 0.5), np.inf)
        labeled["translation"] = complex(rot_vals[np.argmin(dist)])
    j_scal = int(np.argmin(np.abs(eigvals + 1.0)))
    labeled["scaling"] = complex(eigvals[j_scal])

    return SpectrumReport(alpha=float(alpha), basis_n=basis_n,
                          mean_zero=mean_zero,
                          eigenvalues=tuple(eigvals.tolist()),
                          labeled_modes=labeled)


def eigenvalue_multiplicity(report: SpectrumReport, value: complex,
                            tol: float) -> int:
    return int(sum(abs(ev - value) <= tol for ev in report.eigenvalues))


# ---------------------------------------------------------------------
# CSV and plot-script output
# ---------------------------------------------------------------------

def write_contraction_csv(series: ContractionSeries, path,
                          label: str = "M") -> None:
    """Columns t,<label>0..<label>N,<label>."""
    n_parts = len(series.parts[0])
    with open(path, "w") as fh:
        header = ["t"] + [f"{label}{i}" for i in range(n_parts)] + [label]
        fh.write(",".join(header) + "\n")
        for t, row, m in zip(series.times, series.parts, series.running_max):
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
            cells.append(format(m, ".17g"))
            fh.write(",".join(cells) + "\n")


def write_spectrum_csv(reports, path) -> None:
    """Columns alpha,re,im,label."""
    with open(path, "w") as fh:
        fh.write("alpha,re,im,label\n")
        for report in reports:
            # a labeled value can be a multiple eigenvalue (at alpha = 0 the
            # exact -1/2 is double): each label goes to its first row only
            labels = {}
            for name, ev in report.labeled_modes.items():
                labels.setdefault(complex(ev), []).append(name)
            for ev in report.eigenvalues:
                names = labels.get(complex(ev))
                label = names.pop(0) if names else ""
                fh.write(f"{format(report.alpha, '.17g')},"
                         f"{format(ev.real, '.17g')},{format(ev.imag, '.17g')},"
                         f"{label}\n")


def write_plot_script(csv_path, out_path, columns: str, title: str) -> None:
    """Emit a minimal gnuplot script referencing a CSV produced above."""
    base = os.path.basename(str(csv_path))
    with open(out_path, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key autotitle columnhead\n")
        fh.write("set logscale xy\n")
        fh.write(f"set title '{title}'\n")
        fh.write(f"plot '{base}' using {columns} with linespoints\n")
