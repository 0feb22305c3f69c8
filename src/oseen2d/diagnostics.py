"""Scalar diagnostics of solutions: contraction-norm series, localized
diffuse-part decay, and the spectrum of the linearization about the
Gaussian steady profile.

The per-vortex attribution of the single evolved remainder uses a smooth
partition of unity of bumps around each vortex center (radius set by the
minimum center separation d): the bump equals one inside |x - z_i| <= d/4
and vanishes beyond d/3.  This is a faithful but not identical stand-in
for the exact per-vortex splitting, which a grid solver cannot observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .biot_savart import velocity_free_space
from .errors import ConvergenceError, DomainError, MismatchError, point, real
from .field import Grid, ScalarField, lp_norm, require_grid, weighted_norm
from .measure import FiniteMeasure, heat_smooth
from .oseen import gaussian_profile, velocity_profile
from .selfsim import to_self_similar
from .solver import SolverRun, restrict


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
    real("p", p, 1, np.inf, ends="[]")
    real("q", q, 2, np.inf, ends="(]")
    point("z", z)
    xx, yy = require_grid(grid).meshes()
    rows = []
    for t in t_values:
        w0 = heat_smooth(mu0, t, grid)
        # sampling-level boundary junk is irrelevant to these integral norms
        u0 = velocity_free_space(w0, boundary_tol=1e-6)
        cut = np.exp(-((xx - z[0])**2 + (yy - z[1])**2) / (8.0 * t))
        wn = t**(1.0 - 1.0 / p) * lp_norm(ScalarField(grid, w0.values * cut), p)
        un = t**(0.5 - 1.0 / q) * lp_norm(ScalarField(grid, np.hypot(*u0) * cut), q)
        rows.append((t, wn, un))
    return rows


# ---------------------------------------------------------------------
# spectrum of the linearization about the Gaussian profile
# ---------------------------------------------------------------------

MIN_BASIS = 16      # smallest Hermite basis per axis linearized_spectrum takes
# the inverse-iteration shift of the translation label: near its exact -1/2,
# which at alpha = 0 is an exact diagonal entry, so not on it
TRANSLATION_SHIFT = -0.5 + 1e-6


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the linearized operator in the Gaussian-weighted metric."""

    alpha: float
    eigenvalues: tuple[complex, ...]       # sorted by descending real part
    labeled_modes: dict

    @property
    def max_real(self) -> float:
        return float(self.eigenvalues[0].real)


def _hermite_tables(grid: Grid, count: int) -> np.ndarray:
    """1D tables of the normalized Gaussian-derivative factors, stacked
    as one (2, count, n) array (phi, psi): phi[a] samples the a-th
    derivative factor of the Gaussian profile normalized in the weighted
    metric; psi[a] the same times the inverse square root of the Gaussian
    weight (orthonormal in plain L^2, used for projections).
    """
    x = grid.coords()
    s = x / np.sqrt(2.0)
    tables = np.empty((2, count, grid.n))
    tables[0, 0] = np.exp(-x**2 / 4.0) / np.sqrt(4.0 * np.pi)
    tables[1, 0] = np.exp(-x**2 / 8.0) / (4.0 * np.pi) ** 0.25
    if count > 1:
        tables[:, 1] = -s * tables[:, 0]
    for a in range(1, count - 1):
        c1 = -1.0 / np.sqrt(a + 1.0)
        c2 = np.sqrt(a / (a + 1.0))
        tables[:, a + 1] = c1 * s * tables[:, a] - c2 * tables[:, a - 1]
    return tables


# four keys in the test suite: basis 16 and 32 on Grid(128, 40), 16 on
# Grid(64, 40) and A9's 32 on Grid(256, 40); per key at basis 32, 26 KB for
# the index arrays of the three rotation bases and 2.1 MB for their blocks
@lru_cache(maxsize=4)
def _assemble_coupling(basis_n: int, grid: Grid):
    """Modes (a, b) != (0, 0), the three symmetry-adapted bases of the
    rotation by pi/2, and per basis the pair (diag of L on it, coupling C
    on it): the block there is diag - alpha * C.  Only these are cached;
    the columns of C that `_coupling_columns` solves are dropped once the
    blocks are formed.

    The rotation by pi/2 maps the mode (a, b) to s (b, a), s = (-1)^a,
    and keeps the vortex's sense, so it commutes with C; its square is
    the parity (-1)^(a+b).  Each basis is a tuple (p, q, c, w) of arrays
    over its vectors: vector k is (e_p[k] + c[k] e_q[k]) / sqrt(2) for a
    pair, and e_p[k] (c[k] = 0, q[k] = p[k]) for a diagonal mode (a, a);
    w[k] is its squared normalization, 1/2 or 1.  With a < b:
      - rotation +1: (e_ab + s e_ba) / sqrt(2) and (a, a) with a even;
      - rotation -1: (e_ab - s e_ba) / sqrt(2) and (a, a) with a odd;
      - rotation +i: (e_ab - i s e_ba) / sqrt(2) for a + b odd.
    The -i vectors are the complex conjugates of the +i ones.  The +1 and
    -1 bases span the even half of the modes (a + b even), the +i basis
    the odd half.  C on a basis V is V^H C V; its entry (k, l) carries
    the norm sqrt(w[k] w[l]), exactly 1/2 between two pairs.  Each p[k]
    has a <= b, a solved column, and q[k] is its mirror (b, a): by the
    reflection x <-> y, C[q, q] = -C[p, p] and C[p, q] = -C[q, p].
    """
    modes, solved, coupling = _coupling_columns(basis_n, grid)
    rows = tuple(np.array(modes).T)
    index = np.zeros((basis_n, basis_n), dtype=int)
    index[rows] = np.arange(len(modes))
    diag = -(rows[0] + rows[1]) / 2.0
    bases = _rotation_bases(rows, index)
    blocks = []
    for p, q, c, w in bases:
        at = np.searchsorted(solved, p)
        cpp, cqp = coupling[np.ix_(p, at)], coupling[np.ix_(q, at)]
        # cpp + (-cqp) c + conj(c) (cqp + (-cpp) c), operation for operation,
        # formed in place and freeing the gathers early to keep the peak low
        mirror = (-cpp) * c
        mirror += cqp
        adapted = np.negative(cqp, out=cqp) * c
        adapted += cpp
        del cpp, cqp
        np.multiply(c.conj()[:, None], mirror, out=mirror)
        adapted += mirror
        np.multiply(np.sqrt(np.outer(w, w)), adapted, out=adapted)
        blocks.append((diag[p], adapted))
    return modes, bases, tuple(blocks)


def _coupling_columns(basis_n: int, grid: Grid):
    """The alpha-independent coupling matrix C on the columns it solves:
    (modes, solved, C), where modes are the (a, b) != (0, 0), solved holds
    the numbers of the modes with a <= b, in order, and C[:, k] is the
    column of the mode solved[k] on the rows of every mode.

    The reflection x -> -x maps the mode (a, b) to (-1)^a (a, b) and
    reverses the vortex, so it anticommutes with C, and so does y -> -y
    with (-1)^b.  The image v . grad e_ab + v_ab . grad G of the mode
    (a, b) therefore lies on the rows of axis parity ((a + 1) % 2,
    (b + 1) % 2); elsewhere it holds only quadrature error (the grid has a
    node at -L/2 but none at +L/2), about 1.5e-17 of C's largest entry
    at basis 16 and 32 on Grid(128, 40), and is left exactly zero.  Two
    modes of the same total parity and opposite axis parities, (even,
    even) with (odd, odd) or (even, odd) with (odd, even), have their
    images on disjoint rows: one free-space solve and one projection of
    their summed field serve both, and each mode's column is the
    projection on its own rows.

    The reflection x <-> y fixes the grid (both axes share its
    coordinates), G, the weight and every psi table; it maps the mode
    (a, b) to (b, a) and reverses the vortex.  So C[(c, d), (b, a)] =
    -C[(d, c), (a, b)], and the columns with a > b are never formed.
    """
    modes = [(a, b) for a in range(basis_n) for b in range(basis_n)][1:]
    c, d = np.array(modes).T
    solved = np.flatnonzero(c <= d)
    parity = c % 2, d % 2
    phi, psi = _hermite_tables(grid, basis_n + 1)
    xx, yy = grid.meshes()
    v = np.stack(velocity_profile(xx, yy))
    g = gaussian_profile(xx, yy)
    half_weight = np.exp((xx**2 + yy**2) / 8.0) * np.sqrt(4.0 * np.pi)
    grad_g = (-0.5 * xx * g, -0.5 * yy * g)
    coupling = np.zeros((len(modes), len(solved)))
    area = grid.cell_area

    def columns(pa, pb):
        # (column, mode) of the solved modes of axis parity (pa, pb)
        return [(k, (a, b)) for k, (a, b) in enumerate(zip(c[solved], d[solved]))
                if (a % 2, b % 2) == (pa, pb)]

    groups = [[column for column in pair if column is not None]
              for first, second in (((0, 0), (1, 1)), ((0, 1), (1, 0)))
              for pair in zip_longest(columns(*first), columns(*second))]
    for group in groups:
        field = sum(np.outer(phi[a], phi[b]) for _, (a, b) in group)
        # grad of the basis functions: next-order factors
        dx = sum(np.sqrt((a + 1) / 2.0) * np.outer(phi[a + 1], phi[b])
                 for _, (a, b) in group)
        dy = sum(np.sqrt((b + 1) / 2.0) * np.outer(phi[a], phi[b + 1])
                 for _, (a, b) in group)
        vw = velocity_free_space(ScalarField._owned(grid, field))
        coupled = v[0] * dx + v[1] * dy + vw[0] * grad_g[0] + vw[1] * grad_g[1]
        weighted = coupled * half_weight
        proj = psi @ weighted @ psi.T * area          # (basis_n+1)^2 block
        for k, (a, b) in group:
            image = (parity[0] != a % 2) & (parity[1] != b % 2)
            coupling[image, k] = proj[c[image], d[image]]
    return modes, solved, coupling


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


def linearized_spectrum(alpha: float, basis_n: int, mean_zero: bool = True, *,
                        grid: Grid) -> SpectrumReport:
    """Dense spectrum of  w -> L w - alpha (v . grad w + v_w . grad G).

    The matrix is assembled in the orthonormal basis of Gaussian
    derivatives (the eigenbasis of L, which is exactly diagonal there);
    only the alpha-coupling needs grid quadrature.  The coupling velocity
    of each basis function is its free-space Biot-Savart field.  The
    coupling does not depend on alpha and is cached.  Three symmetries
    of the Hermite basis cut the assembly (see `_coupling_columns`): the
    reflection x <-> y maps the mode (a, b) to (b, a) and reverses the
    vortex, so only the columns of the modes with a <= b are solved and
    stored, and the blocks read the others from them; and the reflections
    x -> -x and y -> -y put the image of each mode on the rows of one axis
    parity, so one free-space solve and one projection serve two modes of
    opposite axis parities.

    The operator commutes with rotations about the vortex, and the
    rotation by pi/2 maps the mode (a, b) to (-1)^a (b, a).  So the
    matrix splits into the diagonal blocks of that rotation's eigenspaces
    (see `_assemble_coupling`); the entries between them are quadrature
    error and are dropped.  The blocks of the eigenvalues +1 and -1 are
    real.  The block of -i is the complex conjugate of the block of +i,
    because the matrix is real, so only the +i block is solved and its
    eigenvalues are appended conjugated.  A real eigenvalue of that
    complex block comes back with an imaginary part of round-off size
    (~1e-16), as a conjugate pair.  All three eigen-solves compute
    eigenvalues only.  The translation label comes from one step of
    inverse iteration on the +i block, shifted near -1/2 and started
    from the basis vector of the mode (0, 1): if the result keeps more
    than 0.99 of its norm on that vector, the block's eigenvalue nearest
    -1/2 is the translation mode.

    The basis is the mean-zero modes (a, b) != (0, 0).  Without mean_zero
    the mass mode G = e_00 adds one exact 0.0: span{G} and the mean-zero
    functions are both invariant, and the spectrum on span{G} is {0}
    (Gallay & Wayne, Comm. Math. Phys. 255, 2005).
    """
    real("alpha", alpha)
    real("basis_n", basis_n, MIN_BASIS, np.inf, ends="[)", integer=True)
    require_grid(grid)
    # imported here: only the eigen-solve needs scipy, and loading
    # scipy.linalg costs ~0.25 s, the only scipy import the package makes
    import scipy.linalg

    modes, bases, (plus, minus, rotating) = _assemble_coupling(basis_n, grid)

    def block(d, adapted):
        return np.diag(d) - alpha * adapted

    # the +i basis vector of the mode (0, 1), which holds both translations
    row = bases[2][0].tolist().index(modes.index((0, 1)))
    start = np.zeros(len(rotating[0]))
    start[row] = 1.0
    rot_block = block(*rotating)
    try:
        plus_vals = scipy.linalg.eig(block(*plus), right=False)
        minus_vals = scipy.linalg.eig(block(*minus), right=False)
        rot_vals = scipy.linalg.eig(rot_block, right=False)
        near = scipy.linalg.solve(
            rot_block - TRANSLATION_SHIFT * np.eye(len(start)), start)
    except scipy.linalg.LinAlgError as exc:            # pragma: no cover
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
    eigvals = np.concatenate([plus_vals, minus_vals, rot_vals, rot_vals.conj()])
    if not mean_zero:
        # G's column is zero: L G = 0 and its image 2 v . grad G = 0.  G's
        # row is zero: each image is a divergence, and its G-component in
        # the weighted metric is its integral, 0.
        eigvals = np.append(eigvals, 0.0)
    eigvals = eigvals[np.argsort(-eigvals.real)]

    labeled = {}
    if np.abs(near[row]) > 0.99 * np.linalg.norm(near):
        labeled["translation"] = complex(
            rot_vals[np.argmin(np.abs(rot_vals + 0.5))])
    j_scal = int(np.argmin(np.abs(eigvals + 1.0)))
    labeled["scaling"] = complex(eigvals[j_scal])

    return SpectrumReport(alpha=float(alpha), eigenvalues=tuple(eigvals.tolist()),
                          labeled_modes=labeled)


def eigenvalue_multiplicity(report: SpectrumReport, value: complex,
                            tol: float) -> int:
    return int(sum(abs(ev - value) <= tol for ev in report.eigenvalues))
