from functools import lru_cache

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from oseen2d import diagnostics, experiments
from oseen2d.biot_savart import velocity_free_space
from oseen2d.diagnostics import (_assemble_coupling, _coupling_columns, bump,
                                 eigenvalue_multiplicity,
                                 linearized_spectrum, localized_diffuse_series,
                                 partition_of_unity, remainder_norms,
                                 solution_distance, total_l1_difference,
)
from oseen2d.errors import DomainError, MismatchError
from oseen2d.field import Grid, ScalarField
from oseen2d.measure import FiniteMeasure
from oseen2d.solver import solve_cauchy

from oracles import (coupling_modes, coupling_per_mode, two_resample_distance,
                     unsplit_spectrum)


def blob(grid, mass, center, width):
    xx, yy = grid.meshes()
    return ScalarField(grid, mass / (2 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2 * width**2)))


# ------------------------------------------------------- partition of unity

def test_bump_profile():
    assert bump(np.array([0.0, 0.2, 0.25]) ).min() == 1.0
    assert np.all(bump(np.array([1.0 / 3.0, 0.5, 2.0])) == 0.0)
    r = np.linspace(0.25, 1.0 / 3.0, 50)
    vals = bump(r)
    assert np.all(np.diff(vals) <= 1e-12)


def test_partition_of_unity_sums_to_one(grid128):
    chis = partition_of_unity(grid128, [(0.0, 0.0), (4.0, 0.0)], 4.0)
    total = sum(chis)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert len(chis) == 3
    # single center with infinite separation owns the whole plane
    chis = partition_of_unity(grid128, [(0.0, 0.0)], np.inf)
    assert np.all(chis[0] == 0.0)
    assert np.all(chis[1] == 1.0)


# --------------------------------------------------------- remainder norms

@pytest.fixture(scope="module")
def run_single(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    return solve_cauchy(mu, 0.1, 0.05, 0.5, grid128)


@pytest.fixture(scope="module")
def run_density(grid128):
    mu = FiniteMeasure(density=blob(Grid(128, 40.0), 1.0, (0.0, 0.0), 1.0))
    return solve_cauchy(mu, 0.1, 0.05, 0.5, grid128)


def test_remainder_norms_exact_vortex(run_single):
    series = remainder_norms(run_single, 3.0)
    assert series.final < 1e-6
    assert len(series.parts[0]) == 2      # M0 and one vortex part


def test_remainder_norms_density_only(run_density):
    series = remainder_norms(run_density, 3.0)
    assert len(series.parts[0]) == 1      # only M0, no vortex parts
    assert series.final > 0.0
    # running sup is nondecreasing by construction
    assert np.all(np.diff(series.running_max) >= 0.0)


# -------------------------------------------------------- solution distance

def test_solution_distance_self_is_zero(run_single):
    series = solution_distance(run_single, run_single, 3.0)
    assert series.final == 0.0


def test_solution_distance_mismatched_times(run_single, run_density, grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    other = solve_cauchy(mu, 0.1, 0.05, 0.4, grid128)
    with pytest.raises(MismatchError):
        solution_distance(run_single, other, 3.0)


def test_total_l1_difference_mismatched_times():
    # runs with different snapshot times are rejected in either order, not
    # compared frame by frame at different times or indexed out of range
    grid = Grid(64, 16.0)
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    longer = solve_cauchy(mu, 0.1, 0.1, 0.4, grid)
    shorter = solve_cauchy(mu, 0.1, 0.1, 0.3, grid)
    for runA, runB in ((longer, shorter), (shorter, longer)):
        with pytest.raises(MismatchError, match="snapshot times"):
            total_l1_difference(runA, runB)


@pytest.fixture(scope="module")
def perturbed_pair(grid128):
    base = blob(grid128, 0.2, (1.0, 0.5), 1.0)
    atoms = (((0.0, 0.0), 1.0),)
    runA = solve_cauchy(FiniteMeasure(atoms=atoms, density=base),
                        0.15, 0.05, 0.2, grid128)
    pert = base + blob(grid128, 1e-3, (0.5, -0.5), 0.8)
    runB = solve_cauchy(FiniteMeasure(atoms=atoms, density=pert),
                        0.15, 0.05, 0.2, grid128)
    return runA, runB


def test_solution_distance_perturbed_density(perturbed_pair):
    runA, runB = perturbed_pair
    series = solution_distance(runA, runB, 3.0)
    assert 0.0 < series.final < 0.1
    diffs = total_l1_difference(runA, runB)
    assert np.max(diffs) < 10.0 * 1e-3    # response comparable to the input


def test_solution_distance_matches_two_resample_oracle(perturbed_pair):
    # rescaling the difference once equals rescaling each run and
    # subtracting, up to round-off, part by part
    series = solution_distance(*perturbed_pair, 3.0)
    want = two_resample_distance(*perturbed_pair, 3.0)
    got = np.asarray(series.parts)
    assert got.shape == want.shape == (len(series.times), 2)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_solution_distance_rejects_different_circulations():
    # the same center but circulation 1 against 2: the runs' remainders
    # agree, their solutions do not, so there is no distance to report
    grid = Grid(64, 24.0)
    runs = [solve_cauchy(FiniteMeasure.from_atoms(((0.0, 0.0), alpha)),
                         0.05, 0.1, 0.3, grid) for alpha in (1.0, 2.0)]
    with pytest.raises(MismatchError, match="backgrounds"):
        solution_distance(*runs, 3.0)


# ---------------------------------------------------- localized diffuse part

def test_localized_diffuse_series_decay(grid256):
    mu0 = FiniteMeasure(density=blob(grid256, 1.0, (3.0, 0.0), 0.5))
    rows = localized_diffuse_series(mu0, (0.0, 0.0), [1e-3, 1e-2, 1e-1],
                                    p=4.0, q=4.0, grid=grid256)
    w_vals = [r[1] for r in rows]
    u_vals = [r[2] for r in rows]
    assert w_vals[0] < w_vals[-1] / 5.0
    assert u_vals[0] < u_vals[-1] / 5.0
    with pytest.raises(DomainError):
        localized_diffuse_series(FiniteMeasure(), (0, 0), [0.1], 4.0, 1.5,
                                 grid256)
    with pytest.raises(DomainError,
                       match=r"t must be a real number in \(0, inf\), got inf"):
        localized_diffuse_series(mu0, (0.0, 0.0), [0.1, np.inf], 4.0, 4.0, grid256)


# ------------------------------------------------------------------ spectrum

@pytest.fixture(scope="module")
def spectrum_grid():
    return Grid(128, 40.0)


# the full coupling matrix, one solve per mode; the package caches only
# the blocks of the spectrum, so the tests that read the matrix take it here
per_mode_coupling = lru_cache(maxsize=None)(coupling_per_mode)


def test_spectrum_alpha_zero_exact(spectrum_grid):
    rep = linearized_spectrum(0.0, 16, mean_zero=True, grid=spectrum_grid)
    exact = sorted((-(a + b) / 2.0 for a in range(16) for b in range(16)
                    if (a, b) != (0, 0)), reverse=True)
    evs = np.array(rep.eigenvalues)
    assert np.max(np.abs(evs.real - np.array(exact))) < 1e-10
    assert np.max(np.abs(evs.imag)) < 1e-10
    assert list(evs.real) == sorted(evs.real, reverse=True)


def test_spectrum_translation_mode(spectrum_grid):
    for alpha in (1.0, 10.0):
        rep = linearized_spectrum(alpha, 16, mean_zero=True, grid=spectrum_grid)
        trans = rep.labeled_modes["translation"]
        assert abs(trans + 0.5) < 1e-6
        assert eigenvalue_multiplicity(rep, -0.5, 1e-6) >= 2
        assert rep.max_real <= -0.5 + 1e-3


def test_spectrum_translation_alpha_independent(spectrum_grid):
    vals = []
    for alpha in (0.0, 1.0, 10.0):
        rep = linearized_spectrum(alpha, 16, mean_zero=True, grid=spectrum_grid)
        vals.append(rep.labeled_modes["translation"].real)
    assert max(vals) - min(vals) < 1e-6


def test_spectrum_conjugate_pairs(spectrum_grid):
    rep = linearized_spectrum(10.0, 16, mean_zero=True, grid=spectrum_grid)
    evs = np.array(rep.eigenvalues)
    complexes = evs[np.abs(evs.imag) > 1e-10]
    conjugates = set(np.round(complexes.conj(), 8).tolist())
    assert set(np.round(complexes, 8).tolist()) == conjugates


def test_spectrum_scaling_mode(spectrum_grid):
    rep = linearized_spectrum(1.0, 16, mean_zero=True, grid=spectrum_grid)
    assert abs(rep.labeled_modes["scaling"] + 1.0) < 1e-6


def test_spectrum_with_mean_mode(spectrum_grid):
    rep = linearized_spectrum(1.0, 16, mean_zero=False, grid=spectrum_grid)
    # the full-space spectrum gains the conserved-mass eigenvalue 0
    assert abs(rep.eigenvalues[0]) < 1e-10
    # exactly: the mean-zero eigenvalues plus one 0.0 for the mass mode
    rest = linearized_spectrum(1.0, 16, mean_zero=True, grid=spectrum_grid)
    assert rep.eigenvalues[0] == 0.0
    assert sorted(rep.eigenvalues[1:], key=lambda ev: (ev.real, ev.imag)) == sorted(
        rest.eigenvalues, key=lambda ev: (ev.real, ev.imag))
    assert rep.labeled_modes == rest.labeled_modes


def test_mass_mode_is_decoupled_on_the_oracle(spectrum_grid):
    # the package appends the mass mode G's eigenvalue 0 instead of assembling
    # it; on the oracle, which solves the G column too, its column and row
    # are zero.  The column is 2 v . grad G, which cancels pointwise (v is
    # perpendicular to grad G): round-off, bounded as the oracle's other
    # exact identity.  The row is the rectangle-rule integral of each image,
    # a divergence: the quadrature error of the free-space velocity.  At
    # 1e-9 of max|C| (about 0.025), alpha = 10 times the row stays at the
    # order of the 1e-10 to which the split spectrum matches this oracle
    modes = coupling_modes(16, False)
    assert modes[0] == (0, 0)
    coupling = per_mode_coupling(16, False, spectrum_grid)
    scale = np.max(np.abs(coupling))
    assert np.max(np.abs(coupling[:, 0])) <= 1e-15 * scale
    assert np.max(np.abs(coupling[0, :])) <= 1e-9 * scale


def test_spectrum_requires_a_grid():
    # no hidden Grid(256, 40) fallback: the grid is a keyword the caller names
    with pytest.raises(TypeError, match="grid"):
        linearized_spectrum(1.0, 16)
    with pytest.raises(TypeError):
        linearized_spectrum(1.0, 16, True, Grid(64, 40.0))


def test_spectrum_requires_basis(spectrum_grid):
    with pytest.raises(DomainError):
        linearized_spectrum(1.0, 8, grid=spectrum_grid)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
def test_spectrum_rejects_nonfinite_alpha(alpha):
    with pytest.raises(DomainError):
        linearized_spectrum(alpha, 16, grid=Grid(64, 40.0))


@pytest.mark.parametrize("basis_n", [16.5, 16.0, "16"])
def test_spectrum_rejects_noninteger_basis(basis_n):
    with pytest.raises(DomainError):
        linearized_spectrum(1.0, basis_n, grid=Grid(64, 40.0))


def _rotation(modes):
    """The signed permutation Q of the rotation by pi/2 on the modes:
    Q e_ab = (-1)^a e_ba."""
    index = {mode: i for i, mode in enumerate(modes)}
    q = np.zeros((len(modes), len(modes)))
    for i, (a, b) in enumerate(modes):
        q[index[(b, a)], i] = (-1.0) ** a
    return q


def _adapted_vectors(basis, nm):
    """The columns (e_p + c e_q) sqrt(w) of a (p, q, c, w) basis."""
    p, q, c, w = basis
    vectors = np.zeros((nm, len(p)), dtype=complex)
    cols = np.arange(len(p))
    vectors[p, cols] = np.sqrt(w)
    vectors[q, cols] += c * np.sqrt(w)
    return vectors


def test_coupling_splits_by_quarter_turn(spectrum_grid):
    # the rotation by pi/2 maps the Hermite mode (a, b) to (-1)^a (b, a)
    # and commutes with the linearization, so the coupling between its
    # eigenspaces +1, -1, +i and -i is quadrature error
    modes, bases, _ = _assemble_coupling(16, spectrum_grid)
    assert modes == coupling_modes(16, True)
    coupling = per_mode_coupling(16, True, spectrum_grid)
    nm = len(modes)
    plus, minus, rotating = (_adapted_vectors(basis, nm) for basis in bases)
    spaces = (plus, minus, rotating, rotating.conj())
    # the four bases together are one orthonormal basis of all the modes
    vectors = np.hstack(spaces)
    assert vectors.shape == (nm, nm)
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(nm))) <= 1e-15
    q = _rotation(modes)
    for space, value in zip(spaces, (1, -1, 1j, -1j)):
        assert np.max(np.abs(q @ space - value * space)) <= 1e-15
    scale = np.max(np.abs(coupling))
    for i, left in enumerate(spaces):
        for right in spaces[:i] + spaces[i + 1:]:
            cross = left.conj().T @ coupling @ right
            assert np.max(np.abs(cross)) <= 1e-12 * scale


def test_spectrum_makes_three_eigen_solves(spectrum_grid, monkeypatch):
    import scipy.linalg
    calls = []
    real_eig = scipy.linalg.eig

    def counted(a, *args, **kwargs):
        calls.append((a.shape, np.iscomplexobj(a), kwargs.get("right", True)))
        return real_eig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counted)
    # the +1 and -1 blocks are real; the -i block is the conjugate of the
    # +i block; no block computes eigenvectors (the translation label takes
    # one linear solve instead)
    for basis_n, (plus, minus, rotating) in ((16, (63, 64, 64)),
                                            (32, (255, 256, 256))):
        calls.clear()
        linearized_spectrum(1.0, basis_n, mean_zero=True, grid=spectrum_grid)
        assert calls == [((plus, plus), False, False),
                         ((minus, minus), False, False),
                         ((rotating, rotating), True, False)]


def test_spectrum_real_eigenvalues_as_conjugate_pairs(spectrum_grid):
    # a real eigenvalue of the +i block comes back with an imaginary part of
    # round-off size, and its conjugate from the -i block
    for alpha in (1.0, 10.0):
        rep = linearized_spectrum(alpha, 16, mean_zero=True, grid=spectrum_grid)
        tiny = [ev for ev in rep.eigenvalues if 0 < abs(ev.imag) <= 1e-12]
        assert tiny
        assert sorted(tiny, key=lambda ev: (ev.real, ev.imag)) == sorted(
            (ev.conjugate() for ev in tiny), key=lambda ev: (ev.real, ev.imag))
        assert all(abs(ev.imag) <= 1e-12 or abs(ev.imag) > 1e-10
                   for ev in rep.eigenvalues)


@pytest.mark.parametrize("mean_zero", [True, False])
def test_split_spectrum_matches_unsplit_oracle(spectrum_grid, mean_zero):
    modes = coupling_modes(16, mean_zero)
    diag = np.array([-(a + b) / 2.0 for a, b in modes])
    coupling = per_mode_coupling(16, mean_zero, spectrum_grid)
    for alpha in (1.0, 10.0):
        rep = linearized_spectrum(alpha, 16, mean_zero=mean_zero,
                                  grid=spectrum_grid)
        expected, translation = unsplit_spectrum(modes, diag, coupling, alpha)
        got = np.array(rep.eigenvalues)
        assert len(got) == len(expected)
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - expected))
        assert np.max(np.abs(got[rows] - expected[cols])) <= 1e-10
        assert abs(rep.labeled_modes["translation"] - translation) <= 1e-12


def test_coupling_reflection_matches_per_mode_oracle(spectrum_grid):
    # only the columns with a <= b are stored, and two modes share one
    # solve: each column is the per-mode one up to the round-off of the
    # paired free-space solve, on its own axis parity's rows; it is
    # exactly zero on every other row
    for basis_n in (16, 32):
        modes, solved, coupling = _coupling_columns(basis_n, spectrum_grid)
        assert modes == coupling_modes(basis_n, True)
        a, b = np.array(modes).T
        assert np.array_equal(solved, np.flatnonzero(a <= b))
        expected = per_mode_coupling(basis_n, True, spectrum_grid)[:, solved]
        assert coupling.shape == expected.shape
        image_rows = (((a[:, None] - a[None, solved]) % 2 == 1)
                      & ((b[:, None] - b[None, solved]) % 2 == 1))
        assert (np.max(np.abs(coupling - expected)[image_rows])
                <= 1e-15 * np.max(np.abs(expected)))
        assert not np.any(coupling[~image_rows])


@pytest.mark.parametrize("mean_zero", [True, False])
def test_per_mode_coupling_is_odd_under_the_diagonal_reflection(spectrum_grid,
                                                                mean_zero):
    # the reflection x <-> y maps the mode (a, b) to (b, a) and reverses
    # the vortex: C[(c, d), (b, a)] = -C[(d, c), (a, b)].  The package forms
    # no column with a > b and reads those entries through this identity,
    # so it is checked on the oracle, which solves every column
    for basis_n in (16, 32):
        modes = coupling_modes(basis_n, mean_zero)
        number = {mode: i for i, mode in enumerate(modes)}
        mirror = np.array([number[b, a] for a, b in modes])
        coupling = per_mode_coupling(basis_n, mean_zero, spectrum_grid)
        assert (np.max(np.abs(coupling[np.ix_(mirror, mirror)] + coupling))
                <= 1e-15 * np.max(np.abs(coupling)))


def test_coupling_pairs_solves_by_axis_parity(monkeypatch):
    calls = []

    def counted(field):
        calls.append(field)
        return velocity_free_space(field)

    monkeypatch.setattr(diagnostics, "velocity_free_space", counted)
    # 16 * 17 / 2 modes with a <= b, less the mass mode (0, 0), which is not
    # assembled: 135 at basis 16 (every mode would be 255).  Paired by
    # axis parity, the 35 (even, even) modes go with the 36 (odd, odd) ones,
    # and the 36 (even, odd) modes with a < b with the 28 (odd, even) ones:
    # 36 + 36 solves.  At basis 32: 136 + 136 of 527.
    for basis_n, solves in ((16, 72), (32, 272)):
        calls.clear()
        # uncached, so the count does not depend on which tests ran before
        _coupling_columns(basis_n, Grid(64, 40.0))
        assert len(calls) == solves


# ------------------------------------------------------------------- output

def test_csv_writers(run_single):
    series = remainder_norms(run_single, 3.0)
    csv = experiments._contraction_csv(series)
    lines = csv.splitlines()
    assert lines[0] == "t,M0,M1,M"
    assert len(lines) == len(series.times) + 1

    rep = linearized_spectrum(0.0, 16, mean_zero=True, grid=Grid(128, 40.0))
    lines = experiments._spectrum_csv([rep]).splitlines()
    assert lines[0] == "alpha,re,im,label"
    assert len(lines) == len(rep.eigenvalues) + 1
    assert any("translation" in line for line in lines)

    text = experiments._plotted("contraction", csv, "1:4", "demo")["contraction.gp"]
    assert "contraction.csv" in text and "plot" in text


def test_spectrum_csv_labels_one_row_per_labeled_mode():
    # at alpha = 0 the exact -1/2 (translation) is a double eigenvalue and
    # the exact -1 (scaling) a triple one
    rep = linearized_spectrum(0.0, 16, mean_zero=True, grid=Grid(128, 40.0))
    assert rep.eigenvalues.count(-0.5) == 2 and rep.eigenvalues.count(-1.0) == 3
    csv = experiments._spectrum_csv([rep])
    labels = [line.split(",")[3] for line in csv.splitlines()[1:]]
    assert labels.count("translation") == 1 and labels.count("scaling") == 1
    for name in ("translation", "scaling"):
        row = labels.index(name)
        assert rep.eigenvalues[row] == rep.labeled_modes[name]
        assert rep.eigenvalues.index(rep.labeled_modes[name]) == row
