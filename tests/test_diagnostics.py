import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from oseen2d import diagnostics
from oseen2d.biot_savart import velocity_free_space
from oseen2d.diagnostics import (_assemble_coupling, bump,
                                 eigenvalue_multiplicity,
                                 linearized_spectrum, localized_diffuse_series,
                                 oseen_distance,
                                 partition_of_unity, remainder_norms,
                                 solution_distance, total_l1_difference,
                                 write_contraction_csv, write_plot_script,
                                 write_spectrum_csv)
from oseen2d.errors import DomainError, MismatchError
from oseen2d.field import Grid, ScalarField
from oseen2d.measure import FiniteMeasure
from oseen2d.oseen import OseenVortex, gaussian_profile, oseen_fields
from oseen2d.solver import solve_cauchy

from oracles import (DX_GAUSSIAN_L2, coupling_per_mode, two_resample_distance,
                     unsplit_spectrum)


def blob(grid, mass, center, width):
    xx, yy = grid.meshes()
    return ScalarField(grid, mass / (2 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2 * width**2)))


# ----------------------------------------------------------------- distance

def test_oseen_distance_exact_vortex(grid256):
    for t in (0.5, 1.0, 4.0):
        w, _ = oseen_fields(OseenVortex(1.0), t, grid256)
        for p in (1, 2):
            assert oseen_distance(w, t, 1.0, p) < 1e-10


def test_oseen_distance_perturbation_scale_exact(grid256):
    # omega = (1/t) (G + 0.1 d1 G)(x/sqrt t): the prefactor cancels the
    # scaling and the distance equals 0.1 |d1 G|_2 at every t
    xx, yy = grid256.meshes()
    for t in (1.0, 4.0):
        rt = np.sqrt(t)
        vals = (gaussian_profile(xx / rt, yy / rt)
                - 0.1 * 0.5 * (xx / rt) * gaussian_profile(xx / rt, yy / rt)) / t
        w = ScalarField(grid256, vals)
        got = oseen_distance(w, t, 1.0, 2)
        assert abs(got - 0.1 * DX_GAUSSIAN_L2) < 1e-8


@pytest.mark.parametrize("t, p", [(np.nan, 1.0), (0.0, 1.0), (1.0, np.nan),
                                  (1.0, 0.5)])
def test_oseen_distance_rejects_nan_arguments(t, p, grid256):
    w, _ = oseen_fields(OseenVortex(1.0), 1.0, grid256)
    with pytest.raises(DomainError):
        oseen_distance(w, t, 1.0, p)


def test_oseen_distance_alpha_mismatch_l1(grid256):
    w, _ = oseen_fields(OseenVortex(2.0), 1.0, grid256)
    assert abs(oseen_distance(w, 1.0, 1.0, 1) - 1.0) < 1e-9


def test_oseen_distance_domain(grid256, gauss256):
    with pytest.raises(DomainError):
        oseen_distance(gauss256, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        oseen_distance(gauss256, 0.0, 1.0, 1.0)


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


# ------------------------------------------------------------------ spectrum

@pytest.fixture(scope="module")
def spectrum_grid():
    return Grid(128, 40.0)


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


@pytest.mark.parametrize("mean_zero", [True, False])
def test_coupling_splits_by_quarter_turn(spectrum_grid, mean_zero):
    # the rotation by pi/2 maps the Hermite mode (a, b) to (-1)^a (b, a)
    # and commutes with the linearization, so the coupling between its
    # eigenspaces +1, -1, +i and -i is quadrature error
    modes, _, coupling, bases = _assemble_coupling(16, mean_zero, spectrum_grid)
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
    linearized_spectrum(1.0, 16, mean_zero=True, grid=spectrum_grid)
    # the +1 and -1 blocks are real; the -i block is the conjugate of the
    # +i block, which alone computes eigenvectors
    assert calls == [((63, 63), False, False), ((64, 64), False, False),
                     ((64, 64), True, True)]


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
    modes, diag, coupling, _ = _assemble_coupling(16, mean_zero, spectrum_grid)
    for alpha in (1.0, 10.0):
        rep = linearized_spectrum(alpha, 16, mean_zero=mean_zero,
                                  grid=spectrum_grid)
        expected, translation = unsplit_spectrum(modes, diag, coupling, alpha)
        got = np.array(rep.eigenvalues)
        assert len(got) == len(expected)
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - expected))
        assert np.max(np.abs(got[rows] - expected[cols])) <= 1e-10
        assert abs(rep.labeled_modes["translation"] - translation) <= 1e-12


@pytest.mark.parametrize("mean_zero", [True, False])
def test_coupling_reflection_matches_per_mode_oracle(spectrum_grid, mean_zero):
    # the reflection x <-> y maps mode (a, b) to (b, a) and reverses the
    # vortex, so the columns with a > b are filled from their partners:
    # exact up to the round-off of the partner's free-space solve
    modes, _, coupling, _ = _assemble_coupling(16, mean_zero, spectrum_grid)
    expected = coupling_per_mode(16, mean_zero, spectrum_grid)
    solved = np.array([a <= b for a, b in modes])
    assert np.array_equal(coupling[:, solved], expected[:, solved])
    assert (np.max(np.abs(coupling[:, ~solved] - expected[:, ~solved]))
            <= 1e-15 * np.max(np.abs(expected)))


@pytest.mark.parametrize("mean_zero", [True, False])
def test_coupling_solves_only_modes_with_a_le_b(monkeypatch, mean_zero):
    calls = []

    def counted(field):
        calls.append(field)
        return velocity_free_space(field)

    monkeypatch.setattr(diagnostics, "velocity_free_space", counted)
    # uncached, so the count does not depend on which tests ran before
    _assemble_coupling.__wrapped__(16, mean_zero, Grid(64, 40.0))
    # 16 * 17 / 2 modes with a <= b, less (0, 0), whose velocity is the
    # vortex profile; every mode would be 255
    assert len(calls) == 135


# ------------------------------------------------------------------- output

def test_csv_writers(tmp_path, run_single):
    series = remainder_norms(run_single, 3.0)
    path = tmp_path / "contraction.csv"
    write_contraction_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,M0,M1,M"
    assert len(lines) == len(series.times) + 1

    rep = linearized_spectrum(0.0, 16, mean_zero=True, grid=Grid(128, 40.0))
    spath = tmp_path / "spectrum.csv"
    write_spectrum_csv([rep], spath)
    lines = spath.read_text().splitlines()
    assert lines[0] == "alpha,re,im,label"
    assert len(lines) == len(rep.eigenvalues) + 1
    assert any("translation" in line for line in lines)

    gpath = tmp_path / "plot.gp"
    write_plot_script(path, gpath, "1:4", "demo")
    text = gpath.read_text()
    assert "contraction.csv" in text and "plot" in text


def test_spectrum_csv_labels_one_row_per_labeled_mode(tmp_path):
    # at alpha = 0 the exact -1/2 (translation) is a double eigenvalue and
    # the exact -1 (scaling) a triple one
    rep = linearized_spectrum(0.0, 16, mean_zero=True, grid=Grid(128, 40.0))
    assert rep.eigenvalues.count(-0.5) == 2 and rep.eigenvalues.count(-1.0) == 3
    spath = tmp_path / "spectrum.csv"
    write_spectrum_csv([rep], spath)
    labels = [line.split(",")[3] for line in spath.read_text().splitlines()[1:]]
    assert labels.count("translation") == 1 and labels.count("scaling") == 1
    for name in ("translation", "scaling"):
        row = labels.index(name)
        assert rep.eigenvalues[row] == rep.labeled_modes[name]
        assert rep.eigenvalues.index(rep.labeled_modes[name]) == row
