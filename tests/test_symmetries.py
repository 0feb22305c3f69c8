"""The plane's symmetries at solver level.

The 2D vorticity equation is invariant under translations and rotations,
and under a reflection with omega -> -omega.  The solution is a function
of the initial measure alone, so the solver's run of a transformed
measure must be the transformed run: through `decompose`, `heat_smooth`,
the analytic backgrounds, the flux identity, the Lawson core and both
velocity routes.

The reflection x <-> y maps the grid onto itself (both axes share
`Grid.coords`), so it holds to round-off.  The rotation and a translation
by whole cells hold only to about 1e-9: the grid has a node at -L/2 but
none at +L/2, so x -> -x and a shift wrap the boundary ring of the
remainder (grid-scale ripple of about 1e-8 of its maximum) to a
different place, and the global spectral operators spread that into the
interior.

For the same reason the split of a measure into exact backgrounds and a
gridded remainder is a choice of method: three epsilons that move atoms
between the two must give the same final vorticity.

The equation is also invariant under the parabolic scaling
omega -> lam^2 omega(lam x, lam^2 t), which maps the data mu to its
push-forward by x -> x / lam.  Every constant of the solver is relative or
scales with it, so for a power of two, where each rescaling is exact, the
scaled run is the scaled image of the run bit for bit.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d.biot_savart import circulation_is_negligible
from oseen2d.field import Grid, ScalarField, lp_norm
from oseen2d.measure import FiniteMeasure
from oseen2d.oseen import OseenVortex
from oseen2d.propagators import StepperConfig
from oseen2d.solver import propagate_SN, solve_cauchy

GRID = Grid(64, 24.0)
T0, T_END = 0.2, 0.6
EPSILON = 0.25          # keeps the two atoms as backgrounds

# the atoms are drawn close, so that the backgrounds interact strongly
pytestmark = pytest.mark.filterwarnings(
    "ignore:t0=.* is large relative to the vortex separation")


def _blob(mass, center, width=1.0):
    xx, yy = GRID.meshes()
    return mass / (2 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2 * width**2))


def _density(mean_zero):
    """A blob of mass 0.2: the remainder carries circulation, so every
    solve goes free-space.  With mean_zero a blob of mass -0.2 cancels it,
    so every solve goes periodic."""
    density = _blob(0.2, (-1.5, 2.25))
    if mean_zero:
        density = density + _blob(-0.2, (1.875, -2.625))
    return density


# each symmetry is a pair: the map of an atom (position, mass), and the
# map of the grid samples
REFLECTION = (lambda z, m: ((z[1], z[0]), -m), lambda w: -w.T)
# omega'(x, y) = omega(y, -x); -x_i is x_(n-i) modulo the period
ROTATION = (lambda z, m: ((-z[1], z[0]), m),
            lambda w: w.T[-np.arange(GRID.n) % GRID.n])


def translation(cells):
    return (lambda z, m: ((z[0] + cells * GRID.h, z[1]), m),
            lambda w: np.roll(w, cells, 0))


def _solve(atoms, density):
    mu = FiniteMeasure(atoms=tuple(atoms), density=ScalarField(GRID, density))
    return solve_cauchy(mu, EPSILON, T0, T_END, GRID)


def _equivariance_error(symmetry, atoms, mean_zero):
    """Largest relative max-norm error, over the snapshots, between the
    transformed run and the run of the transformed measure.  Also checks
    the route and that each run conserves its circulation."""
    on_atom, on_samples = symmetry
    density = _density(mean_zero)
    run = _solve(atoms, density)
    image = _solve([on_atom(z, m) for z, m in atoms], on_samples(density))
    assert run.trajectory.times == image.trajectory.times
    assert circulation_is_negligible(run.trajectory.fields[0]) == mean_zero
    for r in (run, image):
        mass = r.measure.mass()
        assert all(abs(s["circulation"] - mass) <= 1e-12 for s in r.series)
    errors = []
    for i in range(len(run.trajectory.times)):
        expected = on_samples(run.total_vorticity(i).values)
        got = image.total_vorticity(i).values
        errors.append(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))
    return max(errors)


# two atoms, of masses about 1 and 0.3, on grid nodes within 6 cells of
# the center
_node = st.integers(-6, 6).map(lambda k: k * GRID.h)
_atoms = st.tuples(st.tuples(_node, _node), st.floats(0.5, 1.5),
                   st.tuples(_node, _node), st.floats(0.3, 0.45)).filter(
    lambda a: a[0] != a[2]).map(lambda a: [(a[0], a[1]), (a[2], a[3])])


@pytest.mark.parametrize("mean_zero", [False, True],
                         ids=["free-space", "periodic"])
@settings(derandomize=True, max_examples=2, deadline=None)
@given(atoms=_atoms)
def test_reflection_with_sign_change(atoms, mean_zero):
    assert _equivariance_error(REFLECTION, atoms, mean_zero) <= 1e-13


@pytest.mark.parametrize("mean_zero", [False, True],
                         ids=["free-space", "periodic"])
@settings(derandomize=True, max_examples=2, deadline=None)
@given(atoms=_atoms)
def test_rotation_by_quarter_turn(atoms, mean_zero):
    assert _equivariance_error(ROTATION, atoms, mean_zero) <= 1e-8


@pytest.mark.parametrize("mean_zero", [False, True],
                         ids=["free-space", "periodic"])
@settings(derandomize=True, max_examples=2, deadline=None)
@given(atoms=_atoms, cells=st.integers(-3, 3))
def test_translation_by_whole_cells(atoms, mean_zero, cells):
    assert _equivariance_error(translation(cells), atoms, mean_zero) <= 1e-8


# each scaled run is on Grid(n, L / lam), with the atoms at z / lam, the
# density samples times lam^2, every time over lam^2 and a fixed dt too
FIXED_DT = 1e-2


def _scaled(lam, fixed):
    return (Grid(GRID.n, GRID.box_size / lam),
            StepperConfig.fixed(FIXED_DT / lam**2) if fixed else StepperConfig.courant())


@lru_cache(maxsize=16)        # the unscaled runs serve the lam = 3 tests too
def _scaled_solve(lam, atoms, mean_zero, fixed):
    grid, cfg = _scaled(lam, fixed)
    mu = FiniteMeasure(atoms=tuple(((x / lam, y / lam), m) for (x, y), m in atoms),
                       density=ScalarField(grid, lam**2 * _density(mean_zero)))
    return solve_cauchy(mu, EPSILON, T0 / lam**2, T_END / lam**2, grid, cfg)


def _scaled_SN(lam, atoms, fixed):
    grid, cfg = _scaled(lam, fixed)
    vortices = [OseenVortex(m, (x / lam, y / lam)) for (x, y), m in atoms]
    f = ScalarField(grid, lam**2 * _density(mean_zero=False))
    return propagate_SN(vortices, f, 1.0 / lam**2, 1.2 / lam**2, cfg).values


def _scaling_pairs(lam, atoms, mean_zero, fixed):
    """(want, got) pairs: the run's snapshot times over lam^2 against the
    scaled run's, then lam^2 times each total vorticity of the run against
    the scaled run's."""
    run = _scaled_solve(1, tuple(atoms), mean_zero, fixed)
    image = _scaled_solve(lam, tuple(atoms), mean_zero, fixed)
    assert circulation_is_negligible(run.trajectory.fields[0]) == mean_zero
    assert len(image.trajectory.times) == len(run.trajectory.times)
    times = (np.array(run.trajectory.times) / lam**2, np.array(image.trajectory.times))
    frames = [(lam**2 * run.total_vorticity(i).values, image.total_vorticity(i).values)
              for i in range(len(run.trajectory.times))]
    return [times] + frames


def _relative_error(want, got):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# every lam with both routes, and each route with both step rules
@pytest.mark.parametrize("lam, mean_zero, fixed", [
    (0.25, False, False), (2.0, False, True), (0.5, True, True), (4.0, True, False)],
    ids=["1/4-free-space-cfl", "2-free-space-fixed", "1/2-periodic-fixed",
         "4-periodic-cfl"])
@settings(derandomize=True, max_examples=1, deadline=None)
@given(atoms=_atoms)
def test_parabolic_scaling_is_bit_exact(atoms, lam, mean_zero, fixed):
    for want, got in _scaling_pairs(lam, atoms, mean_zero, fixed):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mean_zero, fixed", [(False, True), (True, False)],
                         ids=["free-space-fixed", "periodic-cfl"])
@settings(derandomize=True, max_examples=1, deadline=None)
@given(atoms=_atoms)
def test_parabolic_scaling_by_three(atoms, mean_zero, fixed):
    # lam^2 = 9 rounds each rescaled time and sample once
    for want, got in _scaling_pairs(3.0, atoms, mean_zero, fixed):
        assert _relative_error(want, got) <= 1e-13


@settings(derandomize=True, max_examples=4, deadline=None)
@given(atoms=_atoms, lam=st.sampled_from([0.25, 0.5, 2.0, 4.0]), fixed=st.booleans())
def test_SN_parabolic_scaling_is_bit_exact(atoms, lam, fixed):
    want = lam**2 * _scaled_SN(1, atoms, fixed)
    assert np.array_equal(_scaled_SN(lam, atoms, fixed), want)


@settings(derandomize=True, max_examples=2, deadline=None)
@given(atoms=_atoms, fixed=st.booleans())
def test_SN_parabolic_scaling_by_three(atoms, fixed):
    want = 9.0 * _scaled_SN(1, atoms, fixed)
    assert _relative_error(want, _scaled_SN(3.0, atoms, fixed)) <= 1e-13


# epsilon = 0.01 keeps all three atoms as backgrounds, 0.25 the two largest
# and 0.55 only the unit one; the others are heat-smoothed onto the grid
SPLIT_ATOMS = (((0.0, 0.0), 1.0), ((3.0, 0.5), 0.3), ((-2.0, -1.0), -0.2))
SPLIT_EPSILONS = (0.01, 0.25, 0.55)


@lru_cache(maxsize=1)
def _split_runs():
    mu = FiniteMeasure.from_atoms(*SPLIT_ATOMS)
    return [solve_cauchy(mu, epsilon, T0, 1.0, GRID) for epsilon in SPLIT_EPSILONS]


def test_split_epsilons_move_atoms_to_the_grid():
    assert [len(run.backgrounds) for run in _split_runs()] == [3, 2, 1]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP #1: with every atom a background the remainder is mean-zero "
    "and routes to velocity_periodic, accurate only to O(L^-4); the other "
    "splits route free-space (relative L1 differences 9.7e-8)"))
def test_split_does_not_choose_the_answer():
    # the solution is a function of the measure alone: which atoms become
    # exact backgrounds is a choice of method, invisible in the answer
    finals = [run.total_vorticity(-1) for run in _split_runs()]
    reference = lp_norm(finals[0], 1)
    for final in finals[1:]:
        assert lp_norm(final - finals[0], 1) <= 1e-9 * reference
