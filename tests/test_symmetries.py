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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d.biot_savart import circulation_is_negligible
from oseen2d.field import Grid, ScalarField
from oseen2d.measure import FiniteMeasure
from oseen2d.solver import solve_cauchy

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
