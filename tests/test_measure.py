import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oseen2d.errors import DomainError, MarginError, MismatchError
from oseen2d.field import Grid, ScalarField, _ksq, lp_norm
from oseen2d.measure import (FiniteMeasure, atomic_norm, decompose,
                             heat_smooth, measure_hash, total_variation)

from oracles import GAUSSIAN_PEAK, minimal_prefix, read_measure, write_measure


def blob(grid, mass, center, width):
    xx, yy = grid.meshes()
    return ScalarField(grid, mass / (2 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2 * width**2)))


@pytest.mark.parametrize("duplicate", [lambda mu: pickle.loads(pickle.dumps(mu)),
                                       copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_measure_with_density_survives_pickle_and_copy(duplicate):
    grid = Grid(32, 20.0)
    mu = FiniteMeasure(atoms=(((1.0, 0.0), 0.5),),
                       density=blob(grid, 1.0, (0.0, 0.0), 1.0))
    nu = duplicate(mu)
    assert nu.atoms == mu.atoms and nu.density.grid == grid
    assert np.array_equal(nu.density.values, mu.density.values)
    assert not nu.density.values.flags.writeable


def test_atom_canonical_order():
    mu = FiniteMeasure.from_atoms(((1.0, 0.0), -3.0), ((0.0, 0.0), 2.0),
                                  ((0.0, 1.0), 2.0))
    masses = [m for _, m in mu.atoms]
    assert masses == [-3.0, 2.0, 2.0]
    # tie on |mass| breaks lexicographically by position
    assert mu.atoms[1][0] == (0.0, 0.0)
    assert mu.atoms[2][0] == (0.0, 1.0)


def test_atoms_distinct_and_finite():
    with pytest.raises(DomainError):
        FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((0.0, 0.0), 2.0))
    with pytest.raises(DomainError):
        FiniteMeasure.from_atoms(((np.inf, 0.0), 1.0))
    # zero-mass atoms are dropped
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0))
    assert len(mu.atoms) == 1


@pytest.mark.parametrize("atom", [((0, 0), 1.0, 2.0), ((0, 0, 9), 1.0),
                                  ((0,), 1.0), (1.0,), ((0, 0), "x")])
def test_measure_rejects_malformed_atom(atom):
    # an atom is ((x, y), mass): extra or missing entries are an error,
    # never unpacked loosely or truncated to the first two coordinates
    with pytest.raises(DomainError, match="atom"):
        FiniteMeasure(atoms=(atom,))


@pytest.mark.parametrize("density", [np.ones((128, 128)), [[1.0]], 1.0])
def test_measure_rejects_density_that_is_not_a_field(density):
    with pytest.raises(DomainError):
        FiniteMeasure(density=density)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_nonfinite_density(grid128, bad):
    values = np.zeros((128, 128))
    values[3, 4] = bad
    with pytest.raises(DomainError, match="finite"):
        FiniteMeasure(density=ScalarField(grid128, values))


def test_total_variation_additive(grid128):
    density = blob(grid128, 1.0, (0.0, 0.0), 1.0)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 2.0), ((1.0, 0.0), -3.0)),
                       density=density)
    tv = total_variation(mu)
    assert abs(tv - 6.0) < 1e-9
    assert atomic_norm(mu) == 5.0
    assert abs(tv - atomic_norm(mu) - lp_norm(density, 1)) < 1e-14


def test_total_variation_trivial():
    assert total_variation(FiniteMeasure()) == 0.0
    assert total_variation(FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))) == 1.0
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 0.5), ((1.0, 0.0), 0.25),
                                  ((2.0, 0.0), 0.125))
    assert atomic_norm(mu) == 0.875


def test_decompose_geometric_example():
    atoms = tuple(((float(i), 0.0), 0.5 ** (i + 1)) for i in range(8))
    mu = FiniteMeasure(atoms=atoms)
    dec = decompose(mu, 0.3)
    assert len(dec.retained) == 2
    assert atomic_norm(dec.remainder) <= 0.3
    assert dec.M_pp == 0.75


def test_decompose_single_atom():
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 5.0))
    dec = decompose(mu, 0.1)
    assert dec.retained == ((5.0, (0.0, 0.0)),)
    assert atomic_norm(dec.remainder) == 0.0
    assert dec.d == np.inf


def test_decompose_density_only(grid128):
    mu = FiniteMeasure(density=blob(grid128, 1.0, (0.0, 0.0), 1.0))
    dec = decompose(mu, 0.5)
    assert dec.retained == ()
    assert dec.remainder.density is mu.density
    assert dec.d == np.inf


def test_decompose_requires_positive_epsilon():
    with pytest.raises(DomainError):
        decompose(FiniteMeasure(), 0.0)


@pytest.mark.parametrize("epsilon", ["0.1", None, [0.1]])
def test_decompose_requires_a_number(epsilon):
    # unchecked, the comparison epsilon > 0 raised a TypeError
    with pytest.raises(DomainError, match="epsilon"):
        decompose(FiniteMeasure.from_atoms(((0.0, 0.0), 1.0)), epsilon)


def test_decompose_takes_numpy_numbers():
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((3.0, 0.0), 0.05))
    assert decompose(mu, np.float64(0.1)) == decompose(mu, 0.1)
    assert decompose(mu, 2).retained == ()


def test_decompose_matches_enumeration_oracle():
    rng = np.random.default_rng(123)
    cases = []
    for _ in range(25):
        count = rng.integers(0, 9)
        atoms = tuple(((float(i), float(rng.integers(0, 3))),
                       float(rng.normal()) or 0.1) for i in range(count))
        cases.append((FiniteMeasure(atoms=atoms), float(rng.uniform(0.05, 2.0))))
    # epsilon below every atom: only the empty tail, of norm exactly 0, is
    # small enough, so every atom is retained
    cases.append((FiniteMeasure.from_atoms(((0, 0), 0.1), ((1, 0), 0.2)), 1e-18))
    # a rounding boundary: retaining two atoms leaves a tail of norm exactly
    # 0.5 = epsilon, while subtracting the masses one at a time from their
    # sum leaves 0.5000000000000001 and would retain all three
    cases.append((FiniteMeasure.from_atoms(((0, 0), -1.0), ((1, 0), 0.5),
                                           ((2, 0), 0.9321091853860287)), 0.5))
    for mu, eps in cases:
        dec = decompose(mu, eps)
        masses = [m for _, m in mu.atoms]
        assert len(dec.retained) == minimal_prefix(masses, eps)
        assert atomic_norm(dec.remainder) <= eps
        assert dec.M_pp <= atomic_norm(mu) + 1e-15
        assert all(alpha != 0 for alpha, _ in dec.retained)
        if len(dec.retained) >= 2:
            centers = [z for _, z in dec.retained]
            want = min(np.hypot(a[0] - b[0], a[1] - b[1])
                       for i, a in enumerate(centers) for b in centers[:i])
            assert dec.d == want
        else:
            assert dec.d == np.inf
        # idempotence: re-decomposing the remainder retains nothing more
        again = decompose(dec.remainder, eps)
        assert again.retained == ()
        assert again.M_pp <= eps


_MASSES = st.lists(st.one_of(st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0),
                             st.sampled_from([0.1, 0.2, -0.3, 1.0])),
                   max_size=8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(masses=_MASSES, epsilon=st.floats(1e-18, 20.0))
def test_decompose_matches_minimal_prefix(masses, epsilon):
    mu = FiniteMeasure(atoms=tuple(((float(i), 0.0), m)
                                   for i, m in enumerate(masses)))
    dec = decompose(mu, epsilon)
    assert len(dec.retained) == minimal_prefix([m for _, m in mu.atoms], epsilon)
    assert atomic_norm(dec.remainder) <= epsilon


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_canonical_order_ignores_input_order(data):
    # distinct cells, with repeated |mass| so the position tie-break is hit
    cells = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                               unique=True, max_size=8))
    masses = data.draw(st.lists(st.sampled_from([0.5, -0.5, 1.0, -2.0, 0.25]),
                                min_size=len(cells), max_size=len(cells)))
    atoms = [((float(x), float(y)), m) for (x, y), m in zip(cells, masses)]
    shuffled = data.draw(st.permutations(atoms))
    assert FiniteMeasure(atoms=tuple(shuffled)).atoms == FiniteMeasure(
        atoms=tuple(atoms)).atoms


def test_heat_smooth_density_transform_order(grid128):
    # the density is smoothed by numpy's full complex transforms in their
    # default pass order, which the A12 values depend on to the last bit
    d = blob(grid128, 0.7, (1.0, -2.0), 0.8).values
    t = 0.3
    f = heat_smooth(FiniteMeasure(density=ScalarField(grid128, d)), t, grid128)
    want = np.fft.ifft2(np.exp(-_ksq(grid128) * t) * np.fft.fft2(d)).real
    assert np.array_equal(f.values, want)


def test_heat_smooth_dirac_peak(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    f = heat_smooth(mu, 1.0, grid128)
    assert abs(f.values.max() - GAUSSIAN_PEAK) < 1e-12
    assert abs(f.integral() - 1.0) < 1e-10


def test_heat_smooth_linearity(grid128):
    f1 = heat_smooth(FiniteMeasure.from_atoms(((0.0, 0.0), 1.0)), 0.5, grid128)
    f3 = heat_smooth(FiniteMeasure.from_atoms(((0.0, 0.0), 3.0)), 0.5, grid128)
    assert np.max(np.abs(f3.values - 3.0 * f1.values)) < 1e-14


def test_heat_smooth_zero_measure(grid128):
    assert np.all(heat_smooth(FiniteMeasure(), 1.0, grid128).values == 0.0)


def test_heat_smooth_mass_conservation(grid128):
    density = blob(grid128, -0.7, (2.0, 1.0), 1.5)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 2.0), ((3.0, -1.0), -1.0)),
                       density=density)
    f = heat_smooth(mu, 0.3, grid128)
    expected = 2.0 - 1.0 + density.integral()
    assert abs(f.integral() - expected) < 1e-10 * total_variation(mu)


def test_heat_smooth_scaling_covariance(grid128):
    # (e^{lam^2 t Lap} delta)(lam x) = lam^-2 (e^{t Lap} delta)(x), exact
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    lam = 2.0
    t = 0.5
    f_t = heat_smooth(mu, t, grid128)
    f_lam = heat_smooth(mu, lam**2 * t, grid128)
    # grid points x and lam x coincide at even indices
    n = grid128.n
    idx = np.arange(n // 4, 3 * n // 4)        # x inside quarter box
    scaled_idx = 2 * idx - n // 2              # index of lam*x
    lhs = f_lam.values[np.ix_(scaled_idx, scaled_idx)]
    rhs = f_t.values[np.ix_(idx, idx)] / lam**2
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_heat_smooth_margin(grid128):
    mu = FiniteMeasure.from_atoms(((19.5, 0.0), 1.0))
    with pytest.raises(MarginError):
        heat_smooth(mu, 1.0, grid128)
    with pytest.raises(DomainError):
        heat_smooth(mu, 0.0, grid128)


@pytest.mark.parametrize("t", [np.inf, np.nan, "1.0", None, [1.0]])
def test_heat_smooth_needs_a_finite_positive_time(grid128, t):
    # at t = inf the k = 0 factor exp(-0 * inf) is NaN: no field, an error
    mu = FiniteMeasure(density=blob(grid128, 1.0, (0.0, 0.0), 1.0))
    with pytest.raises(DomainError, match=r"t must be a real number in \(0, inf\)"):
        heat_smooth(mu, t, grid128)


def test_heat_smooth_takes_ints_and_numpy_numbers():
    grid = Grid(32, 20.0)
    mu = FiniteMeasure(atoms=(((1.0, 0.0), 1.0),),
                       density=blob(grid, 0.5, (0.0, 0.0), 1.0))
    want = heat_smooth(mu, 1.0, grid).values
    for t in (1, np.float64(1.0)):
        assert np.array_equal(heat_smooth(mu, t, grid).values, want)


def test_heat_smooth_density_grid_mismatch(grid128):
    other = Grid(64, 40.0)
    mu = FiniteMeasure(density=blob(other, 1.0, (0.0, 0.0), 1.0))
    with pytest.raises(MismatchError):
        heat_smooth(mu, 0.1, grid128)


def test_measure_file_round_trip(tmp_path, grid128):
    density = blob(grid128, 0.5, (1.0, 1.0), 1.0)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 2.0), ((1.0, 0.0), -1.0)),
                       density=density)
    path = tmp_path / "mu.measure"
    write_measure(mu, path, density_path=tmp_path / "density.fld")
    back = read_measure(path)
    assert back.atoms == mu.atoms
    assert np.array_equal(back.density.values, density.values)
    text = path.read_text().splitlines()
    assert text[0] == "measure v1"
    assert text[1].startswith("atom ")


def test_measure_file_round_trip_property(tmp_path):
    # atoms at distinct finite positions with finite nonzero masses, plus a
    # density of finite samples, come back bit for bit
    path = tmp_path / "mu.measure"
    finite = st.floats(allow_nan=False, allow_infinity=False)
    atom = st.tuples(st.tuples(finite, finite), finite.filter(bool))

    def bits(atoms):
        return np.array([(x, y, m) for (x, y), m in atoms]).tobytes()

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(atoms=st.lists(atom, max_size=6, unique_by=lambda a: a[0]),
           values=arrays(np.float64, (16, 16), elements=finite))
    def check(atoms, values):
        mu = FiniteMeasure(atoms=tuple(atoms),
                           density=ScalarField(Grid(16, 8.0), values))
        write_measure(mu, path, density_path=tmp_path / "density.fld")
        back = read_measure(path)
        assert bits(back.atoms) == bits(mu.atoms)
        assert back.density.grid == mu.density.grid
        assert back.density.values.tobytes() == values.tobytes()

    check()


def test_measure_file_density_path_is_relative_to_file(tmp_path, grid128, monkeypatch):
    folder = tmp_path / "run data"
    folder.mkdir()
    density = blob(grid128, 0.5, (1.0, 1.0), 1.0)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 2.0),), density=density)
    path = folder / "mu.measure"
    write_measure(mu, path, density_path=folder / "blob density.fld")
    assert path.read_text().splitlines()[-1] == "density blob density.fld"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    back = read_measure(path)
    assert back.atoms == mu.atoms
    assert np.array_equal(back.density.values, density.values)


@pytest.mark.parametrize("line", ["atom 1 2", "atom 1 2 3 4", "atom 1 x 3",
                                  "atom"])
def test_read_measure_rejects_malformed_atom(tmp_path, line):
    path = tmp_path / "mu.measure"
    path.write_text(f"measure v1\n{line}\n")
    with pytest.raises(DomainError):
        read_measure(path)


def test_measure_hash_stability(grid128):
    a = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    b = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    c = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0 + 1e-12))
    assert measure_hash(a) == measure_hash(b)
    assert measure_hash(a) != measure_hash(c)
