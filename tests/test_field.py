import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oseen2d import experiments
from oseen2d.errors import DomainError, MarginError, MismatchError
from oseen2d.field import (Grid, ScalarField, gradient, lp_norm, max_speed,
                           project_mean_zero, read_field, require_boundary_decay,
                           resample_affine, weighted_norm, write_field)
from oseen2d.oseen import gaussian_profile

from oracles import (GAUSSIAN_L1, GAUSSIAN_L2, WEIGHTED_GAUSSIAN_L2_M3, curl,
                     dealias, divergence, gaussian, laplacian,
                     radial_weighted_l2)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(14, 40.0)
    with pytest.raises(DomainError):
        Grid(33, 40.0)
    with pytest.raises(DomainError):
        Grid(64, -1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError):
            Grid(16, bad)
    for bad in (32.0, np.float64(32.0), 32.5, "32", None):
        with pytest.raises(DomainError, match=r"n must be an integer in \[16, inf\)"):
            Grid(bad, 20.0)
    assert Grid(np.int64(32), 20.0).zeros().values.shape == (32, 32)
    for bad in ("20", None, [20.0]):
        with pytest.raises(DomainError,
                           match=r"box_size must be a real number in \(0, inf\)"):
            Grid(32, bad)
    same = (Grid(32, 20), Grid(32, np.float64(20.0)), Grid(32, 20.0))
    assert len(set(same)) == 1
    g = Grid(64, 32.0)
    assert g.h == 0.5
    x = g.coords()
    assert x[0] == -16.0 and np.isclose(x[-1], 16.0 - 0.5)


def test_field_immutable(gauss128):
    with pytest.raises(AttributeError):
        gauss128.values = None
    with pytest.raises(ValueError):
        gauss128.values[0, 0] = 1.0


@pytest.mark.parametrize("duplicate", [lambda f: pickle.loads(pickle.dumps(f)),
                                       copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_field_survives_pickle_and_copy(duplicate):
    # __setattr__ blocked the slot restore: each raised AttributeError
    f = ScalarField(Grid(16, 10.0), np.arange(256.0).reshape(16, 16))
    g = duplicate(f)
    assert g.grid == f.grid and np.array_equal(g.values, f.values)
    assert not g.values.flags.writeable


def test_owned_field_wraps_without_copy(grid128):
    values = np.ones((128, 128))
    f = ScalarField._owned(grid128, values)
    assert f.values is values and not values.flags.writeable
    with pytest.raises(MismatchError):
        ScalarField._owned(grid128, np.ones((64, 64)))
    # the public constructor still copies what callers hand in
    mine = np.ones((128, 128))
    assert ScalarField(grid128, mine).values is not mine and mine.flags.writeable


def test_max_speed_is_largest_speed(grid128):
    xx, yy = grid128.meshes()
    v = np.stack((3.0 * np.cos(xx), -4.0 * np.sin(yy + 1.0)))
    speed = np.hypot(*v)
    assert abs(max_speed(v) - np.max(speed)) <= 4e-16 * np.max(speed)


def test_lp_norms_of_gaussian(gauss256):
    assert abs(lp_norm(gauss256, 1) - GAUSSIAN_L1) < 1e-10
    assert abs(lp_norm(gauss256, 2) - GAUSSIAN_L2) < 1e-10
    assert lp_norm(gauss256, np.inf) == gauss256.values.max()
    zero = gauss256.grid.zeros()
    assert lp_norm(zero, 1) == 0.0
    with pytest.raises(DomainError):
        lp_norm(gauss256, 0.5)


def test_lp_norm_resolution_insensitive(gauss128, gauss256):
    # spectral convergence: doubling n changes the norms below round-off
    for p in (1, 2):
        assert abs(lp_norm(gauss128, p) - lp_norm(gauss256, p)) < 1e-10


def test_weighted_norm(gauss256):
    assert weighted_norm(gauss256, 2, 0) == lp_norm(gauss256, 2)
    got = weighted_norm(gauss256, 2, 3)
    assert abs(got - WEIGHTED_GAUSSIAN_L2_M3) < 1e-6 * WEIGHTED_GAUSSIAN_L2_M3
    # re-derive by the independent radial oracle
    oracle = radial_weighted_l2(gaussian, 3.0)
    assert abs(got - oracle) < 1e-6 * oracle
    assert weighted_norm(gauss256.grid.zeros(), 2, 3) == 0.0
    with pytest.raises(DomainError):
        weighted_norm(gauss256, 0.9, 1)
    with pytest.raises(DomainError):
        weighted_norm(gauss256, 2, -1)


@pytest.mark.parametrize("p", [np.nan, 0.5])
def test_lp_norm_rejects_nan_exponent(p, gauss128):
    with pytest.raises(DomainError):
        lp_norm(gauss128, p)


@pytest.mark.parametrize("q, m", [(2.0, np.nan), (np.nan, 1.0), (2.0, -1.0)])
def test_weighted_norm_rejects_nan_parameters(q, m, gauss128):
    with pytest.raises(DomainError):
        weighted_norm(gauss128, q, m)


def test_a_norm_that_is_not_a_finite_float_raises_a_domain_error():
    # unchecked, each returned inf or nan, the first three with an overflow
    # warning (the square; the square; the weight at m = 400)
    grid = Grid(64, 40.0)
    g = ScalarField(grid, gaussian_profile(*grid.meshes()))
    with pytest.raises(DomainError, match=r"L\^2 norm with q=2, m=200\.0 is inf, not a"):
        weighted_norm(g, 2, 200.0)
    with pytest.raises(DomainError, match=r"L\^2 norm with p=2 is inf, not a finite"):
        lp_norm(1e200 * g, 2)
    for f in (g, grid.zeros()):
        with pytest.raises(DomainError, match=r"norm with q=1, m=400 is (inf|nan), "):
            weighted_norm(f, 1, 400)
    values = g.values.copy()
    values[3, 5] = np.nan
    for p in (1, np.inf):
        with pytest.raises(DomainError, match=f"p={p} is nan, not a finite float"):
            lp_norm(ScalarField(grid, values), p)
    # a finite norm keeps its bits: the square of m = 100's weight is finite
    assert weighted_norm(g, 2, 100.0) == lp_norm(
        ScalarField(grid, (1.0 + sum(x**2 for x in grid.meshes())) ** 50.0 * g.values), 2)


def test_parseval(gauss128):
    f = gauss128
    n = f.grid.n
    spectral = np.sum(np.abs(np.fft.fft2(f.values)) ** 2) / n**2 * f.grid.cell_area
    assert abs(lp_norm(f, 2) ** 2 - spectral) < 1e-10 * spectral


def test_transform_round_trip(grid128):
    rng = np.random.default_rng(7)
    f = ScalarField(grid128, rng.standard_normal((128, 128)))
    back = np.fft.ifft2(np.fft.fft2(f.values)).real
    assert np.max(np.abs(back - f.values)) < 1e-12


def test_gradient_of_constant(grid128):
    c = ScalarField(grid128, np.ones((128, 128)))
    assert max_speed(gradient(c)) < 1e-14


def test_laplacian_gradient_consistency(gauss256):
    # Lap(G) = -div(xi G / 2) since grad G = -(xi/2) G
    grid = gauss256.grid
    xx, yy = grid.meshes()
    v = np.stack((0.5 * xx * gauss256.values, 0.5 * yy * gauss256.values))
    lhs = laplacian(gauss256).values
    rhs = -divergence(v, grid).values
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_divergence_of_sampled_vortex_velocity(grid256):
    # the analytic velocity is solenoidal; it is not box-periodic (1/r
    # tails), so the wrap-immune local stencil is the right checker
    from oseen2d.field import divergence_local
    from oseen2d.oseen import velocity_profile
    xx, yy = grid256.meshes()
    v = np.stack(velocity_profile(xx, yy))
    assert np.max(np.abs(divergence_local(v, grid256).values[4:-4, 4:-4])) < 1e-6


def test_curl_inverts_gradient_perp(gauss128):
    # curl of grad_perp(f) = Lap(f)
    g = gradient(gauss128)
    perp = np.stack((-g[1], g[0]))
    assert np.max(np.abs(curl(perp, gauss128.grid).values
                          - laplacian(gauss128).values)) < 1e-10


def test_project_mean_zero(gauss128, dx_gauss128):
    # mean-zero fields unchanged
    out = project_mean_zero(dx_gauss128)
    assert np.max(np.abs(out.values - dx_gauss128.values)) < 1e-10
    # G itself projects to (numerically) zero
    out = project_mean_zero(gauss128)
    assert np.max(np.abs(out.values)) < 1e-12
    # 2G + d1G projects onto d1G
    f = 2.0 * gauss128 + dx_gauss128
    out = project_mean_zero(f)
    assert np.max(np.abs(out.values - dx_gauss128.values)) < 1e-10
    assert abs(out.integral()) < 1e-12


def test_dealias_keeps_low_modes(grid128):
    x = grid128.coords()
    k = 2 * np.pi / grid128.box_size
    low = ScalarField(grid128, np.cos(3 * k * x)[:, None] * np.ones(128)[None, :])
    assert np.max(np.abs(dealias(low).values - low.values)) < 1e-12
    high = ScalarField(grid128, np.cos(60 * k * x)[:, None] * np.ones(128)[None, :])
    assert np.max(np.abs(dealias(high).values)) < 1e-12


def test_resample_affine_identity(gauss128):
    out = resample_affine(gauss128, 1.0)
    assert np.max(np.abs(out.values - gauss128.values)) < 1e-12


def test_resample_affine_dilation(grid128):
    xx, yy = grid128.meshes()
    f = ScalarField(grid128, gaussian_profile(xx, yy))
    out = resample_affine(f, 2.0)
    want = gaussian_profile(2 * xx, 2 * yy)
    # interior points inside the half-box scale factor
    mask = (np.abs(xx) < 9) & (np.abs(yy) < 9)
    assert np.max(np.abs(out.values - want)[mask]) < 1e-10


def test_resample_affine_shift(grid128):
    xx, yy = grid128.meshes()
    f = ScalarField(grid128, gaussian_profile(xx, yy))
    out = resample_affine(f, 1.0, center=(1.0, -2.0))
    want = gaussian_profile(xx + 1.0, yy - 2.0)
    mask = (np.abs(xx) < 15) & (np.abs(yy) < 15)
    assert np.max(np.abs(out.values - want)[mask]) < 1e-10


def _reference_resample_affine(f, scale, center=(0.0, 0.0)):
    """The complex E-matrix form: E @ fft2(f) @ E.T with a cosine Nyquist."""
    n, L, h = f.grid.n, f.grid.box_size, f.grid.h
    m = np.fft.fftfreq(n) * n

    def matrix(targets):
        theta = (targets + 0.5 * L) / h
        E = np.exp(2j * np.pi * np.outer(theta, m) / n) / n
        E[:, n // 2] = np.cos(np.pi * theta) / n
        E[np.abs(targets) > 0.5 * L * (1 + 1e-12), :] = 0.0
        return E

    x = f.grid.coords()
    Ex, Ey = matrix(scale * x + center[0]), matrix(scale * x + center[1])
    return (Ex @ np.fft.fft2(f.values) @ Ey.T).real


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("scale", [0.1, 0.37, 1.0, 2.0])
def test_resample_affine_matches_complex_reference(n, scale):
    # an off-centre Gaussian plus white noise, so every mode is present;
    # the shifted centres put targets outside the box for scale >= 1
    grid = Grid(n, 40.0)
    xx, yy = grid.meshes()
    noise = np.random.default_rng(n).standard_normal((n, n))
    f = ScalarField(grid, np.exp(-((xx - 1.0)**2 + yy**2) / 3.0) + 0.01 * noise)
    peak = np.max(np.abs(f.values))
    for center in ((0.0, 0.0), (7.3, -11.1), (19.9, -3.0)):
        got = resample_affine(f, scale, center).values
        want = _reference_resample_affine(f, scale, center)
        assert np.max(np.abs(got - want)) <= 1e-14 * peak


def test_boundary_decay_check(grid128):
    ones = ScalarField(grid128, np.ones((128, 128)))
    with pytest.raises(MarginError):
        require_boundary_decay(ones, "test")
    xx, yy = grid128.meshes()
    require_boundary_decay(ScalarField(grid128, gaussian_profile(xx, yy)), "test")


@pytest.mark.parametrize("spot", [(0, 5), (-1, 7), (9, 0), (3, -1), (0, 0), (-1, -1),
                                  (8, 8)])
def test_boundary_max_reads_the_outer_ring(spot):
    # bit for bit the largest |value| of the ring, wherever on it the peak
    # sits; a peak inside the ring is not read
    values = np.random.default_rng(7).standard_normal((16, 16))
    values[spot] = -50.0
    ring = np.abs(values)
    ring[1:-1, 1:-1] = 0.0
    assert ScalarField(Grid(16, 10.0), values).boundary_max() == ring.max()


def test_field_grid_mismatch(gauss128, gauss256):
    with pytest.raises(MismatchError):
        gauss128 + gauss256  # noqa: B018


def test_field_file_round_trip(tmp_path, gauss128):
    path = tmp_path / "field.fld"
    write_field(gauss128, path)
    back = read_field(path)
    assert back.grid == gauss128.grid
    assert np.array_equal(back.values, gauss128.values)
    raw = path.read_bytes()
    assert raw[:4] == b"FLD2"
    assert len(raw) == 4 + 8 + 8 + 8 * 128 * 128


def test_field_file_round_trip_property(tmp_path):
    # any finite samples (signed zeros and subnormals included) and any
    # admissible box come back bit for bit
    path = tmp_path / "field.fld"

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(n=st.sampled_from([16, 32]),
           L=st.floats(1e-3, 1e6, allow_subnormal=False),
           data=st.data())
    def check(n, L, data):
        values = data.draw(arrays(np.float64, (n, n), elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        f = ScalarField(Grid(n, L), values)
        write_field(f, path)
        back = read_field(path)
        assert back.grid == f.grid
        assert back.values.tobytes() == f.values.tobytes()

    check()


def test_read_field_rejects_truncated_or_trailing_bytes(tmp_path):
    path = tmp_path / "field.fld"
    grid = Grid(16, 8.0)
    xx, yy = grid.meshes()
    write_field(ScalarField(grid, xx - yy), path)
    raw = path.read_bytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])
           | st.binary(min_size=1, max_size=16).map(lambda tail: raw + tail))
    def check(damaged):
        path.write_bytes(damaged)
        with pytest.raises(DomainError):
            read_field(path)

    check()


@pytest.mark.parametrize("n, L", [(-16, 8.0), (15, 8.0), (8, 8.0),
                                  (16, np.inf), (16, np.nan), (16, 0.0)])
def test_read_field_rejects_bad_header(tmp_path, n, L):
    path = tmp_path / "field.fld"
    payload = bytes(8 * n * n) if n > 0 else b""
    path.write_bytes(b"FLD2" + struct.pack("<qd", n, L) + payload)
    with pytest.raises(DomainError):
        read_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_field_rejects_nonfinite_payload(tmp_path, bad):
    values = np.zeros((16, 16))
    values[5, 7] = bad
    path = tmp_path / "field.fld"
    path.write_bytes(b"FLD2" + struct.pack("<qd", 16, 8.0)
                     + values.astype("<f8").tobytes())
    with pytest.raises(DomainError, match="non-finite"):
        read_field(path)


def test_norms_csv():
    text = experiments._csv(experiments._NORMS, [(0.5, "l1", 1, 0, 2.25)]).splitlines()
    assert text[0] == "t,quantity,p,m,value"
    assert text[1] == "0.5,l1,1,0,2.25"
