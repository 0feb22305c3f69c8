import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d.biot_savart import (KERNEL_H4_CONSTANT, _free_space_multiplier,
                                 _periodic_multiplier, hls_ratio,
                                 velocity_free_space, velocity_periodic)
from oseen2d.errors import CirculationError, DomainError, MarginError
from oseen2d.field import (Grid, ScalarField, _deriv_wavenumbers, _irfft2, _ksq,
                           _rfft2, divergence_local, gradient, max_speed,
                           weighted_norm)
from oseen2d.oseen import OseenVortex, gaussian_profile, oseen_fields
from oseen2d.rng import band_limited_field
from oseen2d.solver import _remainder_velocity

from oracles import (HLS_RATIO_GAUSSIAN_PLANE, WEIGHTED_VELOCITY_DX_GAUSSIAN,
                     curl, curl_local, divergence, padded_route,
                     velocity_jacobian, weighted_velocity_norm)

# grid values at (n=256, L=40), pinned after the first oracle-checked run
HLS_RATIO_GAUSSIAN_GRID = 0.31684475268865353
HLS_FAMILY_REGRESSION_MAX = 0.3332

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=15, deadline=None)


# -------------------------------------------- reference formulas
# Direct forms of both routes: complex transforms on the full spectrum, and
# the free-space corrections as separate n-grid terms.  The cached
# multipliers must agree with them to round-off.

def _reference_velocity_periodic(omega):
    grid = omega.grid
    k = grid.wavenumbers()
    ksq = _ksq(grid).copy()
    ksq[0, 0] = 1.0
    psi_hat = -np.fft.fft2(omega.values) / ksq
    psi_hat[0, 0] = 0.0
    u1 = np.fft.ifft2(-1j * k[None, :] * psi_hat).real
    u2 = np.fft.ifft2(1j * k[:, None] * psi_hat).real
    xx, yy = grid.meshes()
    p1 = float(np.sum(xx * omega.values)) * grid.cell_area
    p2 = float(np.sum(yy * omega.values)) * grid.cell_area
    c = 1.0 / (2.0 * grid.box_size**2)
    return np.stack((u1 + c * p2, u2 - c * p1))


def _reference_velocity_free_space(omega):
    grid = omega.grid
    n, h = grid.n, grid.h
    offsets = np.fft.fftfreq(2 * n) * 2 * n * h
    dx = offsets[:, None]
    dy = offsets[None, :]
    rsq = dx**2 + dy**2
    rsq[0, 0] = 1.0
    kernel = (-dy + 1j * dx) / (2.0 * np.pi * rsq)
    kernel[0, 0] = 0.0
    padded = np.zeros((2 * n, 2 * n))
    padded[:n, :n] = omega.values
    conv = np.fft.ifft2(np.fft.fft2(kernel) * np.fft.fft2(padded))
    u = conv[:n, :n] * grid.cell_area

    k = _deriv_wavenumbers(grid)
    kx = k[:, None]
    ky = k[None, :]
    what = np.fft.fft2(omega.values)
    d1 = np.fft.ifft2(1j * kx * what).real
    d2 = np.fft.ifft2(1j * ky * what).real
    t1 = np.fft.ifft2(-1j * (kx**2 * ky - ky**3 / 3.0) * what).real
    t2 = np.fft.ifft2(-1j * (ky**2 * kx - kx**3 / 3.0) * what).real
    c2 = grid.cell_area / (4.0 * np.pi)
    c4 = KERNEL_H4_CONSTANT * h**4
    return np.stack((u.real + c2 * d2 - c4 * t1, u.imag - c2 * d1 + c4 * t2))


def _max_diff(u, v):
    return float(np.max(np.abs(u - v)))


def _hermite_product(grid, a, b, center=(0.0, 0.0)):
    xx, yy = grid.meshes()
    hx = np.polynomial.hermite.hermval((xx - center[0]) / 2.0, [0] * a + [1])
    hy = np.polynomial.hermite.hermval((yy - center[1]) / 2.0, [0] * b + [1])
    return ScalarField(grid, hx * hy * gaussian_profile(xx - center[0],
                                                        yy - center[1]))


@pytest.mark.parametrize("n", [128, 256])
def test_routes_match_reference_formulas(n):
    grid = Grid(n, 40.0)
    xx, yy = grid.meshes()
    free = [oseen_fields(OseenVortex(1.0), 1.0, grid)[0],
            ScalarField(grid, gaussian_profile(xx - 3.0, yy + 2.0)),
            _hermite_product(grid, 7, 5)]
    for w in free:
        u = velocity_free_space(w)
        assert _max_diff(u, _reference_velocity_free_space(w)) <= 1e-14 * max_speed(u)
    noise = np.random.default_rng(n).standard_normal((n, n))
    w = ScalarField(grid, noise - noise.mean())
    u = velocity_periodic(w)
    assert _max_diff(u, _reference_velocity_periodic(w)) <= 1e-14 * max_speed(u)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_routes_match_padded_transforms(n):
    # the pruned free-space transforms and the batched periodic ones give
    # the unpruned padded route of numpy's transforms to round-off
    grid = Grid(n, 40.0)
    xx, yy = grid.meshes()
    w = ScalarField(grid, gaussian_profile(xx - 3.0, yy + 2.0)
                    - 0.5 * gaussian_profile(1.5 * (xx + 4.0), yy - 1.0))
    u = velocity_free_space(w)
    ref = padded_route(_free_space_multiplier(grid), w.values, (2 * n, 2 * n))
    assert _max_diff(u, ref[:, :n, :n]) <= 1e-15 * max_speed(u)

    g = ScalarField(grid, gaussian_profile(xx, yy + 1.0))
    w = ScalarField(grid, w.values - (w.integral() / g.integral()) * g.values)
    u = velocity_periodic(w)
    c = grid.cell_area / (2.0 * grid.box_size**2)
    drift = np.array([np.sum(yy * w.values) * c, -np.sum(xx * w.values) * c])
    ref = padded_route(_periodic_multiplier(grid), w.values, (n, n))
    assert _max_diff(u, ref + drift[:, None, None]) <= 1e-15 * max_speed(u)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_transform_helpers_match_scipy(n):
    # numpy.fft's one-axis passes are scipy.fft's pocketfft: the half-spectrum
    # helpers and the pruned free-space solve agree with scipy's 2-D real
    # transforms and the padded route bit for bit, single and stacked
    rng = np.random.default_rng(n)
    for shape in ((n, n), (2, n, n)):
        values = rng.standard_normal(shape)
        spectrum = scipy.fft.rfft2(values)
        assert np.array_equal(_rfft2(values), spectrum)
        expected = scipy.fft.irfft2(spectrum, s=(n, n))
        assert np.array_equal(_irfft2(spectrum.copy(), n), expected)
    grid = Grid(n, 40.0)
    xx, yy = grid.meshes()
    w = ScalarField(grid, gaussian_profile(xx - 3.0, yy + 2.0)
                    * (1.0 + 0.1 * rng.standard_normal((n, n))))
    u = velocity_free_space(w)
    ref = padded_route(_free_space_multiplier(grid), w.values, (2 * n, 2 * n))
    assert np.array_equal(u, ref[:, :n, :n])


def test_vectors_are_one_read_only_array(gauss128, dx_gauss128):
    # both routes, the spectral gradient and the sampled vortex velocity
    # each return their x and y components as one read-only float array
    grid = gauss128.grid
    for u in (velocity_free_space(gauss128), velocity_periodic(dx_gauss128),
              gradient(gauss128), oseen_fields(OseenVortex(1.0), 1.0, grid)[1]):
        assert type(u) is np.ndarray and u.dtype == np.float64
        assert u.shape == (2, grid.n, grid.n) and not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0, 0] = 1.0


def test_periodic_curl_identity(grid256, dx_gauss256):
    u = velocity_periodic(dx_gauss256)
    assert np.max(np.abs(curl(u, grid256).values - dx_gauss256.values)) < 1e-8
    assert np.max(np.abs(divergence(u, grid256).values)) < 1e-8


# magnitudes kept away from underflow, where relative round-off fails
_COEFFS = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
_HERMITE_ORDER = st.integers(0, 4)


@PROPERTY_SETTINGS
@given(a=_COEFFS, b=_COEFFS, p=_HERMITE_ORDER, q=_HERMITE_ORDER,
       periodic=st.booleans())
def test_zero_and_linearity(a, b, p, q, periodic):
    # a Hermite product with a nonzero order is mean-zero, as the periodic
    # route needs; the free-space route also takes the Gaussian (p = q = 0)
    grid = Grid(64, 30.0)
    route = velocity_periodic if periodic else velocity_free_space
    assert max_speed(route(grid.zeros())) == 0.0
    if periodic:
        f, g = _hermite_product(grid, 2 * p + 1, q), _hermite_product(grid, q, 2 * p + 1)
    else:
        f, g = _hermite_product(grid, p, q), _hermite_product(grid, q, 0, (1.0, -2.0))
    uf, ug = route(f), route(g)
    lhs = route(a * f + b * g)
    rhs = uf * a + ug * b
    scale = abs(a) * max_speed(uf) + abs(b) * max_speed(ug)
    assert max_speed(lhs - rhs) <= 1e-14 * scale


def test_periodic_rejects_nonzero_mean(gauss256):
    with pytest.raises(CirculationError):
        velocity_periodic(gauss256)


def test_periodic_matches_plane_velocity(grid256, dx_gauss256):
    # with the dipole-drift compensation the core agrees with the plane field
    xx, yy = grid256.meshes()
    d1v1, _, d1v2, _ = velocity_jacobian(xx, yy)
    u = velocity_periodic(dx_gauss256)
    err = np.hypot(u[0] - d1v1, u[1] - d1v2)
    core = np.hypot(xx, yy) < 5
    assert err[core].max() < 5e-5


def test_free_space_oracle(grid256):
    w, u_exact = oseen_fields(OseenVortex(1.0), 1.0, grid256)
    u = velocity_free_space(w)
    err = np.hypot(*(u - u_exact))
    assert err.max() / max_speed(u_exact) < 1e-3   # pinned acceptance bound
    assert err.max() / max_speed(u_exact) < 1e-9   # what the kernel achieves


@PROPERTY_SETTINGS
@given(sx=st.integers(-8, 8), sy=st.integers(-8, 8))
def test_free_space_translation_equivariance(sx, sy):
    # shifting the vorticity by whole cells shifts the velocity by the
    # same cells; compared where both grids cover the shifted points
    grid = Grid(64, 30.0)
    w0, _ = oseen_fields(OseenVortex(1.0), 1.0, grid)
    wz, _ = oseen_fields(OseenVortex(1.0, (sx * grid.h, sy * grid.h)), 1.0, grid)
    u0, uz = velocity_free_space(w0), velocity_free_space(wz)
    n = grid.n
    src = (slice(max(0, -sx), n - max(0, sx)), slice(max(0, -sy), n - max(0, sy)))
    dst = (slice(max(0, sx), n - max(0, -sx)), slice(max(0, sy), n - max(0, -sy)))
    err = np.hypot(*(uz[(slice(None), *dst)] - u0[(slice(None), *src)]))
    assert err.max() <= 1e-13 * max_speed(u0)


def test_free_space_zero(grid256):
    assert max_speed(velocity_free_space(grid256.zeros())) == 0.0


def test_free_space_margin(grid256):
    ones = ScalarField(grid256, np.ones((256, 256)))
    with pytest.raises(MarginError):
        velocity_free_space(ones)


def test_free_space_curl_divergence(grid256):
    w, _ = oseen_fields(OseenVortex(1.0), 1.0, grid256)
    u = velocity_free_space(w)
    xx, yy = grid256.meshes()
    inner = (np.abs(xx) < 10) & (np.abs(yy) < 10)
    assert np.max(np.abs(curl_local(u, grid256).values - w.values)[inner]) < 1e-6
    assert np.max(np.abs(divergence_local(u, grid256).values)[inner]) < 1e-8


def test_far_field_truncation_order():
    # doubling the box at fixed density shrinks the tail-truncation error
    # at least as fast as 1/L^2 (for the Gaussian tails, much faster)
    errs = {}
    for n, L in ((128, 20.0), (256, 40.0)):
        grid = Grid(n, L)
        w, u_exact = oseen_fields(OseenVortex(1.0), 2.0, grid)
        u = velocity_free_space(w, boundary_tol=1e-4)
        xx, yy = grid.meshes()
        core = np.hypot(xx, yy) < 5.0
        err = np.hypot(*(u - u_exact))
        errs[L] = err[core].max()
    assert errs[20.0] > 4.0 * errs[40.0]


def test_velocity_router(gauss256, dx_gauss256):
    # nonzero circulation routes to free space, mean-zero to periodic
    assert np.array_equal(_remainder_velocity(gauss256), velocity_free_space(gauss256))
    assert np.array_equal(_remainder_velocity(dx_gauss256),
                          velocity_periodic(dx_gauss256))


def test_hls_ratio_gaussian(gauss256):
    got = hls_ratio(gauss256, 4.0 / 3.0)
    # regression pin of the grid value, oracle-checked against the plane
    # quadrature (the difference is the slow |u|^4 tail beyond the box)
    assert abs(got - HLS_RATIO_GAUSSIAN_GRID) < 1e-8
    assert abs(got - HLS_RATIO_GAUSSIAN_PLANE) < 2e-3


def test_hls_ratio_homogeneous(gauss256):
    assert abs(hls_ratio(3.5 * gauss256, 4.0 / 3.0)
               - hls_ratio(gauss256, 4.0 / 3.0)) < 1e-12


def test_hls_ratio_domain(gauss256, grid256):
    with pytest.raises(DomainError):
        hls_ratio(gauss256, 2.5)
    with pytest.raises(DomainError):
        hls_ratio(grid256.zeros(), 4.0 / 3.0)


def test_hls_family_regression_bound(grid256, gauss256, dx_gauss256):
    xx, yy = grid256.meshes()
    family = [
        gauss256,
        dx_gauss256,
        ScalarField(grid256, -0.5 * yy * gaussian_profile(xx, yy)),
        ScalarField(grid256, gaussian_profile(xx - 3.0, yy + 2.0)),
        band_limited_field(grid256, seed=42),
        band_limited_field(grid256, seed=43),
    ]
    ratios = [hls_ratio(f, 4.0 / 3.0) for f in family]
    assert max(ratios) <= 2.0 * HLS_FAMILY_REGRESSION_MAX


def test_weighted_velocity_norm(grid256, dx_gauss256):
    got = weighted_velocity_norm(dx_gauss256, q=4.0, m=1.5)
    assert abs(got - WEIGHTED_VELOCITY_DX_GAUSSIAN) < 2e-3
    # homogeneity
    assert abs(weighted_velocity_norm(2.0 * dx_gauss256, 4.0, 1.5)
               - 2.0 * got) < 1e-10
    # bounded by a constant times the weighted vorticity norm
    assert got < 2.0 * weighted_norm(dx_gauss256, 2, 1.5)
    assert weighted_velocity_norm(grid256.zeros(), 4.0, 0.5) == 0.0


def test_weighted_velocity_norm_domain(gauss256, dx_gauss256):
    with pytest.raises(DomainError):
        weighted_velocity_norm(dx_gauss256, q=2.0, m=1.5)
    with pytest.raises(DomainError):
        weighted_velocity_norm(dx_gauss256, q=4.0, m=2.5)
    with pytest.raises(DomainError):
        # m in (1,2) needs mean-zero data
        weighted_velocity_norm(gauss256, q=4.0, m=1.5)
