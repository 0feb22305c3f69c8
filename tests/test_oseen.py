import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d.errors import DomainError
from oseen2d.field import Grid, max_speed
from oseen2d.oseen import (OseenVortex, _ring_factor, gaussian_profile,
                           oseen_fields, oseen_max_speed, oseen_velocity,
                           oseen_vorticity, velocity_profile)

from oracles import (gaussian_gradient, gaussian_profile_full, oseen_residual,
                     ring_factor_full, velocity_jacobian)

# exp arguments across the underflow threshold (exp is 0 below -745.13),
# in the subnormal band and in the normal range
_EXP_ARGS = st.one_of(st.floats(-747.0, -745.0), st.floats(-745.2, -708.0),
                      st.floats(-50.0, 0.0), st.just(-746.0))


def test_gaussian_profile_values():
    assert abs(gaussian_profile(0.0, 0.0) - 1.0 / (4 * np.pi)) < 1e-16
    assert abs(gaussian_profile(2.0, 0.0) - np.exp(-1.0) / (4 * np.pi)) < 1e-16


def test_gaussian_integral(grid256, gauss256):
    assert abs(gauss256.integral() - 1.0) < 1e-10


def test_velocity_profile_values():
    u1, u2 = velocity_profile(0.0, 0.0)
    assert u1 == 0.0 and u2 == 0.0
    u1, u2 = velocity_profile(1.0, 0.0)
    assert abs(u1) < 1e-16
    assert abs(u2 - (1 - np.exp(-0.25)) / (2 * np.pi)) < 1e-15


def test_velocity_profile_far_field():
    u1, u2 = velocity_profile(100.0, 0.0)
    assert abs(np.hypot(u1, u2) - 1.0 / (2 * np.pi * 100.0)) < 1e-15


def test_velocity_profile_series_branch():
    # both branches agree with the two-term series across the cutoff
    for r in (0.9e-4, 1.1e-4):
        u1, u2 = velocity_profile(r, 0.0)
        series = r / (8 * np.pi) * (1 - r * r / 8)
        assert abs(u2 - series) < 1e-16 * series


def test_gradient_identity():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(1000, 2)) * 3
    g1, g2 = gaussian_gradient(pts[:, 0], pts[:, 1])
    g = gaussian_profile(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(g1 + 0.5 * pts[:, 0] * g)) < 1e-17
    assert np.max(np.abs(g2 + 0.5 * pts[:, 1] * g)) < 1e-17


def test_velocity_perpendicular_to_gradient():
    # the radial-symmetry cancellation behind background exactness
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(10**6, 2)) * 4
    u1, u2 = velocity_profile(pts[:, 0], pts[:, 1])
    g1, g2 = gaussian_gradient(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(u1 * g1 + u2 * g2)) < 1e-14


def test_velocity_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for x, y in rng.normal(size=(20, 2)) * 2:
        d1v1, d2v1, d1v2, d2v2 = velocity_jacobian(x, y)
        for (dx, dy, got) in ((eps, 0, (d1v1, d1v2)), (0, eps, (d2v1, d2v2))):
            up = velocity_profile(x + dx, y + dy)
            dn = velocity_profile(x - dx, y - dy)
            fd = ((up[0] - dn[0]) / (2 * eps), (up[1] - dn[1]) / (2 * eps))
            assert abs(fd[0] - got[0]) < 1e-8
            assert abs(fd[1] - got[1]) < 1e-8


# a vortex is a cache key of solver.background_fields: its center is
# a hashable tuple of two finite numbers
@pytest.mark.parametrize("z", [(0.0,), (0.0, 0.0, 0.0), 0.0, (np.nan, 0.0),
                               (0.0, -np.inf), ("0", 0.0), [0.0, 0.0], None])
def test_vortex_center_is_a_pair_of_finite_numbers(z):
    with pytest.raises(DomainError, match="pair of finite numbers"):
        OseenVortex(1.0, z)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, "1", None, [1.0]])
def test_vortex_circulation_is_finite(alpha):
    # a string or None made np.isfinite raise a TypeError, and a list was accepted
    with pytest.raises(DomainError,
                       match=r"alpha must be a real number in \(-inf, inf\)"):
        OseenVortex(alpha)


def test_vortex_center_takes_numpy_numbers():
    v, w = OseenVortex(1.0, (np.float64(0.5), 1)), OseenVortex(1.0, (0.5, 1.0))
    assert v == w and hash(v) == hash(w)
    assert len({OseenVortex(1), OseenVortex(np.float64(1.0)), OseenVortex(1.0)}) == 1


def test_oseen_fields_basic(grid256):
    w, u = oseen_fields(OseenVortex(1.0), 1.0, grid256)
    assert abs(w.values.max() - 1.0 / (4 * np.pi)) < 1e-14
    assert abs(w.integral() - 1.0) < 1e-10
    w2, u2 = oseen_fields(OseenVortex(2.0), 1.0, grid256)
    assert np.array_equal(w2.values, 2.0 * w.values)
    assert np.array_equal(u2, 2.0 * u)


def test_oseen_fields_self_similar_scaling(grid256):
    w4, _ = oseen_fields(OseenVortex(1.0), 4.0, grid256)
    assert abs(w4.values.max() - 1.0 / (16 * np.pi)) < 1e-14
    # omega(x, lam^2 t) sampled at lam x equals lam^-2 omega(x, t)
    w1, _ = oseen_fields(OseenVortex(1.0), 1.0, grid256)
    n = grid256.n
    idx = np.arange(n // 4, 3 * n // 4)
    scaled = 2 * idx - n // 2
    assert np.max(np.abs(w4.values[np.ix_(scaled, scaled)]
                         - 0.25 * w1.values[np.ix_(idx, idx)])) < 1e-16


def test_oseen_fields_rejects_bad_time(grid256):
    with pytest.raises(DomainError):
        oseen_fields(OseenVortex(1.0), 0.0, grid256)


@pytest.mark.parametrize("fn", [oseen_vorticity, oseen_velocity])
@pytest.mark.parametrize("t", [np.nan, 0.0, -1.0])
def test_oseen_fields_reject_nan_time(fn, t):
    with pytest.raises(DomainError):
        fn(OseenVortex(1.0), t, 0.0, 0.0)


@pytest.mark.parametrize("t", [np.nan, 0.0])
def test_oseen_residual_rejects_nan_time(t, grid256):
    with pytest.raises(DomainError):
        oseen_residual(OseenVortex(1.0), t, grid256)


def test_oseen_max_speed():
    v = OseenVortex(2.0)
    grid = Grid(256, 40.0)
    _, u = oseen_fields(v, 1.0, grid)
    assert max_speed(u) <= oseen_max_speed(v, 1.0) + 1e-12
    assert max_speed(u) > 0.95 * oseen_max_speed(v, 1.0)


@pytest.mark.parametrize("alpha,tol", [(1.0, 1e-8), (100.0, 1e-6)])
def test_oseen_residual_small(alpha, tol, grid256):
    assert oseen_residual(OseenVortex(alpha), 1.0, grid256) < tol


def test_oseen_residual_zero_circulation(grid256):
    assert oseen_residual(OseenVortex(0.0), 1.0, grid256) == 0.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(args=st.lists(_EXP_ARGS, min_size=1, max_size=40),
       angle=st.floats(0.0, 2 * np.pi))
def test_gaussian_profile_bit_identical_to_full_grid(args, angle):
    # skipping the underflowing exp arguments leaves every bit as it was,
    # on arrays, on broadcast 1-D vectors and on scalars
    r = np.sqrt(-4.0 * np.array(args))
    x1, x2 = r * np.cos(angle), r * np.sin(angle)
    assert np.array_equal(gaussian_profile(x1, x2), gaussian_profile_full(x1, x2))
    col, row = x1[:, None], x2[None, :]
    assert np.array_equal(gaussian_profile(col, row), gaussian_profile_full(col, row))
    got = gaussian_profile(float(x1[0]), float(x2[0]))
    assert np.ndim(got) == 0 and got == gaussian_profile_full(x1[0], x2[0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(s=st.lists(st.one_of(st.just(0.0), st.just(1e-8), st.floats(0.0, 2e-8),
                            st.floats(0.0, 100.0), st.floats(2832.0, 2981.0),
                            st.floats(100.0, 3000.0), st.floats(2980.0, 2990.0),
                            st.just(2984.0), st.floats(2990.0, 1e8)),
                  min_size=1, max_size=40))
def test_ring_factor_bit_identical_to_full_grid(s):
    # s = 0, the series cutoff s = 1e-8, the underflow of exp(-s/4) at
    # s = 2984, past which only 1/(2 pi s) is evaluated, and s up to 1e8;
    # bytes, so a signed zero would count
    s = np.array(s)
    assert _ring_factor(s).tobytes() == ring_factor_full(s).tobytes()
    got = _ring_factor(float(s[0]))
    assert np.ndim(got) == 0 and got.tobytes() == ring_factor_full(s[0]).tobytes()
