import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d.errors import DomainError, MarginError
from oseen2d.field import Grid, ScalarField, lp_norm, project_mean_zero, weighted_norm
from oseen2d.oseen import OseenVortex, gaussian_profile, oseen_vorticity
from oseen2d.propagators import StepperConfig, evolve_S1
from oseen2d.rng import band_limited_field
from oseen2d.selfsim import (commutation_residual, semigroup_apply,
                             to_self_similar, _semigroup_quadrature,
                             _semigroup_spectral)

from oracles import apply_fokker_planck


@pytest.mark.parametrize("t", [0.0, np.nan, np.inf, -1.0, "1.0", None, [1.0]])
def test_to_self_similar_rejects_bad_time(t, gauss128):
    with pytest.raises(DomainError, match=r"t must be a real number in \(0, inf\)"):
        to_self_similar(gauss128, t, (0.0, 0.0))


def test_to_self_similar_rejects_nonfinite_center(gauss128):
    for center in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(DomainError, match="center"):
            to_self_similar(gauss128, 1.0, center)


@pytest.mark.parametrize("tau", [-1.0, np.nan, "1.0", None, [1.0]])
def test_semigroup_rejects_bad_time(tau, gauss128):
    with pytest.raises(DomainError, match=r"tau must be a real number in \[0, inf\]"):
        semigroup_apply(tau, gauss128)


def test_self_similar_and_semigroup_take_ints_and_numpy_numbers(gauss128):
    want = to_self_similar(gauss128, 2.0, (0.5, 0.0)).values
    for t in (2, np.float64(2.0)):
        assert np.array_equal(to_self_similar(gauss128, t, (0.5, 0.0)).values, want)
    want = semigroup_apply(1.0, gauss128).values
    for tau in (1, np.float64(1.0)):
        assert np.array_equal(semigroup_apply(tau, gauss128).values, want)


def test_to_self_similar_inverts_oseen(grid128, gauss128):
    # omega = (1/t) G(x/sqrt t) pulls back to the unit profile for any t
    for t in (0.25, 4.0):
        xx, yy = grid128.meshes()
        rt = np.sqrt(t)
        omega = ScalarField(grid128, gaussian_profile(xx / rt, yy / rt) / t)
        w = to_self_similar(omega, t, (0.0, 0.0))
        assert np.max(np.abs(w.values - gauss128.values)) < 1e-8


def test_self_similar_round_trip(grid128, gauss128):
    # the map at (1/t, -z/sqrt t) undoes the map at (t, z)
    t, z = 2.0, (1.0, -0.5)
    rt = np.sqrt(t)
    spread = to_self_similar(gauss128, 1.0 / t, (-z[0] / rt, -z[1] / rt))
    back = to_self_similar(spread, t, z)
    assert np.max(np.abs(back.values - gauss128.values)) < 1e-8
    assert np.all(to_self_similar(grid128.zeros(), t, z).values == 0.0)


def test_self_similar_peak(grid128, gauss128):
    # spreading G to t = 4 divides its peak 1/(4 pi) by 4; t = 1 at the
    # origin is the identity, and the map is linear
    out = to_self_similar(gauss128, 0.25, (0.0, 0.0))
    assert abs(out.values.max() - 1.0 / (16 * np.pi)) < 1e-10
    ident = to_self_similar(gauss128, 1.0, (0.0, 0.0))
    assert np.max(np.abs(ident.values - gauss128.values)) < 1e-12
    scaled = to_self_similar(3.0 * gauss128, 0.25, (0.0, 0.0))
    assert np.max(np.abs(scaled.values - 3.0 * out.values)) < 1e-14


def test_to_self_similar_conserves_mass(grid128, gauss128):
    # a vortex at (0.5, 0) seen from its own center is the unit profile
    t, z = 2.0, (0.5, 0.0)
    omega = ScalarField(grid128, oseen_vorticity(OseenVortex(1.0, z), t,
                                                 *grid128.meshes()))
    w = to_self_similar(omega, t, z)
    assert abs(w.integral() - omega.integral()) < 1e-10
    assert np.max(np.abs(w.values - gauss128.values)) < 1e-8


def test_fokker_planck_kernel_and_first_mode(gauss128, dx_gauss128):
    out = apply_fokker_planck(gauss128)
    assert np.max(np.abs(out.values)) < 1e-8
    out = apply_fokker_planck(dx_gauss128)
    assert np.max(np.abs(out.values + 0.5 * dx_gauss128.values)) < 1e-8
    assert np.all(apply_fokker_planck(gauss128.grid.zeros()).values == 0.0)


def test_semigroup_fixed_point(gauss128):
    for tau in (0.5, 1.0, 3.0):
        out = semigroup_apply(tau, gauss128)
        assert np.max(np.abs(out.values - gauss128.values)) < 1e-8


def test_semigroup_eigenmode(dx_gauss128):
    for tau in (0.5, 1.0):
        out = semigroup_apply(tau, dx_gauss128)
        want = np.exp(-tau / 2)
        rel = lp_norm(out - want * dx_gauss128, 2) / lp_norm(dx_gauss128, 2)
        assert rel < 1e-8


def test_semigroup_route_follows_kernel_width():
    # on Grid(64, 40), h = 0.625: at tau = 0.25 the kernel's width
    # sqrt(1 - e^-tau) = 0.47 is under one cell, where the quadrature of the
    # sampled kernel errs by 2.0e-9 and the spectral route by 7.0e-12
    grid = Grid(64, 40.0)
    xx, yy = grid.meshes()
    dx_gauss = ScalarField(grid, -0.5 * xx * gaussian_profile(xx, yy))
    tau = 0.25
    out = semigroup_apply(tau, dx_gauss)
    want = np.exp(-tau / 2) * dx_gauss.values
    assert (np.max(np.abs(out.values - want))
            <= 1e-10 * np.max(np.abs(want)))


def test_semigroup_identity_and_domain(gauss128):
    out = semigroup_apply(0.0, gauss128)
    assert np.array_equal(out.values, gauss128.values)
    with pytest.raises(DomainError):
        semigroup_apply(-0.1, gauss128)


@pytest.mark.parametrize("tau", [np.nan, -0.1])
def test_semigroup_rejects_nan_time(tau, gauss128):
    with pytest.raises(DomainError):
        semigroup_apply(tau, gauss128)


def test_semigroup_strong_continuity(grid128):
    f = band_limited_field(grid128, seed=42)
    out = semigroup_apply(1e-4, f)
    assert lp_norm(out - f, 2) < 1e-3 * lp_norm(f, 2)


def test_semigroup_routes_agree(grid128):
    f = band_limited_field(grid128, seed=42)
    for tau in (0.3, 0.6):
        a = _semigroup_quadrature(tau, f)
        b = _semigroup_spectral(tau, f)
        assert lp_norm(a - b, 2) < 1e-10 * lp_norm(a, 2)


def test_semigroup_law(grid128):
    f = band_limited_field(grid128, seed=42)
    lhs = semigroup_apply(0.7, semigroup_apply(0.8, f))
    rhs = semigroup_apply(1.5, f)
    assert lp_norm(lhs - rhs, 2) < 1e-6 * lp_norm(rhs, 2)


# both routes of semigroup_apply: on grid128 (h = 0.3125) the spectral one
# below tau = 0.103, where the kernel is thinner than a cell and the
# full-spectrum transforms run, and the quadrature one above
_SEMIGROUP_TAUS = st.sampled_from((0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(tau1=_SEMIGROUP_TAUS, tau2=_SEMIGROUP_TAUS)
def test_semigroup_law_property(grid128, tau1, tau2):
    # S(tau1) S(tau2) = S(tau1 + tau2) over pairs mixing the two routes
    f = band_limited_field(grid128, seed=42)
    lhs = semigroup_apply(tau1, semigroup_apply(tau2, f))
    rhs = semigroup_apply(tau1 + tau2, f)
    assert lp_norm(lhs - rhs, 2) < 1e-6 * lp_norm(rhs, 2)


def test_semigroup_mass_conservation(grid128, gauss128):
    f = 0.35 * gauss128
    for tau in (0.5, 2.0):
        out = semigroup_apply(tau, f)
        assert abs(out.integral() - f.integral()) < 1e-8 * abs(f.integral())


def test_semigroup_margin(grid128):
    flat = ScalarField(grid128, np.ones((128, 128)))
    with pytest.raises(MarginError):
        semigroup_apply(1.0, flat)


def test_semigroup_weighted_boundedness(grid128):
    # no-growth bound in the weighted norms over the seeded family
    for seed in (42, 43):
        f = band_limited_field(grid128, seed=seed)
        base = {m: weighted_norm(f, 2, m) for m in (1.5, 3.0)}
        for tau in (0.1, 0.5, 1.0, 3.0):
            out = semigroup_apply(tau, f)
            for m in (1.5, 3.0):
                assert weighted_norm(out, 2, m) <= 1.5 * base[m]


def test_semigroup_mean_zero_decay_rate(grid128):
    f = project_mean_zero(band_limited_field(grid128, seed=42))
    taus = np.arange(1.0, 3.01, 0.25)
    norms = [weighted_norm(semigroup_apply(float(t), f), 2, 3.0) for t in taus]
    slope = np.polyfit(taus, np.log(norms), 1)[0]
    assert slope <= -0.45


def test_semigroup_matches_time_stepping(grid128):
    f = band_limited_field(grid128, seed=42)
    tau = 0.5
    direct = semigroup_apply(tau, f)
    traj = evolve_S1(0.0, f, tau, StepperConfig.fixed(1e-3), sample_every=tau)
    rel = lp_norm(traj.final - direct, 2) / lp_norm(direct, 2)
    assert rel < 1e-5


def test_commutation_residual(gauss128, grid128):
    from oseen2d.field import gradient
    scale = np.max(np.abs(gradient(gauss128)[0]))
    assert commutation_residual(1.0, gauss128) < 1e-8 * scale
    f = band_limited_field(grid128, seed=42)
    scale = np.max(np.abs(gradient(f)))
    assert commutation_residual(0.5, f) < 1e-6 * scale
    assert commutation_residual(1.0, grid128.zeros()) == 0.0
