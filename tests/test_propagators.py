import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d import experiments, propagators, solver
from oseen2d.errors import DegenerateError, DomainError, StabilityError
from oseen2d.field import (Grid, ScalarField, _dealias_mask, _deriv_wavenumbers,
                           _irfft2, _ksq, _rfft2, lp_norm, max_speed)
from oseen2d.measure import FiniteMeasure, heat_smooth
from oseen2d.oseen import (OseenVortex, gaussian_profile, oseen_fields,
                           oseen_max_speed)
from oseen2d.propagators import (DecayFit, StepperConfig, Trajectory, cfl_bound,
                                 evolve_rescaled_perturbation, evolve_S1,
                                 evolve_T_alpha, fit_decay, lawson_step, march,
                                 vortex_advection)
from oseen2d.rng import band_limited_field
from oseen2d.selfsim import semigroup_apply
from oseen2d.solver import background_fields, propagate_SN

from oracles import background_fields_full


def heat_kernel_field(grid, t):
    xx, yy = grid.meshes()
    return ScalarField(grid, np.exp(-(xx**2 + yy**2) / (4 * t)) / (4 * np.pi * t))


def prescribed_step(w, velocity_fn, t, dt):
    """One fixed-dt lawson_step of dw/dt + div(U(t) w) = Lap(w), with U(t)
    the (2, n, n) array velocity_fn(t)."""
    def stage(values, s):
        u = velocity_fn(s)
        return u * values, u

    cfg, h = StepperConfig.fixed(dt), w.grid.h
    out, _ = lawson_step(w, t, np.inf, stage, lambda speed, room: cfg.step(
        cfl_bound(h, speed), room))
    return out


def test_stepper_config_validation():
    assert StepperConfig.fixed(1e-3).dt == 1e-3
    assert StepperConfig.courant().dt is None
    assert StepperConfig(np.float64(1e-3)) == StepperConfig.fixed(1e-3)
    assert StepperConfig(1).step(2.0, np.inf) == 1


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -1e-3, "1e-3", [1e-3]])
def test_fixed_step_must_be_positive_and_finite(dt):
    # an infinite fixed step would march to t = inf with a NaN state; a
    # string made the comparison 0 < dt raise a TypeError
    with pytest.raises(DomainError, match=r"dt must be a real number in \(0, inf\)"):
        StepperConfig.fixed(dt)


_POSITIVE = st.floats(1e-6, 1e3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fixed=st.booleans(), value=_POSITIVE, room=_POSITIVE,
       bound=st.one_of(st.just(np.inf), _POSITIVE),
       accuracy=st.one_of(st.just(np.inf), _POSITIVE))
def test_step_rule(fixed, value, room, bound, accuracy):
    # a bound is the largest stable step, or infinite for a zero speed
    cfg = StepperConfig.fixed(value) if fixed else StepperConfig.courant()
    want = min(value, room) if fixed else min(bound, accuracy, room)
    if want > bound:
        assert fixed
        with pytest.raises(StabilityError):
            cfg.step(bound, room, accuracy)
        return
    dt = cfg.step(bound, room, accuracy)
    assert dt <= room
    if fixed:
        assert dt == min(value, room)
    else:
        assert dt == want and dt <= bound and dt <= accuracy


def test_pure_diffusion_is_exact(grid128):
    # with U = 0 the integrating factor reproduces the heat kernel exactly
    t = 0.5
    f = heat_kernel_field(grid128, t)
    zero = np.zeros((2, 128, 128))
    dt = 0.01
    out = prescribed_step(f, lambda s: zero, t, dt)
    want = heat_kernel_field(grid128, t + dt)
    assert np.max(np.abs(out.values - want.values)) < 1e-10


def test_oseen_background_step_stays_on_solution(grid256):
    # advecting the vortex profile by its own velocity tracks the exact flow
    vtx = OseenVortex(1.0)
    t, dt = 1.0, 1e-3
    w, _ = oseen_fields(vtx, t, grid256)
    out = prescribed_step(
        w, lambda s: background_fields((vtx,), s, grid256)[:2], t, dt)
    want, _ = oseen_fields(vtx, t + dt, grid256)
    assert np.max(np.abs(out.values - want.values)) < 1e-8


def test_step_zero_field(grid128):
    zero = np.zeros((2, 128, 128))
    out = prescribed_step(grid128.zeros(), lambda s: zero, 1.0, 0.01)
    assert np.all(out.values == 0.0)


def test_stability_error(grid128, gauss128):
    ones = np.stack((np.ones((128, 128)), np.zeros((128, 128))))
    big_dt = grid128.h       # exceeds h / (2 max|U|) = h/2
    with pytest.raises(StabilityError):
        prescribed_step(gauss128, lambda s: ones, 1.0, big_dt)


def test_propagate_no_vortices_is_heat(grid128):
    f = heat_kernel_field(grid128, 0.5)
    out = propagate_SN([], f, 0.5, 0.7, StepperConfig.courant())
    want = heat_kernel_field(grid128, 0.7)
    assert np.max(np.abs(out.values - want.values)) < 1e-10


@pytest.mark.parametrize("s, t", [("0.5", 0.7), (0.5, "0.7"), (None, 0.7), (0.5, [0.7])])
def test_propagate_sn_requires_numeric_times(s, t):
    f = heat_kernel_field(Grid(32, 20.0), 0.5)
    with pytest.raises(DomainError, match=r"s must be a real number in \(0, inf\)"
                                          r"|t must be a real number in \(0\.5, inf\)"):
        propagate_SN([], f, s, t, StepperConfig.courant())


def test_propagate_sn_takes_ints_and_numpy_numbers():
    f = heat_kernel_field(Grid(32, 20.0), 1.0)
    want = propagate_SN([OseenVortex(1.0)], f, 1.0, 2.0, StepperConfig.courant())
    for s, t in ((1, 2), (np.float64(1.0), np.float64(2.0))):
        got = propagate_SN([OseenVortex(1.0)], f, s, t, StepperConfig.courant())
        assert np.array_equal(got.values, want.values)


def test_propagate_mass_and_positivity(grid256):
    grid = grid256
    f = heat_smooth(FiniteMeasure.from_atoms(((1.0, 0.0), 1.0)),
                    (2 * grid.h) ** 2, grid)
    out = propagate_SN([OseenVortex(1.0)], f, 1.0, 1.2, StepperConfig.courant())
    assert abs(out.integral() - f.integral()) < 1e-10 * lp_norm(f, 1)
    assert out.values.min() > -1e-10 * lp_norm(f, np.inf)


def test_propagate_linearity(grid128):
    f = heat_kernel_field(grid128, 0.3)
    g = heat_kernel_field(grid128, 0.8)
    cfg = StepperConfig.fixed(2e-3)
    vortices = [OseenVortex(1.0)]
    lhs = propagate_SN(vortices, 2.0 * f - 0.5 * g, 1.0, 1.05, cfg)
    a = propagate_SN(vortices, f, 1.0, 1.05, cfg)
    b = propagate_SN(vortices, g, 1.0, 1.05, cfg)
    rhs = 2.0 * a - 0.5 * b
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_propagate_samples_each_stage_time_once(grid128, monkeypatch):
    # the first step samples s; each step then samples only t + dt/2 and
    # t + dt, since its first stage time is the previous step's last
    times = []
    real = solver.oseen_velocity
    monkeypatch.setattr(solver, "oseen_velocity",
                        lambda v, t, *xy: times.append(t) or real(v, t, *xy))
    background_fields.cache_clear()
    propagate_SN([OseenVortex(1.0)], heat_kernel_field(grid128, 0.5), 1.0, 1.02,
                 StepperConfig.fixed(5e-3))
    assert len(times) == 1 + 2 * 4
    assert len(set(times)) == len(times)


def test_propagate_sums_backgrounds_once_per_time(grid128):
    # SN's stages read the summed background velocity from the cache, so
    # the stages that share a time share one sum: 4 steps read it 16 times
    # and build it at 9 times, whatever the vortex count
    cache = background_fields
    cache.cache_clear()
    propagate_SN([OseenVortex(1.0), OseenVortex(-0.5, (3.0, 1.0))],
                 heat_kernel_field(grid128, 0.5), 1.0, 1.02,
                 StepperConfig.fixed(5e-3))
    info = cache.cache_info()
    assert info.misses == 9
    assert info.hits + info.misses == 4 * 4


@settings(derandomize=True, max_examples=150, deadline=None)
@given(vortices=st.lists(
           st.builds(OseenVortex, st.floats(-10.0, 10.0),
                     st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))),
           min_size=1, max_size=3, unique_by=lambda v: v.z),
       t=st.floats(0.05, 2.0))
def test_background_speed_below_analytic_bound(grid128, vortices, t):
    # |sum_i u_i| <= sum_i max |u_i| pointwise, which is why SN's step rule
    # reads only the analytic bound: the sampled speed never binds
    speed = np.max(np.hypot(*background_fields(tuple(vortices), t, grid128)[:2]))
    bound = sum(oseen_max_speed(v, t) for v in vortices)
    assert speed <= bound * (1 + 1e-12)


def _centers(grid):
    """Vortex center coordinates: grid nodes (s = 0 on the grid), points
    within 3 cells of the grid's edge (the box clipped by it) and any point."""
    x, h = grid.coords(), grid.h
    return st.one_of(st.sampled_from(x[grid.n // 4:3 * grid.n // 4]),
                     st.floats(x[0], x[0] + 3 * h), st.floats(x[-1] - 2 * h, x[-1] + h),
                     st.floats(-10.0, 10.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_background_fields_bit_identical_to_full_grid(data):
    # t = 1e-6 leaves the vorticity box empty for a center between nodes,
    # t = 10 makes it the whole grid, and small t puts most exp arguments
    # below the underflow threshold; bytes, so a signed zero would count
    grid = data.draw(st.sampled_from([Grid(64, 40.0), Grid(256, 40.0)]))
    center = _centers(grid)
    vortices = data.draw(st.lists(
        st.builds(OseenVortex, st.floats(-10.0, 10.0), st.tuples(center, center)),
        min_size=1, max_size=3, unique_by=lambda v: v.z))
    t = data.draw(st.one_of(st.sampled_from([1e-6, 10.0]),
                            st.floats(-6.0, 1.0).map(lambda e: 10.0**e)))
    got = background_fields(tuple(vortices), t, grid)
    assert got.tobytes() == background_fields_full(vortices, t, grid).tobytes()


def test_background_fields_without_vortices_is_one_cached_zero(grid128):
    zero = background_fields((), 0.1, grid128)
    assert background_fields((), 0.2, grid128) is zero
    assert not zero.flags.writeable
    assert zero.shape == (5, 128, 128) and not np.any(zero)


def test_propagate_requires_ordered_times(grid128, gauss128):
    with pytest.raises(DomainError):
        propagate_SN([], gauss128, 1.0, 0.5, StepperConfig.courant())


@pytest.mark.parametrize("cells", [0.5, 0.74])
def test_propagate_rejects_unresolved_core(cells, monkeypatch):
    # a vortex core sqrt(s) narrower than 3/4 of a cell fails at once,
    # naming h and sqrt(s); 0.74 h passed the former stencil check
    grid = Grid(64, 20.0)
    s = (cells * grid.h) ** 2
    monkeypatch.setattr(solver, "lawson_step", _no_step)
    with pytest.raises(DomainError, match=(
            rf"h=0.312 under-resolves the vortex core sqrt\(s\)={np.sqrt(s):.3g}")):
        propagate_SN([OseenVortex(1.0)], heat_kernel_field(grid, 0.5), s, 2 * s,
                     StepperConfig.courant())


@pytest.mark.parametrize("cells", [0.75, 0.8])
def test_propagate_accepts_resolved_core(cells):
    # a tight counter-rotating pair is exactly divergence-free; the former
    # stencil check read it as compressible up to sqrt(s) = 0.86 h
    grid = Grid(64, 20.0)
    s = (cells * grid.h) ** 2
    dipole = [OseenVortex(1.0), OseenVortex(-1.0, (0.3 * grid.h, 0.0))]
    f = heat_kernel_field(grid, 0.5)
    out = propagate_SN(dipole, f, s, 1.05 * s, StepperConfig.courant())
    assert abs(out.integral() - f.integral()) < 1e-12


def test_propagate_without_vortices_has_no_core_rule():
    # pure heat flow resolves any s
    grid = Grid(64, 20.0)
    f = heat_kernel_field(grid, 0.5)
    out = propagate_SN([], f, 1e-6, 2e-6, StepperConfig.courant())
    assert np.all(np.isfinite(out.values))


def test_step_halving_fourth_order(grid128):
    # the explicitly-stepped drift term makes the temporal error visible;
    # halving dt must shrink it at the 4th-order rate (>= 8x demanded)
    f = band_limited_field(grid128, seed=11)
    results = [evolve_S1(1.0, f, 0.5, StepperConfig.fixed(dt),
                         sample_every=0.5).final
               for dt in (1e-2, 5e-3, 2.5e-4)]
    e_coarse = lp_norm(results[0] - results[2], 2)
    e_fine = lp_norm(results[1] - results[2], 2)
    assert e_coarse / e_fine >= 8.0


def test_evolve_s1_fixed_point(grid128, gauss128):
    traj = evolve_S1(2.0, gauss128, 0.5, StepperConfig.fixed(5e-3),
                     sample_every=0.25)
    for w in traj.fields:
        assert lp_norm(w - gauss128, 2) < 1e-6 * lp_norm(gauss128, 2)


def test_evolve_s1_matches_semigroup(grid128):
    f = band_limited_field(grid128, seed=42)
    traj = evolve_S1(0.0, f, 1.0, StepperConfig.fixed(1e-3), sample_every=1.0)
    want = semigroup_apply(1.0, f)
    assert lp_norm(traj.final - want, 2) < 1e-5 * lp_norm(want, 2)


def test_evolve_s1_eigenmode(dx_gauss128):
    traj = evolve_S1(0.0, dx_gauss128, 1.0, StepperConfig.fixed(5e-3),
                     sample_every=0.5)
    want = float(np.exp(-0.5)) * dx_gauss128
    assert lp_norm(traj.final - want, 2) < 1e-8 * lp_norm(want, 2)


def test_evolve_t_alpha_steady_gaussian(gauss128):
    traj = evolve_T_alpha(3.0, gauss128, 0.5, StepperConfig.fixed(5e-3),
                          sample_every=0.25)
    assert lp_norm(traj.final - gauss128, 2) < 1e-8 * lp_norm(gauss128, 2)


def test_evolve_t_alpha_translation_eigenmode(dx_gauss128):
    traj = evolve_T_alpha(1.0, dx_gauss128, 1.0, StepperConfig.fixed(5e-3),
                          sample_every=0.5)
    want = float(np.exp(-0.5)) * dx_gauss128
    assert lp_norm(traj.final - want, 2) < 1e-8 * lp_norm(want, 2)


def test_evolve_t_alpha_zero_coupling_matches_s1(grid128):
    f = band_limited_field(grid128, seed=7)
    a = evolve_T_alpha(0.0, f, 0.4, StepperConfig.fixed(5e-3), sample_every=0.4)
    b = evolve_S1(0.0, f, 0.4, StepperConfig.fixed(5e-3), sample_every=0.4)
    assert lp_norm(a.final - b.final, 2) == 0.0


def test_mass_conservation_along_selfsim_flows(grid128, gauss128):
    start = 0.8 * gauss128
    traj = evolve_T_alpha(2.0, start, 1.0, StepperConfig.fixed(5e-3),
                          sample_every=0.5)
    for w in traj.fields:
        assert abs(w.integral() - start.integral()) < 1e-13


def test_selfsim_stability_bound(grid128, gauss128):
    with pytest.raises(StabilityError):
        evolve_S1(0.0, gauss128, 0.1, StepperConfig.fixed(1.0))


@pytest.mark.parametrize("tau_end", [np.nan, np.inf, 0.0, -1.0, "0.1", None, [0.1]])
@pytest.mark.parametrize("flow", [evolve_S1, evolve_T_alpha,
                                  evolve_rescaled_perturbation])
def test_rescaled_flows_reject_bad_tau_end(flow, tau_end):
    # checked before any step: no bare ValueError/OverflowError from the
    # stop list, and no trajectory of zero length
    grid = Grid(32, 40.0)
    w0 = 0.1 * heat_kernel_field(grid, 1.0)
    with pytest.raises(DomainError, match="tau_end"):
        flow(1.0, w0, tau_end, StepperConfig.fixed(5e-3))


def test_rescaled_flows_reject_samples_closer_than_a_step(monkeypatch):
    # unchecked, the stop list held int(0.1 / 1e-9) = 10^8 stops, built
    # before the first step (6.4 GB)
    monkeypatch.setattr(propagators, "lawson_step", _no_step)
    with pytest.raises(DomainError, match="sample_every"):
        evolve_S1(1.0, Grid(32, 20.0).zeros(), 0.1, StepperConfig.fixed(1e-2),
                  sample_every=1e-9)
    # the CFL rule's largest step is the bound itself: 4h/L = 0.125 here
    with pytest.raises(DomainError, match="sample_every"):
        evolve_S1(0.0, Grid(32, 20.0).zeros(), 0.5, StepperConfig.courant(),
                  sample_every=0.1)


@pytest.mark.parametrize("tau_end", [1e308, 1e6])
@pytest.mark.parametrize("flow", [evolve_S1, evolve_T_alpha,
                                  evolve_rescaled_perturbation])
def test_rescaled_flows_reject_more_samples_than_memory_holds(flow, tau_end, monkeypatch):
    # 1e308 overflowed the stop count (OverflowError); 1e6 built 2e7 stops
    # (1.27 GB in 15 s) before the first step.  A frame of 32^2 takes 8 KB,
    # so 2 GiB hold 262144 samples.
    monkeypatch.setattr(propagators, "lawson_step", _no_step)
    with pytest.raises(DomainError, match=r"tau_end/sample_every must be a real number "
                                          r"in \[0, 262144\.0\]"):
        flow(1.0, Grid(32, 20.0).zeros(), tau_end, StepperConfig.fixed(1e-2))


def test_rescaled_flows_take_the_most_samples_memory_holds(monkeypatch):
    # 262144 samples of 32^2 are 2 GiB: admitted, and the first step is taken
    monkeypatch.setattr(propagators, "lawson_step", _no_step)
    with pytest.raises(AssertionError, match="a step was taken"):
        evolve_S1(1.0, Grid(32, 20.0).zeros(), 262144 * 0.5, StepperConfig.fixed(1e-2),
                  sample_every=0.5)


def _no_step(*args, **kwargs):
    raise AssertionError("a step was taken before the inputs were checked")


@pytest.mark.parametrize("alpha", [np.nan, np.inf, "1.0", None, [1.0]])
@pytest.mark.parametrize("flow", [evolve_S1, evolve_T_alpha,
                                  evolve_rescaled_perturbation])
def test_rescaled_flows_reject_nonfinite_alpha(flow, alpha, monkeypatch):
    grid = Grid(32, 40.0)
    w0 = 0.1 * heat_kernel_field(grid, 1.0)
    monkeypatch.setattr(propagators, "lawson_step", _no_step)
    with pytest.raises(DomainError, match="alpha"):
        flow(alpha, w0, 0.1, StepperConfig.fixed(5e-3))


@pytest.mark.parametrize("sample_every", [0.0, -1.0, np.nan, "0.05", None, [0.05]])
@pytest.mark.parametrize("flow", [evolve_S1, evolve_T_alpha,
                                  evolve_rescaled_perturbation])
def test_rescaled_flows_reject_bad_sample_spacing(flow, sample_every, monkeypatch):
    grid = Grid(32, 40.0)
    w0 = 0.1 * heat_kernel_field(grid, 1.0)
    monkeypatch.setattr(propagators, "lawson_step", _no_step)
    with pytest.raises(DomainError, match="sample_every"):
        flow(1.0, w0, 0.1, StepperConfig.fixed(5e-3), sample_every=sample_every)


@pytest.mark.parametrize("flow", [evolve_S1, evolve_T_alpha,
                                  evolve_rescaled_perturbation])
def test_rescaled_flows_take_ints_and_numpy_numbers(flow):
    # bit for bit the run of the same floats
    grid = Grid(64, 40.0)
    w0 = 0.1 * heat_kernel_field(grid, 1.0)
    cfg = StepperConfig.fixed(0.05)
    want = flow(1.0, w0, 1.0, cfg, sample_every=1.0)
    for number in (int, np.float64):
        got = flow(number(1), w0, number(1), cfg, sample_every=number(1))
        assert got.times == want.times
        assert np.array_equal(got.final.values, want.final.values)


def test_evolve_s1_samples_at_stop_times(gauss128):
    traj = evolve_S1(1.0, gauss128, 0.35, StepperConfig.fixed(2e-2),
                     sample_every=0.1)
    assert traj.times == [0.0, 0.1, 0.2, 0.1 * 3, 0.35]


def test_march_zero_step_raises(gauss128):
    # a step rule that returns dt = 0 (an infinite speed) must not spin
    with pytest.raises(StabilityError, match="step 1 at t=1 "):
        march(gauss128, 1.0, [2.0], lambda w, t, stop: (w, t + 0.0))


@pytest.mark.parametrize("start, stops", [
    (np.nan, [1.0]), (np.inf, [1.0]), (-np.inf, [1.0]),   # no finite start
    (2.0, [1.0, 1.5]),                                    # stops behind the start
    (1.0, [1.5, 1.2]),                                    # stops out of order
    ("1", [2.0]), (1.0, ["2"])])                          # times that are strings
def test_march_rejects_a_bad_clock(gauss128, start, stops):
    # unchecked, a NaN start came back as NaN with every stop at NaN, a
    # start past the stops came back with every stop at the start, and a
    # string time raised a TypeError inside the loop
    with pytest.raises(DomainError, match="in order from a finite start"):
        march(gauss128, start, stops, _no_step)


@pytest.mark.parametrize("room, accuracy", [
    (0.0, np.inf), (-0.5, np.inf), (np.nan, np.inf),   # stop at or behind t, NaN t
    (1.0, 0.0), (1.0, -0.02)])                         # t/50 at t = 0 and t = -1
@pytest.mark.parametrize("cfg", [StepperConfig.courant(), StepperConfig.fixed(1e-2)],
                         ids=["courant", "fixed"])
def test_step_rule_rejects_no_room(cfg, room, accuracy):
    # the one step rule sees every flow's room t_stop - t and accuracy
    # limit: a stop behind the time, a NaN clock or a time t <= 0 under
    # the limit t/50 leaves no step
    with pytest.raises(DomainError, match="ahead of the current time"):
        cfg.step(1.0, room, accuracy)


@pytest.mark.parametrize("stop", [np.inf, np.nan])
def test_march_rejects_nonfinite_stop(gauss128, stop):
    # the loop's test t < stop - STOP_RTOL * |stop| is false for both, so
    # unchecked, the start would come back as if the stop were reached
    with pytest.raises(DomainError, match=f"stop times must be finite.*{stop}"):
        march(gauss128, 1.0, [2.0, stop], _no_step)


def test_propagate_rejects_infinite_end_time():
    grid = Grid(64, 20.0)
    with pytest.raises(DomainError, match="inf"):
        propagate_SN([OseenVortex(1.0)], heat_kernel_field(grid, 0.5), 0.5, np.inf,
                     StepperConfig.courant())


def test_march_nonfinite_state_raises(gauss128):
    def advance(w, t, stop):
        return ScalarField(w.grid, np.full_like(w.values, np.nan)), stop
    with pytest.raises(StabilityError, match=r"not finite at t=1.5 \(step 1\)"):
        march(gauss128, 1.0, [1.5, 2.0], advance)


def _reference_lawson_step(w, t, stage, dt, dealias=True, drift=False,
                           half=False):
    """One Lawson RK4 step, every expression out of place, with the state on
    the full complex spectrum, or with ``half`` on the half spectrum of the
    real transforms lawson_step uses: the flux's components stacked with
    np.stack, -(i kx F1^ + i ky F2^) formed anew and then masked."""
    grid = w.grid
    nh = grid.n // 2 + 1 if half else grid.n
    kd = _deriv_wavenumbers(grid)
    kx, ky = kd[:, None], kd[None, :nh]
    mask = _dealias_mask(grid)[:, :nh] if dealias else None
    xx, yy = grid.meshes()
    fft2 = _rfft2 if half else np.fft.fft2

    def ifft2(spectrum):
        return _irfft2(spectrum, grid.n) if half else np.fft.ifft2(spectrum).real

    def div_hat(f1, f2):
        fh = fft2(np.stack((f1, f2)))
        return 1j * kx * fh[0] + 1j * ky * fh[1]

    def tendency(values, flux):
        out = -div_hat(flux[0], flux[1])
        if mask is not None:
            out = out * mask
        if drift:
            out = out + div_hat(0.5 * xx * values, 0.5 * yy * values)
        return out

    def nonlinear(w_hat, stage_t):
        values = ifft2(w_hat)
        return tendency(values, stage(values, stage_t)[0])

    eh = np.exp(-0.5 * dt * _ksq(grid)[:, :nh])
    ef = eh * eh
    w_hat = fft2(w.values)
    n1 = tendency(w.values, stage(w.values, t)[0])
    n2 = nonlinear(eh * (w_hat + 0.5 * dt * n1), t + 0.5 * dt)
    n3 = nonlinear(eh * w_hat + 0.5 * dt * n2, t + 0.5 * dt)
    n4 = nonlinear(ef * w_hat + dt * eh * n3, t + dt)
    out = ef * w_hat + (dt / 6.0) * (ef * n1 + 2.0 * eh * (n2 + n3) + n4)
    return ifft2(out)


def _stage_flows(grid):
    """One step of every flow that lawson_step advances, by name."""
    xx, yy = grid.meshes()
    pert = ScalarField(grid, 0.2 * gaussian_profile(xx - 1.5, yy - 0.5))
    pair = (OseenVortex(1.0), OseenVortex(-0.5, (3.0, 1.0)))
    cfg = StepperConfig.fixed(5e-3)
    return {
        "decomposed": lambda: solver.step_decomposed(pair, cfg, pert, 0.1),
        "decomposed-zero-remainder": lambda: solver.step_decomposed(
            pair, cfg, grid.zeros(), 0.1),
        "SN": lambda: propagate_SN(pair, pert, 1.0, 1.005, cfg),
        "S1": lambda: evolve_S1(10.0, pert, 5e-3, cfg, sample_every=5e-3),
        "T_alpha": lambda: evolve_T_alpha(10.0, pert, 5e-3, cfg, sample_every=5e-3),
        "rescaled-perturbation": lambda: evolve_rescaled_perturbation(
            1.0, pert, 5e-3, cfg, sample_every=5e-3),
    }


def _first_lawson_call(grid, flow, monkeypatch):
    """The arguments of the first lawson_step call of a flow's step."""
    calls = []

    def first_step(*args, **kwargs):
        calls.append((args, kwargs))
        return lawson_step(*args, **kwargs)

    for module in (propagators, solver):
        monkeypatch.setattr(module, "lawson_step", first_step)
    _stage_flows(grid)[flow]()
    return calls[0]


@pytest.mark.parametrize("flow", list(_stage_flows(Grid(16, 40.0))))
def test_stage_flux_is_one_array_and_step_is_bit_identical(grid128, flow,
                                                          monkeypatch):
    # every stage hands lawson_step its flux as one float (2, n, n) array,
    # and lawson_step's in-place arithmetic on it leaves every bit of the
    # out-of-place half-spectrum step as it is
    (w, t, t_stop, stage, pick_dt), kwargs = _first_lawson_call(grid128, flow,
                                                                monkeypatch)
    flux, velocity = stage(w.values, t)
    assert type(flux) is np.ndarray and flux.dtype == np.float64
    assert flux.shape == (2, grid128.n, grid128.n)
    got, _ = lawson_step(w, t, t_stop, stage, pick_dt, **kwargs)
    speed = 0.0 if velocity is None else max_speed(velocity)
    want = _reference_lawson_step(w, t, stage, pick_dt(speed, t_stop - t),
                                  half=True, **kwargs)
    assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("flow", list(_stage_flows(Grid(16, 40.0))))
def test_stage_is_a_function_of_state_and_time(grid128, flow, monkeypatch):
    # a stage returns the same flux and velocity for the same (values, t);
    # only the velocity that advects the state comes back: none from SN
    # (analytic bound), S1 (alpha v is fixed) and T_alpha (v_w advects G)
    (w, t, _, stage, _), _ = _first_lawson_call(grid128, flow, monkeypatch)
    (f1, v1), (f2, v2) = stage(w.values, t), stage(w.values, t)
    assert f1.tobytes() == f2.tobytes()
    if flow in ("SN", "S1", "T_alpha", "decomposed-zero-remainder"):
        assert v1 is None and v2 is None
    else:
        assert v1.shape == (2, grid128.n, grid128.n)
        assert v1.tobytes() == v2.tobytes()


def test_decomposed_step_matches_full_spectrum_reference(grid128):
    # two backgrounds and a remainder with circulation (free-space solves)
    backgrounds = (OseenVortex(1.0, (0.0, 0.0)), OseenVortex(0.5, (4.0, 0.0)))
    xx, yy = grid128.meshes()
    pert = ScalarField(grid128, 0.2 * gaussian_profile(xx - 1.5, yy - 0.5))
    got = solver.step_decomposed(backgrounds, StepperConfig.fixed(1e-3), pert,
                                 0.1)[0].values
    stage = solver._decomposed_stage(backgrounds, grid128)
    want = _reference_lawson_step(pert, 0.1, stage, 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_drift_step_matches_full_spectrum_reference(grid128):
    a, _ = vortex_advection(grid128, 10.0)
    f = band_limited_field(grid128, seed=3)
    xx, yy = grid128.meshes()
    f = ScalarField(grid128, f.values * np.exp(-(xx**2 + yy**2) / 8.0))

    def stage(w, tau):
        return a * w, None

    got, tau = lawson_step(f, 0.0, np.inf, stage, lambda speed, room: 5e-3,
                           drift=True)
    want = _reference_lawson_step(f, 0.0, stage, 5e-3, drift=True)
    assert tau == 5e-3
    assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))


def test_fit_decay_exact_exponential(grid128, dx_gauss128):
    traj = Trajectory(time_label="tau")
    for tau in np.linspace(0.0, 3.0, 13):
        traj.record(float(tau), float(np.exp(-0.5 * tau)) * dx_gauss128)
    fit = fit_decay(traj, 2, (0.0, 3.0))
    assert abs(fit.rate + 0.5) < 1e-8
    assert fit.residual < 1e-8
    assert isinstance(fit, DecayFit)


def test_fit_decay_constant(grid128, gauss128):
    traj = Trajectory(time_label="tau")
    for tau in np.linspace(0.0, 2.0, 9):
        traj.record(float(tau), gauss128)
    assert abs(fit_decay(traj, 2, (0.0, 2.0)).rate) < 1e-12


def test_fit_decay_degenerate(grid128, gauss128):
    traj = Trajectory(time_label="tau")
    for tau in (0.0, 1.0):
        traj.record(tau, gauss128)
    with pytest.raises(DegenerateError):
        fit_decay(traj, 2, (0.0, 1.0))
    noise = Trajectory(time_label="tau")
    for tau in np.linspace(0.0, 1.0, 6):
        noise.record(float(tau), 1e-16 * gauss128)
    with pytest.raises(DegenerateError):
        fit_decay(noise, 2, (0.0, 1.0))


def test_trajectory_dump(grid128, gauss128):
    traj = Trajectory(time_label="tau")
    traj.record(0.0, gauss128)
    traj.record(0.5, 0.5 * gauss128)
    artifacts = experiments._trajectory_artifacts(traj, "run")
    files = sorted(artifacts)
    assert files == ["run/series.csv", "run/w_tau_0000.fld", "run/w_tau_0001.fld"]
    lines = artifacts["run/series.csv"].splitlines()
    assert lines[0] == "index,time,l1,l2,linf,l2m15,l2m30,circulation"
    assert len(lines) == 3
