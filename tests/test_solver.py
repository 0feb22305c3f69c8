import copy
import json
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseen2d import experiments, propagators, solver
from oseen2d.errors import DomainError, MarginError, StabilityError
from oseen2d.field import Grid, ScalarField, lp_norm, project_mean_zero
from oseen2d.measure import FiniteMeasure, total_variation
from oseen2d.oseen import OseenVortex, gaussian_profile, oseen_fields, oseen_max_speed
from oseen2d.propagators import (StepperConfig, cfl_bound, evolve_rescaled_perturbation,
                                 lawson_step, march)
from oseen2d.rng import band_limited_field
from oseen2d.solver import (background_fields, initialize_from_measure,
                            propagate_SN, restrict, snapshot_schedule,
                            solve_cauchy, step_decomposed, total_vorticity)

from oracles import decomposed_flux


def blob(grid, mass, center, width):
    xx, yy = grid.meshes()
    return ScalarField(grid, mass / (2 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2 * width**2)))


def counted(calls, real):
    """real, appending its name to calls at every call."""
    def wrapper(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)
    return wrapper


def test_initialize_single_atom(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    backgrounds, w, dec = initialize_from_measure(mu, 0.1, 1e-2, grid128)
    assert backgrounds == (OseenVortex(1.0, (0.0, 0.0)),)
    assert np.all(w.values == 0.0)
    assert dec.d == np.inf


def test_initialize_density_only(grid128):
    density = blob(grid128, 1.0, (0.0, 0.0), 1.0)
    mu = FiniteMeasure(density=density)
    backgrounds, w, _ = initialize_from_measure(mu, 0.1, 1e-2, grid128)
    assert backgrounds == ()
    # remainder is the heat-smoothed density
    assert abs(w.integral() - 1.0) < 1e-9
    assert lp_norm(w, np.inf) < lp_norm(density, np.inf)


def test_initialize_two_atoms(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    backgrounds, w, dec = initialize_from_measure(mu, 0.1, 1e-2, grid128)
    assert len(backgrounds) == 2
    assert dec.d == 4.0
    assert np.all(w.values == 0.0)


def test_initialize_warns_on_large_t0(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0))
    with pytest.warns(UserWarning):
        initialize_from_measure(mu, 0.1, 0.5, grid128)


def test_initialize_margin_and_domain(grid128):
    mu = FiniteMeasure.from_atoms(((19.9, 0.0), 1.0))
    with pytest.raises(MarginError):
        initialize_from_measure(mu, 0.1, 1e-2, grid128)
    with pytest.raises(DomainError):
        initialize_from_measure(mu, 0.1, 0.0, grid128)


def test_single_background_remainder_stays_zero(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    backgrounds, w, _ = initialize_from_measure(mu, 0.1, 1e-2, grid128)
    t = 1e-2
    for _ in range(5):
        w, t = step_decomposed(backgrounds, StepperConfig.fixed(2e-4), w, t)
    assert np.all(w.values == 0.0)


BACKGROUNDS = (OseenVortex(1.0, (0.0, 0.0)), OseenVortex(-0.6, (4.0, 1.0)),
               OseenVortex(0.3, (-3.0, -2.5)))


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("with_blob", [False, True])
def test_decomposed_stage_matches_per_vortex_flux(grid128, count, with_blob):
    # the stage's (u~ + U)(w~ + W) - S equals the per-vortex sum
    # u w~ + sum_i (u - u_i) w_i up to round-off
    backgrounds, t = BACKGROUNDS[:count], 0.1
    w = blob(grid128, 0.2, (1.5, 0.5), 1.0) if with_blob else grid128.zeros()
    ut1 = ut2 = np.zeros((grid128.n, grid128.n))
    if with_blob:
        ut1, ut2 = solver._remainder_velocity(w)
    got, _ = solver._decomposed_stage(backgrounds, grid128)(w.values, t)
    want = decomposed_flux(backgrounds, t, w, ut1, ut2)
    scale = max(np.max(np.abs(c)) for c in want)
    for g, c in zip(got, want):
        assert np.max(np.abs(g - c)) <= 1e-13 * scale
    # and it is, byte for byte, the identity formed out of place
    U1, U2, W, S1, S2 = background_fields(backgrounds, t, grid128)
    total = w.values + W
    u1, u2 = (ut1 + U1, ut2 + U2) if with_blob else (U1, U2)
    assert got.tobytes() == np.stack((u1 * total - S1, u2 * total - S2)).tobytes()


def test_decomposed_stage_single_vortex_flux_is_zero(grid128):
    # U W - S cancels to the last bit, which keeps a pure vortex exact
    stage = solver._decomposed_stage(BACKGROUNDS[:1], grid128)
    (f1, f2), velocity = stage(np.zeros((grid128.n, grid128.n)), 0.1)
    assert np.all(f1 == 0.0) and np.all(f2 == 0.0) and velocity is None


def test_two_background_remainder_growth_is_first_order(grid256):
    # one step sources the remainder through cross-advection only:
    # |w~(t0+dt)|_1 <= C dt, measured at two dt values
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    backgrounds, w0, _ = initialize_from_measure(mu, 0.1, 0.05, grid256)
    growth = {}
    for dt in (1e-3, 5e-4):
        w, _ = step_decomposed(backgrounds, StepperConfig.fixed(dt), w0, 0.05)
        growth[dt] = lp_norm(w, 1)
        assert growth[dt] > 0.0
    ratio = growth[1e-3] / growth[5e-4]
    assert 1.8 < ratio < 2.2


def test_step_decomposed_stability(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 10.0))
    backgrounds, w, _ = initialize_from_measure(mu, 0.1, 1e-2, grid128)
    with pytest.raises(StabilityError):
        step_decomposed(backgrounds, StepperConfig.fixed(1.0), w, 1e-2)


def test_step_decomposed_solves_velocity_four_times(grid128, monkeypatch):
    # stage 1 serves the dt rule and the CFL check, so one step takes
    # exactly one velocity solve per Lawson stage
    calls = []
    for name in ("velocity_periodic", "velocity_free_space"):
        monkeypatch.setattr(solver, name, counted(calls, getattr(solver, name)))
    pert = blob(grid128, 0.2, (1.5, 0.5), 1.0)
    for cfg in (StepperConfig.courant(), StepperConfig.fixed(1e-3)):
        calls.clear()
        step_decomposed((OseenVortex(1.0),), cfg, pert, 0.1)
        assert len(calls) == 4


def test_one_speed_per_step(grid128, monkeypatch):
    # lawson_step asks for the speed only at stage 1, where it sizes the
    # step: one max_speed call per step of the solver and of the rescaled
    # perturbation flow, not one per stage
    speeds, steps = [], []
    monkeypatch.setattr(propagators, "max_speed",
                        counted(speeds, propagators.max_speed))
    for module in (solver, propagators):
        monkeypatch.setattr(module, "lawson_step",
                            counted(steps, propagators.lawson_step))
    pert = blob(grid128, 0.2, (1.5, 0.5), 1.0)
    w, t = pert, 0.1
    for _ in range(3):
        w, t = step_decomposed((OseenVortex(1.0),), StepperConfig.courant(), w, t)
    evolve_rescaled_perturbation(1.0, pert, 0.02, StepperConfig.fixed(5e-3))
    assert len(steps) == 3 + 4
    assert len(speeds) == len(steps)


def test_step_decomposed_reuses_background_fields(grid128, monkeypatch):
    # a step evaluates the backgrounds at t, t + dt/2 and t + dt, and the
    # next step starts at t + dt: with 2 backgrounds, 2 fields each, that
    # is 8 evaluations per step after the first (12 without reuse)
    calls = []
    for name in ("oseen_velocity", "oseen_vorticity"):
        monkeypatch.setattr(solver, name, counted(calls, getattr(solver, name)))
    background_fields.cache_clear()
    backgrounds = (OseenVortex(1.0, (0.0, 0.0)), OseenVortex(1.0, (4.0, 0.0)))
    w, t = blob(grid128, 0.2, (1.5, 0.5), 1.0), 0.1
    counts = []
    for _ in range(4):
        calls.clear()
        w, t = step_decomposed(backgrounds, StepperConfig.fixed(1e-3), w, t)
        counts.append(len(calls))
    assert counts == [12, 8, 8, 8]


class _Stepped(Exception):
    """Carries the time a first step ended at out of the flow that took it."""


@pytest.mark.parametrize("cfg", [StepperConfig.courant(), StepperConfig.fixed(1e-3)],
                         ids=["courant", "fixed"])
def test_sn_steps_like_a_zero_remainder(grid128, cfg, monkeypatch):
    # SN and step_decomposed share one step rule: from the same backgrounds,
    # config and time, SN's step and a zero remainder's end at the same
    # time, bit for bit, whether t/50, the CFL bound (alpha = 100 at t = 8),
    # the fixed dt or the stop sizes the step
    def first_step(*args, **kwargs):
        raise _Stepped(lawson_step(*args, **kwargs)[1])

    monkeypatch.setattr(solver, "lawson_step", first_step)
    f = blob(grid128, 0.2, (1.5, 0.5), 1.0)
    for alpha, t, t_stop in ((1.0, 0.1, 1.0), (1.0, 2.0, 3.0), (100.0, 8.0, 9.0),
                             (1.0, 0.1, 0.1 + 1e-5)):
        pair = (OseenVortex(alpha), OseenVortex(-0.5, (3.0, 1.0)))
        with pytest.raises(_Stepped) as sn:
            propagate_SN(pair, f, t, t_stop, cfg)
        with pytest.raises(_Stepped) as zero:
            step_decomposed(pair, cfg, grid128.zeros(), t, t_stop)
        assert sn.value.args[0] == zero.value.args[0] > t


def test_decomposed_dt_reads_the_sum_of_the_speeds():
    # the remainder is advected by U + u~, so the CFL step is that of
    # sum_i max|u_i| + max|u~|; the smaller of the two separate bounds was
    # twice this step when both speeds are equal
    grid, vortex = Grid(64, 20.0), OseenVortex(1000.0)
    speed = oseen_max_speed(vortex, 1.0)
    dt = solver.decomposed_dt((vortex,), StepperConfig.courant(), 1.0, grid, speed)
    assert dt == cfl_bound(grid.h, 2.0 * speed) < 1.0 / 50.0


def test_solve_cauchy_records_reuse_step_samples(grid128, monkeypatch):
    # the snapshot records read the samples the steps took: every background
    # field is sampled once per time, and only at the steps' stage times
    # (t0, then t + dt/2 and t + dt of each step)
    sampled, steps = [], []
    for name in ("oseen_velocity", "oseen_vorticity"):
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda v, t, *xy, name=name, real=real:
                            sampled.append((name, v, t)) or real(v, t, *xy))
    real_step = solver.step_decomposed
    monkeypatch.setattr(solver, "step_decomposed",
                        lambda *args: steps.append(args) or real_step(*args))
    background_fields.cache_clear()
    mu = FiniteMeasure.from_atoms(((-2.0, 0.0), 1.0), ((2.0, 0.0), 1.0))
    solve_cauchy(mu, 0.1, 0.05, 0.08, grid128)
    assert len(sampled) == len(set(sampled))
    assert len({t for _, _, t in sampled}) == 1 + 2 * len(steps)


def test_step_decomposed_lands_on_stop(grid128):
    pert = blob(grid128, 0.2, (1.5, 0.5), 1.0)
    _, t = step_decomposed((OseenVortex(1.0),), StepperConfig.fixed(1e-2), pert, 0.1,
                           t_stop=0.1005)
    assert abs(t - 0.1005) < 1e-15


def test_march_of_step_decomposed_reproduces_solve_cauchy(grid128):
    # the solver's state is (w, t) under fixed backgrounds: march with
    # partial(step_decomposed, backgrounds, cfg) takes solve_cauchy's steps
    # and lands on its frames bit for bit
    density = blob(grid128, 0.3, (2.0, 0.0), 1.0)
    mu = FiniteMeasure(atoms=(((-2.0, 0.0), 1.0),), density=density)
    cfg = StepperConfig.courant()
    run = solve_cauchy(mu, 0.2, 0.1, 0.3, grid128, cfg)
    backgrounds, w, _ = initialize_from_measure(mu, 0.2, 0.1, grid128)
    assert backgrounds == run.backgrounds
    frames = []
    march(w, 0.1, run.trajectory.times[1:], partial(step_decomposed, backgrounds, cfg),
          lambda t, w: frames.append((t, w)))
    assert [t for t, _ in frames] == run.trajectory.times
    for i, (t, w) in enumerate(frames):
        assert w.values.tobytes() == run.trajectory.fields[i].values.tobytes()
        total = total_vorticity(backgrounds, w, t)
        assert total.values.tobytes() == run.total_vorticity(i).values.tobytes()


def test_solve_cauchy_nan_density_raises():
    # a non-finite density fails where the measure is built; a non-finite
    # remainder state stops the run with the time and the step, instead of
    # finishing with total_l1 = nan and l1_bound_ratio = 0
    grid = Grid(64, 40.0)
    values = blob(grid, 0.5, (0.0, 0.0), 1.0).values.copy()
    values[10, 10] = np.nan
    with pytest.raises(DomainError, match="finite"):
        FiniteMeasure(density=ScalarField(grid, values))
    with pytest.raises(StabilityError, match="not finite at t=0.01"):
        march(ScalarField(grid, values), 1e-2, [2e-2],
              partial(step_decomposed, (), StepperConfig.courant()))


def test_infinite_fixed_step_is_a_domain_error():
    # it would take the state to t = inf with a NaN remainder
    with pytest.raises(DomainError, match="dt"):
        step_decomposed((), StepperConfig.fixed(np.inf), Grid(64, 20.0).zeros(), 0.1)


@pytest.mark.parametrize("backgrounds, mass, cfg", [
    ((OseenVortex(1.0),), 0.0, StepperConfig.courant()),
    ((OseenVortex(1.0),), 0.0, StepperConfig.fixed(1e-2)),
    ((), 1.0, StepperConfig.courant())], ids=["vortex-courant", "vortex-fixed", "blob"])
def test_step_decomposed_rejects_a_stop_behind_its_time(backgrounds, mass, cfg):
    # unchecked, it took the step dt = -0.5 to t = 0.5; the blob, the heat
    # kernel at time 1/2, sharpened toward a point (peak 0.16 -> 2.7)
    w = blob(Grid(32, 20.0), mass, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="ahead of the current time"):
        step_decomposed(backgrounds, cfg, w, 1.0, t_stop=0.5)


@pytest.mark.parametrize("t", [np.nan, 0.0, -1.0])
def test_step_decomposed_rejects_a_bad_start(t):
    # the CFL rule's accuracy limit t/50 needs t > 0; unchecked, a NaN time
    # came back as NaN, t = 0 took dt = 0 (a StabilityError in march)
    # and t = -1 took dt = -0.02, a step backward in time
    w = blob(Grid(32, 20.0), 1.0, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="no step fits"):
        step_decomposed((), StepperConfig.courant(), w, t, t_stop=1.0)


@pytest.mark.parametrize("start, stops", [(2.0, [1.0, 1.5]), (np.nan, [1.0])])
def test_decomposed_march_rejects_a_bad_clock(start, stops):
    # unchecked, it took no step and reported every stop at the start
    seen = []
    w = blob(Grid(32, 20.0), 1.0, (0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="must be a real number in"):
        march(w, start, stops, partial(step_decomposed, (), StepperConfig.courant()),
              lambda t, w: seen.append(t))
    assert seen == []


def test_infinite_end_time_is_a_domain_error():
    # unchecked, march would return its start unchanged, and
    # solve_cauchy's snapshot schedule would overflow
    grid = Grid(64, 20.0)
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    backgrounds, w, _ = initialize_from_measure(mu, 0.1, 0.1, grid)
    with pytest.raises(DomainError, match="inf"):
        march(w, 0.1, [np.inf], partial(step_decomposed, backgrounds,
                                        StepperConfig.courant()))
    with pytest.raises(DomainError,
                       match=r"t_end must be a real number in \(0\.1, inf\), got inf"):
        solve_cauchy(mu, 0.1, 0.1, np.inf, grid)


def test_direct_zero_field_stays_zero(grid128):
    w, _ = step_decomposed((), StepperConfig.fixed(1e-3), grid128.zeros(), 1.0)
    assert np.all(w.values == 0.0)


def test_direct_circulation_bit_conserved(grid128):
    xx, yy = grid128.meshes()
    f = ScalarField(grid128, gaussian_profile(xx, yy))
    w, t = f, 1.0
    for _ in range(50):
        w, t = step_decomposed((), StepperConfig.fixed(2e-3), w, t)
    # the advection leaves the zero mode untouched; only the per-step
    # transform round trip contributes (~1e-16 each)
    assert abs(w.integral() - f.integral()) < 5e-14


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), band=st.integers(1, 8),
       amplitude=st.floats(0.1, 10.0), t=st.floats(0.1, 10.0),
       mean_zero=st.booleans())
def test_one_step_circulation_property(seed, band, amplitude, t, mean_zero):
    # one Lawson step of the direct equation on a random band-limited field,
    # through either velocity route, moves the circulation no more than the
    # bound of test_direct_circulation_bit_conserved
    f = amplitude * band_limited_field(Grid(64, 20.0), seed=seed, band=band)
    if mean_zero:
        f = project_mean_zero(f)
    w, t_next = step_decomposed((), StepperConfig.courant(), f, t)
    assert t_next > t
    assert abs(w.integral() - f.integral()) < 5e-14


def test_direct_oseen_short(grid256):
    xx, yy = grid256.meshes()
    f = ScalarField(grid256, gaussian_profile(xx, yy))
    state, _ = march(f, 1.0, [1.05],
                     partial(step_decomposed, (), StepperConfig.fixed(1e-3)))
    want, _ = oseen_fields(OseenVortex(1.0), 1.05, grid256)
    assert lp_norm(state - want, 1) / lp_norm(want, 1) < 1e-8


def test_snapshot_schedule():
    times = snapshot_schedule(1e-2, 1.0)
    assert times[-1] == 1.0
    assert len(times) == 32
    ratios = np.diff(np.log(times))
    assert np.allclose(ratios, ratios[0])


def test_solve_cauchy_zero_measure(grid128):
    run = solve_cauchy(FiniteMeasure(), 0.1, 1e-2, 0.1, grid128)
    assert all(s["total_l1"] == 0.0 for s in run.series)


def test_solve_cauchy_single_atom_bounds(grid128):
    # t0 = 0.05: the earliest time the 128-grid resolves the background
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    run = solve_cauchy(mu, 0.1, 0.05, 0.5, grid128)
    tv = total_variation(mu)
    for s in run.series:
        assert s["total_l1"] <= tv * (1 + 1e-6)
        assert abs(s["circulation"] - 1.0) < 1e-12


def test_solve_cauchy_under_resolved_start_is_a_domain_error():
    # h = 0.625 against a core of sqrt(t0) = 0.22: the samples at t0 break
    # the L1 bound (ratio 1.026) before any step, so the input is at fault
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    with pytest.raises(DomainError, match=r"h=0\.625 .* sqrt\(t0\)=0\.224"):
        solve_cauchy(mu, 0.1, 0.05, 0.1, Grid(64, 40.0))


@pytest.mark.parametrize("t0, t_end", [("0.5", 1.0), (0.5, "1.0"), (None, 1.0),
                                       (0.5, [1.0])])
def test_solve_cauchy_requires_numeric_times(t0, t_end):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    with pytest.raises(
            DomainError, match=r"t0 must be a real number in \(0, inf\)"
                               r"|t_end must be a real number in \(0\.5, inf\)"):
        solve_cauchy(mu, 0.1, t0, t_end, Grid(32, 20.0))


def test_solve_cauchy_takes_ints_and_numpy_numbers():
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((3.0, 0.0), 0.01))
    want = solve_cauchy(mu, 0.1, 1.0, 2.0, Grid(32, 20.0))
    for t0, t_end in ((1, 2), (np.float64(1.0), np.float64(2.0))):
        got = solve_cauchy(mu, 0.1, t0, t_end, Grid(32, 20.0))
        assert got.trajectory.times == want.trajectory.times
        assert got.series == want.series
        assert all(np.array_equal(a.values, b.values) for a, b in
                   zip(got.trajectory.fields, want.trajectory.fields))


@pytest.mark.parametrize("duplicate", [lambda run: pickle.loads(pickle.dumps(run)),
                                       copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_solver_run_survives_pickle_and_copy(duplicate):
    # a run crosses a process boundary only pickled
    grid = Grid(32, 20.0)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 1.0),),
                       density=blob(grid, 0.1, (1.0, 0.0), 1.0))
    run = solve_cauchy(mu, 0.5, 1.0, 1.5, grid)
    got = duplicate(run)
    assert got.trajectory.times == run.trajectory.times and got.series == run.series
    assert got.backgrounds == run.backgrounds and got.measure.atoms == mu.atoms
    for a, b in zip(got.trajectory.fields + [got.measure.density],
                    run.trajectory.fields + [mu.density]):
        assert np.array_equal(a.values, b.values) and not a.values.flags.writeable


def test_solve_cauchy_rejects_a_time_ratio_that_overflows(monkeypatch):
    # t_end/t0 = 2e308 overflowed to inf, and the snapshot count
    # int(ceil(16 log10(inf))) raised an OverflowError
    monkeypatch.setattr(solver, "lawson_step", _no_step)
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    with pytest.raises(DomainError, match=r"t_end/t0 must be a real number in "
                                          r"\(1, inf\), got inf"):
        solve_cauchy(mu, 0.1, 0.5, 1e308, Grid(32, 20.0))
    # a finite ratio keeps a count logarithmic in it: 16 per decade
    assert len(snapshot_schedule(1e-150, 1e150)) == 4800


def _no_step(*args, **kwargs):
    raise AssertionError("a step was taken before the inputs were checked")


def test_solve_cauchy_later_l1_violation_is_not_a_domain_error():
    # the ratio is 1 + 6e-13 at t0 and 1 + 8e-5 at the next snapshot
    mu = FiniteMeasure.from_atoms(((-2.0, 0.0), 1.0), ((2.0, 0.0), 1.0))
    with pytest.raises(StabilityError, match="L1 bound violated at t="):
        solve_cauchy(mu, 0.1, 0.1, 0.3, Grid(64, 24.0), l1_check_tol=1e-5)


def test_solve_cauchy_rejects_mean_zero_remainder_at_boundary():
    # a dipole with zero circulation 1.5 from the box edge: its remainder
    # velocity is solved periodically, which checks no boundary, so the
    # snapshot guard is what stops the run
    grid = Grid(64, 24.0)
    xx, yy = grid.meshes()
    dipole = ScalarField(grid, -0.5 * yy * gaussian_profile(xx - 10.5, yy))
    with pytest.raises(MarginError, match="box boundary"):
        solve_cauchy(FiniteMeasure(density=dipole), 0.1, 0.05, 0.2, grid)


def test_solve_cauchy_sign_preservation(grid128):
    # positivity holds to 1e-8 only once the initial profiles are well
    # resolved (background std >= ~2h keeps sampling aliasing below 1e-8)
    density = blob(grid128, 0.3, (2.0, 0.0), 1.0)
    mu = FiniteMeasure(atoms=(((0.0, 0.0), 1.0),), density=density)
    run = solve_cauchy(mu, 0.2, 0.25, 0.7, grid128)
    for i in range(len(run.trajectory.times)):
        total = run.total_vorticity(i)
        assert total.values.min() > -1e-8 * total.values.max()


def test_mode_equivalence(grid256):
    # identical smooth data: backgrounds absorbed in the field (direct)
    # versus carried analytically (decomposed)
    t0, t_end, cfg = 1.0, 1.2, StepperConfig.fixed(2e-3)
    xx, yy = grid256.meshes()
    pert = blob(grid256, 0.2, (1.5, 0.5), 1.0)
    omega0 = ScalarField(grid256, gaussian_profile(xx, yy)) + pert
    direct, _ = march(omega0, t0, [t_end], partial(step_decomposed, (), cfg))
    backgrounds = (OseenVortex(1.0, (0.0, 0.0)),)
    w, t = march(pert, t0, [t_end], partial(step_decomposed, backgrounds, cfg))
    decomposed = total_vorticity(backgrounds, w, t)
    rel = lp_norm(direct - decomposed, 1) / lp_norm(direct, 1)
    assert rel < 1e-5


def test_rescaled_perturbation_gaussian_steady(grid128):
    zero = grid128.zeros()
    traj = evolve_rescaled_perturbation(1.0, zero, 0.5, StepperConfig.fixed(5e-3))
    assert np.all(traj.final.values == 0.0)


def test_restrict_nested(grid128):
    fine = Grid(256, 40.0)
    xx, yy = fine.meshes()
    f = ScalarField(fine, gaussian_profile(xx, yy))
    coarse = restrict(f, grid128)
    cx, cy = grid128.meshes()
    assert np.array_equal(coarse.values, gaussian_profile(cx, cy))
    with pytest.raises(DomainError):
        restrict(f, Grid(96, 40.0))


def test_run_manifest(grid128):
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0))
    run = solve_cauchy(mu, 0.1, 0.05, 0.1, grid128)
    data = json.loads(experiments._run_json(run))
    assert data["grid_n"] == 128
    assert data["backgrounds"] == [[1.0, [0.0, 0.0]]]
    assert len(data["snapshots"]) == len(run.trajectory.times)
