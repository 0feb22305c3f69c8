"""Named, reproducible experiments behind the CLI and the acceptance suite.

Each experiment runs one scenario at pinned parameters, writes its
artifacts (CSV series, field dumps, plot scripts) when given an output
directory, and returns a list of assertion records

    (criterion_id, passed, measured, threshold, direction)

where direction is "<" or ">" describing the passing sense.  Thresholds
are pinned here, not at call sites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .biot_savart import hls_ratio, velocity_free_space
from .diagnostics import (eigenvalue_multiplicity, linearized_spectrum,
                          localized_diffuse_series, remainder_norms,
                          solution_distance, total_l1_difference,
                          write_contraction_csv, write_plot_script,
                          write_spectrum_csv)
from .field import (Grid, ScalarField, divergence_local, lp_norm,
                    project_mean_zero, write_norms_csv)
from .measure import FiniteMeasure, heat_smooth, total_variation
from .oseen import OseenVortex, gaussian_profile, oseen_fields
from .propagators import (StepperConfig, Trajectory, evolve_S1,
                          evolve_T_alpha, fit_decay, propagate_SN)
from .rng import DEFAULT_SEED, band_limited_field
from .selfsim import commutation_residual, semigroup_apply
from .solver import (VortexSystem, evolve_rescaled_perturbation,
                     evolve_system, solve_cauchy)


@dataclass(frozen=True)
class ExperimentConfig:
    """Pinned defaults shared by every experiment."""

    grid_n: int = 256
    box_l: float = 40.0
    t0: float = 1e-2
    t_end: float = 1.0
    dt: float | None = None          # None: solver step-control rule
    alpha: float = 1.0
    epsilon: float | None = None     # None: 0.05 x total variation
    m: float = 3.0
    seed: int = DEFAULT_SEED
    basis: int = 32

    def grid(self) -> Grid:
        return Grid(self.grid_n, self.box_l)

    def epsilon_for(self, mu: FiniteMeasure) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return 0.05 * total_variation(mu)


@dataclass(frozen=True)
class Assertion:
    criterion: str
    passed: bool
    measured: float
    threshold: float
    direction: str = "<"

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.criterion} {format(self.measured, '.6g')} "
                f"{format(self.threshold, '.6g')}")


def _less(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured < threshold), float(measured),
                     float(threshold), "<")


def _greater(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured > threshold), float(measured),
                     float(threshold), ">")


def _le(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured <= threshold), float(measured),
                     float(threshold), "<")


def _gaussian_field(grid: Grid) -> ScalarField:
    xx, yy = grid.meshes()
    return ScalarField(grid, gaussian_profile(xx, yy))


def _dx_gaussian_field(grid: Grid) -> ScalarField:
    xx, yy = grid.meshes()
    return ScalarField(grid, -0.5 * xx * gaussian_profile(xx, yy))


def _seeded_mean_zero(grid: Grid, seed: int) -> ScalarField:
    return project_mean_zero(band_limited_field(grid, seed=seed))


def _blob_density(grid: Grid, mass: float, center, width: float) -> ScalarField:
    xx, yy = grid.meshes()
    vals = mass / (2.0 * np.pi * width**2) * np.exp(
        -((xx - center[0])**2 + (yy - center[1])**2) / (2.0 * width**2))
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------

def oseen_exact(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A1/A2: background exactness of the decomposed solver, and the solver
    with no backgrounds (the direct equation) marching an exact vortex."""
    grid = cfg.grid()
    records = []
    rows = []
    for alpha in (1.0, 10.0):
        mu = FiniteMeasure.from_atoms(((0.0, 0.0), alpha))
        run = solve_cauchy(mu, cfg.epsilon_for(mu), cfg.t0, cfg.t_end, grid,
                           l1_check_tol=1e-6)
        norms = run.trajectory.norms(1)
        records.append(_less(f"A1[alpha={alpha:g}]-remainder", max(norms), 1e-6))
        final = run.total_vorticity(len(run.trajectory.times) - 1)
        exact, _ = oseen_fields(OseenVortex(alpha), run.trajectory.times[-1], grid)
        rel = lp_norm(final - exact, 1) / lp_norm(exact, 1)
        records.append(_less(f"A1[alpha={alpha:g}]-profile", rel, 1e-6))
        rows += [(t, "remainder_l1", 1, 0, v)
                 for t, v in zip(run.trajectory.times, norms)]

    dt = cfg.dt if cfg.dt is not None else 1e-3
    start = _gaussian_field(grid)
    end = evolve_system(VortexSystem((), start, 1.0), [2.0],
                        StepperConfig.fixed(dt)).remainder
    exact, _ = oseen_fields(OseenVortex(1.0), 2.0, grid)
    rel = lp_norm(end - exact, 1) / lp_norm(exact, 1)
    records.append(_less("A2-profile", rel, 1e-5))
    drift = abs(end.integral() - start.integral()) / abs(start.integral())
    records.append(_less("A2-circulation", drift, 1e-12))
    if out:
        write_norms_csv(rows, os.path.join(out, "oseen_exact.csv"))
    return records


def asym_decay(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A3: long-time approach to the self-similar vortex, measured in the
    rescaled frame where the scaled L^p distances are plain norms of the
    perturbation."""
    grid = cfg.grid()
    w0 = 0.3 * _dx_gaussian_field(grid)
    dt = cfg.dt if cfg.dt is not None else 1e-2
    traj = evolve_rescaled_perturbation(1.0, w0, float(np.log(100.0)),
                                        StepperConfig.fixed(dt),
                                        sample_every=0.1)
    records = []
    rows = []
    taus = np.asarray(traj.times)
    for p in (1, 2):
        norms = traj.norms(p)
        rows += [(float(np.exp(tau)), "oseen_distance", p, 0, float(v))
                 for tau, v in zip(taus, norms)]
        after = norms[taus >= np.log(5.0) - 1e-12]
        worst_rise = float(np.max(np.diff(after))) if len(after) > 1 else 0.0
        records.append(_le(f"A3[p={p}]-monotone", worst_rise, 0.0))
        fit = fit_decay(traj, p, (2.0, 4.6))
        records.append(Assertion(f"A3[p={p}]-rate",
                                 -0.65 <= fit.rate <= -0.35, fit.rate, -0.35, "<"))
    if out:
        write_norms_csv(rows, os.path.join(out, "oseen_distance.csv"))
        write_plot_script(os.path.join(out, "oseen_distance.csv"),
                          os.path.join(out, "oseen_distance.gp"),
                          "1:5", "scaled distance to the vortex")
    return records


def semigroup_kernel(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A4/A6: eigenmode action and semigroup law of the explicit kernel,
    and the mean-zero weighted decay rate."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    d1g = _dx_gaussian_field(grid)
    records = []
    for tau in (0.5, 1.0, 2.0):
        got = semigroup_apply(tau, d1g)
        want = float(np.exp(-0.5 * tau)) * d1g
        rel = lp_norm(got - want, 2) / lp_norm(want, 2)
        records.append(_less(f"A4[tau={tau:g}]-eigenmode", rel, 1e-6))
    f = _seeded_mean_zero(grid, cfg.seed)
    combined = semigroup_apply(0.7, semigroup_apply(0.8, f))
    direct = semigroup_apply(1.5, f)
    rel = lp_norm(combined - direct, 2) / lp_norm(direct, 2)
    records.append(_less("A4-semigroup-law", rel, 1e-6))

    traj = Trajectory(time_label="tau")
    for tau in np.arange(1.0, 3.0 + 1e-9, 0.1):
        traj.record(float(tau), semigroup_apply(float(tau), f))
    fit = fit_decay(traj, (2, cfg.m), (1.0, 3.0))
    records.append(_le("A6-weighted-rate", fit.rate, -0.45))
    if out:
        rows = [(tau, "l2m", 2, cfg.m, float(v))
                for tau, v in zip(traj.times, traj.norms((2, cfg.m)))]
        write_norms_csv(rows, os.path.join(out, "semigroup_decay.csv"))
    return records


def commutation(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A5: the gradient/semigroup commutation identity."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    from .field import gradient
    records = []
    for name, f in (("G", _gaussian_field(grid)),
                    ("seeded", band_limited_field(grid, seed=cfg.seed))):
        g = gradient(f)
        scale = max(np.max(np.abs(g.x.values)), np.max(np.abs(g.y.values)))
        for tau in (0.5, 1.0):
            rel = commutation_residual(tau, f) / scale
            records.append(_less(f"A5[{name},tau={tau:g}]", rel, 1e-6))
    return records


def t_alpha_decay(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A7: decay rate of the linearized flow and exactness of the
    translation eigenmode."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    dt = cfg.dt if cfg.dt is not None else 5e-3
    records = []
    w0 = _seeded_mean_zero(grid, cfg.seed)
    for alpha in (1.0, 10.0):
        traj = evolve_T_alpha(alpha, w0, 3.0, StepperConfig.fixed(dt),
                              sample_every=0.1)
        fit = fit_decay(traj, (2, cfg.m), (1.0, 3.0))
        records.append(_le(f"A7[alpha={alpha:g}]-rate", fit.rate, -0.45))
        if out:
            traj.dump(os.path.join(out, f"t_alpha_{alpha:g}"))
    d1g = _dx_gaussian_field(grid)
    for alpha in (1.0, 10.0):
        traj = evolve_T_alpha(alpha, d1g, 1.0, StepperConfig.fixed(dt),
                              sample_every=0.5)
        want = float(np.exp(-0.5)) * d1g
        rel = lp_norm(traj.final - want, 2) / lp_norm(want, 2)
        records.append(_less(f"A7[alpha={alpha:g}]-eigenmode", rel, 1e-5))
    return records


def s1_decay(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A8: decay of the one-vortex self-similar flow on mean-zero data."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    dt = cfg.dt if cfg.dt is not None else 5e-3
    w0 = _seeded_mean_zero(grid, cfg.seed)
    records = []
    for alpha in (1.0, 10.0):
        traj = evolve_S1(alpha, w0, 3.0, StepperConfig.fixed(dt),
                         sample_every=0.1)
        fit = fit_decay(traj, (2, cfg.m), (1.0, 3.0))
        records.append(_le(f"A8[alpha={alpha:g}]-rate", fit.rate, -0.40))
    return records


def spectrum(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A9: spectrum of the linearization about the Gaussian profile."""
    grid = cfg.grid()
    alphas = (0.0, 1.0, 10.0, 100.0)
    if cfg.alpha not in alphas:
        alphas += (cfg.alpha,)
    records = []
    reports = []
    rep0 = linearized_spectrum(0.0, cfg.basis, mean_zero=True, grid=grid)
    reports.append(rep0)
    exact = np.array(sorted(
        (-(a + b) / 2.0 for a in range(cfg.basis) for b in range(cfg.basis)
         if (a, b) != (0, 0)), reverse=True))
    evs = np.array(rep0.eigenvalues)
    dev = float(max(np.max(np.abs(evs.real - exact)), np.max(np.abs(evs.imag))))
    records.append(_less("A9[alpha=0]-exact", dev, 1e-8))
    for alpha in alphas:
        if alpha == 0.0:
            continue
        rep = linearized_spectrum(alpha, cfg.basis, mean_zero=True, grid=grid)
        reports.append(rep)
        trans = rep.labeled_modes.get("translation")
        err = abs(trans + 0.5) if trans is not None else np.inf
        records.append(_less(f"A9[alpha={alpha:g}]-translation", err, 1e-6))
        mult = eigenvalue_multiplicity(rep, -0.5, 1e-6)
        records.append(Assertion(f"A9[alpha={alpha:g}]-multiplicity",
                                 mult >= 2, mult, 2, ">"))
        records.append(_le(f"A9[alpha={alpha:g}]-maxreal", rep.max_real,
                           -0.5 + 1e-3))
    if out:
        write_spectrum_csv(reports, os.path.join(out, "spectrum.csv"))
        write_plot_script(os.path.join(out, "spectrum.csv"),
                          os.path.join(out, "spectrum.gp"),
                          "2:3", "linearization spectrum")
    return records


def sn_gaussian_bound(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A10: positivity, mass conservation, and the Gaussian envelope of the
    frozen-background propagator acting on a mollified point mass."""
    grid = cfg.grid()
    h = grid.h
    y = (1.0, 0.0)
    f = heat_smooth(FiniteMeasure.from_atoms((y, 1.0)), (2.0 * h) ** 2, grid)
    vortices = [OseenVortex(1.0, (0.0, 0.0))]
    xx, yy = grid.meshes()
    records = []
    s = 1.0
    for gap in (0.1, 0.5):
        outf = propagate_SN(vortices, f, s, s + gap, StepperConfig.courant())
        records.append(Assertion(f"A10[gap={gap:g}]-positive",
                                 float(outf.values.min()) > -1e-10,
                                 float(outf.values.min()), -1e-10, ">"))
        records.append(_less(f"A10[gap={gap:g}]-mass",
                             abs(outf.integral() - 1.0), 1e-8))
        envelope = np.exp(-((xx - y[0])**2 + (yy - y[1])**2) / (8.0 * gap))
        sel = outf.values > 1e-12 * outf.values.max()
        fitted_k = float(np.max(outf.values[sel] * gap / envelope[sel]))
        records.append(_less(f"A10[gap={gap:g}]-envelope", fitted_k, 10.0))
    return records


def two_vortex(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A11: two unit point vortices; contraction norms stay small and
    circulation is conserved."""
    grid = cfg.grid()
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    run = solve_cauchy(mu, cfg.epsilon_for(mu), cfg.t0, 0.1, grid)
    series = remainder_norms(run, cfg.m)
    records = [_less("A11-contraction", series.final, 0.05)]
    drift = max(abs(s["circulation"] - 2.0) for s in run.series) / 2.0
    records.append(_less("A11-circulation", drift, 1e-10))
    if out:
        write_contraction_csv(series, os.path.join(out, "contraction.csv"))
        write_plot_script(os.path.join(out, "contraction.csv"),
                          os.path.join(out, "contraction.gp"),
                          "1:4", "remainder contraction norms")
        run.write_manifest(out)
    return records


def diffuse_localized(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A12: localized norms of the heat-smoothed diffuse part vanish toward
    t = 0 at a vortex center carrying no diffuse atom."""
    grid = cfg.grid()
    density = _blob_density(grid, 0.1, (3.0, 0.0), 0.5)
    mu0 = FiniteMeasure(density=density)
    t_values = np.geomspace(1e-3, 1e-1, 9)
    rows = localized_diffuse_series(mu0, (0.0, 0.0), t_values, p=4.0, q=4.0,
                                    grid=grid)
    first_w, first_u = rows[0][1], rows[0][2]
    last_w, last_u = rows[-1][1], rows[-1][2]
    records = [
        _greater("A12-vorticity-decay", last_w / max(first_w, 1e-300), 5.0),
        _greater("A12-velocity-decay", last_u / max(first_u, 1e-300), 5.0),
    ]
    if out:
        csv_rows = [(t, "localized_w", 4, 0, wv) for t, wv, _ in rows]
        csv_rows += [(t, "localized_u", 4, 0, uv) for t, _, uv in rows]
        write_norms_csv(csv_rows, os.path.join(out, "diffuse_localized.csv"))
    return records


def continuity(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A13: near-Lipschitz response of the solution to density
    perturbations of a two-vortex-plus-density measure."""
    grid = cfg.grid()
    base_density = _blob_density(grid, 0.2, (-2.0, 1.0), 0.8)
    bump_unit = _blob_density(grid, 1.0, (1.5, -1.0), 0.7)
    atoms = (((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    mu_base = FiniteMeasure(atoms=atoms, density=base_density)
    eps = cfg.epsilon_for(mu_base)
    t_end = 0.5
    run_base = solve_cauchy(mu_base, eps, cfg.t0, t_end, grid)
    ratios = {}
    for delta in (1e-2, 1e-3):
        mu_pert = FiniteMeasure(atoms=atoms,
                                density=base_density + delta * bump_unit)
        run_pert = solve_cauchy(mu_pert, eps, cfg.t0, t_end, grid)
        diffs = total_l1_difference(run_base, run_pert)
        ratios[delta] = float(np.max(diffs)) / delta
    spread = max(ratios.values()) / min(ratios.values())
    records = [Assertion("A13-lipschitz-spread", spread <= 3.0, spread, 3.0, "<")]
    if out:
        rows = [(d, "l1_response_ratio", 1, 0, r) for d, r in sorted(ratios.items())]
        write_norms_csv(rows, os.path.join(out, "continuity.csv"))
    return records


def uniqueness_shadow(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A14: the distance between successive (grid, dt) refinements of the
    same data shrinks, consistent with one continuum limit.

    The backgrounds need a t0 at which the coarsest grid resolves them, so
    this experiment runs on t in [0.15, 0.75] over the resolution ladder
    n/4, n/2, n with dt halving alongside.
    """
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    t0, t_end = 0.15, 0.75
    levels = [(cfg.grid_n // 4, 8e-3), (cfg.grid_n // 2, 4e-3), (cfg.grid_n, 2e-3)]
    runs = []
    for n, dt in levels:
        runs.append(solve_cauchy(mu, 0.1, t0, t_end, Grid(n, cfg.box_l),
                                 StepperConfig.fixed(dt)))
    d_coarse = solution_distance(runs[0], runs[1], cfg.m)
    d_fine = solution_distance(runs[1], runs[2], cfg.m)
    shrink = d_coarse.final / max(d_fine.final, 1e-300)
    records = [_greater("A14-refinement-shrink", shrink, 4.0)]
    if out:
        write_contraction_csv(d_coarse, os.path.join(out, "contraction.csv"),
                              label="D")
    return records


def biot_savart_oracle(cfg: ExperimentConfig, out=None) -> list[Assertion]:
    """A15: free-space velocity against the closed-form vortex pair,
    interior divergence, and scale invariance of the velocity/vorticity
    norm ratio."""
    grid = cfg.grid()
    xx, yy = grid.meshes()
    w, u_exact = oseen_fields(OseenVortex(1.0), 1.0, grid)
    u = velocity_free_space(w)
    err = np.hypot(u.x.values - u_exact.x.values, u.y.values - u_exact.y.values)
    rel = float(np.max(err)) / u_exact.max_norm()
    records = [_less("A15-oracle", rel, 1e-3)]
    inner = (np.abs(xx) < cfg.box_l / 4) & (np.abs(yy) < cfg.box_l / 4)
    div = float(np.max(np.abs(divergence_local(u).values[inner])))
    records.append(_less("A15-divergence", div, 1e-8))
    ratios = []
    for lam in (1.0, 2.0, 4.0):
        f = ScalarField(grid, lam**2 * gaussian_profile(lam * xx, lam * yy))
        ratios.append(hls_ratio(f, 4.0 / 3.0))
    spread = max(abs(r - ratios[0]) for r in ratios)
    records.append(_less("A15-hls-scale", spread, 1e-3))
    if out:
        rows = [(lam, "hls_ratio", 4.0 / 3.0, 0, r)
                for lam, r in zip((1.0, 2.0, 4.0), ratios)]
        write_norms_csv(rows, os.path.join(out, "biot_savart.csv"))
    return records


EXPERIMENTS = {
    "oseen-exact": (oseen_exact, ("A1", "A2")),
    "asym-decay": (asym_decay, ("A3",)),
    "semigroup-kernel": (semigroup_kernel, ("A4", "A6")),
    "commutation": (commutation, ("A5",)),
    "t-alpha-decay": (t_alpha_decay, ("A7",)),
    "s1-decay": (s1_decay, ("A8",)),
    "spectrum": (spectrum, ("A9",)),
    "sn-gaussian-bound": (sn_gaussian_bound, ("A10",)),
    "two-vortex": (two_vortex, ("A11",)),
    "diffuse-localized": (diffuse_localized, ("A12",)),
    "continuity": (continuity, ("A13",)),
    "uniqueness-shadow": (uniqueness_shadow, ("A14",)),
    "biot-savart-oracle": (biot_savart_oracle, ("A15",)),
}
