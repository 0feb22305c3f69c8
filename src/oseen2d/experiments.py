"""Named, reproducible experiments behind the CLI and the acceptance suite.

Each experiment runs one scenario at pinned parameters and returns
``(records, artifacts)``: a list of assertion records

    (criterion_id, passed, measured, threshold)

and a dict from a path relative to the output directory to the artifact's
text (CSV series, gnuplot scripts, run.json) or to a ScalarField (a field
file).  Experiments do no I/O; the CLI writes the artifacts.

Thresholds are pinned here, not at call sites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .biot_savart import hls_ratio, velocity_free_space
from .diagnostics import (MIN_BASIS, ContractionSeries, eigenvalue_multiplicity,
                          linearized_spectrum, localized_diffuse_series,
                          remainder_norms, solution_distance,
                          total_l1_difference)
from .errors import real
from .field import (Grid, ScalarField, divergence_local, gradient, lp_norm,
                    max_speed, project_mean_zero)
from .measure import FiniteMeasure, heat_smooth, measure_hash, total_variation
from .oseen import OseenVortex, gaussian_profile, oseen_fields
from .propagators import (StepperConfig, Trajectory, evolve_rescaled_perturbation,
                          evolve_S1, evolve_T_alpha, fit_decay, march)
from .rng import DEFAULT_SEED, band_limited_field
from .selfsim import commutation_residual, semigroup_apply
from .solver import SolverRun, propagate_SN, solve_cauchy, step_decomposed


@dataclass(frozen=True)
class ExperimentConfig:
    """Pinned defaults shared by every experiment, each checked on creation."""

    grid_n: int = 256
    box_l: float = 40.0
    t0: float = 1e-2
    t_end: float = 1.0
    dt: float | None = None          # A2/A3/A7/A8's fixed step; None: their own
    alpha: float = 1.0
    epsilon: float | None = None     # None: 0.05 x total variation
    m: float = 3.0
    seed: int = DEFAULT_SEED
    basis: int = 32

    def __post_init__(self):
        self.grid()
        real("t_end", self.t_end, real("t0", self.t0, 0, np.inf), np.inf)
        StepperConfig(self.dt)
        real("alpha", self.alpha)
        if self.epsilon is not None:
            real("epsilon", self.epsilon, 0, np.inf)
        real("m", self.m, 0, np.inf, ends="[)")
        real("seed", self.seed, 0, np.inf, ends="[)", integer=True)
        real("basis", self.basis, MIN_BASIS, np.inf, ends="[)", integer=True)

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

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.criterion} {format(self.measured, '.6g')} "
                f"{format(self.threshold, '.6g')}")


def _less(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured < threshold), float(measured),
                     float(threshold))


def _greater(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured > threshold), float(measured),
                     float(threshold))


def _le(criterion, measured, threshold) -> Assertion:
    return Assertion(criterion, bool(measured <= threshold), float(measured),
                     float(threshold))


def _within(criterion, measured, low, high) -> Assertion:
    """low <= measured <= high, printed with the end of the band nearer to
    the measured value, so a failing line names the end it crossed."""
    nearer = low if measured < (low + high) / 2.0 else high
    return Assertion(criterion, bool(low <= measured <= high), float(measured),
                     float(nearer))


def _gaussian_field(grid: Grid) -> ScalarField:
    xx, yy = grid.meshes()
    return ScalarField(grid, gaussian_profile(xx, yy))


def _dx_gaussian_field(grid: Grid) -> ScalarField:
    xx, yy = grid.meshes()
    return ScalarField(grid, -0.5 * xx * gaussian_profile(xx, yy))


def _seeded_mean_zero(grid: Grid, seed: int) -> ScalarField:
    return project_mean_zero(band_limited_field(grid, seed=seed))


# ---------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------

_NORMS = ("t", "quantity", "p", "m", "value")
_SERIES = ("index", "time", "l1", "l2", "linf", "l2m15", "l2m30", "circulation")


def _csv(header, rows) -> str:
    """CSV text: the header's names, then one line per row; ints and
    labels as str, every other number as .17g (every bit of a float)."""
    lines = [",".join(header)]
    lines += [",".join(str(c) if isinstance(c, (str, int)) else format(c, ".17g")
                       for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _plotted(name: str, csv: str, columns: str, title: str) -> dict:
    """name.csv and a minimal gnuplot script name.gp plotting its columns."""
    return {f"{name}.csv": csv,
            f"{name}.gp": ("set datafile separator ','\n"
                           "set key autotitle columnhead\n"
                           "set logscale xy\n"
                           f"set title '{title}'\n"
                           f"plot '{name}.csv' using {columns} with linespoints\n")}


def _contraction_csv(series: ContractionSeries, label: str = "M") -> str:
    """Columns t,<label>0..<label>N,<label>."""
    parts = [f"{label}{i}" for i in range(len(series.parts[0]))]
    return _csv(["t", *parts, label],
                ((t, *row, m) for t, row, m in zip(series.times, series.parts,
                                                   series.running_max)))


def _spectrum_csv(reports) -> str:
    """Columns alpha,re,im,label."""
    rows = []
    for report in reports:
        # a labeled value can be a multiple eigenvalue (at alpha = 0 the
        # exact -1/2 is double): each label goes to its first row only
        labels = {}
        for name, ev in report.labeled_modes.items():
            labels.setdefault(complex(ev), []).append(name)
        for ev in report.eigenvalues:
            names = labels.get(complex(ev))
            rows.append((report.alpha, ev.real, ev.imag,
                         names.pop(0) if names else ""))
    return _csv(("alpha", "re", "im", "label"), rows)


def _trajectory_artifacts(traj: Trajectory, directory: str) -> dict:
    """One field per frame and series.csv, one row of _SERIES per frame,
    under directory."""
    artifacts = {f"{directory}/w_{traj.time_label}_{i:04d}.fld": w
                 for i, w in enumerate(traj.fields)}
    columns = [traj.norms(1), traj.norms(2), traj.norms(np.inf),
               traj.norms((2, 1.5)), traj.norms((2, 3.0)),
               [w.integral() for w in traj.fields]]
    artifacts[f"{directory}/series.csv"] = _csv(
        _SERIES, ((i, *values) for i, values in enumerate(zip(traj.times, *columns))))
    return artifacts


def _run_json(run: SolverRun) -> str:
    """The run's grid, data, backgrounds and snapshot times as JSON."""
    return json.dumps({
        "grid_n": run.grid.n,
        "box_l": run.grid.box_size,
        "epsilon": run.epsilon,
        "t0": run.t0,
        "t_end": run.t_end,
        "measure_hash": measure_hash(run.measure),
        "backgrounds": [[v.alpha, list(v.z)] for v in run.backgrounds],
        "snapshots": [format(t, ".17g") for t in run.trajectory.times],
    }, indent=1, sort_keys=True)


# ---------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------

Result = tuple[list[Assertion], dict]        # (records, artifacts)


def oseen_exact(cfg: ExperimentConfig) -> Result:
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
    end, _ = march(start, 1.0, [2.0],
                   partial(step_decomposed, (), StepperConfig.fixed(dt)))
    exact, _ = oseen_fields(OseenVortex(1.0), 2.0, grid)
    rel = lp_norm(end - exact, 1) / lp_norm(exact, 1)
    records.append(_less("A2-profile", rel, 1e-5))
    drift = abs(end.integral() - start.integral()) / abs(start.integral())
    records.append(_less("A2-circulation", drift, 1e-12))
    return records, {"oseen_exact.csv": _csv(_NORMS, rows)}


def asym_decay(cfg: ExperimentConfig) -> Result:
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
        records.append(_within(f"A3[p={p}]-rate", fit.rate, -0.65, -0.35))
    return records, _plotted("oseen_distance", _csv(_NORMS, rows), "1:5",
                             "scaled distance to the vortex")


def semigroup_kernel(cfg: ExperimentConfig) -> Result:
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
    # m as its str ("3.0"), as manifest.txt writes it, not as .17g
    rows = [(tau, "l2m", 2, str(cfg.m), float(v))
            for tau, v in zip(traj.times, traj.norms((2, cfg.m)))]
    return records, {"semigroup_decay.csv": _csv(_NORMS, rows)}


def commutation(cfg: ExperimentConfig) -> Result:
    """A5: the gradient/semigroup commutation identity."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    records = []
    for name, f in (("G", _gaussian_field(grid)),
                    ("seeded", band_limited_field(grid, seed=cfg.seed))):
        scale = np.max(np.abs(gradient(f)))
        for tau in (0.5, 1.0):
            rel = commutation_residual(tau, f) / scale
            records.append(_less(f"A5[{name},tau={tau:g}]", rel, 1e-6))
    return records, {}


def t_alpha_decay(cfg: ExperimentConfig) -> Result:
    """A7: decay rate of the linearized flow and exactness of the
    translation eigenmode."""
    grid = Grid(min(cfg.grid_n, 128), cfg.box_l)
    dt = cfg.dt if cfg.dt is not None else 5e-3
    records = []
    artifacts = {}
    w0 = _seeded_mean_zero(grid, cfg.seed)
    for alpha in (1.0, 10.0):
        traj = evolve_T_alpha(alpha, w0, 3.0, StepperConfig.fixed(dt),
                              sample_every=0.1)
        fit = fit_decay(traj, (2, cfg.m), (1.0, 3.0))
        records.append(_le(f"A7[alpha={alpha:g}]-rate", fit.rate, -0.45))
        artifacts.update(_trajectory_artifacts(traj, f"t_alpha_{alpha:g}"))
    d1g = _dx_gaussian_field(grid)
    for alpha in (1.0, 10.0):
        traj = evolve_T_alpha(alpha, d1g, 1.0, StepperConfig.fixed(dt),
                              sample_every=0.5)
        want = float(np.exp(-0.5)) * d1g
        rel = lp_norm(traj.final - want, 2) / lp_norm(want, 2)
        records.append(_less(f"A7[alpha={alpha:g}]-eigenmode", rel, 1e-5))
    return records, artifacts


def s1_decay(cfg: ExperimentConfig) -> Result:
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
    return records, {}


def spectrum(cfg: ExperimentConfig) -> Result:
    """A9: spectrum of the linearization about the Gaussian profile."""
    grid = cfg.grid()
    alphas = (0.0, 1.0, 10.0, 100.0)
    if cfg.alpha not in alphas:
        alphas += (cfg.alpha,)
    records = []
    reports = []
    for alpha in alphas:
        rep = linearized_spectrum(alpha, cfg.basis, mean_zero=True, grid=grid)
        reports.append(rep)
        if alpha == 0.0:
            exact = np.sort([-(a + b) / 2.0 for a in range(cfg.basis)
                             for b in range(cfg.basis)][1:])[::-1]
            evs = np.array(rep.eigenvalues)
            dev = float(max(np.max(np.abs(evs.real - exact)),
                            np.max(np.abs(evs.imag))))
            records.append(_less("A9[alpha=0]-exact", dev, 1e-8))
            continue
        trans = rep.labeled_modes.get("translation")
        err = abs(trans + 0.5) if trans is not None else np.inf
        records.append(_less(f"A9[alpha={alpha:g}]-translation", err, 1e-6))
        mult = eigenvalue_multiplicity(rep, -0.5, 1e-6)
        records.append(Assertion(f"A9[alpha={alpha:g}]-multiplicity",
                                 mult >= 2, mult, 2))
        records.append(_le(f"A9[alpha={alpha:g}]-maxreal", rep.max_real,
                           -0.5 + 1e-3))
    return records, _plotted("spectrum", _spectrum_csv(reports), "2:3",
                             "linearization spectrum")


def sn_gaussian_bound(cfg: ExperimentConfig) -> Result:
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
                                 float(outf.values.min()), -1e-10))
        records.append(_less(f"A10[gap={gap:g}]-mass",
                             abs(outf.integral() - 1.0), 1e-8))
        envelope = np.exp(-((xx - y[0])**2 + (yy - y[1])**2) / (8.0 * gap))
        sel = outf.values > 1e-12 * outf.values.max()
        fitted_k = float(np.max(outf.values[sel] * gap / envelope[sel]))
        records.append(_less(f"A10[gap={gap:g}]-envelope", fitted_k, 10.0))
    return records, {}


def two_vortex(cfg: ExperimentConfig) -> Result:
    """A11: two unit point vortices; contraction norms stay small and
    circulation is conserved."""
    grid = cfg.grid()
    mu = FiniteMeasure.from_atoms(((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0))
    run = solve_cauchy(mu, cfg.epsilon_for(mu), cfg.t0, 0.1, grid)
    series = remainder_norms(run, cfg.m)
    records = [_less("A11-contraction", series.final, 0.05)]
    drift = max(abs(s["circulation"] - 2.0) for s in run.series) / 2.0
    records.append(_less("A11-circulation", drift, 1e-10))
    artifacts = _plotted("contraction", _contraction_csv(series), "1:4",
                         "remainder contraction norms")
    artifacts["run.json"] = _run_json(run)
    return records, artifacts


def diffuse_localized(cfg: ExperimentConfig) -> Result:
    """A12: localized norms of the heat-smoothed diffuse part vanish toward
    t = 0 at a vortex center carrying no diffuse atom."""
    grid = cfg.grid()
    density = heat_smooth(FiniteMeasure.from_atoms(((3.0, 0.0), 0.1)),
                          0.5**2 / 2, grid)
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
    csv_rows = [(t, "localized_w", 4, 0, wv) for t, wv, _ in rows]
    csv_rows += [(t, "localized_u", 4, 0, uv) for t, _, uv in rows]
    return records, {"diffuse_localized.csv": _csv(_NORMS, csv_rows)}


def continuity(cfg: ExperimentConfig) -> Result:
    """A13: near-Lipschitz response of the solution to density
    perturbations of a two-vortex-plus-density measure."""
    grid = cfg.grid()
    base_density = heat_smooth(FiniteMeasure.from_atoms(((-2.0, 1.0), 0.2)),
                               0.8**2 / 2, grid)
    bump_unit = heat_smooth(FiniteMeasure.from_atoms(((1.5, -1.0), 1.0)),
                            0.7**2 / 2, grid)
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
    records = [Assertion("A13-lipschitz-spread", spread <= 3.0, spread, 3.0)]
    rows = [(d, "l1_response_ratio", 1, 0, r) for d, r in sorted(ratios.items())]
    return records, {"continuity.csv": _csv(_NORMS, rows)}


def uniqueness_shadow(cfg: ExperimentConfig) -> Result:
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
    return records, {"contraction.csv": _contraction_csv(d_coarse, label="D")}


def biot_savart_oracle(cfg: ExperimentConfig) -> Result:
    """A15: free-space velocity against the closed-form vortex pair,
    interior divergence, and scale invariance of the velocity/vorticity
    norm ratio."""
    grid = cfg.grid()
    xx, yy = grid.meshes()
    w, u_exact = oseen_fields(OseenVortex(1.0), 1.0, grid)
    u = velocity_free_space(w)
    rel = float(np.max(np.hypot(*(u - u_exact)))) / max_speed(u_exact)
    records = [_less("A15-oracle", rel, 1e-3)]
    inner = (np.abs(xx) < cfg.box_l / 4) & (np.abs(yy) < cfg.box_l / 4)
    div = float(np.max(np.abs(divergence_local(u, grid).values[inner])))
    records.append(_less("A15-divergence", div, 1e-8))
    ratios = []
    for lam in (1.0, 2.0, 4.0):
        f = ScalarField(grid, lam**2 * gaussian_profile(lam * xx, lam * yy))
        ratios.append(hls_ratio(f, 4.0 / 3.0))
    spread = max(abs(r - ratios[0]) for r in ratios)
    records.append(_less("A15-hls-scale", spread, 1e-3))
    rows = [(lam, "hls_ratio", 4.0 / 3.0, 0, r)
            for lam, r in zip((1.0, 2.0, 4.0), ratios)]
    return records, {"biot_savart.csv": _csv(_NORMS, rows)}


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
