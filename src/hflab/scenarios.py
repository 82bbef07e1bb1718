"""Scenario presets: pure functions that return their gates as `Check`s, their CSV
tables and the measured values no gate reads; `run_scenario` writes the tables, and
the verdict follows from the checks.  A run's keyword parameters are the config
fields its preset honours, with the preset's values as defaults; `build_config`
rejects an override of any other field.

Every preset is deterministic given (config, seed).  Measured-constant
regressions compare against the frozen baselines below (recorded from the
first calibrated run on the default grids); the exact inequality audits use
fixed tolerances and are independent of any baseline.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hflab import energy as energy_mod
from hflab import fock as fock_mod
from hflab import semiclassics as sc
from hflab.fewbody import hf_vs_exact_probe
from hflab.hartree_fock import hs_distance_squared, loewdin_orthonormalize, run_hf, slater_state
from hflab.lattice import Grid, ScaledParams
from hflab.potentials import (
    fdl_constant, fdl_reconstruct, power_law_potential, radial_quadrature, split_quadrature,
)
from hflab.states import fermi_ball, gaussian_packet, packet_slater, random_slater

# frozen measured-constant baselines (default grids, recorded at calibration)
BASELINES = {
    "lt_ratio_fermi_ball_3d": 0.10813984587253536,
    "hls_ratio_fermi_ball_3d": 2.335094666759028,
    "fluct_ring_sup": 0.011901995072597593,
}

SEED = 2024

# config field -> (type, rule, message for a value the rule refuses); `build_config` also
# rejects bool, which is a subclass of int
FIELDS = {
    "dim": ("int", lambda v: v in (1, 2, 3), "config field dim must be 1, 2 or 3"),
    "m": ("int", lambda v: v >= 8 and not v & (v - 1),
          "config field m must be a power of two >= 8"),
    "length": ("float",),
    "n_particles": ("int", lambda v: v >= 1, "config field n_particles must be >= 1"),
    "alpha": ("float", lambda v: 0.0 < v <= 1.0, "config field alpha must lie in (0, 1], got {}"),
    "epsilon_override": ("float | None",),
    "dt": ("float", lambda v: v > 0, "config fields dt and t_final must be positive"),
    "t_final": ("float", lambda v: v > 0, "config fields dt and t_final must be positive"),
    "snapshot_stride": ("int", lambda v: v >= 1, "config field snapshot_stride must be >= 1"),
    "delta": ("float", lambda v: 0.0 < v < 0.5, "config field delta must lie in (0, 1/2)"),
    "lp_exponent": ("float",),
    "seed": ("int",),
}
TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


@dataclass
class RunConfig:
    """A preset, its seed and the values bound to its run's keyword parameters."""

    scenario: str
    seed: int
    fields: dict


RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One gate: it passes iff `value relation bound`.  NaN fails every relation."""

    name: str
    value: float
    relation: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(RELATIONS[self.relation](self.value, self.bound))


@dataclass
class ScenarioResult:
    checks: list  # of Check
    tables: dict  # CSV file name -> (header, rows of cells)
    report: dict = field(default_factory=dict)  # measured values no gate reads

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def write_table(path, header: str, rows) -> None:
    """The one CSV writer: floats as `.17g` (an exact round trip), other cells by `str`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _stationary_flow(grid: Grid, params: ScaledParams, dt: float, t_final: float, stride: int):
    """HF flow of the Fermi ball: (potential, initial, snapshots, Gram drift, HS/sqrt(N))."""
    potential = power_law_potential(grid, params.alpha)
    initial = fermi_ball(grid, params)
    snaps, drift = run_hf(initial, potential, dt, int(round(t_final / dt)), stride)
    root_n = np.sqrt(params.n_particles)
    dists = [np.sqrt(max(hs_distance_squared(s, initial), 0.0)) / root_n for _, s in snaps]
    return potential, initial, snaps, float(drift), dists


def scenario_fdl_verify() -> ScenarioResult:
    """Reconstruction of s^-alpha across the alpha grid, plus the constant pins."""
    svals = np.exp(np.linspace(np.log(0.2), np.log(5.0), 50))
    rows = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        quad = radial_quadrature(alpha)
        for s in svals:
            got = fdl_reconstruct(float(s), alpha, quad, dim=3)
            rows.append((alpha, float(s), got, abs(got / float(s) ** (-alpha) - 1.0)))
    quad = radial_quadrature(1.0)
    parts = split_quadrature(quad, epsilon=0.125, alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # split parts cannot bracket on their own
        recombined = sum(
            fdl_reconstruct(1.0, 1.0, part, dim=3)
            for key, part in parts.items()
            if key in ("near", "far") and part is not None
        )
    unsplit = fdl_reconstruct(1.0, 1.0, quad, dim=3)
    return ScenarioResult(
        checks=[
            Check("max_rel_err", float(np.max([row[3] for row in rows])), "<", 1e-3),
            Check("constant_err", abs(fdl_constant(1.0, 3) - 4.0 / np.pi**2), "<", 1e-12),
            Check("split_recombine_err", abs(recombined - unsplit), "<", 1e-12),
            Check("split_cutoff_err", abs(parts["cutoff"] - 0.125**0.5), "<", 1e-12),
        ],
        tables={
            "fdl_reconstruction.csv": ("alpha,s,value,rel_err", rows),
            "fdl_quadrature.csv": ("r_node,weight", list(zip(quad.nodes, quad.weights))),
        },
    )


def scenario_fermi_ball_1d(dim=1, m=64, length=math.tau, n_particles=8, alpha=1.0,
                           epsilon_override=None, dt=1e-3, t_final=1.0, snapshot_stride=100,
                           lp_exponent=6.0) -> ScenarioResult:
    """Translation-invariant Slater: the mean-field flow must be stationary."""
    params = ScaledParams(n_particles, alpha, epsilon_override)
    _, _, snaps, drift, dists = _stationary_flow(
        Grid(dim, m, length), params, dt, t_final, snapshot_stride)
    config = sc.DiagnosticsConfig(lp_exponent=lp_exponent, position_convention=sc.PERIODIC)
    series = sc.commutator_density_series(snaps, params.n_particles, params.epsilon, config)
    budget, sup = series["series"], series["sup_over_n_eps"]
    stationarity = [(float(t), float(d)) for (t, _), d in zip(snaps, dists)]
    budget_rows = [(r.time, r.axis, r.norm_l1, r.norm_lp, r.over_n_eps, sup)
                   for r in series["rows"]]
    return ScenarioResult(
        checks=[
            Check("max_hs_over_sqrtN", float(np.max(dists)), "<", 1e-6),
            Check("max_gram_drift", drift, "<", 1e-8),
            Check("budget_relative_spread", float(np.ptp(budget) / np.max(budget)), "<", 1e-6),
        ],
        tables={
            "fermi_ball_stationarity.csv": ("t,hs_over_sqrtN", stationarity),
            "density_budget.csv": ("t,axis,norm_L1,norm_Lp,over_N_eps,fitted_C", budget_rows),
        },
        report={"sup_over_N_eps": sup},
    )


def scenario_fermi_ball_3d(length=math.tau, alpha=1.0, epsilon_override=None, dt=1e-3,
                           t_final=0.2) -> ScenarioResult:
    """The stationary flow on the fixed 3d grid m8 with N = 7, and its energy chain."""
    stride = max(1, int(round(t_final / dt)) // 4)
    potential, initial, _, drift, dists = _stationary_flow(
        Grid(3, 8, length), ScaledParams(7, alpha, epsilon_override), dt, t_final, stride)
    report = energy_mod.energy_report(initial, potential)
    return ScenarioResult(
        checks=[
            Check("max_hs_over_sqrtN", float(np.max(dists)), "<", 1e-6),
            Check("max_gram_drift", drift, "<", 1e-8),
            Check("energy_violations", len(report.violations), "==", 0),
        ],
        tables={"fermi_ball_3d_energy.csv": (
            energy_mod.ENERGY_CSV_HEADER, [energy_mod.report_to_csv_row(report)])},
    )


def scenario_gaussian_packets(length=math.tau) -> ScenarioResult:
    """Semiclassical scaling probe: slope of log tr|[x, omega]| vs log(N eps)."""
    grid = Grid(1, 256, length)
    rows = []
    for n in (8, 16, 32, 64):
        params = ScaledParams(n)
        tr_x, tr_p = sc.commutator_trace_norms(
            packet_slater(grid, params), 0, params.epsilon, sc.PERIODIC)
        rows.append((n, params.epsilon, n * params.epsilon, tr_x, tr_p))
    x = np.log([row[2] for row in rows])
    y = np.log([row[3] for row in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    return ScenarioResult(
        checks=[Check("slope_err", abs(slope - 1.0), "<=", 0.15)],
        tables={"semiclassical_scaling.csv": ("N,eps,N_eps,tr_comm_x,tr_comm_p", rows)},
        report={"slope": slope},
    )


def _two_packet_slater(grid: Grid, params: ScaledParams) -> "SlaterState":
    if params.n_particles not in (2, 3):
        raise ValueError(f"the exact probe takes 2 or 3 particles, got {params.n_particles}")
    width = grid.length / 16.0
    c = grid.length
    orbs = [
        gaussian_packet(grid, [0.375 * c], width, (1,)).values,
        gaussian_packet(grid, [0.625 * c], width, (-1,)).values,
    ]
    if params.n_particles == 3:
        orbs.append(gaussian_packet(grid, [0.5 * c], width, (2,)).values)
    return slater_state(grid, loewdin_orthonormalize(grid, np.array(orbs)), params)


def scenario_hf_vs_exact_n2(m=64, length=math.tau, n_particles=2, epsilon_override=None,
                            dt=1e-3, t_final=1.0) -> ScenarioResult:
    """Two-body exact flow vs mean field at alpha 0.5 and 1."""
    return _hf_vs_exact("hf_vs_exact_n2", (0.5, 1.0), Grid(1, m, length), n_particles,
                        epsilon_override, dt, t_final)


def scenario_hf_vs_exact_n3(m=16, length=math.tau, n_particles=3, epsilon_override=None,
                            dt=1e-3, t_final=0.5) -> ScenarioResult:
    """Three-body exact flow vs mean field at alpha 0.5."""
    return _hf_vs_exact("hf_vs_exact_n3", (0.5,), Grid(1, m, length), n_particles,
                        epsilon_override, dt, t_final)


def _hf_vs_exact(stem: str, alphas: tuple, grid: Grid, n_particles: int,
                 epsilon_override: float | None, dt: float, t_final: float) -> ScenarioResult:
    """Exact few-body flow vs mean field from colliding packets, d = 1."""
    n_steps = int(round(t_final / dt))
    checks, tables, report = [], {}, {}
    for alpha in alphas:
        params = ScaledParams(n_particles, alpha, epsilon_override)
        potential = power_law_potential(grid, alpha)
        initial = _two_packet_slater(grid, params)
        rows = hf_vs_exact_probe(initial, potential, dt, n_steps, max(1, n_steps // 10))
        checks += [
            Check(f"hs_sq_minus_n_fluct_alpha_{alpha}",
                  float(np.max([r.hs**2 - r.n_fluct for r in rows])), "<=", 1e-8),
            Check(f"hs_minus_trace_alpha_{alpha}",
                  float(np.max([r.hs - r.trace for r in rows])), "<=", 1e-10),
            Check(f"initial_hs_alpha_{alpha}", rows[0].hs, "<", 1e-12),
            Check(f"initial_trace_alpha_{alpha}", rows[0].trace, "<", 1e-12),
        ]
        tables[f"{stem}_alpha{alpha}.csv"] = (
            "t,hs,trace,n_fluct,sqrtN,N", [dataclasses.astuple(r) for r in rows]
        )
        report[f"max_hs_alpha_{alpha}"] = max(r.hs for r in rows)
    # free case: mean field is exact, distances stay at zero
    params = ScaledParams(n_particles, alphas[0], epsilon_override)
    zero = dataclasses.replace(power_law_potential(grid, alphas[0]), values=np.zeros(grid.shape))
    rows = hf_vs_exact_probe(_two_packet_slater(grid, params), zero, dt, n_steps, n_steps)
    free_max = float(np.max([(r.hs, r.trace, abs(r.n_fluct)) for r in rows]))
    checks.append(Check("free_case_max_distance", free_max, "<", 1e-9))
    return ScenarioResult(checks, tables, report)


def scenario_fock_audit(length=math.tau, seed=SEED) -> ScenarioResult:
    records = fock_mod.audit_fock_operator_bounds(6, 1000, seed=seed)
    audited = [r.max_slack for r in records if r.bound_id != fock_mod.PRINTED_ID]
    pair = fock_mod.audit_window_pair_bound(Grid(1, 8, length), 3, 100, seed=seed)
    rows = [(r.bound_id, r.trials, r.max_slack) for r in records]
    rows.append(("window-pair-norm", pair["trials"], pair["max_slack_norm_vs_trace"]))
    return ScenarioResult(
        checks=[
            Check("max_slack", float(np.max(audited)), "<=", 1e-10),
            Check("pair_bound_slack", pair["max_slack_norm_vs_trace"], "<=", 1e-10),
            Check("max_slack_trace_vs_commutator", pair["max_slack_trace_vs_commutator"],
                  "<=", 1e-10),
        ],
        tables={"fock_bound_audit.csv": ("bound_id,trials,max_slack", rows)},
    )


def scenario_fluctuation_ring(length=math.tau, alpha=0.5, dt=1e-3, t_final=1.0) -> ScenarioResult:
    """Exact Fock evolution vs mean field on a small ring; growth is measured."""
    result = fock_mod.fluctuation_ring_run(
        m_sites=8, n_particles=2, alpha=alpha, dt=dt, t_final=t_final,
        length=length, n_snapshots=10,
    )
    free = fock_mod.fluctuation_ring_run(
        m_sites=8, n_particles=2, alpha=alpha, dt=dt, t_final=min(t_final, 0.2),
        length=length, n_snapshots=4, zero_potential=True,
    )
    sup_bound = BASELINES["fluct_ring_sup"] * 1.5
    return ScenarioResult(
        checks=[
            Check("identity_err", float(result["identity_err"]), "<", 1e-10),
            Check("free_max", float(np.max(np.abs(free["n_fluct"]))), "<", 1e-9),
            Check("sup_n_fluct", float(np.max(result["n_fluct"])), "<=", sup_bound),
        ],
        tables={"fluctuation_series.csv": (
            "t,n_fluct,hs_distance", list(zip(result["times"], result["n_fluct"], result["hs"])))},
        report={
            "reference_scale": result["reference_scale"],
            "measured_constant": result["measured_constant"],
        },
    )


def scenario_window_audit(length=math.tau, delta=0.1) -> ScenarioResult:
    """Window-commutator trace bound: fitted constant and r-exponent (3d)."""
    grid = Grid(3, 8, length)
    state = packet_slater(grid, ScaledParams(4), width=length / 8.0, centered=True)
    audit = sc.window_commutator_audit(state, sc.DiagnosticsConfig(delta=delta))
    lo, hi = 2.0 * grid.h - 1e-12, grid.length / 4.0 + 1e-12
    trust = [r.ratio for r in audit.rows if lo <= r.radius <= hi and np.isfinite(r.ratio)]
    # 1d companion: the fitted exponent is reported without a verdict
    state1 = packet_slater(Grid(1, 256, length), ScaledParams(8))
    audit1 = sc.window_commutator_audit(
        state1, sc.DiagnosticsConfig(delta=delta, position_convention=sc.PERIODIC))
    rows = [(r.radius, ";".join(f"{c:.17g}" for c in r.center), r.lhs, r.rhs, r.ratio)
            for r in audit.rows]
    exponent_err = abs(audit.fitted_exponent - audit.predicted_exponent)
    return ScenarioResult(
        checks=[
            # finite iff some ratio in the trust range is
            Check("fitted_constant_trust_range", float(np.max(trust)) if trust else math.inf,
                  "<", math.inf),
            Check("exponent_err_3d", exponent_err, "<=", 0.3),
            Check("degenerate_rows", audit.degenerate_rows, "==", 0),
        ],
        tables={"window_commutator.csv": ("r,z,lhs,rhs,ratio", rows)},
        report={
            "fitted_exponent_3d": audit.fitted_exponent,
            "predicted_exponent_3d": audit.predicted_exponent,
            "fitted_exponent_1d": audit1.fitted_exponent,
        },
    )


def scenario_energy_audit(length=math.tau, alpha=1.0, dt=1e-3, t_final=0.2,
                          seed=SEED) -> ScenarioResult:
    grid = Grid(3, 8, length)
    battery = {
        "fermi-ball": fermi_ball(grid, ScaledParams(7, alpha)),
        "packets": packet_slater(grid, ScaledParams(4, alpha), width=length / 7.0, centered=True),
        "random": random_slater(grid, ScaledParams(5, alpha), np.random.default_rng(seed)),
    }
    potential = power_law_potential(grid, alpha)
    rows, violations, measured = [], 0, {}
    for name, state in battery.items():
        report = energy_mod.energy_report(state, potential)
        rows.append([name, *energy_mod.report_to_csv_row(report)])
        violations += len(report.violations)
        measured[name] = {"lt_ratio": report.lieb_thirring_ratio, "hls_ratio": report.hls_ratio}
    # conservation transfer along a short interacting 1d run
    grid1 = Grid(1, 64, length)
    pot1 = power_law_potential(grid1, 0.5)
    snaps, _ = run_hf(packet_slater(grid1, ScaledParams(4, 0.5)), pot1, dt,
                      int(round(t_final / dt)), 50)
    transfer_excess, transfer_peak = energy_mod.conservation_transfer_audit(snaps, pot1)
    ball = measured["fermi-ball"]
    return ScenarioResult(
        checks=[
            Check("violations", violations, "==", 0),
            Check("conservation_transfer_excess", transfer_excess, "<=", 1e-12),
            Check("lt_ratio_rel_drift",
                  abs(ball["lt_ratio"] / BASELINES["lt_ratio_fermi_ball_3d"] - 1.0), "<=", 0.2),
            Check("hls_ratio_rel_drift",
                  abs(ball["hls_ratio"] / BASELINES["hls_ratio_fermi_ball_3d"] - 1.0), "<=", 0.2),
        ],
        tables={"energy_audit.csv": ("state," + energy_mod.ENERGY_CSV_HEADER, rows)},
        report={"measured": measured, "max_transfer_ratio_over_initial": transfer_peak},
    )


@dataclass(frozen=True)
class Scenario:
    run: Callable[..., ScenarioResult]  # its keyword parameters are the fields it honours
    description: str


SCENARIOS = {
    "fdl-verify": Scenario(
        scenario_fdl_verify, "window-representation identity for the alpha grid"),
    "fermi-ball-1d": Scenario(scenario_fermi_ball_1d, "stationary translation-invariant flow, 1d"),
    "fermi-ball-3d": Scenario(scenario_fermi_ball_3d, "stationary translation-invariant flow, 3d"),
    "gaussian-packets": Scenario(
        scenario_gaussian_packets, "semiclassical commutator scaling probe"),
    "hf-vs-exact-n2": Scenario(
        scenario_hf_vs_exact_n2,
        "two-body exact vs mean field, d=1, default M=64, alpha 0.5 and 1 fixed"),
    "hf-vs-exact-n3": Scenario(
        scenario_hf_vs_exact_n3,
        "three-body exact vs mean field, d=1, default M=16, alpha 0.5 fixed"),
    "fock-audit": Scenario(scenario_fock_audit, "second-quantization inequality audit"),
    "fluctuation-ring": Scenario(scenario_fluctuation_ring, "fluctuation growth on a small ring"),
    "window-audit": Scenario(scenario_window_audit, "window-commutator trace bound audit"),
    "energy-audit": Scenario(scenario_energy_audit, "kinetic/pair-energy inequality chain"),
}


def build_config(scenario: str, seed: int | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """The run's defaults, then `overrides`, then `seed`.  Each given field must pass its
    rule in FIELDS, and one the run does not take is rejected, whatever its value."""
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{scenario}'")
    given = {**(overrides or {}), **({} if seed is None else {"seed": seed})}
    unknown = sorted(set(given) - set(FIELDS))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    for name, value in given.items():
        kind, *rule = FIELDS[name]
        if isinstance(value, bool) or not isinstance(value, TYPES[kind]):
            raise ValueError(f"config field {name} must be {kind}, got {value!r}")
        if rule and not rule[0](value):
            raise ValueError(rule[1].format(value))
    parameters = inspect.signature(SCENARIOS[scenario].run).parameters
    ignored = sorted(set(given) - set(parameters) - {"seed"})
    if ignored:
        raise ValueError(f"{scenario} does not honour config fields {ignored}: fixed by the preset")
    fields = {name: given.get(name, p.default) for name, p in parameters.items()}
    if "dt" in fields and int(round(fields["t_final"] / fields["dt"])) < 1:
        raise ValueError("config fields dt and t_final must give at least one step")
    return RunConfig(scenario, given.get("seed", SEED), fields)


def run_scenario(cfg: RunConfig, out_dir) -> ScenarioResult:
    """Runs the preset of `cfg` and writes each of its tables into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = SCENARIOS[cfg.scenario].run(**cfg.fields)
    for name, (header, rows) in result.tables.items():
        write_table(out / name, header, rows)
    return result
