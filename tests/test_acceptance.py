"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a `criterion NN: PASS/FAIL` line (visible with -s / -rA) in
addition to the pytest verdict.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import time
import warnings

import numpy as np
from references import (
    annihilate_orbital,
    annihilator,
    commutator_position,
    create_orbital,
    fock_gamma1,
    fock_lift_unitary,
    operator_norms,
    particle_hole,
    slater_vector,
    vacuum,
)

from hflab.fewbody import hf_vs_exact_probe
from hflab.fock import (
    FockSpace,
    audit_fock_operator_bounds,
    audit_window_pair_bound,
    fluctuation_number,
    fluctuation_ring_run,
)
from hflab.hartree_fock import (
    density_matrix,
    hf_energy,
    hs_distance_squared,
    run_hf,
    slater_state,
)
from hflab.lattice import Grid, ScaledParams
from hflab.potentials import fdl_constant, fdl_reconstruct, power_law_potential, radial_quadrature
from hflab.scenarios import (
    BASELINES,
    _two_packet_slater,
    build_config,
    run_scenario,
)
from hflab.semiclassics import (
    PERIODIC,
    DiagnosticsConfig,
    window_commutator_audit,
)
from hflab.states import fermi_ball, gaussian_packet, packet_slater

warnings.filterwarnings("ignore", message="kinetic phase per step")


def report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)
    assert passed, detail


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_01_fdl_identity():
    t0 = time.time()
    max_err = 0.0
    svals = np.exp(np.linspace(np.log(0.2), np.log(5.0), 50))
    for alpha in (0.25, 0.5, 0.75, 1.0):
        quad = radial_quadrature(alpha, 1e-3, 1e3, 400)
        for s in svals:
            got = fdl_reconstruct(float(s), alpha, quad, dim=3)
            max_err = max(max_err, abs(got / float(s) ** (-alpha) - 1.0))
    const_err = abs(fdl_constant(1.0, 3) - 4.0 / np.pi**2)
    elapsed = time.time() - t0
    report(
        1,
        max_err < 1e-3 and const_err < 1e-12 and elapsed < 5.0,
        f"max rel err {max_err:.2e}, constant err {const_err:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_single_orbital_free_evolution():
    t0 = time.time()
    g = Grid(1, 256)
    p = ScaledParams(1, 0.5)
    pot = power_law_potential(g, 0.5)
    f0 = gaussian_packet(g, [np.pi], 0.3, (5,))
    st = slater_state(g, f0.values[None], p)
    snaps, _ = run_hf(st, pot, 1e-3, 1000)
    t, fin = snaps[-1]
    phase = np.exp(-1j * t * p.epsilon * g.momentum_squared())
    exact = np.fft.ifft(phase * np.fft.fft(f0.values))
    err = np.sqrt(g.cell_volume) * np.linalg.norm(fin.orbitals[0] - exact)
    elapsed = time.time() - t0
    report(2, err < 1e-8 and elapsed < 30.0, f"L2 err {err:.2e}, {elapsed:.1f}s")


def test_criterion_03_fermi_ball_stationarity():
    t0 = time.time()
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    pot = power_law_potential(g, 1.0)
    fb = fermi_ball(g, p)
    snaps, _ = run_hf(fb, pot, 1e-3, 1000, 100)
    worst = max(
        np.sqrt(max(hs_distance_squared(s, fb), 0.0)) / np.sqrt(8.0) for _, s in snaps
    )
    elapsed = time.time() - t0
    report(3, worst < 1e-6 and elapsed < 120.0, f"max dist {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_energy_conservation_and_order():
    g = Grid(1, 64)
    p = ScaledParams(4, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    e0 = hf_energy(st, pot)

    def drift(dt):
        n = int(round(1.0 / dt))
        snaps, _ = run_hf(st, pot, dt, n, max(1, n // 20))
        return max(abs(hf_energy(s, pot) - e0) for _, s in snaps) / max(1.0, abs(e0))

    d_coarse = drift(1e-3)
    d_fine = drift(5e-4)
    ratio = d_coarse / d_fine
    report(
        4,
        d_coarse < 1e-6 and 3.3 <= ratio <= 4.7,
        f"drift {d_coarse:.2e}, halving ratio {ratio:.2f}",
    )


def test_criterion_05_operator_bound_audit():
    records = audit_fock_operator_bounds(6, 1000, seed=2024)
    audited = [r for r in records if r.bound_id != "pair-creation-hs-printed"]
    worst = max(r.max_slack for r in audited)
    pair = audit_window_pair_bound(Grid(1, 8), 3, 100, seed=2024)
    report(
        5,
        worst <= 1e-10
        and pair["max_slack_norm_vs_trace"] <= 1e-10
        and pair["max_slack_trace_vs_commutator"] <= 1e-10,
        f"bound slack {worst:.2e}, pair slack {pair['max_slack_norm_vs_trace']:.2e}, "
        f"commutator slack {pair['max_slack_trace_vs_commutator']:.2e}",
    )


def test_criterion_06_car_particle_hole_suite():
    space = FockSpace(6)
    ops = [annihilator(space, i) for i in range(space.n_modes)]
    car_err = 0.0
    eye = np.eye(space.dim)
    for i in range(6):
        for j in range(6):
            car_err = max(
                car_err,
                np.max(np.abs((ops[i] @ ops[j] + ops[j] @ ops[i]).toarray())),
                np.max(
                    np.abs(
                        (ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]).toarray()
                        - (eye if i == j else 0.0)
                    )
                ),
            )
    occ = [0, 2, 4]
    r = particle_hole(space, occ).toarray()
    slater_err = np.max(np.abs(r @ vacuum(space) - slater_vector(space, occ)))
    gamma_err = np.max(
        np.abs(
            fock_gamma1(space, r @ vacuum(space))
            - np.diag([1.0 if i in occ else 0.0 for i in range(6)])
        )
    )
    u = np.diag([0.0 if i in occ else 1.0 for i in range(6)]).astype(complex)
    vbar = np.diag([1.0 if i in occ else 0.0 for i in range(6)]).astype(complex)
    rng = np.random.default_rng(6)
    conj_err = 0.0
    for _ in range(20):
        gv = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = r.conj().T @ annihilate_orbital(space, gv).toarray() @ r
        rhs = annihilate_orbital(space, u @ gv).toarray() + create_orbital(
            space, vbar @ np.conj(gv)
        ).toarray()
        conj_err = max(conj_err, np.max(np.abs(lhs - rhs)))
    report(
        6,
        car_err <= 1e-15 and slater_err == 0.0 and gamma_err < 1e-12 and conj_err < 1e-12,
        f"CAR {car_err:.1e}, slater {slater_err:.1e}, gamma {gamma_err:.1e}, conj {conj_err:.1e}",
    )


def test_criterion_07_fluctuation_identity():
    worst = 0.0
    rng = np.random.default_rng(7)
    for case in range(100):
        m = 6 if case < 80 else 8
        space = FockSpace(m)
        n_occ = int(rng.integers(1, m - 1))
        w = haar_unitary(m, rng)
        omega = w[:, :n_occ] @ w[:, :n_occ].conj().T
        lift = fock_lift_unitary(space, w)
        r = lift @ particle_hole(space, range(n_occ)).toarray() @ lift.conj().T
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        chi = r.conj().T @ psi
        direct = float(np.real(np.vdot(chi, space.occupations() * chi)))
        formula = fluctuation_number(fock_gamma1(space, psi), omega)
        worst = max(worst, abs(direct - formula))
    ring = fluctuation_ring_run(8, 2, 0.5, 1e-3, 1.0, 2.0 * np.pi, 10)
    report(
        7,
        worst < 1e-10 and ring["identity_err"] < 1e-10,
        f"random cases {worst:.2e}, ring {ring['identity_err']:.2e}",
    )


def test_criterion_08_exact_vs_hf_domination():
    g = Grid(1, 64)
    ok = True
    details = []
    for alpha in (0.5, 1.0):
        p = ScaledParams(2, alpha)
        pot = power_law_potential(g, alpha)
        st = _two_packet_slater(g, p)
        rows = hf_vs_exact_probe(st, pot, 1e-3, 1000, 100)
        dominated = all(r.hs**2 <= r.n_fluct + 1e-8 for r in rows)
        ok = ok and dominated
        details.append(f"alpha={alpha} dom={dominated}")
    p = ScaledParams(2, 0.5)
    pot0 = dataclasses.replace(power_law_potential(g, 0.5), values=np.zeros(g.shape))
    rows = hf_vs_exact_probe(_two_packet_slater(g, p), pot0, 1e-3, 500, 100)
    free_max = max(max(r.hs, r.trace, abs(r.n_fluct)) for r in rows)
    ok = ok and free_max < 1e-9
    report(8, ok, "; ".join(details) + f"; free max {free_max:.1e}")


def test_criterion_09_semiclassical_scaling():
    g = Grid(1, 256)
    pts = []
    for n in (8, 16, 32, 64):
        p = ScaledParams(n, 1.0)
        st = packet_slater(g, p)
        om = density_matrix(st)
        tr = operator_norms(commutator_position(om, 0, PERIODIC))["trace_norm"]
        pts.append((n * p.epsilon, tr))
    slope = float(
        np.polyfit(np.log([a for a, _ in pts]), np.log([b for _, b in pts]), 1)[0]
    )
    report(9, abs(slope - 1.0) <= 0.15, f"slope {slope:.3f}")


def test_criterion_10_window_commutator_audit():
    g = Grid(3, 8)
    p = ScaledParams(4, 0.5)
    st = packet_slater(g, p, width=g.length / 8.0, centered=True)
    om = density_matrix(st)
    cfg = DiagnosticsConfig(delta=0.1)
    radii = np.exp(np.linspace(np.log(g.h), np.log(g.length / 2.0), 7))
    audit = window_commutator_audit(om, cfg, radii=radii)
    trust = [
        row.ratio
        for row in audit.rows
        if 2 * g.h - 1e-12 <= row.radius <= g.length / 4.0 + 1e-12
        and np.isfinite(row.ratio)
    ]
    c_single = float(np.max(trust))
    exp_err = abs(audit.fitted_exponent - (1.5 - 3 * cfg.delta))
    report(
        10,
        np.isfinite(c_single) and audit.degenerate_rows == 0 and exp_err <= 0.3,
        f"C {c_single:.3f}, exponent {audit.fitted_exponent:.3f} vs 1.2",
    )


def test_criterion_11_energy_chain(tmp_path):
    cfg = build_config("energy-audit", seed=2024)
    result = run_scenario(cfg, tmp_path)
    measured = result.report["measured"]
    lt = measured["fermi-ball"]["lt_ratio"] / BASELINES["lt_ratio_fermi_ball_3d"]
    hls = measured["fermi-ball"]["hls_ratio"] / BASELINES["hls_ratio_fermi_ball_3d"]
    stable = abs(lt - 1.0) <= 0.2 and abs(hls - 1.0) <= 0.2
    violations = next(c.value for c in result.checks if c.name == "violations")
    report(
        11,
        result.passed and violations == 0 and stable,
        f"violations {violations}, lt x{lt:.3f}, hls x{hls:.3f}",
    )


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        for name in ("fdl-verify", "fock-audit", "fermi-ball-1d", "fluctuation-ring"):
            cfg = build_config(name, seed=11)
            sub = base / name
            sub.mkdir(parents=True, exist_ok=True)
            run_scenario(cfg, sub)
        outputs.append(base)
    a, b = outputs
    rels = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    identical = bool(rels) and all((a / r).read_bytes() == (b / r).read_bytes() for r in rels)
    report(12, identical, f"{len(rels)} CSV bodies byte-identical")
