import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from references import (
    annihilate_orbital,
    annihilator,
    create_orbital,
    fock_gamma1,
    fock_lift_unitary,
    loop_annihilator,
    loop_hamiltonian,
    loop_quadratic,
    particle_hole,
    slater_vector,
    vacuum,
)

from hflab import fock, lattice
from hflab.fock import (
    FockSpace,
    Sector,
    _bound_slacks,
    _draw_bound_trials,
    _sector_annihilators,
    audit_fock_operator_bounds,
    audit_window_pair_bound,
    evolve_exact,
    fluctuation_number,
    fluctuation_ring_run,
    gamma1,
    lift_unitary,
    ring_hamiltonian,
)
from hflab.hartree_fock import CHEBYSHEV_MAX_PHASE, loewdin_orthonormalize
from hflab.lattice import Grid, ScaledParams, kinetic_operator
from hflab.potentials import gaussian_window, power_law_potential
from hflab.states import lowest_modes, plane_wave


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_car_relations_exact():
    sp = FockSpace(5)
    ops = [annihilator(sp, i) for i in range(sp.n_modes)]
    eye = np.eye(sp.dim)
    for i in range(5):
        for j in range(5):
            anti = (ops[i] @ ops[j] + ops[j] @ ops[i]).toarray()
            assert np.max(np.abs(anti)) == 0.0
            mixed = (ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]).toarray()
            target = eye if i == j else 0.0 * eye
            assert np.max(np.abs(mixed - target)) == 0.0


def test_vacuum_and_occupation():
    sp = FockSpace(4)
    for i in range(4):
        assert np.max(np.abs(annihilator(sp, i) @ vacuum(sp))) == 0.0
    # a_i^* a_i reads the occupation bit
    for i in range(4):
        num = (annihilator(sp, i).T @ annihilator(sp, i)).toarray()
        bits = np.array([(n >> i) & 1 for n in range(sp.dim)], dtype=float)
        assert np.max(np.abs(num - np.diag(bits))) == 0.0


def test_dgamma_expectation_equals_density_pairing():
    sp = FockSpace(5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        o = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        psi = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        psi /= np.linalg.norm(psi)
        lhs = np.vdot(psi, loop_quadratic(sp, o, "dgamma") @ psi)
        gam = fock_gamma1(sp, psi)
        assert abs(lhs - np.trace(o @ gam)) < 1e-10


def test_pair_operator_antisymmetric_part():
    sp = FockSpace(4)
    rng = np.random.default_rng(2)
    o = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    full = loop_quadratic(sp, o, "annihilation").toarray()
    anti = loop_quadratic(sp, (o - o.T) / 2.0, "annihilation").toarray()
    assert np.max(np.abs(full - anti)) < 1e-12


def test_pair_operator_two_mode_hand_case():
    # O = |e0><e1| gives a_0 a_1; on |{0,1}> the result is -|vac> with JW signs
    sp = FockSpace(2)
    o = np.zeros((2, 2), dtype=complex)
    o[0, 1] = 1.0
    op = loop_quadratic(sp, o, "annihilation").toarray()
    state = slater_vector(sp, [0, 1])
    out = op @ state
    expect = np.zeros(4, dtype=complex)
    # a_0 a_1 |11> = a_0 (-|10>)... tracked by hand: equals -|00>
    expect[0] = -1.0
    assert np.max(np.abs(out - expect)) == 0.0
    creation = loop_quadratic(sp, o, "creation").toarray()
    out2 = creation @ vacuum(sp)
    # a_0^* a_1^* |00> = +|11> (adjoint of a_1 a_0 = -a_0 a_1)
    expect2 = np.zeros(4, dtype=complex)
    expect2[3] = 1.0
    assert np.max(np.abs(out2 - expect2)) == 0.0


def test_slater_vector_and_construction_agree():
    sp = FockSpace(6)
    occ = [1, 3, 4]
    direct = vacuum(sp)
    for s in sorted(occ, reverse=True):
        direct = annihilator(sp, s).T @ direct
    assert np.max(np.abs(slater_vector(sp, occ) - direct)) == 0.0


def test_particle_hole_generates_slater():
    sp = FockSpace(6)
    occ = [0, 2, 5]
    r = particle_hole(sp, occ).toarray()
    assert np.max(np.abs(r.conj().T @ r - np.eye(sp.dim))) == 0.0
    assert np.max(np.abs(r @ vacuum(sp) - slater_vector(sp, occ))) == 0.0


def test_particle_hole_reduced_density():
    sp = FockSpace(6)
    occ = [0, 2, 5]
    psi = particle_hole(sp, occ) @ vacuum(sp)
    gam = fock_gamma1(sp, psi)
    expect = np.diag([1.0 if i in occ else 0.0 for i in range(6)])
    assert np.max(np.abs(gam - expect)) < 1e-12


def test_particle_hole_conjugation_identity():
    sp = FockSpace(6)
    occ = [0, 1, 2]
    r = particle_hole(sp, occ).toarray()
    u = np.diag([0.0 if i in occ else 1.0 for i in range(6)]).astype(complex)
    vbar = np.diag([1.0 if i in occ else 0.0 for i in range(6)]).astype(complex)
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = r.conj().T @ annihilate_orbital(sp, g).toarray() @ r
        rhs = annihilate_orbital(sp, u @ g).toarray() + create_orbital(
            sp, vbar @ np.conj(g)
        ).toarray()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_lift_identity_and_permutation():
    sp = FockSpace(4)
    assert np.max(np.abs(fock_lift_unitary(sp, np.eye(4)) - np.eye(sp.dim))) == 0.0
    # transposition of modes 0,1: basis states map with fermionic signs
    p = np.eye(4)[:, [1, 0, 2, 3]]
    g = fock_lift_unitary(sp, p)
    assert np.max(np.abs(g @ g - np.eye(sp.dim))) < 1e-12
    v01 = slater_vector(sp, [0, 1])
    assert np.max(np.abs(g @ v01 + v01)) < 1e-12  # swap flips the pair sign
    v02 = slater_vector(sp, [0, 2])
    assert np.max(np.abs(g @ v02 - slater_vector(sp, [1, 2]))) < 1e-12


def test_lift_rotated_slater_dual_construction():
    sp = FockSpace(6)
    rng = np.random.default_rng(4)
    w = haar_unitary(6, rng)
    lifted = fock_lift_unitary(sp, w)
    assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(sp.dim))) < 1e-9
    occ = [0, 3, 4]
    direct = vacuum(sp)
    for s in sorted(occ, reverse=True):
        direct = create_orbital(sp, w[:, s]) @ direct
    assert np.max(np.abs(lifted @ slater_vector(sp, occ) - direct)) < 1e-9


def test_lift_conjugates_creation():
    sp = FockSpace(5)
    rng = np.random.default_rng(5)
    w = haar_unitary(5, rng)
    lifted = fock_lift_unitary(sp, w)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lhs = lifted @ create_orbital(sp, f).toarray() @ lifted.conj().T
    rhs = create_orbital(sp, w @ f).toarray()
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_lift_matches_minor_loop_bitwise():
    # every k x k minor gathered one by one, as det W[S'|S]: the whole-space lift and the
    # sector lift of each k give its bits
    m = 8
    sp = FockSpace(m)
    w = haar_unitary(m, np.random.default_rng(9))
    ref = np.zeros((sp.dim, sp.dim), dtype=complex)
    ref[0, 0] = 1.0
    for k in range(1, m + 1):
        subsets = list(itertools.combinations(range(m), k))
        masks = [sum(1 << s for s in sub) for sub in subsets]
        minors = np.empty((len(subsets), len(subsets), k, k), dtype=complex)
        for b, cols_sub in enumerate(subsets):
            for a, rows_sub in enumerate(subsets):
                minors[a, b] = w[np.ix_(rows_sub, cols_sub)]
        dets = np.linalg.det(minors.reshape(-1, k, k)).reshape(len(subsets), -1)
        for a, ma in enumerate(masks):
            ref[ma, masks] = dets[a]
    assert np.array_equal(fock_lift_unitary(sp, w), ref)
    for k in range(m + 1):
        masks = Sector(m, k).masks
        assert np.array_equal(lift_unitary(Sector(m, k), w), ref[np.ix_(masks, masks)]), k


def test_lift_rejects_nonunitary():
    with pytest.raises(ValueError):
        lift_unitary(Sector(3, 1), np.ones((3, 3)))
    with pytest.raises(ValueError):
        lift_unitary(Sector(3, 1), np.eye(4))


def test_hamiltonian_single_particle_spectrum():
    g = Grid(1, 8)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    block = ring_hamiltonian(Sector(8, 1), g, p, pot).toarray()
    kin = kinetic_operator(g, p).matrix
    lattice_eigs = np.sort(np.linalg.eigvalsh(kin))
    sector_eigs = np.sort(np.linalg.eigvalsh(block))
    assert np.allclose(sector_eigs, lattice_eigs, atol=1e-10)


def test_hamiltonian_two_site_two_particle():
    g = Grid(1, 2, 1.0)
    p = ScaledParams(2, 1.0)
    pot = power_law_potential(g, 1.0)
    kin = kinetic_operator(g, p).matrix
    # the 2-particle sector of 2 modes is the one state |{0, 1}>
    (e,) = ring_hamiltonian(Sector(2, 2), g, p, pot).toarray().reshape(-1)
    expected = np.trace(kin).real + pot.values.reshape(-1)[1] / 2.0
    assert e == pytest.approx(expected, abs=1e-12)


def test_sector_matches_antisymmetrized_first_quantization():
    # N = 2 sector of the mode Hamiltonian vs the pair basis (|ij> - |ji>)/sqrt(2)
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    block = ring_hamiltonian(Sector(6, 2), g, p, pot).toarray()

    kin = kinetic_operator(g, p).matrix
    m = np.arange(6)
    pair_v = pot.values.reshape(-1)[(m[:, None] - m[None, :]) % 6]
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    first = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            val = 0.0
            # one-body part on antisymmetric pair states
            val += kin[i, k] * (j == l) + kin[j, l] * (i == k)
            val -= kin[i, l] * (j == k) + kin[j, k] * (i == l)
            if a == b:
                val += p.coupling * pair_v[i, j]
            first[a, b] = val if a != b else val
    # fock sector basis is ordered by bitmask = (i, j) lexicographic; align orders
    order = sorted(range(len(pairs)), key=lambda t: (1 << pairs[t][0]) | (1 << pairs[t][1]))
    first = first[np.ix_(order, order)]
    assert np.max(np.abs(block - first)) < 1e-12


def test_fluctuation_number_basics():
    rng = np.random.default_rng(6)
    w = haar_unitary(6, rng)
    omega = w[:, :3] @ w[:, :3].conj().T
    assert fluctuation_number(omega, omega) == pytest.approx(0.0, abs=1e-12)
    # orthogonal rank-N projections are maximally mismatched
    other = w[:, 3:] @ w[:, 3:].conj().T
    assert fluctuation_number(other, omega) == pytest.approx(6.0, abs=1e-12)


def test_fluctuation_formula_vs_fock_expectation():
    sp = FockSpace(6)
    rng = np.random.default_rng(7)
    nop_diag = sp.occupations().astype(float)
    r_base = particle_hole(sp, [0, 1]).toarray()
    for _ in range(10):
        w = haar_unitary(6, rng)
        omega = w[:, :2] @ w[:, :2].conj().T
        lift = fock_lift_unitary(sp, w)
        r = lift @ r_base @ lift.conj().T
        psi = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        psi /= np.linalg.norm(psi)
        chi = r.conj().T @ psi
        direct = float(np.real(np.vdot(chi, nop_diag * chi)))
        formula = fluctuation_number(fock_gamma1(sp, psi), omega)
        assert abs(direct - formula) < 1e-10


def test_fluctuation_after_exact_evolution():
    # evolve a Slater exactly, compare formula with the Fock expectation at t = 0.5
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    space, sector = FockSpace(6), Sector(6, 2)
    ham = ring_hamiltonian(sector, g, p, pot)
    psi0 = slater_vector(space, [0, 3])
    snaps = evolve_exact(ham, psi0[sector.masks], 0.05, 10, p.epsilon)
    psi_t = np.zeros(space.dim, dtype=complex)
    psi_t[sector.masks] = snaps[-1][1]
    assert np.linalg.norm(psi_t) == pytest.approx(1.0, abs=1e-9)
    gam = fock_gamma1(space, psi_t)
    assert np.max(np.abs(gamma1(sector, snaps[-1][1]) - gam)) <= 1e-14
    omega = np.diag([1.0, 0, 0, 1.0, 0, 0]).astype(complex)
    r = particle_hole(space, [0, 3]).toarray()
    chi = r.conj().T @ psi_t
    direct = float(np.real(np.vdot(chi, space.occupations() * chi)))
    assert abs(direct - fluctuation_number(gam, omega)) < 1e-10


def test_gamma1_bounds_and_trace():
    rng = np.random.default_rng(8)
    for n in range(6):
        sector = Sector(5, n)
        psi = rng.standard_normal(len(sector.masks)) + 1j * rng.standard_normal(len(sector.masks))
        psi /= np.linalg.norm(psi)
        gam = gamma1(sector, psi)
        assert np.max(np.abs(gam - gam.conj().T)) <= 1e-15, n
        eigs = np.linalg.eigvalsh(gam)
        assert np.all(eigs >= -1e-12) and np.all(eigs <= 1.0 + 1e-12), n
        assert np.trace(gam).real == pytest.approx(n, abs=1e-12)


def test_bound_audit_no_violations():
    records = audit_fock_operator_bounds(6, 100, seed=11)
    by_id = {r.bound_id: r for r in records}
    for name, rec in by_id.items():
        if name == "pair-creation-hs-printed":
            continue
        assert rec.max_slack <= 1e-10, name
    # equality cases are hit by the low-sector trials
    assert by_id["dgamma-expectation-psd"].max_slack == pytest.approx(0.0, abs=1e-10)
    # the as-printed creation-pair form genuinely fails on vacuum components
    assert by_id["pair-creation-hs-printed"].max_slack > 1.0


def test_pair_bound_audit():
    rep = audit_window_pair_bound(Grid(1, 8), 3, 30, seed=12)
    assert rep["max_slack_norm_vs_trace"] <= 1e-10
    assert rep["max_slack_trace_vs_commutator"] <= 1e-10


@pytest.mark.parametrize("seed", [5, 2024])
def test_pair_bound_chain_holds_with_the_conjugate_kernel(seed):
    # complex orbitals tell v from its conjugate: with vbar chi u in place of
    # v chi u the second link fails on every seed (slack +0.66 to +1.26)
    grid = Grid(1, 8)
    rep = audit_window_pair_bound(grid, 3, 100, seed=seed)
    assert rep["max_slack_trace_vs_commutator"] <= 1e-10
    conjugated = _window_pair_reference(grid, 3, 100, seed, conjugate_kernel=True)
    assert conjugated["max_slack_trace_vs_commutator"] > 0.5


BOUND_IDS = [
    "dgamma-expectation-psd",
    "dgamma-expectation-abs",
    "dgamma-number",
    "dgamma-hs",
    "pair-annihilation-hs",
    "pair-creation-hs-shifted",
    "trace-class",
    "pair-creation-hs-printed",
]


def _bound_audit_reference(n_modes, trials, seed):
    """Per-trial audit loop with the loop-built dGamma and pair operators."""
    space = FockSpace(n_modes)
    rng = np.random.default_rng(seed)
    occ = space.occupations().astype(float)
    slacks = dict.fromkeys(BOUND_IDS, -np.inf)
    for trial in range(trials):
        o = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal(
            (n_modes, n_modes)
        )
        o_psd = o @ o.conj().T
        o_psd /= np.linalg.norm(o_psd, 2)
        psi = np.zeros(space.dim, dtype=complex)
        if trial % 10 == 0:
            modes = rng.integers(0, n_modes, size=2)
            psi[0 if trial % 20 == 0 else 1 << int(modes[0])] = 1.0
        else:
            psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            psi /= np.linalg.norm(psi)
        op_norm = np.linalg.norm(o, 2)
        hs = np.linalg.norm(o)
        tr_abs = np.sum(np.linalg.svd(o, compute_uv=False))
        dg = loop_quadratic(space, o, "dgamma") @ psi
        dg_psd = loop_quadratic(space, o_psd, "dgamma") @ psi
        pa = loop_quadratic(space, o, "annihilation") @ psi
        pc = loop_quadratic(space, o, "creation") @ psi
        n_exp = np.real(np.vdot(psi, occ * psi))
        sqrt_n = np.linalg.norm(np.sqrt(occ) * psi)
        values = {
            "dgamma-expectation-psd": np.real(np.vdot(psi, dg_psd)) - n_exp,
            "dgamma-expectation-abs": abs(np.vdot(psi, dg)) - op_norm * n_exp,
            "dgamma-number": np.linalg.norm(dg) - op_norm * np.linalg.norm(occ * psi),
            "dgamma-hs": np.linalg.norm(dg) - hs * sqrt_n,
            "pair-annihilation-hs": np.linalg.norm(pa) - hs * sqrt_n,
            "pair-creation-hs-shifted": np.linalg.norm(pc)
            - hs * np.linalg.norm(np.sqrt(occ + 2.0) * psi),
            "trace-class": max(np.linalg.norm(v) for v in (dg, pa, pc)) - 2.0 * tr_abs,
            "pair-creation-hs-printed": np.linalg.norm(pc) - hs * sqrt_n,
        }
        for key, val in values.items():
            slacks[key] = max(slacks[key], float(val))
    return slacks


@pytest.mark.parametrize("n_modes", [4, 6])
def test_bound_audit_matches_per_trial_reference(n_modes):
    records = audit_fock_operator_bounds(n_modes, 50, seed=21)
    ref = _bound_audit_reference(n_modes, 50, seed=21)
    assert [r.bound_id for r in records] == BOUND_IDS
    for rec in records:
        assert rec.trials == 50
        assert abs(rec.max_slack - ref[rec.bound_id]) <= 1e-12, rec.bound_id


def _window_pair_reference(grid, n_occupied, trials, seed, conjugate_kernel=False):
    """Per-trial loop with the full 2^m x 2^m pair operator and its dense norm.

    v = sum_j |conj f_j><f_j|; `conjugate_kernel` puts its complex conjugate
    in its place, the matrix the chain does not bound.
    """
    space = FockSpace(grid.site_count)
    rng = np.random.default_rng(seed)
    worst_first, worst_second = -np.inf, -np.inf
    for _ in range(trials):
        shape = (n_occupied,) + grid.shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        orbs = loewdin_orthonormalize(grid, raw).reshape(n_occupied, -1)
        h = grid.cell_volume
        omega = h * (orbs.T @ orbs.conj())
        u = np.eye(grid.site_count) - omega
        v = h * (orbs.T @ orbs) if conjugate_kernel else h * np.conj(orbs.T @ orbs)
        radius = float(np.exp(rng.uniform(np.log(grid.h), np.log(grid.length / 2))))
        center = rng.uniform(0.0, grid.length, size=grid.dim)
        chi = np.diag(gaussian_window(grid, center, radius).reshape(-1))
        o = v @ chi @ u
        b_norm = np.linalg.norm(loop_quadratic(space, o, "annihilation").toarray(), 2)
        tr_o = np.sum(np.linalg.svd(o, compute_uv=False))
        tr_comm = np.sum(np.linalg.svd(chi @ omega - omega @ chi, compute_uv=False))
        worst_first = max(worst_first, b_norm - 2.0 * tr_o)
        worst_second = max(worst_second, tr_o - tr_comm)
    return {
        "trials": trials,
        "max_slack_norm_vs_trace": worst_first,
        "max_slack_trace_vs_commutator": worst_second,
    }


@pytest.mark.parametrize("m", [6, 8])
def test_pair_bound_audit_matches_dense_reference(m):
    rep = audit_window_pair_bound(Grid(1, m), 3, 4, seed=13)
    ref = _window_pair_reference(Grid(1, m), 3, 4, seed=13)
    assert rep.keys() == ref.keys()
    for key, val in ref.items():
        assert abs(rep[key] - val) <= 1e-12, key


def test_sector_annihilators_reassemble_dense():
    sp = FockSpace(5)
    blocks = _sector_annihilators(sp)
    for i in range(5):
        op = loop_annihilator(sp, i)
        dense = np.zeros((sp.dim, sp.dim))
        for n in range(1, 6):
            dense[np.ix_(Sector(5, n - 1).masks, Sector(5, n).masks)] = blocks[n][i]
        assert np.array_equal(dense, op.toarray())


def test_pair_bound_audit_memory_is_sector_sized():
    # the pair monomials on the sector blocks take 64 * 8008 complex entries
    # (8 MiB); dense 256 x 256 monomials alone would take 64 MiB
    grid = Grid(1, 8)
    tracemalloc.start()
    try:
        audit_window_pair_bound(grid, 3, 2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def _traced_peak_mib(func) -> float:
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_bound_audit_memory_is_on_the_diagnostics_budget():
    # the fock-audit preset's call: measured 5.3 MiB, bounded with 40% margin;
    # evaluating all 1000 trials at once took 29.5 MiB
    assert _traced_peak_mib(lambda: audit_fock_operator_bounds(6, 1000, seed=5)) <= 7.5


def test_pair_audit_memory_is_on_the_diagnostics_budget():
    # the fock-audit preset's call: measured 4.4 MiB, bounded with 35% margin;
    # evaluating all 100 trials at once took 13.3 MiB
    assert _traced_peak_mib(lambda: audit_window_pair_bound(Grid(1, 8), 3, 100, seed=5)) <= 6.0


def test_fock_audits_do_not_depend_on_the_budget(monkeypatch):
    # 200 bound trials run in 2 blocks at the default budget, 200 at budget 1;
    # 25 pair trials in 2 blocks in the 5-particle sector, 25 at budget 1
    def audits():
        return (audit_fock_operator_bounds(6, 200, seed=3),
                audit_window_pair_bound(Grid(1, 8), 3, 25, seed=3))

    default = audits()
    monkeypatch.setattr(lattice, "DIAGNOSTICS_CHUNK_POINTS", 1)
    assert audits() == default


def test_bound_slacks_per_trial_do_not_depend_on_the_block():
    space = FockSpace(6)
    o, psi = _draw_bound_trials(np.random.default_rng(3), slice(0, 40), 6, space.dim)
    whole = _bound_slacks(space, o, psi)
    for size in (1, 3):
        parts = [_bound_slacks(space, o[lo : lo + size], psi[lo : lo + size])
                 for lo in range(0, 40, size)]
        for bound, slack in whole.items():
            assert np.array_equal(np.concatenate([p[bound] for p in parts]), slack), bound


def ring_loop_hamiltonian(space: FockSpace, grid: Grid, params: ScaledParams, alpha: float):
    """The whole 2^m ring Hamiltonian from the loop reference."""
    pot = power_law_potential(grid, alpha)
    return loop_hamiltonian(space, kinetic_operator(grid, params).matrix, pot.pair_matrix,
                            params.coupling)


def test_exact_evolution_matches_dense_expm():
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    space = FockSpace(6)
    ham = ring_loop_hamiltonian(space, g, p, 0.5)
    psi0 = slater_vector(space, [0, 1])
    snaps = evolve_exact(ham, psi0, 0.1, 5, p.epsilon)
    _, psi_t = snaps[-1]
    direct = expm(-1j * 0.5 / p.epsilon * ham.toarray()) @ psi0
    assert np.max(np.abs(psi_t - direct)) < 1e-9


def spy_series(monkeypatch) -> list:
    """Record the phase tau r of every Chebyshev series evolve_exact runs."""
    phases = []
    real = fock.chebyshev_expm

    def spy(apply, block, tau, centre, radius):
        phases.append(tau * radius)
        return real(apply, block, tau, centre, radius)

    monkeypatch.setattr(fock, "chebyshev_expm", spy)
    return phases


def test_exact_evolution_one_chebyshev_series_per_report(monkeypatch):
    phases = spy_series(monkeypatch)
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    space = FockSpace(6)
    ham = ring_loop_hamiltonian(space, g, p, 0.5)
    psi0 = slater_vector(space, [0, 1])
    snaps = evolve_exact(ham, psi0, 0.1, 5, p.epsilon, snapshot_every=2)
    assert len(phases) == 3  # reports after steps 2, 4 and 5
    assert max(phases) <= CHEBYSHEV_MAX_PHASE
    assert [t for t, _ in snaps] == [s * 0.1 for s in (0, 2, 4, 5)]
    for t, psi_t in snaps:
        direct = expm(-1j * t / p.epsilon * ham.toarray()) @ psi0
        assert np.max(np.abs(psi_t - direct)) < 1e-9


def ring_case(m: int, seed: int = 1):
    g = Grid(1, m)
    p = ScaledParams(2, 0.5)
    space = FockSpace(m)
    ham = ring_loop_hamiltonian(space, g, p, 0.5)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return space, p, ham, psi / np.linalg.norm(psi)


@pytest.mark.parametrize("m", [6, 8])
def test_exact_evolution_matches_expm_multiply(m):
    # the fluctuation-ring step and report stride
    _, p, ham, psi0 = ring_case(m)
    kept = psi0.copy()
    snaps = evolve_exact(ham, psi0, 1e-3, 1000, p.epsilon, 100)
    assert np.array_equal(psi0, kept)  # the series consume copies, never the caller's psi
    assert len(snaps) == 11
    for t, psi_t in snaps:
        expected = expm_multiply((-1j * t / p.epsilon) * ham, psi0)
        assert np.max(np.abs(psi_t - expected)) <= 1e-12


def test_exact_evolution_on_a_sector_block_matches_the_full_space():
    # the builder's block against the loop-built 2^m H, from the same N-particle state
    space, p, ham, psi = ring_case(6)
    g = Grid(1, 6)
    for n in (1, 2, 3):
        sector = Sector(6, n).masks
        psi0 = np.zeros_like(psi)
        psi0[sector] = psi[sector] / np.linalg.norm(psi[sector])
        full = evolve_exact(ham, psi0, 1e-2, 100, p.epsilon, 25)
        block = ring_hamiltonian(Sector(6, n), g, p, power_law_potential(g, 0.5))
        for (t, psi_t), (s, chi_t) in zip(full, evolve_exact(block, psi0[sector], 1e-2, 100,
                                                             p.epsilon, 25)):
            assert t == s
            assert np.max(np.abs(psi_t[sector] - chi_t)) <= 1e-12


def test_long_report_splits_into_equal_series(monkeypatch):
    phases = spy_series(monkeypatch)
    _, p, ham, psi0 = ring_case(6)
    (_, start), (_, psi_t) = evolve_exact(ham, psi0, 5.0, 1, p.epsilon)
    assert np.array_equal(start, psi0)
    assert len(phases) == 5 and len(set(phases)) == 1
    assert phases[0] <= CHEBYSHEV_MAX_PHASE
    expected = expm(-1j * 5.0 / p.epsilon * ham.toarray()) @ psi0
    assert np.max(np.abs(psi_t - expected)) <= 1e-12


def test_fluctuation_ring_verify_loads_no_scipy_linalg():
    # the exact flow runs on the mean field's Chebyshev series: neither
    # scipy.linalg nor scipy.sparse.linalg is imported by a verify run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = (
        "import sys, tempfile\n"
        "from hflab.cli import main\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert main(['verify', '--scenarios', 'fluctuation-ring', '--out', out]) == 0\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# The basis-state loop the occupation table replaced, kept as a reference: each
# entry is built one state at a time from its bitmask (the others are in references.py).


def _loop_particle_hole(space, occupied):
    s_mask = sum(1 << s for s in sorted(set(occupied)))
    below = [(s_mask & ((1 << j) - 1)).bit_count() for j in range(space.n_modes)]
    rows, cols, vals = [], [], []
    for n in range(space.dim):
        parity = sum(below[j] for j in range(space.n_modes) if n >> j & 1) % 2
        rows.append(n ^ s_mask)
        cols.append(n)
        vals.append(-1.0 if parity else 1.0)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex)


@pytest.mark.parametrize("m", range(1, 9))
def test_annihilator_stack_matches_loop_bitwise(m):
    sp = FockSpace(m)
    loop = [loop_annihilator(sp, i).toarray() for i in range(m)]
    assert np.array_equal(sp.annihilators.toarray(), np.concatenate(loop))
    for i in range(m):
        assert np.array_equal(annihilator(sp, i).toarray(), loop[i])
    assert not sp.bits.flags.writeable and not sp.annihilators.data.flags.writeable
    assert np.array_equal(sp.occupations(), [n.bit_count() for n in range(sp.dim)])


@pytest.mark.parametrize("occupied", [[0, 2, 5], [1, 3, 4], [0, 1, 2, 3, 4, 5]])
def test_particle_hole_matches_loop_bitwise(occupied):
    sp = FockSpace(6)
    fast, loop = particle_hole(sp, occupied), _loop_particle_hole(sp, occupied)
    assert fast.dtype == loop.dtype and np.array_equal(fast.toarray(), loop.toarray())


@pytest.mark.parametrize("m", [6, 8])
def test_ring_hamiltonian_matches_loop_build(m):
    # every sector's block of the loop-built 2^m H, with V(x - y) gathered by hand
    g = Grid(1, m)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    idx = np.arange(m)
    pair_v = pot.values.reshape(-1)[(idx[:, None] - idx[None, :]) % m]
    space = FockSpace(m)
    ref = loop_hamiltonian(space, kinetic_operator(g, p).matrix, pair_v, p.coupling).toarray()
    for n in range(m + 1):
        masks = Sector(m, n).masks
        block = ring_hamiltonian(Sector(m, n), g, p, pot).toarray()
        expected = ref[np.ix_(masks, masks)]
        off = ~np.eye(len(masks), dtype=bool)
        assert np.array_equal(block[off], expected[off]), n
        assert np.max(np.abs(np.diag(block) - np.diag(expected))) <= 1e-14, n


@pytest.mark.parametrize("m", [6, 8])
def test_ring_hamiltonian_is_hermitian(m):
    g = Grid(1, m)
    p = ScaledParams(2, 0.5)
    for n in range(m + 1):
        ham = ring_hamiltonian(Sector(m, n), g, p, power_law_potential(g, 0.5))
        assert ham.shape == (math.comb(m, n),) * 2 and ham.dtype == np.float64
        assert np.max(np.abs((ham - ham.conj().T).toarray()), initial=0.0) <= 1e-15, n


def test_ring_hamiltonian_rejects_a_space_of_another_size():
    g = Grid(1, 6)
    with pytest.raises(ValueError):
        ring_hamiltonian(Sector(8, 2), g, ScaledParams(2, 0.5), power_law_potential(g, 0.5))


def test_fluctuation_ring_run_builds_no_fock_space(monkeypatch):
    # the ring run's H, gamma1 and identity check all live on its Sector
    builds = []
    monkeypatch.setattr(FockSpace, "__post_init__", lambda space: builds.append(space.n_modes))
    fluctuation_ring_run(8, 2, 0.5, 1e-3, 0.05, 2 * np.pi, 2)
    assert builds == []
    FockSpace(3)
    assert builds == [3]  # the spy sees a construction


def test_created_slater_state_lives_in_its_sector():
    # a create_orbital product of N orbitals has no amplitude outside the N-particle sector
    sp = FockSpace(6)
    w = haar_unitary(6, np.random.default_rng(15))
    psi = vacuum(sp)
    for j in (2, 1, 0):
        psi = create_orbital(sp, w[:, j]) @ psi
    outside = np.ones(sp.dim, dtype=bool)
    outside[Sector(6, 3).masks] = False
    assert np.all(psi[outside] == 0.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_fluctuation_ring_run_evolves_the_sector_amplitudes(monkeypatch):
    # two particles on eight sites: C(8, 2) = 28 amplitudes, not 2^8 = 256
    lengths = []
    real = fock.evolve_exact

    def spy(ham, psi, *args):
        lengths.append((ham.shape, psi.shape))
        return real(ham, psi, *args)

    monkeypatch.setattr(fock, "evolve_exact", spy)
    run = fluctuation_ring_run(8, 2, 0.5, 1e-3, 0.05, 2 * np.pi, 2)
    assert lengths == [((28, 28), (28,))]
    assert run["identity_err"] < 1e-10


def test_fluctuation_ring_run_starts_from_the_created_slater(monkeypatch):
    # the run's det f_j(s_k) amplitudes are the create_orbital product a*(f_0) a*(f_1) Omega
    starts = []
    real = fock.evolve_exact

    def spy(ham, psi, *args):
        starts.append(psi)
        return real(ham, psi, *args)

    monkeypatch.setattr(fock, "evolve_exact", spy)
    fluctuation_ring_run(8, 2, 0.5, 1e-3, 0.05, 2 * np.pi, 2)
    grid = Grid(1, 8, 2 * np.pi)
    sp = FockSpace(8)
    created = vacuum(sp)
    for mv in reversed(lowest_modes(grid, 2)):
        mode = np.sqrt(grid.cell_volume) * plane_wave(grid, mv).values
        created = create_orbital(sp, mode) @ created
    assert np.max(np.abs(starts[0] - created[Sector(8, 2).masks])) <= 1e-15


# The sector layer against the whole Fock space it replaces in the ring run.


@pytest.mark.parametrize("m", range(1, 9))
def test_sector_masks_match_the_full_space(m):
    sp = FockSpace(m)
    for n in range(m + 1):
        sector = Sector(m, n)
        masks = np.nonzero(sp.occupations() == n)[0]
        assert np.array_equal(sector.masks, masks), n
        assert np.array_equal(sector.bits, sp.bits[masks]), n
        assert np.array_equal(sector.occupied, [np.nonzero(row)[0] for row in sector.bits]), n
        tables = (sector.occupied, sector.masks, sector.bits) + sector.hops
        assert not any(table.flags.writeable for table in tables), n


def test_sector_rejects_sizes_its_masks_cannot_hold():
    # int64 bitmasks hold 63 modes; 1 << 63 would wrap to a negative mask
    assert Sector(63, 1).masks[-1] == 1 << 62
    for m, n in ((64, 1), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            Sector(m, n)


@pytest.mark.parametrize("m", [6, 8])
def test_sector_gamma1_matches_the_full_space(m):
    # unnormalised amplitudes of size about 1e2, embedded in the 2^m vector
    sp = FockSpace(m)
    rng = np.random.default_rng(m)
    for n in range(m + 1):
        sector = Sector(m, n)
        dim = len(sector.masks)
        psi = 1e2 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        full = np.zeros(sp.dim, dtype=complex)
        full[sector.masks] = psi
        ref = fock_gamma1(sp, full)
        assert np.max(np.abs(gamma1(sector, psi) - ref)) <= 1e-14 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("m", [6, 8])
def test_sector_identity_matches_the_full_space(m):
    # <psi, R_W N R_W^* psi> for R_W = Gamma(W) R Gamma(W)^*: on all 2^m states through the
    # whole-space lift and particle-hole map, and on the sector as the ring run takes it,
    # sum_S |(Gamma_N(W)^* psi)_S|^2 |S xor S_0|
    sp = FockSpace(m)
    rng = np.random.default_rng(20 + m)
    for n in range(1, m):
        sector = Sector(m, n)
        w = haar_unitary(m, rng)
        psi = rng.standard_normal(len(sector.masks)) + 1j * rng.standard_normal(len(sector.masks))
        psi /= np.linalg.norm(psi)
        full = np.zeros(sp.dim, dtype=complex)
        full[sector.masks] = psi
        lift = fock_lift_unitary(sp, w)
        chi = lift @ (particle_hole(sp, range(n)).toarray().T @ (lift.conj().T @ full))
        expected = float(np.real(np.vdot(chi, sp.occupations() * chi)))
        flips = [bin(mask ^ ((1 << n) - 1)).count("1") for mask in sector.masks]
        got = float(np.abs(lift_unitary(sector, w).conj().T @ psi) ** 2 @ flips)
        assert abs(got - expected) <= 1e-14, n


def test_sector_ring_past_the_mode_cap():
    # four particles on sixteen sites: 1820 amplitudes, where a FockSpace stops at 12 modes
    with pytest.raises(ValueError):
        FockSpace(16)
    g = Grid(1, 16)
    p = ScaledParams(4, 0.5)
    sector = Sector(16, 4)
    ham = ring_hamiltonian(sector, g, p, power_law_potential(g, 0.5))
    assert ham.shape == (1820, 1820) and ham.dtype == np.float64
    assert np.max(np.abs((ham - ham.T).toarray())) <= 1e-15
    modes = np.sqrt(g.cell_volume) * np.array([plane_wave(g, mv).values
                                               for mv in lowest_modes(g, 4)])
    psi = np.linalg.det(modes.T[sector.occupied])
    (_, start), (_, psi_t) = evolve_exact(ham, psi, 1e-2, 10, p.epsilon)
    for amplitudes in (start, psi_t):
        gam = gamma1(sector, amplitudes)
        # tr gamma1 = N |psi|^2, whatever the flow's rounding does to |psi|
        assert np.trace(gam).real == pytest.approx(4.0 * np.vdot(amplitudes, amplitudes).real,
                                                   abs=1e-12)
        assert np.vdot(amplitudes, amplitudes).real == pytest.approx(1.0, abs=1e-11)
        assert np.max(np.abs(gam - gam.conj().T)) <= 1e-14
