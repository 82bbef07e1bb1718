import dataclasses
import functools
import itertools

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

from hflab.fewbody import (
    NBodyState,
    _kinetic_symbol,
    _particle_axes,
    _permutation_sign,
    hf_vs_exact_probe,
    nbody_step,
    pair_interaction_diagonal,
    reduced_density,
    slater_wavefunction,
)
from hflab.fock import Sector, evolve_exact, gamma1, ring_hamiltonian
from hflab.hartree_fock import density_matrix, slater_state
from hflab.lattice import Grid, ScaledParams, kinetic_operator
from hflab.potentials import PowerLawPotential, power_law_potential
from hflab.states import gaussian_packet, random_slater


# References: antisymmetrization, the N-body energy and particle exchange on the full tensor.


def antisymmetrize(grid: Grid, psi_raw: np.ndarray, params: ScaledParams,
                   time: float = 0.0) -> NBodyState:
    """Signed sum over particle permutations, renormalized."""
    n = params.n_particles
    psi_raw = np.asarray(psi_raw, dtype=complex)
    state = NBodyState(grid, n, psi_raw, params, time)
    acc = np.zeros_like(psi_raw)
    for perm in itertools.permutations(range(n)):
        axes = []
        for i in perm:
            axes.extend(_particle_axes(grid.dim, i))
        acc = acc + _permutation_sign(perm) * np.transpose(psi_raw, axes)
    nrm = np.sqrt(grid.cell_volume**n) * np.linalg.norm(acc)
    if nrm < 1e-12:
        raise ValueError("input has no antisymmetric component")
    state.psi = acc / nrm
    return state


def nbody_energy(state: NBodyState, potential: PowerLawPotential) -> float:
    g, n, p = state.grid, state.n, state.params
    total = _kinetic_symbol(g, n, p.epsilon)
    hat = scipy.fft.fftn(state.psi)
    w = g.cell_volume**n
    kinetic = w * np.sum(total * np.abs(hat) ** 2) / g.site_count**n
    diag = pair_interaction_diagonal(g, n, potential, p.coupling)
    pot = w * np.sum(diag * np.abs(state.psi) ** 2)
    return float(kinetic + pot)


def swap(state: NBodyState, i: int, j: int) -> np.ndarray:
    """psi with particles i and j exchanged."""
    axes = list(range(state.n * state.grid.dim))
    for a, b in zip(_particle_axes(state.grid.dim, i), _particle_axes(state.grid.dim, j)):
        axes[a], axes[b] = axes[b], axes[a]
    return np.transpose(state.psi, axes)


def antisymmetry_defect(state: NBodyState) -> float:
    worst = 0.0
    w = np.sqrt(state.grid.cell_volume**state.n)
    for i in range(state.n):
        for j in range(i + 1, state.n):
            worst = max(worst, w * np.linalg.norm(state.psi + swap(state, i, j)))
    return worst


def norm(state: NBodyState) -> float:
    return float(np.sqrt(state.grid.cell_volume**state.n) * np.linalg.norm(state.psi))


def zero_potential(grid, alpha=0.5):
    pot = power_law_potential(grid, alpha)
    return dataclasses.replace(pot, values=np.zeros(grid.shape))


def two_packet_state(grid, params):
    width = grid.length / 16
    orbs = [
        gaussian_packet(grid, [0.4 * grid.length], width, (1,)).values,
        gaussian_packet(grid, [0.6 * grid.length], width, (-1,)).values,
    ]
    from hflab.hartree_fock import loewdin_orthonormalize

    return slater_state(grid, loewdin_orthonormalize(grid, np.array(orbs)), params)


def test_antisymmetrize_symmetric_input_fails():
    g = Grid(1, 8)
    p = ScaledParams(2, 0.5)
    f = gaussian_packet(g, [np.pi], 0.8).values
    sym = np.multiply.outer(f, f)
    with pytest.raises(ValueError):
        antisymmetrize(g, sym, p)


def test_antisymmetrize_slater_reduced_density():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(0)
    st = random_slater(g, p, rng)
    raw = np.multiply.outer(st.orbitals[0], st.orbitals[1])
    psi = antisymmetrize(g, raw, p)
    assert norm(psi) == pytest.approx(1.0, abs=1e-10)
    gamma = reduced_density(psi)
    omega = density_matrix(st)
    assert np.max(np.abs(gamma.matrix - omega.matrix)) < 1e-10


def test_antisymmetrize_swap_sign():
    g = Grid(1, 8)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    psi = antisymmetrize(g, raw, p)
    assert antisymmetry_defect(psi) < 1e-12


def test_slater_wavefunction_matches_determinant():
    g = Grid(1, 8)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(2)
    st = random_slater(g, p, rng)
    psi = slater_wavefunction(st)
    f1, f2 = st.orbitals
    expect = (np.multiply.outer(f1, f2) - np.multiply.outer(f2, f1)) / np.sqrt(2.0)
    assert np.max(np.abs(psi.psi - expect)) < 1e-12
    assert norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_free_step_factorizes():
    g = Grid(1, 32)
    p = ScaledParams(2, 1.0)
    st = two_packet_state(g, p)
    psi = slater_wavefunction(st)
    fin = nbody_step(psi, zero_potential(g), 1e-2, 50)
    t = fin.time
    phase = np.exp(-1j * t * p.epsilon * g.momentum_squared())
    free = np.fft.ifft(phase[None] * np.fft.fft(st.orbitals, axis=1), axis=1)
    free_state = slater_state(g, free, p)
    expect = slater_wavefunction(free_state)
    w = np.sqrt(g.cell_volume**2)
    assert w * np.linalg.norm(fin.psi - expect.psi) < 1e-10


def test_energy_conserved_and_antisymmetry_preserved():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    psi = slater_wavefunction(two_packet_state(Grid(1, 16), p))
    e0 = nbody_energy(psi, pot)
    snaps = [psi]
    for _ in range(4):
        snaps.append(nbody_step(snaps[-1], pot, 2.5e-4, 400))
    for s in snaps:
        assert abs(nbody_energy(s, pot) - e0) / max(1.0, abs(e0)) < 1e-8
        assert antisymmetry_defect(s) < 1e-8
        assert norm(s) == pytest.approx(1.0, abs=1e-10)


def test_step_matches_dense_exponential_oracle():
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    rng = np.random.default_rng(3)
    st = random_slater(g, p, rng)
    psi = slater_wavefunction(st)
    dt, steps = 5e-4, 100
    fin = nbody_step(psi, pot, dt, steps)
    # dense two-body Hamiltonian on the product grid
    kin = kinetic_operator(g, p).matrix
    eye = np.eye(6)
    h2 = np.kron(kin, eye) + np.kron(eye, kin)
    h2 += np.diag(pair_interaction_diagonal(g, 2, pot, p.coupling).reshape(-1))
    u = expm(-1j * dt * steps / p.epsilon * h2)
    expect = (u @ psi.psi.reshape(-1)).reshape(6, 6)
    assert np.sqrt(g.cell_volume**2) * np.linalg.norm(fin.psi - expect) < 1e-8


def test_reduced_density_properties():
    g = Grid(1, 12)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    psi = antisymmetrize(g, raw, p)
    gamma = reduced_density(psi)
    m = gamma.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    eigs = np.linalg.eigvalsh(m)
    assert np.all(eigs >= -1e-9) and np.all(eigs <= 1.0 + 1e-9)
    assert np.trace(m).real == pytest.approx(2.0, abs=1e-9)


def sector_slater(st, sector: Sector) -> np.ndarray:
    """Sector amplitudes det f_j(s_k) of a Slater state, f_j = sqrt(h) times orbital j."""
    modes = np.sqrt(st.grid.cell_volume) * st.orbitals.reshape(st.params.n_particles, -1)
    return np.linalg.det(modes.T[sector.occupied])


def test_reduced_density_matches_fock_gamma():
    # same lattice, same Slater: partial trace vs mode-space density
    g = Grid(1, 8)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(5)
    st = random_slater(g, p, rng)
    psi = slater_wavefunction(st)
    gamma_grid = reduced_density(psi).matrix
    gamma_fock = gamma1(Sector(8, 2), sector_slater(st, Sector(8, 2)))
    assert np.max(np.abs(gamma_grid - gamma_fock)) < 1e-10


@pytest.mark.parametrize("n,m", [(2, 8), (3, 8), (2, 16)])
def test_sector_flow_matches_strang_steps_to_second_order(n, m):
    # the Strang step errs by O(dt^2), the sector flow's Chebyshev series by far less: each
    # halving of dt quarters the gap (ratios 4.000-4.005; gaps 1.0e-6, 2.6e-7, 6.4e-8 at m8 N2)
    g = Grid(1, m)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    st = random_slater(g, p, np.random.default_rng(5))
    sector = Sector(m, n)
    ham = ring_hamiltonian(sector, g, p, pot)
    _, psi_t = evolve_exact(ham, sector_slater(st, sector), 0.5, 1, p.epsilon)[-1]
    exact = gamma1(sector, psi_t)
    gaps = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        state = nbody_step(slater_wavefunction(st), pot, dt, int(round(0.5 / dt)))
        assert state.time == pytest.approx(0.5)
        gaps.append(np.max(np.abs(reduced_density(state).matrix - exact)))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.8 <= coarse / fine <= 4.2, gaps
    assert gaps[-1] < 1e-6


def test_probe_initial_and_free():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    st = two_packet_state(g, p)
    rows = hf_vs_exact_probe(st, zero_potential(g), 1e-2, 20, 10)
    assert rows[0].hs < 1e-12 and rows[0].trace < 1e-12
    for r in rows:
        assert r.hs < 1e-9 and r.trace < 1e-9 and abs(r.n_fluct) < 1e-9


def test_probe_domination_and_norm_ordering():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    st = two_packet_state(g, p)
    rows = hf_vs_exact_probe(st, pot, 1e-3, 200, 50)
    for r in rows:
        assert r.trace >= r.hs - 1e-10
        assert r.hs**2 <= r.n_fluct + 1e-8
    assert rows[-1].hs > 0  # interacting run genuinely departs from mean field


def test_size_cap():
    g = Grid(1, 512)
    p = ScaledParams(3, 0.5)
    with pytest.raises(ValueError):
        NBodyState(g, 3, np.zeros(g.shape * 3, dtype=complex), p)


def strang_reference_step(state, potential, dt):
    """One unfused Strang step K/2 I K/2: four numpy.fft transforms per dt."""
    g, n, p = state.grid, state.n, state.params
    total = functools.reduce(np.add.outer, [p.epsilon**2 * g.momentum_squared()] * n)
    kin_half = np.exp(-1j * (dt / 2.0) * total / p.epsilon)
    diag = pair_interaction_diagonal(g, n, potential, p.coupling)
    int_full = np.exp(-1j * dt * diag / p.epsilon)
    psi = np.fft.ifftn(kin_half * np.fft.fftn(state.psi))
    psi = np.fft.ifftn(kin_half * np.fft.fftn(int_full * psi))
    return NBodyState(g, n, psi, p, state.time + dt)


FUSED_CASES = {"1d-m64-N2": (1, 64, 2), "1d-m16-N3": (1, 16, 3), "2d-m8-N2": (2, 8, 2)}


def fused_case(case):
    dim, m, n = FUSED_CASES[case]
    g = Grid(dim, m)
    p = ScaledParams(n, 0.5)
    st = random_slater(g, p, np.random.default_rng(m + n))
    return slater_wavefunction(st), power_law_potential(g, 0.5)


@pytest.mark.parametrize("k", [1, 7, 100])
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_steps_match_stepwise_strang(case, k):
    psi, pot = fused_case(case)
    dt = 1e-2
    ref = psi
    for _ in range(k):
        ref = strang_reference_step(ref, pot, dt)
    fused = nbody_step(psi, pot, dt, k)
    assert np.linalg.norm(fused.psi - ref.psi) <= 1e-13 * np.linalg.norm(ref.psi)
    assert fused.time == ref.time
    assert np.linalg.norm(ref.psi - psi.psi) > 1e-3  # the k steps do move the state


@pytest.mark.parametrize("k", [1, 7, 100])
def test_fused_step_transform_count(monkeypatch, k):
    psi, pot = fused_case("1d-m16-N3")
    before = psi.psi.copy()
    calls = []
    for name in ("fftn", "ifftn"):
        def spy(*args, _real=getattr(scipy.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.fft called on the propagation path")

    for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, forbidden)
    nbody_step(psi, pot, 1e-2, k)
    assert len(calls) == 2 * k + 2
    assert calls.count("fftn") == calls.count("ifftn") == k + 1
    assert np.array_equal(psi.psi, before)  # in-place transforms leave the input alone
    with pytest.raises(ValueError):
        nbody_step(psi, pot, 1e-2, 0)


def test_probe_row_times_accumulate_per_step():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    dt, n_steps, every = 1e-3, 25, 10
    rows = hf_vs_exact_probe(two_packet_state(g, p), power_law_potential(g, 0.5), dt,
                             n_steps, every)
    expect, t = [0.0], 0.0
    for step in range(1, n_steps + 1):
        t += dt
        if step % every == 0 or step == n_steps:
            expect.append(t)
    # bit for bit: 10 * 1e-3 summed is 0.010000000000000002, not 0.01
    assert [r.time for r in rows] == expect


def test_pair_table_serves_nbody_grids_past_the_dense_cap():
    # 1156 sites: past the dense M x M cap, within the N = 2 size cap
    g = Grid(2, 34)
    pot = power_law_potential(g, 0.5)
    with pytest.raises(ValueError):
        pot.pair_matrix
    diag = pair_interaction_diagonal(g, 2, pot, 0.5)
    assert not pot.pair_table.flags.writeable
    for x, y in [((5, 30), (31, 2)), ((0, 0), (0, 0)), ((33, 1), (1, 33))]:
        assert diag[x + y] == 0.5 * pot.values[(x[0] - y[0]) % 34, (x[1] - y[1]) % 34]
