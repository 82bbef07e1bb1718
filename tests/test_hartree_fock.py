import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special
from scipy.linalg import expm

from references import exchange as reference_exchange
from references import exchange_walk, loop_hamiltonian

from hflab import fock
from hflab import hartree_fock as hf
from hflab.fewbody import hf_vs_exact_probe
from hflab.hartree_fock import (
    SlaterState,
    density_matrix,
    hf_energy,
    hf_step,
    hs_distance_squared,
    loewdin_orthonormalize,
    orbital_density,
    run_hf,
    slater_state,
)
from hflab.lattice import (
    DenseOperator, Field, Grid, ScaledParams, kinetic_operator, projection_from_orbitals,
)
from hflab.potentials import PowerLawPotential, power_law_potential
from hflab.states import fermi_ball, gaussian_packet, packet_slater, plane_wave, random_slater


# References: the full mean field and generator, applied through the unchunked
# reference exchange, and the dense exchange kernel.


def apply_mean_field(block, frozen, u_vals, potential, n_particles):
    """(U - X) applied to each row of `block`; X uses the frozen orbital set."""
    return u_vals * block - reference_exchange(block, frozen, potential, n_particles)


def hf_generator(state: SlaterState, potential: PowerLawPotential) -> np.ndarray:
    """Action of -eps^2 Lap + (V * rho) - X on every orbital (stacked block)."""
    g = state.grid
    p = state.params
    u_vals = hf._direct_potential(state.orbitals, potential, p.n_particles)
    kinetic = hf._kinetic_multiply(state.orbitals, p.epsilon**2 * g.momentum_squared())
    mean = apply_mean_field(state.orbitals, state.orbitals, u_vals, potential, p.n_particles)
    return kinetic + mean


def apply_exchange(state: SlaterState, potential: PowerLawPotential, f: Field) -> Field:
    """Exchange operator X f: (1/N) sum_i f_i * (V * (conj(f_i) f))."""
    out = reference_exchange(f.values[None, ...], state.orbitals, potential, state.params.n_particles)
    return Field(state.grid, out[0])


def exchange_kernel(state: SlaterState, potential: PowerLawPotential) -> DenseOperator:
    """Dense exchange operator with kernel (1/N) V(x-y) omega(x;y)."""
    g = state.grid
    omega = projection_from_orbitals(g, state.orbitals).matrix / g.cell_volume
    n = g.site_count
    dist = np.zeros((n, n))
    half = g.length / 2.0
    for axis in range(g.dim):
        c = g.coordinate_mesh(axis).reshape(-1)
        delta = np.mod(c[:, None] - c[None, :] + half, g.length) - half
        dist += delta**2
    dist = np.sqrt(dist)
    with np.errstate(divide="ignore"):
        v = np.minimum(dist ** (-potential.alpha), g.h ** (-potential.alpha))
    kernel = v * omega / state.params.n_particles
    return DenseOperator(g, kernel * g.cell_volume)


def generator_energy(state: SlaterState, potential: PowerLawPotential) -> float:
    """The energy as <f, G f> less half the mean field's share, G the HF generator."""
    f = state.orbitals
    p = state.params
    u = hf._direct_potential(f, potential, p.n_particles)
    mean = apply_mean_field(f, f, u, potential, p.n_particles)
    whole = np.vdot(f, hf_generator(state, potential)) - 0.5 * np.vdot(f, mean)
    return float(state.grid.cell_volume * whole.real)


def self_exchange(frozen, potential, n_particles):
    """The library's self-exchange X F, into a new block."""
    out = np.empty_like(frozen)
    hf._exchange(frozen, potential, n_particles, out)
    return out


def frozen_at(frozen_field, f, potential, grid, n_particles):
    """`frozen_field` frozen at the rows f, in a (2N, M) basis of f over scratch as the
    step passes it; f itself is left as it was."""
    basis = np.concatenate([f, np.empty_like(f)])
    return frozen_field(basis[:len(f)], potential, grid, n_particles, basis)


def normalized_operator(apply, centre, radius):
    """A = 2 (H - c) / r, for `apply` mapping a block b to H b."""
    return lambda block: (apply(block) - centre * block) * (2.0 / radius)


def zero_potential(grid, alpha=0.5):
    import dataclasses

    pot = power_law_potential(grid, alpha)
    return dataclasses.replace(pot, values=np.zeros(grid.shape))


def min_image_v(grid, alpha):
    # pairwise regularized potential table on site index differences
    return power_law_potential(grid, alpha).values


def test_slater_state_rejects_nonorthonormal():
    g = Grid(1, 32)
    f = gaussian_packet(g, [2.0], 0.4)
    with pytest.raises(ValueError):
        slater_state(g, np.array([f.values, f.values]), ScaledParams(2, 0.5))


def test_loewdin_restores_orthonormality():
    g = Grid(1, 32)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4,) + g.shape) + 1j * rng.standard_normal((4,) + g.shape)
    block = loewdin_orthonormalize(g, raw)
    state = SlaterState(g, block, ScaledParams(4, 0.5))
    assert state.gram_defect() < 1e-12


def test_generator_single_orbital_cancellation():
    # direct and exchange cancel exactly for one orbital
    g = Grid(1, 64)
    p = ScaledParams(1, 0.5)
    pot = power_law_potential(g, 0.5)
    st = slater_state(g, gaussian_packet(g, [np.pi], 0.4).values[None], p)
    gen = hf_generator(st, pot)
    kin = kinetic_operator(g, p).matrix @ st.orbitals[0]
    assert np.max(np.abs(gen[0] - kin)) < 1e-10


def test_generator_free_equals_kinetic():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(1)
    st = random_slater(g, p, rng)
    gen = hf_generator(st, zero_potential(g))
    for j in range(3):
        kin = kinetic_operator(g, p).matrix @ st.orbitals[j]
        assert np.max(np.abs(gen[j] - kin)) < 1e-12


def test_exchange_matches_double_sum_oracle():
    g = Grid(1, 32)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    rng = np.random.default_rng(2)
    st = random_slater(g, p, rng)
    xf = apply_exchange(st, pot, Field(g, st.orbitals[0]))
    # oracle: (X f)(x) = (1/N) h sum_y V(x-y) omega(x;y) f(y)
    orbs = st.orbitals
    omega = np.einsum("ix,iy->xy", orbs, orbs.conj())
    v = min_image_v(g, 0.5)
    oracle = np.zeros(32, dtype=complex)
    f0 = orbs[0]
    for x in range(32):
        for y in range(32):
            oracle[x] += g.h * v[(x - y) % 32] * omega[x, y] * f0[y] / 2.0
    assert np.max(np.abs(xf.values - oracle)) < 1e-10


def test_exchange_kernel_consistency():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.75)
    pot = power_law_potential(g, 0.75)
    rng = np.random.default_rng(3)
    st = random_slater(g, p, rng)
    dense = exchange_kernel(st, pot)
    f = Field(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    via_dense = dense.matrix @ f.values
    via_conv = apply_exchange(st, pot, f)
    assert np.max(np.abs(via_dense - via_conv.values)) < 1e-10


def exact_fft_step(st, pot, dt):
    """One step of the scheme with the exact exchange in every propagator application."""
    g, p = st.grid, st.params
    phase = np.exp(-1j * (dt / 2.0) * p.epsilon * g.momentum_squared())
    f1 = hf._kinetic_multiply(st.orbitals, phase)
    u1 = hf._direct_potential(f1, pot, p.n_particles)
    f_mid = f1 - 1j * (dt / (2.0 * p.epsilon)) * (u1 * f1 - reference_exchange(f1, f1, pot, p.n_particles))
    u_mid = hf._direct_potential(f_mid, pot, p.n_particles)

    def apply(block):
        rows = block.reshape((len(block),) + g.shape)
        out = u_mid * rows - reference_exchange(rows, f_mid, pot, p.n_particles)
        return out.reshape(len(block), -1)

    # the spectrum of the assembled operator is the exact interval
    spectrum = np.linalg.eigvalsh(apply(np.eye(g.site_count, dtype=complex)))
    centre, radius = (spectrum[-1] + spectrum[0]) / 2.0, (spectrum[-1] - spectrum[0]) / 2.0
    flat = f1.reshape(p.n_particles, -1)
    f2 = hf.chebyshev_expm(
        normalized_operator(apply, centre, radius), flat, dt / p.epsilon, centre, radius
    ).reshape(f1.shape)
    f3 = hf._kinetic_multiply(f2, phase)
    return SlaterState(g, loewdin_orthonormalize(g, f3), p, st.time + dt)


def check_free_step_is_exact_propagator():
    g = Grid(1, 64)
    p = ScaledParams(2, 1.0)
    rng = np.random.default_rng(4)
    st = random_slater(g, p, rng)
    dt = 1e-2
    stepped = hf_step(st, zero_potential(g), dt)
    phase = np.exp(-1j * dt * p.epsilon * g.momentum_squared())
    exact = np.fft.ifft(phase[None] * np.fft.fft(st.orbitals, axis=1), axis=1)
    # identical up to the Loewdin touch-up, which is O(1e-15) here
    assert np.max(np.abs(stepped.orbitals - exact)) < 1e-12


def test_free_step_is_exact_propagator():
    check_free_step_is_exact_propagator()


def test_free_step_is_exact_propagator_fft(monkeypatch):
    # V = 0 makes the compressed exchange exactly zero, so the FFT step is exact too
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", 0)
    check_free_step_is_exact_propagator()


def test_fermi_ball_stationary():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    pot = power_law_potential(g, 1.0)
    fb = fermi_ball(g, p)
    snaps, drift = run_hf(fb, pot, 1e-2, 100, 50)
    for _, state in snaps:
        dist = np.sqrt(max(hs_distance_squared(state, fb), 0.0)) / np.sqrt(8)
        assert dist < 1e-7
    assert drift < 1e-10


def test_energy_single_orbital_kinetic_only():
    g = Grid(1, 64)
    p = ScaledParams(1, 0.5)
    pot = power_law_potential(g, 0.5)
    f = gaussian_packet(g, [np.pi], 0.4, (2,))
    st = slater_state(g, f.values[None], p)
    e = hf_energy(st, pot)
    kin = g.cell_volume * np.vdot(f.values, kinetic_operator(g, p).matrix @ f.values).real
    assert e == pytest.approx(kin, abs=1e-10)


def test_energy_plane_wave_slater_free():
    g = Grid(1, 32, 2 * np.pi)
    p = ScaledParams(3, 1.0)
    modes = [(0,), (1,), (-1,)]
    orbs = np.array([plane_wave(g, m).values for m in modes])
    st = slater_state(g, orbs, p)
    e = hf_energy(st, zero_potential(g))
    expected = sum(p.epsilon**2 * (2 * np.pi * m[0] / g.length) ** 2 for m in modes)
    assert e == pytest.approx(expected, abs=1e-10)


def test_energy_double_sum_oracle():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    rng = np.random.default_rng(5)
    st = random_slater(g, p, rng)
    e = hf_energy(st, pot)
    orbs = st.orbitals
    omega = np.einsum("ix,iy->xy", orbs, orbs.conj())
    v = min_image_v(g, 0.5)
    kmat = kinetic_operator(g, p).matrix
    kin = sum(g.cell_volume * np.vdot(f, kmat @ f).real for f in orbs)
    direct = exch = 0.0
    for x in range(16):
        for y in range(16):
            vxy = v[(x - y) % 16]
            direct += g.h**2 * vxy * omega[x, x].real * omega[y, y].real
            exch += g.h**2 * vxy * abs(omega[x, y]) ** 2
    oracle = kin + (direct - exch) / (2 * p.n_particles)
    assert e == pytest.approx(oracle, abs=1e-10)


def test_density_fields():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(6)
    st = random_slater(g, p, rng)
    rho = orbital_density(st.orbitals)
    assert np.min(rho) >= 0.0
    assert g.cell_volume * np.sum(rho) == pytest.approx(3.0, abs=1e-10)
    assert np.isrealobj(power_law_potential(g, 0.5).convolve(rho))


def test_density_matrix_projection():
    g = Grid(1, 16)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(7)
    st = random_slater(g, p, rng)
    om = density_matrix(st)
    m = om.matrix
    assert np.linalg.norm(m @ m - m) < 1e-10
    assert np.trace(m).real == pytest.approx(3.0, abs=1e-10)
    eigs = np.sort(np.linalg.eigvalsh(m))
    assert np.allclose(eigs[-3:], 1.0, atol=1e-10)
    assert np.allclose(eigs[:-3], 0.0, atol=1e-10)


def test_density_matrix_full_band_identity():
    g = Grid(1, 8)
    p = ScaledParams(8, 0.5)
    orbs = np.array([plane_wave(g, (m,)).values for m in range(-4, 4)])
    st = slater_state(g, orbs, p)
    om = density_matrix(st)
    assert np.allclose(om.matrix, np.eye(8), atol=1e-10)


def test_step_preserves_projection_structure():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    pot = power_law_potential(g, 0.5)
    rng = np.random.default_rng(8)
    st = random_slater(g, p, rng)
    snaps, drift = run_hf(st, pot, 1e-3, 50, 25)
    assert drift < 1e-8
    for _, s in snaps:
        om = density_matrix(s).matrix
        assert np.linalg.norm(om @ om - om) < 1e-8
        assert np.trace(om).real == pytest.approx(3.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(om)
        assert np.all((np.abs(eigs) < 1e-8) | (np.abs(eigs - 1.0) < 1e-8))


def test_energy_conservation_and_order():
    g = Grid(1, 64)
    p = ScaledParams(4, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    e0 = hf_energy(st, pot)

    def drift(dt, steps):
        snaps, _ = run_hf(st, pot, dt, steps, max(1, steps // 10))
        return max(abs(hf_energy(s, pot) - e0) for _, s in snaps) / max(1.0, abs(e0))

    d1 = drift(2e-3, 250)
    d2 = drift(1e-3, 500)
    assert d1 / d2 == pytest.approx(4.0, abs=0.7)


def test_single_orbital_free_dynamics_long():
    g = Grid(1, 64)
    p = ScaledParams(1, 0.5)
    pot = power_law_potential(g, 0.5)
    f0 = gaussian_packet(g, [np.pi], 0.35, (3,))
    st = slater_state(g, f0.values[None], p)
    snaps, _ = run_hf(st, pot, 1e-2, 100)
    t, final = snaps[-1]
    phase = np.exp(-1j * t * p.epsilon * g.momentum_squared())
    exact = np.fft.ifft(phase * np.fft.fft(f0.values))
    err = np.sqrt(g.cell_volume) * np.linalg.norm(final.orbitals[0] - exact)
    assert err < 1e-8


def test_step_rejects_bad_dt():
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    rng = np.random.default_rng(10)
    st = random_slater(g, p, rng)
    with pytest.raises(ValueError):
        hf_step(st, power_law_potential(g, 0.5), -0.1)


@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_step_keeps_its_checks(monkeypatch, sites):
    # the dt check, the Gram drift abort and the Loewdin rank check, on both paths
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", sites)
    g = Grid(1, 64)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be positive"):
            hf_step(st, pot, dt)
    monkeypatch.setattr(hf, "GRAM_ABORT", 0.0)
    with pytest.raises(RuntimeError, match="orthonormality drift"):
        hf_step(st, pot, 1e-3)
    monkeypatch.setattr(hf, "GRAM_ABORT", np.inf)
    twins = SlaterState(g, np.repeat(st.orbitals[:1], 2, axis=0), p)
    with pytest.raises(ValueError, match="rank deficient"):
        hf_step(twins, pot, 1e-3)


def test_every_step_enters_through_the_module_binding(monkeypatch):
    # timers and tracers wrap hartree_fock.hf_step_with_drift, so each step of
    # run_hf, of an hf_step loop and of the few-body probe must call it there
    calls = []
    original = hf.hf_step_with_drift

    def spy(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(hf, "hf_step_with_drift", spy)
    g = Grid(1, 16)
    p = ScaledParams(2, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    run_hf(st, pot, 1e-3, 7, 3)
    assert len(calls) == 7
    for _ in range(5):
        st = hf_step(st, pot, 1e-3)
    assert len(calls) == 12
    hf_vs_exact_probe(st, pot, 1e-3, 9, 4)
    assert calls == [1e-3] * 21


@pytest.mark.parametrize("budget", [None, 1, 512], ids=["default", "rows", "rows-chunk2"])
def test_self_exchange_matches_dense_kernel(monkeypatch, budget):
    # N = 4 frozen orbitals, 10 pairs: all in one batch by default, then one pair
    # per batch, and batches of 8 pairs, where row 2 spans two batches
    if budget is not None:
        monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", budget)
    g = Grid(2, 8)
    p = ScaledParams(4, 0.5)
    pot = power_law_potential(g, 0.5)
    st = random_slater(g, p, np.random.default_rng(13))
    f = st.orbitals
    got = self_exchange(f, pot, p.n_particles)
    dense = exchange_kernel(st, pot)
    for j in range(p.n_particles):
        expected = (dense.matrix @ f[j].reshape(-1)).reshape(g.shape)
        assert np.max(np.abs(got[j] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_batches_list_each_pair_once_in_order(n):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for capacity in range(1, len(pairs) + 1):
        walked = []
        for batch, rows in hf._pair_batches(n, capacity):
            assert 0 < rows <= capacity
            at = 0
            for i, lo, hi, start in batch:  # segments tile the batch's rows in order
                assert start == at and lo < hi
                walked += [(i, j) for j in range(lo, hi)]
                at += hi - lo
            assert at == rows
        assert walked == pairs


@pytest.mark.parametrize(
    "budget,pairs", [(None, 15), (1, 15), (2 * 5 * 8**3, 15)], ids=["square", "rows", "rows-chunk2"]
)
def test_self_exchange_pair_transform_count(monkeypatch, budget, pairs):
    # N = 5 frozen orbitals: the packed triangle transforms only the N(N+1)/2
    # pairs j >= i (not the N^2 of the full square), at any batch size
    if budget is not None:
        monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", budget)
    g = Grid(3, 8)
    p = ScaledParams(5, 1.0)
    pot = power_law_potential(g, 1.0)
    f = random_slater(g, p, np.random.default_rng(14)).orbitals
    pot.v_hat  # the transform of V itself is not a pair density
    counted = []
    fftn = scipy.fft.fftn

    def spy(x, *args, **kwargs):
        counted.append(x.size // g.site_count)
        return fftn(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "fftn", spy)
    self_exchange(f, pot, p.n_particles)
    assert sum(counted) == pairs


def lane_capacity(monkeypatch):
    """Records the batch capacities `_exchange`'s lanes ask `_pair_batches` for."""
    seen = []
    batches = hf._pair_batches

    def spy(n, capacity):
        seen.append(capacity)
        return batches(n, capacity)

    monkeypatch.setattr(hf, "_pair_batches", spy)
    return seen


def convolve_by_thread(monkeypatch, before=None):
    """Spies on `PowerLawPotential.convolve`: the idents of the threads that call it, in the
    order their transforms return; `before(ident)` runs ahead of each call."""
    idents = []
    convolve = PowerLawPotential.convolve

    def spy(self, values, overwrite=False):
        ident = threading.get_ident()
        if before is not None:
            before(ident)
        done = convolve(self, values, overwrite)
        idents.append(ident)
        return done

    monkeypatch.setattr(PowerLawPotential, "convolve", spy)
    return idents


def exchange_fixture(dim, m, n, seed=31):
    g = Grid(dim, m)
    p = ScaledParams(n, 1.0)
    return random_slater(g, p, np.random.default_rng(seed)).orbitals, power_law_potential(g, 1.0), n


@pytest.mark.parametrize("rows", [64, 38], ids=["odd-batches", "row-split"])
def test_two_lane_exchange_matches_one_lane_walk(monkeypatch, rows):
    # 3d m16 N16, 136 pairs: 64 rows of budget give two lanes of 30 rows, 5 batches; 38
    # give lanes of 17, 8 batches; in both row 1's pairs span batches 0 and 1
    f, pot, n = exchange_fixture(3, 16, 16)
    monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", rows * f[0].size)
    capacity = lane_capacity(monkeypatch)
    idents = convolve_by_thread(monkeypatch)
    got = self_exchange(f, pot, n)
    assert capacity == [(rows - 4) // 2] * 2 and len(set(idents)) == 2  # a walk per lane
    batches = [[segment[0] for segment in batch] for batch, _ in hf._pair_batches(n, capacity[0])]
    assert batches[0][-1] == batches[1][0] == 1
    assert len(batches) % 2 == (rows == 64)
    assert np.array_equal(got, exchange_walk(f, pot, n, capacity[0]))


def test_two_lane_exchange_bits_do_not_depend_on_thread_timing(monkeypatch):
    # the helper's transforms lag, so the caller transforms batch 2 before batch 1 is
    # back; the sums still run in batch order
    f, pot, n = exchange_fixture(3, 16, 16)
    expected = exchange_walk(f, pot, n, 30)
    caller = threading.get_ident()
    idents = convolve_by_thread(monkeypatch, lambda ident: ident != caller and time.sleep(0.1))
    for _ in range(5):
        idents.clear()
        assert np.array_equal(self_exchange(f, pot, n), expected)
        assert idents[:2] == [caller, caller]


@pytest.mark.parametrize(
    "dim,m,n,budget,threads",
    [(3, 16, 16, None, 2), (3, 8, 7, None, 1), (3, 16, 16, 1, 1)],
    ids=["two-lanes", "one-batch", "one-row"],
)
def test_exchange_lanes(monkeypatch, dim, m, n, budget, threads):
    # two lanes where the pairs take more than one batch; one where they all fit one
    # batch (every verify grid) or where the budget holds too few pair rows for two
    if budget is not None:
        monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", budget)
    f, pot, n = exchange_fixture(dim, m, n)
    idents = convolve_by_thread(monkeypatch)
    got = self_exchange(f, pot, n)
    assert len(set(idents)) == threads
    assert np.max(np.abs(got - reference_exchange(f, f, pot, n))) <= 1e-12 * np.max(np.abs(got))


def bounded(run, seconds):
    """run() on a thread named "caller", failing the test unless it ends within `seconds`."""
    ended = {}

    def target():
        try:
            ended["value"] = run()
        except BaseException as error:  # handed to the test's thread below
            ended["error"] = error

    thread = threading.Thread(target=target, name="caller", daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive()
    if "error" in ended:
        raise ended["error"]
    return ended["value"]


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_exchange_lane_error_raises_and_stops_both_lanes(monkeypatch, where):
    f, pot, n = exchange_fixture(3, 16, 16)

    def fail(_):
        if (threading.current_thread().name == "caller") == (where == "caller"):
            raise RuntimeError(f"{where} lane failed")

    idents = convolve_by_thread(monkeypatch, fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{where} lane failed"):
        bounded(lambda: self_exchange(f, pot, n), 1.0)
    assert threading.active_count() == threads
    assert len(idents) <= 2  # the other lane stopped at its turn


def test_exchange_lanes_under_contention(monkeypatch):
    # four exchanges at once, each on two lanes (eight threads on two vCPUs), switching
    # threads every microsecond: every result has the one-lane walk's bits
    f, pot, n = exchange_fixture(3, 8, 16)
    monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", 10 * f[0].size)  # lanes of 3 rows, 46 batches
    expected = exchange_walk(f, pot, n, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [[] for _ in range(4)]
        threads = [
            threading.Thread(
                target=lambda run=run: run.extend(self_exchange(f, pot, n) for _ in range(3)),
                daemon=True,
            )
            for run in runs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(run) for run in runs] == [3] * 4
    assert all(np.array_equal(got, expected) for run in runs for got in run)


def test_exchange_fills_the_scaled_transform_before_the_lanes(monkeypatch):
    # `_scaled_v_hat` is a cached_property: each lane finds it filled
    f, pot, n = exchange_fixture(3, 16, 16)
    filled = []  # per convolve call: whether the multiplier was already cached
    idents = convolve_by_thread(monkeypatch, lambda _: filled.append("_scaled_v_hat" in vars(pot)))
    self_exchange(f, pot, n)
    assert len(set(idents)) == 2 and all(filled)


@pytest.mark.parametrize("dim,m,n", [(1, 32, 3), (3, 8, 4)])
def test_energy_matches_direct_minus_exchange_formula(dim, m, n):
    g = Grid(dim, m)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    st = random_slater(g, p, np.random.default_rng(20 + dim))
    # explicit formula: kinetic + (1/2N) h^d sum [rho (V*rho) - conj(pair) (V*pair)]
    axes = tuple(range(1, dim + 1))
    f = st.orbitals
    kin_mult = p.epsilon**2 * g.momentum_squared()
    hat = np.fft.fftn(f, axes=axes)
    kinetic = g.cell_volume * np.sum(kin_mult * np.abs(hat) ** 2) / g.site_count
    v_hat = np.fft.fftn(pot.values)
    rho = np.sum(np.abs(f) ** 2, axis=0)
    u = np.fft.ifftn(v_hat * np.fft.fftn(rho)).real * g.cell_volume
    direct = 0.5 / n * g.cell_volume * np.sum(rho * u)
    pair = f.conj()[:, None] * f[None, :]
    pair_axes = tuple(range(2, dim + 2))
    conv = np.fft.ifftn(v_hat * np.fft.fftn(pair, axes=pair_axes), axes=pair_axes)
    exch = 0.5 / n * g.cell_volume**2 * np.real(np.sum(pair.conj() * conv))
    expected = kinetic + direct - exch
    assert hf_energy(st, pot) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "dim,m,n,make_potential",
    [(1, 128, 8, power_law_potential), (2, 16, 5, power_law_potential),
     (3, 16, 8, power_law_potential), (2, 16, 5, zero_potential)],
    ids=["1d", "2d", "3d", "zero-potential"],
)
def test_parseval_energy_matches_generator_energy(dim, m, n, make_potential):
    g = Grid(dim, m)
    st = random_slater(g, ScaledParams(n, 0.5), np.random.default_rng(60 + dim))
    pot = make_potential(g, 0.5)
    assert hf_energy(st, pot) == pytest.approx(generator_energy(st, pot), rel=1e-13)


def midpoint_operator(sites, make_potential=power_law_potential):
    # the mean field H frozen at a 1d m64 N4 packet state, on the path that
    # DENSE_STEP_SITES = sites would select: its normalized A, centre and
    # radius, and the matrix of H = c + (r / 2) A
    g = Grid(1, 64)
    p = ScaledParams(4, 0.5)
    f = packet_slater(g, p).orbitals.reshape(p.n_particles, -1)
    frozen_field = hf._dense_frozen_field if g.site_count <= sites else hf._fft_frozen_field
    apply, centre, radius = frozen_at(frozen_field, f, make_potential(g, 0.5), g, p.n_particles)
    eye = np.eye(g.site_count, dtype=complex)
    return p, f, (apply, centre, radius), centre * eye + (radius / 2.0) * apply(eye)


def reference_chebyshev_coefficients(z):
    """The propagator's coefficients as first written: every step builds a table of
    CHEBYSHEV_MAX_DEGREE + 2 Bessel orders (and a longer one for the error)."""
    cap = hf.CHEBYSHEV_MAX_DEGREE
    for n in (cap + 2, 2**16):
        bessel = scipy.special.jv(np.arange(n), z)
        with np.errstate(divide="ignore", over="ignore"):
            first = np.exp(n * np.log(z / 2) - scipy.special.gammaln(n + 1))
        beyond = first / (1 - z / (2 * (n + 1))) if z < 2 * (n + 1) else np.inf
        tails = 2 * (np.append(np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0) + beyond)
        fits = np.flatnonzero(tails <= hf.CHEBYSHEV_TOL)
        if fits.size:
            break
    if not fits.size or fits[0] > cap:
        needed = f"degree {fits[0]}" if fits.size else f"a degree above {n - 1}"
        raise RuntimeError(
            f"Chebyshev propagator needs {needed} for tau * r = {z:.3e}, above the cap "
            f"{cap}: the truncation residual bound at the cap is {tails[cap]:.3e}"
        )
    coeffs = 2 * (-1j) ** np.arange(fits[0] + 1) * bessel[: fits[0] + 1]
    coeffs[0] /= 2
    return coeffs


def test_chebyshev_coefficients_match_long_table():
    # the short Bessel table must pick the long table's degree at every z up to
    # the cap (15.588...); one that stopped two orders past the closed-form
    # degree bound picked a degree one too high at a few dozen of these z
    zs = np.concatenate([[0.0], np.logspace(-8, np.log10(15.58), 40000)])
    mismatched = [
        z for z in zs
        if not np.array_equal(hf._chebyshev_coefficients(z), reference_chebyshev_coefficients(z))
    ]
    assert mismatched == []
    assert np.array_equal(hf._chebyshev_coefficients(0.0), [1.0])


def test_max_phase_series_uses_the_whole_degree_cap():
    # the exact Fock flow cuts each report into series of phase at most
    # CHEBYSHEV_MAX_PHASE: one such series needs exactly the cap, and the
    # phase sits below the 15.589... where degree 40 stops sufficing
    assert len(hf._chebyshev_coefficients(hf.CHEBYSHEV_MAX_PHASE)) == hf.CHEBYSHEV_MAX_DEGREE + 1
    assert hf.CHEBYSHEV_MAX_PHASE < 15.589
    with pytest.raises(RuntimeError, match="above the cap"):
        hf._chebyshev_coefficients(15.59)


@pytest.mark.parametrize("z", [15.6, 40.0, 1e6])
def test_chebyshev_cap_error_names_degree_and_residual(z):
    # degree 41 from the cap + 2 table, degree 73 from the long one, and none found
    with pytest.raises(RuntimeError) as want:
        reference_chebyshev_coefficients(z)
    with pytest.raises(RuntimeError, match="needs .*degree.* the truncation residual") as got:
        hf._chebyshev_coefficients(z)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_chebyshev_raises_above_degree_cap(monkeypatch, sites):
    # the degree the Bessel tail bound asks for exceeds the cap
    p, f, (apply, centre, radius), _ = midpoint_operator(sites)
    monkeypatch.setattr(hf, "CHEBYSHEV_MAX_DEGREE", 2)
    with pytest.raises(RuntimeError, match="residual"):
        hf.chebyshev_expm(apply, f, 1e-2 / p.epsilon, centre, radius)


@pytest.mark.parametrize("tau", [1e-3, 1e-1, 2.0])
@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_chebyshev_expm_matches_dense_expm(sites, tau):
    # degrees 3, 7 and 16 at these phases, on both paths
    p, f, (apply, centre, radius), matrix = midpoint_operator(sites)
    got = hf.chebyshev_expm(apply, f.copy(), tau / p.epsilon, centre, radius)
    expected = f @ expm(-1j * (tau / p.epsilon) * matrix)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def reference_chebyshev_expm(apply, block, tau, centre, radius):
    """The Chebyshev sum out of place: every T_k a new block, summed at the end."""
    coeffs = hf._chebyshev_coefficients(tau * radius)
    terms = [block, 0.5 * apply(block)][: len(coeffs)]
    while len(terms) < len(coeffs):
        terms.append(apply(terms[-1]) - terms[-2])
    return np.exp(-1j * tau * centre) * sum(c * t for c, t in zip(coeffs, terms))


@pytest.mark.parametrize("tau,degree", [(1e-3, 3), (1e-1, 7), (2.0, 16)])
@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_inplace_chebyshev_matches_out_of_place_reference(sites, tau, degree):
    p, f, (apply, centre, radius), _ = midpoint_operator(sites)
    assert len(hf._chebyshev_coefficients(tau / p.epsilon * radius)) == degree + 1
    expected = reference_chebyshev_expm(apply, f, tau / p.epsilon, centre, radius)
    block = f.copy()
    got = hf.chebyshev_expm(apply, block, tau / p.epsilon, centre, radius)
    assert got is block  # the sum is written back over the block
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_mean_field_interval_contains_spectrum(sites):
    _, _, (_, centre, radius), matrix = midpoint_operator(sites)
    lo, hi = centre - radius, centre + radius
    spectrum = np.linalg.eigvalsh(matrix)
    assert lo <= spectrum[0] and spectrum[-1] <= hi
    # a bound, not a guess: no wider than twice the spectral radius
    assert hi - lo <= 4 * np.max(np.abs(spectrum))


@pytest.mark.parametrize("sites", [0, 64], ids=["fft", "dense"])
def test_chebyshev_zero_potential_is_degree_zero(sites):
    p, f, (_, centre, radius), matrix = midpoint_operator(sites, zero_potential)
    assert (centre, radius) == (0.0, 0.0) and not np.any(matrix)
    assert len(hf._chebyshev_coefficients(0.0)) == 1

    def never(block):
        raise AssertionError("degree 0 applies no operator")

    assert np.array_equal(hf.chebyshev_expm(never, f.copy(), 1e-2 / p.epsilon, centre, radius), f)


@pytest.mark.parametrize("dim,m,n", [(1, 64, 4), (1, 128, 8), (2, 8, 4)])
def test_dense_step_matches_fft_step(monkeypatch, dim, m, n):
    # the dense step keeps the exact exchange, so its reference is the FFT
    # step with the exact exchange; the 2d case checks the per-axis
    # (x - y) mod m gather of the pair matrix
    g = Grid(dim, m)
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", g.site_count)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    dense = exact = packet_slater(g, p)
    for _ in range(10):
        dense = hf_step(dense, pot, 1e-3)
        exact = exact_fft_step(exact, pot, 1e-3)
    assert np.max(np.abs(dense.orbitals - exact.orbitals)) <= 1e-12 * np.max(np.abs(exact.orbitals))


@pytest.mark.parametrize("m,n,bound", [(64, 4, 5e-12), (128, 8, 1e-10)])
def test_compressed_fft_step_tracks_exact_exchange(monkeypatch, m, n, bound):
    # X~ drops only (1 - P) X (1 - P), P onto span(f_mid): an O(dt^3) defect
    # per step (1.5e-12 and 3.0e-11 measured after 10 steps)
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", 0)
    g = Grid(1, m)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    compressed = exact = packet_slater(g, p)
    for _ in range(10):
        compressed = hf_step(compressed, pot, 1e-3)
        exact = exact_fft_step(exact, pot, 1e-3)
    gap = np.max(np.abs(compressed.orbitals - exact.orbitals))
    assert gap <= bound * np.max(np.abs(exact.orbitals))
    st = packet_slater(g, p)
    gaps = [
        np.max(np.abs(hf_step(st, pot, dt).orbitals - exact_fft_step(st, pot, dt).orbitals))
        for dt in (1e-2, 5e-3)
    ]
    assert gaps[0] / gaps[1] == pytest.approx(8.0, rel=0.2)


def compressed_fixture(make_potential=power_law_potential):
    # X~ recovered from U - X~ frozen at a midpoint-like block: orbitals that
    # are not orthonormal
    g = Grid(2, 16)
    p = ScaledParams(5, 0.5)
    pot = make_potential(g, 0.5)
    rng = np.random.default_rng(50)
    f = random_slater(g, p, rng).orbitals
    f = f + 0.05 * (rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape))
    u = hf._direct_potential(f, pot, p.n_particles).reshape(-1)
    image = self_exchange(f, pot, p.n_particles).reshape(p.n_particles, -1)
    flat = f.reshape(p.n_particles, -1)
    field, centre, radius = frozen_at(hf._fft_frozen_field, flat, pot, g, p.n_particles)
    # X~ = U - H with H = c + (r / 2) A
    return g, flat, image, lambda block: (u - centre) * block - (radius / 2.0) * field(block), rng


def test_compressed_exchange_is_exact_on_frozen_span():
    _, flat, image, exchange, _ = compressed_fixture()
    assert np.max(np.abs(exchange(flat) - image)) <= 1e-12 * np.max(np.abs(image))


def test_compressed_exchange_is_hermitian():
    g, flat, _, exchange, rng = compressed_fixture()
    a, b = (rng.standard_normal((3, flat.shape[1])) + 1j * rng.standard_normal((3, flat.shape[1])) for _ in range(2))
    ab = g.cell_volume * (a.conj() @ exchange(b).T)  # <a_i, X~ b_j>
    ba = g.cell_volume * (b.conj() @ exchange(a).T)
    assert np.max(np.abs(ab - ba.conj().T)) <= 1e-12 * np.max(np.abs(ab))


def test_compressed_exchange_vanishes_for_zero_potential():
    _, flat, image, exchange, rng = compressed_fixture(zero_potential)
    assert not np.any(image)
    block = rng.standard_normal((4, flat.shape[1])) + 1j * rng.standard_normal((4, flat.shape[1]))
    assert not np.any(exchange(block))


def test_compressed_path_energy_conservation_and_order(monkeypatch):
    # the inputs and band of acceptance criterion 4, which runs on the dense
    # path and so never reaches the compressed exchange
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", 0)
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
    assert d_coarse < 1e-6
    assert 3.3 <= d_coarse / d_fine <= 4.7


def test_fft_step_exchange_and_pair_transform_count(monkeypatch):
    # a tdhf-3d step: two pair-symmetric self-exchanges (the predictor's X f1
    # and the midpoint's X f_mid), N(N+1)/2 = 136 pair transforms each, and no
    # transform at all inside the propagator
    g = Grid(3, 32)
    p = ScaledParams(16, 1.0)
    pot = power_law_potential(g, 1.0)
    st = random_slater(g, p, np.random.default_rng(51))
    pot.v_hat  # the transform of V itself is not a pair density
    phase = [None]
    counted = {"exchange": [], "propagator": []}
    entered = []
    fftn = scipy.fft.fftn

    def spy_fftn(x, *args, **kwargs):
        if phase[0] is not None:
            counted[phase[0]].append(x.size // g.site_count)
        return fftn(x, *args, **kwargs)

    def in_phase(name, original):
        def run(*args, **kwargs):
            entered.append(name)
            phase[0] = name
            try:
                return original(*args, **kwargs)
            finally:
                phase[0] = None

        return run

    monkeypatch.setattr(scipy.fft, "fftn", spy_fftn)
    monkeypatch.setattr(hf, "_exchange", in_phase("exchange", hf._exchange))
    monkeypatch.setattr(hf, "chebyshev_expm", in_phase("propagator", hf.chebyshev_expm))
    hf_step(st, pot, 1e-3)
    assert entered == ["exchange", "exchange", "propagator"]
    assert sum(counted["exchange"]) == 272
    assert counted["propagator"] == []


@pytest.mark.parametrize("dim,m,n,calls", [(1, 64, 4, 0), (3, 8, 7, 12)], ids=["dense", "fft"])
def test_step_fft_call_count(monkeypatch, dim, m, n, calls):
    # FFT path: kinetic halves 4, two direct potentials 4, and 4 for the two
    # self-exchanges (predictor and midpoint) with all pair densities in one
    # batched transform; the propagator applies the compressed exchange with no FFT
    g = Grid(dim, m)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    hf_step(st, pot, 1e-3)  # fills the cached operators
    counted = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(scipy.fft, name)

        def spy(*args, _original=original, **kwargs):
            counted.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    hf_step(st, pot, 1e-3)
    assert len(counted) == calls


def test_step_memory_bounded():
    # the exchange's pair buffer holds STEP_CHUNK_POINTS points (4 MiB, 64 pair rows)
    # beside this 1 MiB block, and the step around it f1 and the (2N, M) basis:
    # 7.39 MiB measured; a basis preallocated for 40 rows would alone take 40 MiB here
    g = Grid(3, 16)
    p = ScaledParams(16, 1.0)
    pot = power_law_potential(g, 1.0)
    st = random_slater(g, p, np.random.default_rng(1))
    tracemalloc.start()
    try:
        hf_step(st, pot, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_step_and_energy_stay_within_block_budget(monkeypatch):
    # half a block per pair batch and per series chunk, as at 3d m32 N16: the step
    # holds f1, the (2N, M) basis and the exchange's pair buffer or three series
    # chunks (4.82 blocks measured); the energy one buffer of transforms
    g = Grid(3, 16)
    p = ScaledParams(8, 1.0)
    pot = power_law_potential(g, 1.0)
    st = random_slater(g, p, np.random.default_rng(1))
    monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", st.orbitals.size // 2)
    st = hf_step(st, pot, 1e-3)  # fills the cached operators and v_hat
    hf_energy(st, pot)
    for run, blocks in [(lambda: hf_step(st, pot, 1e-3), 5.3), (lambda: hf_energy(st, pot), 3.0)]:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= blocks * st.orbitals.nbytes


def test_midpoint_is_freed_before_the_last_kinetic_half_step(monkeypatch):
    # the frozen operator, its basis and f_mid are gone when the second kinetic
    # half-step starts: only the propagated block is alive above the step's entry
    g = Grid(3, 16)
    p = ScaledParams(8, 1.0)
    pot = power_law_potential(g, 1.0)
    st = hf_step(random_slater(g, p, np.random.default_rng(1)), pot, 1e-3)
    alive = []
    kinetic = hf._fft_kinetic

    def spy(*args):
        alive.append(tracemalloc.get_traced_memory()[0])
        return kinetic(*args)

    monkeypatch.setattr(hf, "_fft_kinetic", spy)
    tracemalloc.start()
    try:
        hf_step(st, pot, 1e-3)
    finally:
        tracemalloc.stop()
    assert len(alive) == 2
    assert alive[1] - alive[0] <= 1.3 * st.orbitals.nbytes


@pytest.mark.parametrize("dim,m,n", [(2, 20, 5), (3, 10, 7)])
def test_row_chunked_series_matches_one_chunk(monkeypatch, dim, m, n):
    # 2-row series chunks, which do not divide N, and column chunks of 128 and 256
    # sites, which do not divide M (400 = 3 * 128 + 16, 1000 = 3 * 256 + 232),
    # against the whole block as one chunk
    monkeypatch.setattr(hf, "DENSE_STEP_SITES", 0)
    g = Grid(dim, m)
    p = ScaledParams(n, 0.5)
    pot = power_law_potential(g, 0.5)
    st = random_slater(g, p, np.random.default_rng(70 + dim))
    whole = hf_step(st, pot, 1e-3).orbitals
    apply, centre, radius = frozen_at(hf._fft_frozen_field, st.orbitals.reshape(n, -1), pot, g, n)
    series = hf.chebyshev_expm(apply, st.orbitals.reshape(n, -1).copy(), 1e-2 / p.epsilon, centre, radius)
    monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", 2 * g.site_count)
    chunked = hf_step(st, pot, 1e-3).orbitals
    assert np.max(np.abs(chunked - whole)) <= 1e-15 * np.max(np.abs(whole))
    rows = hf.chebyshev_expm(apply, st.orbitals.reshape(n, -1).copy(), 1e-2 / p.epsilon, centre, radius)
    assert np.max(np.abs(rows - series)) <= 1e-15 * np.max(np.abs(series))


def test_exact_flow_matches_out_of_place_series(monkeypatch):
    # the Fock flow's (1, 2^m) block under the in-place series and under the out-of-place
    # reference, with a series budget of one point
    g = Grid(1, 6)
    p = ScaledParams(2, 0.5)
    space = fock.FockSpace(6)
    pot = power_law_potential(g, 0.5)
    ham = loop_hamiltonian(space, kinetic_operator(g, p).matrix, pot.pair_matrix, p.coupling)
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[[3, 5]] = [0.6, 0.8j]  # two particles, in modes {0, 1} and {0, 2}
    monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", 1)
    got = fock.evolve_exact(ham, psi0, 0.1, 5, p.epsilon, snapshot_every=2)
    monkeypatch.setattr(fock, "chebyshev_expm", reference_chebyshev_expm)
    expected = fock.evolve_exact(ham, psi0, 0.1, 5, p.epsilon, snapshot_every=2)
    for (t, psi), (t_ref, ref) in zip(got, expected):
        assert t == t_ref and np.max(np.abs(psi - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "dim,m,frozen_field", [(3, 16, hf._fft_frozen_field), (1, 128, hf._dense_frozen_field)],
    ids=["fft", "dense"],
)
def test_normalized_field_allocates_only_its_image(dim, m, frozen_field):
    # A b is written into the one block apply returns: no conjugate copy of b or
    # of the basis, and no second block summed into it; u' b adds row scratch
    g = Grid(dim, m)
    p = ScaledParams(8, 1.0)
    f = random_slater(g, p, np.random.default_rng(3)).orbitals.reshape(p.n_particles, -1)
    apply, _, _ = frozen_at(frozen_field, f, power_law_potential(g, 1.0), g, p.n_particles)
    tracemalloc.start()
    try:
        image = apply(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image.shape == f.shape and peak < f.nbytes + 3 * f[0].nbytes


def test_exchange_memory_bounded_by_chunk_budget(monkeypatch):
    g = Grid(3, 16)
    p = ScaledParams(16, 1.0)
    pot = power_law_potential(g, 1.0)
    f = random_slater(g, p, np.random.default_rng(30)).orbitals
    out = np.empty_like(f)
    hf._exchange(f, pot, p.n_particles, out)  # set-up: the transform of V and the FFT plans
    # pair buffers of 64 and 16 rows of 4096 points, then of one row for a budget below
    # one row; beside it the self-exchange holds a row of scratch and about one row of
    # transform scratch (3.04 rows measured at one row).  The unchunked pair tensor
    # alone would be N^2 = 256 rows
    for budget in (2**18, 2**16, 1):
        monkeypatch.setattr(hf, "STEP_CHUNK_POINTS", budget)
        tracemalloc.start()
        try:
            hf._exchange(f, pot, p.n_particles, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (max(1, budget // g.site_count) + 3.5) * f[0].nbytes


def test_hs_distance_resolves_equal_states_and_matches_dense():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    for st in (fermi_ball(g, p), random_slater(g, p, np.random.default_rng(40))):
        # 2N - 2 sum |<f_i, f_j>|^2 cancels to ~1e-15 here; the residual form does not
        assert hs_distance_squared(st, st) <= 1e-26
    rng = np.random.default_rng(41)
    pairs = [
        (random_slater(g, p, rng), random_slater(g, p, rng)),
        (random_slater(g, ScaledParams(3, 1.0), rng), random_slater(g, ScaledParams(5, 1.0), rng)),
    ]
    for a, b in pairs:
        dense = np.linalg.norm(density_matrix(a).matrix - density_matrix(b).matrix) ** 2
        assert hs_distance_squared(a, b) == pytest.approx(dense, rel=1e-12)
        assert hs_distance_squared(b, a) == pytest.approx(dense, rel=1e-12)
