"""Exact antisymmetric N-body Schroedinger propagation (N = 2, 3) on small grids.

Ground truth for the mean-field approximation: the same regularized pair
potential and the same spectral kinetic operator as the Hartree-Fock module,
so differences between the two runs isolate the mean-field error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from hflab.fock import fluctuation_number
from hflab.hartree_fock import SlaterState, density_matrix, hf_step
from hflab.lattice import DenseOperator, Grid, ScaledParams
from hflab.potentials import PowerLawPotential

NBODY_SIZE_CAP = 2**22


def _permutation_sign(perm: tuple) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def _particle_axes(dim: int, i: int) -> tuple:
    return tuple(range(i * dim, (i + 1) * dim))


@dataclass
class NBodyState:
    """Full N-body wave function on (m^d)^N sites, unit L2(grid) norm."""

    grid: Grid
    n: int
    psi: np.ndarray
    params: ScaledParams
    time: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        expected = self.grid.shape * self.n
        if self.psi.shape != expected:
            raise ValueError(f"psi must have shape {expected}, got {self.psi.shape}")
        if self.grid.site_count**self.n > NBODY_SIZE_CAP:
            raise ValueError("N-body state exceeds the size cap")


def slater_wavefunction(state: SlaterState) -> NBodyState:
    """Determinantal N-body wave function of a Slater state (orthonormal orbitals)."""
    n = state.params.n_particles
    acc = None
    for perm in itertools.permutations(range(n)):
        term = np.array(1.0, dtype=complex)
        for slot in range(n):
            term = np.multiply.outer(term, state.orbitals[perm[slot]])
        term = _permutation_sign(perm) * term
        acc = term if acc is None else acc + term
    psi = acc / np.sqrt(float(math.factorial(n)))
    return NBodyState(state.grid, n, psi, state.params, state.time)


def pair_interaction_diagonal(grid: Grid, n: int, potential: PowerLawPotential,
                              coupling: float) -> np.ndarray:
    """coupling * sum_{i<j} V(x_i - x_j) as a diagonal array on the product grid."""
    m = grid.m
    pair_v = potential.pair_table  # V(x_i - x_j), x_i on the first d axes
    out = np.zeros(grid.shape * n)
    for i in range(n):
        for j in range(i + 1, n):
            bshape = [1] * (n * grid.dim)
            for axis in _particle_axes(grid.dim, i):
                bshape[axis] = m
            for axis in _particle_axes(grid.dim, j):
                bshape[axis] = m
            out = out + coupling * pair_v.reshape(bshape)
    return out


def _kinetic_symbol(g: Grid, n: int, epsilon: float) -> np.ndarray:
    """eps^2 sum_i |k_i|^2 on the (m^d)^n momentum grid of n particles."""
    k2_axis = epsilon**2 * g.momentum_squared()
    total = np.zeros(g.shape * n)
    for i in range(n):
        shape = [1] * (n * g.dim)
        for axis in _particle_axes(g.dim, i):
            shape[axis] = g.m
        total = total + k2_axis.reshape(shape)
    return total


def nbody_step(state: NBodyState, potential: PowerLawPotential, dt: float,
               n_steps: int = 1) -> NBodyState:
    """n_steps Strang steps K/2 I K/2, fused: the K/2 ending one step and the K/2
    starting the next are one full kinetic phase (Feit, Fleck & Steiger 1982).

    2 n_steps + 2 in-place transforms instead of 4 n_steps; the time still
    accumulates += dt per step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    g, n, p = state.grid, state.n, state.params
    total = _kinetic_symbol(g, n, p.epsilon)
    kin_half = np.exp(-1j * (dt / 2.0) * total / p.epsilon)
    kin_full = np.exp(-1j * dt * total / p.epsilon)
    diag = pair_interaction_diagonal(g, n, potential, p.coupling)
    int_full = np.exp(-1j * dt * diag / p.epsilon)
    psi = scipy.fft.fftn(state.psi)
    psi *= kin_half
    t = state.time
    for step in range(1, n_steps + 1):
        psi = scipy.fft.ifftn(psi, overwrite_x=True)
        psi *= int_full
        psi = scipy.fft.fftn(psi, overwrite_x=True)
        psi *= kin_full if step < n_steps else kin_half
        t += dt
    return NBodyState(g, n, scipy.fft.ifftn(psi, overwrite_x=True), p, t)


def reduced_density(state: NBodyState) -> DenseOperator:
    """One-particle reduced density matrix, normalized to trace N."""
    g, n = state.grid, state.n
    sites = g.site_count
    psi = state.psi.reshape(sites, sites ** (n - 1))
    mat = n * g.cell_volume**n * (psi @ psi.conj().T)
    return DenseOperator(g, mat)


@dataclass
class DistanceRow:
    """Distances between the exact reduced density and the mean-field projection."""

    time: float
    hs: float
    trace: float
    n_fluct: float
    sqrt_n: float
    n: int


def hf_vs_exact_probe(initial: SlaterState, potential: PowerLawPotential,
                      dt: float, n_steps: int, snapshot_every: int) -> list:
    """Run exact and mean-field trajectories from the same Slater data."""
    exact = slater_wavefunction(initial)
    hf_state = initial.copy()
    rows = []

    def report(t, ex, hfs):
        gamma = reduced_density(ex)
        omega = density_matrix(hfs)
        diff = gamma.matrix - omega.matrix
        sv = np.linalg.svd(diff, compute_uv=False)
        rows.append(
            DistanceRow(
                time=t,
                hs=float(np.sqrt(np.sum(sv**2))),
                trace=float(np.sum(sv)),
                n_fluct=fluctuation_number(gamma.matrix, omega.matrix),
                sqrt_n=float(np.sqrt(initial.params.n_particles)),
                n=initial.params.n_particles,
            )
        )

    report(0.0, exact, hf_state)
    for done in range(0, n_steps, snapshot_every):
        segment = min(snapshot_every, n_steps - done)
        exact = nbody_step(exact, potential, dt, segment)
        for _ in range(segment):
            hf_state = hf_step(hf_state, potential, dt)
        report(exact.time, exact, hf_state)
    return rows
