"""Exact finite-mode fermionic dynamics: the N-particle ring flow and the Fock-space audits.

Occupation basis states are bitmasks; a_i carries the Jordan-Wigner sign (the parity of the
occupied modes below i) that every sign downstream derives from.  A `Sector` holds the C(m, N)
states of N particles and no 2^m table: the ring flow's Hamiltonian, gamma1 and particle-hole
check live there.  `FockSpace` holds all 2^m states, up to 12 modes, for the bound audits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from hflab.hartree_fock import (
    CHEBYSHEV_MAX_PHASE, _normalization, chebyshev_expm, density_matrix, loewdin_orthonormalize,
    run_hf, slater_state,
)
from hflab.lattice import Grid, ScaledParams, diagnostic_chunks, kinetic_operator
from hflab.potentials import PowerLawPotential, gaussian_window, power_law_potential
from hflab.states import lowest_modes, plane_wave

MODE_CAP = 12


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FockSpace:
    """Fock space over `n_modes` modes; basis index = occupation bitmask."""

    n_modes: int

    def __post_init__(self):
        if not 1 <= self.n_modes <= MODE_CAP:
            raise ValueError(f"mode count must be in [1, {MODE_CAP}]")

    @property
    def dim(self) -> int:
        return 2**self.n_modes

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only occupation table: bits[n, i] = 1 if mode i is occupied in state n."""
        return _read_only((np.arange(self.dim)[:, None] >> np.arange(self.n_modes)) & 1)

    @cached_property
    def annihilators(self) -> sparse.csr_matrix:
        """The stack A of shape (m 2^m, 2^m) whose block i is a_i, built once.

        a_i maps |n> to (-1)^(occupied modes below i) |n - e_i> where i is
        occupied; the parity comes from cumsum(bits) - bits.  The entries are
        real, so A^* = A^T.
        """
        bits = self.bits
        sign = 1 - 2 * ((np.cumsum(bits, axis=1) - bits) % 2)
        state, mode = np.nonzero(bits)
        stack = sparse.csr_matrix(
            (sign[state, mode].astype(float), (mode * self.dim + (state ^ (1 << mode)), state)),
            shape=(self.n_modes * self.dim, self.dim),
        )
        for array in (stack.data, stack.indices, stack.indptr):
            array.flags.writeable = False
        return stack

    def occupations(self) -> np.ndarray:
        return self.bits.sum(axis=1)


@dataclass(frozen=True)
class Sector:
    """N particles in m <= 63 modes: C(m, N) int64 bitmasks, ascending; read-only, no 2^m table."""

    n_modes: int
    n_particles: int

    def __post_init__(self):
        if not 0 <= self.n_particles <= self.n_modes <= 63:  # int64 bitmasks
            raise ValueError(f"no {self.n_particles}-particle sector of {self.n_modes} modes")

    @cached_property
    def occupied(self) -> np.ndarray:
        combos = itertools.combinations(range(self.n_modes), self.n_particles)
        subsets = np.array(list(combos), dtype=np.int64)
        return _read_only(subsets[np.argsort(np.sum(1 << subsets, axis=1))])

    @cached_property
    def masks(self) -> np.ndarray:
        return _read_only(np.sum(1 << self.occupied, axis=1))

    @cached_property
    def bits(self) -> np.ndarray:
        return _read_only((self.masks[:, None] >> np.arange(self.n_modes)) & 1)

    @cached_property
    def hops(self) -> tuple:
        """(state, a, b, sign, target): a_b^* a_a |state> = sign |target> for every occupied a
        and empty b, sign = (-1)^(below(a) + below(b) - [a < b]), below = cumsum(bits) - bits."""
        masks, bits = self.masks, self.bits
        below = np.cumsum(bits, axis=1) - bits
        state, a, b = np.nonzero(bits[:, :, None] > bits[:, None, :])
        sign = 1 - 2 * ((below[state, a] + below[state, b] - (a < b)) % 2)
        target = np.searchsorted(masks, masks[state] ^ (1 << a) ^ (1 << b))
        return tuple(_read_only(x) for x in (state, a, b, sign, target))


def gamma1(sector: Sector, psi: np.ndarray) -> np.ndarray:
    """One-particle reduced density gamma_ab = <psi, a_b^* a_a psi> of sector amplitudes psi:
    sign conj(psi[target]) psi[state] summed over the hops, |psi|^2 @ bits on the diagonal."""
    (state, a, b, sign, target), m = sector.hops, sector.n_modes
    terms, pairs = sign * np.conj(psi[target]) * psi[state], a * m + b
    flat = np.bincount(pairs, terms.real, m * m) + 1j * np.bincount(pairs, terms.imag, m * m)
    return flat.reshape(m, m) + np.diag(np.abs(psi) ** 2 @ sector.bits)


def fluctuation_number(gamma: np.ndarray, omega: np.ndarray) -> float:
    """tr[(1-omega) gamma] + tr[omega (1-gamma)] = tr gamma + tr omega - 2 Re tr(omega gamma)."""
    gamma, omega = np.asarray(gamma), np.asarray(omega)
    return float(np.trace(gamma).real + np.trace(omega).real - 2.0 * np.trace(omega @ gamma).real)


def lift_unitary(sector: Sector, w: np.ndarray) -> np.ndarray:
    """The sector block <S'|Gamma(W)|S> = det W[S'|S] of the lift of a one-particle unitary;
    Gamma(W) keeps every sector, and Gamma(W) a*(f) Gamma(W)* = a*(W f)."""
    w = np.asarray(w, dtype=complex)
    if w.shape != (sector.n_modes,) * 2 or np.max(np.abs(w.conj().T @ w - np.eye(len(w)))) > 1e-10:
        raise ValueError("one-particle map is not a unitary on the sector's modes")
    occ = sector.occupied
    return np.linalg.det(w[occ[:, None, :, None], occ[None, :, None, :]])


def ring_hamiltonian(sector: Sector, grid: Grid, params: ScaledParams,
                     potential: PowerLawPotential) -> sparse.csr_matrix:
    """The lattice-mode Hamiltonian on `sector`, a real matrix: the hops a_b^* a_a of
    `Sector.hops` times kin[b, a], plus the diagonal pair term sum_{i<j} V_ij n_i n_j."""
    if sector.n_modes != grid.site_count:
        raise ValueError(f"{sector.n_modes} modes for a lattice of {grid.site_count} sites")
    # the 1d ring's k^2 is even, so the kinetic matrix is real up to |Im| <= 3.4e-15 (m <= 24)
    kin = kinetic_operator(grid, params).matrix.real
    (state, a, b, sign, target), bits = sector.hops, sector.bits
    pair = np.triu(potential.pair_matrix, 1)
    diag = bits @ np.diag(kin) + params.coupling * np.einsum("ni,ij,nj->n", bits, pair, bits)
    hops = sparse.csr_matrix((sign * kin[b, a], (target, state)), shape=(len(bits),) * 2)
    return (hops + sparse.diags(diag)).tocsr()


def evolve_exact(ham: sparse.csr_matrix, psi: np.ndarray, dt: float,
                 n_steps: int, epsilon: float, snapshot_every: int | None = None):
    """exp(-i H t / eps) psi at every `snapshot_every` steps and at the end.

    The HF step's `chebyshev_expm` goes straight from one report time to the
    next, with no time step.  The interval [c - r, c + r] holds the Gershgorin
    discs of H (diagonal +- off-diagonal row sums of |H|) and is taken once;
    each report's phase tau r is cut into equal series of at most
    CHEBYSHEV_MAX_PHASE, so no series meets the degree cap.
    """
    diag = ham.diagonal().real
    discs = abs(ham).sum(axis=1).A1 - np.abs(diag)
    lo, hi = np.min(diag - discs), np.max(diag + discs)
    centre, radius, factor = _normalization(lo, hi)
    normalized = (ham - centre * sparse.identity(ham.shape[0], format="csr")) * factor

    def apply(rows):  # A = 2 (H - c) / r on each row
        return (normalized @ rows.T).T

    if snapshot_every is None:
        snapshot_every = max(1, n_steps)
    snaps = [(0.0, psi.copy())]
    current = psi
    for done in range(0, n_steps, snapshot_every):
        step = min(done + snapshot_every, n_steps)
        tau = (step - done) * dt / epsilon
        pieces = max(1, int(np.ceil(tau * radius / CHEBYSHEV_MAX_PHASE)))
        block = np.array(current[None, :], dtype=complex)  # a series consumes its block
        for _ in range(pieces):
            block = chebyshev_expm(apply, block, tau / pieces, centre, radius)
        current = block[0]
        snaps.append((step * dt, current))
    return snaps


# ---------------------------------------------------------------------------
# fluctuations on a ring


def fluctuation_ring_run(m_sites: int, n_particles: int, alpha: float, dt: float,
                         t_final: float, length: float, n_snapshots: int,
                         zero_potential: bool = False) -> dict:
    """Fluctuation-number series n(t) for an exact ring evolution vs the HF flow.

    Initial state: translation-invariant Slater (lowest ring momenta), exact
    propagation of its N-particle amplitudes under `ring_hamiltonian`,
    n(t) = fluctuation number of (gamma_t, omega_t), plus the worst formula-vs-direct
    identity deviation over snapshots, all on the C(m, N) amplitudes of the sector.
    """
    grid = Grid(1, m_sites, length)
    params = ScaledParams(n_particles, alpha)
    potential = power_law_potential(grid, alpha)
    if zero_potential:
        potential = replace(potential, values=np.zeros(grid.shape))
    sector = Sector(m_sites, n_particles)
    ham = ring_hamiltonian(sector, grid, params, potential)
    orbitals = np.array([plane_wave(grid, mv).values for mv in lowest_modes(grid, n_particles)])
    initial = slater_state(grid, orbitals, params)
    modes = np.sqrt(grid.cell_volume) * orbitals.reshape(n_particles, -1)
    # <S| a*(f_0) ... a*(f_{N-1}) Omega> = det f_j(s_k) over the modes s_k of S
    psi = np.linalg.det(modes.T[sector.occupied])
    n_steps = int(round(t_final / dt))
    stride = max(1, n_steps // n_snapshots)
    fock_snaps = evolve_exact(ham, psi, dt, n_steps, params.epsilon, stride)
    hf_snaps, _ = run_hf(initial, potential, dt, n_steps, stride)
    times, series, hs_list = [], [], []
    identity_err = 0.0
    # |S xor S_0| for S_0 = {0, ..., N-1}, the modes the particle-hole map R flips
    flips = 2 * (n_particles - sector.bits[:, :n_particles].sum(axis=1))
    for (t, amplitudes), (_, hf_t) in zip(fock_snaps, hf_snaps):
        gamma = gamma1(sector, amplitudes)
        omega = density_matrix(hf_t).matrix
        n_val = fluctuation_number(gamma, omega)
        # direct <psi, R_t N R_t^* psi>, R_t = Gamma(W) R Gamma(W)^*: Gamma(W) keeps the sector
        # and commutes with N, and R is a signed occupation flip, so only its N block enters
        w_t = _extend_unitary(np.sqrt(grid.cell_volume) * hf_t.orbitals.reshape(n_particles, -1).T)
        rotated = lift_unitary(sector, w_t).conj().T @ amplitudes
        direct = float(np.abs(rotated) ** 2 @ flips)
        identity_err = max(identity_err, abs(direct - n_val))
        times.append(t)
        series.append(n_val)
        hs_list.append(float(np.linalg.norm(gamma - omega)))
    # reference growth scale N^((3 - 2 alpha - 6 delta)/(3 - alpha)) at delta = 0.1;
    # the measured prefactor is reported, never asserted
    delta = 0.1
    scale = float(n_particles) ** ((3.0 - 2.0 * alpha - 6.0 * delta) / (3.0 - alpha))
    series = np.asarray(series)
    return {
        "times": np.asarray(times),
        "n_fluct": series,
        "hs": np.asarray(hs_list),
        "identity_err": identity_err,
        "reference_scale": scale,
        "measured_constant": float(np.max(series)) / scale if scale > 0 else np.inf,
    }


def _extend_unitary(columns: np.ndarray) -> np.ndarray:
    """Unitary whose first k columns are the given orthonormal columns."""
    m, k = columns.shape
    q, _ = np.linalg.qr(np.concatenate([columns, np.eye(m, dtype=complex)], axis=1))
    # the first k columns of q are the inputs up to unit phases; keep the inputs themselves
    return np.concatenate([columns, q[:, k:m]], axis=1)


# ---------------------------------------------------------------------------
# audits


PRINTED_ID = "pair-creation-hs-printed"
BOUND_IDS = (
    "dgamma-expectation-psd",
    "dgamma-expectation-abs",
    "dgamma-number",
    "dgamma-hs",
    "pair-annihilation-hs",
    "pair-creation-hs-shifted",
    "trace-class",
    PRINTED_ID,
)


@dataclass
class BoundRecord:
    bound_id: str
    trials: int
    max_slack: float


def _sector_annihilators(space: FockSpace) -> list:
    """Blocks A[n][i] = a_i restricted to sector n -> sector n - 1, bases in bitmask order."""
    m, dim = space.n_modes, space.dim
    masks = [Sector(m, n).masks for n in range(m + 1)]
    blocks = [None]
    for n in range(1, m + 1):
        rows = (np.arange(m)[:, None] * dim + masks[n - 1]).reshape(-1)
        block = space.annihilators[rows][:, masks[n]].toarray()
        blocks.append(block.reshape(m, len(masks[n - 1]), len(masks[n])))
    return blocks


def _rows_times_real(z: np.ndarray, real: np.ndarray) -> np.ndarray:
    """z @ real for complex rows z, as one real product per row on its (re, im) pairs.

    The real matrix is never copied to complex, and each row is its own
    call, so a row's bits do not depend on how many rows share the block.
    """
    pairs = np.ascontiguousarray(z).view(float).reshape(len(z), -1, 2)
    return (real.T @ pairs).view(complex)[..., 0]


def _draw_bound_trials(rng, block: slice, m: int, dim: int) -> tuple:
    """The (O, psi) of the trials in `block`, drawn in trial order from one stream."""
    o = np.empty((block.stop - block.start, m, m), dtype=complex)
    psi = np.zeros((len(o), dim), dtype=complex)
    for row, trial in enumerate(range(block.start, block.stop)):
        o[row] = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if trial % 10 == 0:
            # low-sector states stress the number-weighted right-hand sides
            modes = rng.integers(0, m, size=2)
            psi[row, 0 if trial % 20 == 0 else 1 << int(modes[0])] = 1.0
        else:
            psi[row] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi[row] /= np.linalg.norm(psi[row])
    return o, psi


def _bound_slacks(space: FockSpace, o: np.ndarray, psi: np.ndarray) -> dict:
    """Per-trial slack of every audited bound for one block of (O, psi).

    Through the dense stacks a_stack[(i, r), c] = (A_i)_rc and
    a_dag_stack[(i, r), c] = (A_i^*)_rc, dGamma(O) psi =
    sum_i A_i^* (sum_j O_ij A_j psi), the annihilation pair
    sum_i A_i (sum_j O_ij A_j psi) and the creation pair
    sum_i A_i^* (sum_j O_ij A_j^* psi) are each a pair of matrix products;
    those with a stack go through `_rows_times_real`.
    """
    trials, m = o.shape[:2]
    a_stack = space.annihilators.toarray()
    a_dag_stack = a_stack.reshape(m, space.dim, -1).transpose(0, 2, 1).reshape(a_stack.shape)
    occ = space.occupations().astype(float)
    occ = np.stack([occ, occ**2, occ + 2.0], axis=1)
    o_psd = o @ o.conj().transpose(0, 2, 1)
    o_psd /= np.linalg.norm(o_psd, 2, axis=(1, 2))[:, None, None]
    sing = np.linalg.svd(o, compute_uv=False)
    op_norm, tr_abs = sing[:, 0], np.sum(sing, axis=1)
    hs = np.linalg.norm(o, axis=(1, 2))

    ann = _rows_times_real(psi, a_stack.T).reshape(trials, m, -1)  # A_j psi
    cre = _rows_times_real(psi, a_dag_stack.T).reshape(trials, m, -1)  # A_j^* psi
    inner = (o @ ann).reshape(trials, -1)
    dg = _rows_times_real(inner, a_stack)  # sum_i A_i^* inner_i
    pa = _rows_times_real(inner, a_dag_stack)  # sum_i A_i inner_i
    pc = _rows_times_real((o @ cre).reshape(trials, -1), a_stack)
    # <psi, dGamma(O) psi> = tr(O gamma) with gamma_ij = <A_j psi, A_i psi>
    gamma = ann @ ann.conj().transpose(0, 2, 1)
    exp_dg = np.einsum("tij,tji->t", o, gamma)
    exp_dg_psd = np.einsum("tij,tji->t", o_psd, gamma)

    # <N>, <N^2> and <N + 2> of every trial
    n_exp, n_sq, n_p2 = (np.abs(psi[:, None, :]) ** 2 @ occ)[:, 0].T
    n_psi = np.sqrt(n_sq)
    sqrt_n_psi = np.sqrt(n_exp)
    sqrt_n_p2_psi = np.sqrt(n_p2)
    dg_norm = np.linalg.norm(dg, axis=1)
    pa_norm = np.linalg.norm(pa, axis=1)
    pc_norm = np.linalg.norm(pc, axis=1)
    return {
        "dgamma-expectation-psd": exp_dg_psd.real - 1.0 * n_exp,
        "dgamma-expectation-abs": np.abs(exp_dg) - op_norm * n_exp,
        "dgamma-number": dg_norm - op_norm * n_psi,
        "dgamma-hs": dg_norm - hs * sqrt_n_psi,
        "pair-annihilation-hs": pa_norm - hs * sqrt_n_psi,
        "pair-creation-hs-shifted": pc_norm - hs * sqrt_n_p2_psi,
        "trace-class": np.maximum(np.maximum(dg_norm, pa_norm), pc_norm) - 2.0 * tr_abs,
        PRINTED_ID: pc_norm - hs * sqrt_n_psi,
    }


def audit_fock_operator_bounds(n_modes: int, trials: int, seed: int) -> list:
    """Randomized audit of the second-quantization inequalities.

    Six bound families are checked with exact norms on both sides.  The
    creation-pair Hilbert-Schmidt bound is audited with the (N+2)^(1/2) weight:
    the bare N^(1/2) version fails on any state with a vacuum component (take
    psi = Omega: the left side is ||antisym(O)|| > 0, the right side is zero),
    so its worst violation is reported without a verdict.

    The trials run in `diagnostic_chunks`, blocks whose (trials, m 2^m) arrays
    fit the diagnostics budget: a block's (O, psi) are drawn in trial order
    from the one stream, its slacks are evaluated through the dense
    annihilator stack A (m 2^m, 2^m), and only the running maxima are kept.
    """
    if n_modes > 8:
        raise ValueError("dense bound audit supported up to 8 modes")
    space = FockSpace(n_modes)
    rng = np.random.default_rng(seed)
    m, dim = n_modes, space.dim
    worst = dict.fromkeys(BOUND_IDS, -np.inf)
    for block in diagnostic_chunks(trials, m * dim):
        o, psi = _draw_bound_trials(rng, block, m, dim)
        for bound, slack in _bound_slacks(space, o, psi).items():
            worst[bound] = np.maximum(worst[bound], np.max(slack))  # a NaN slack stays NaN
    return [BoundRecord(b, trials, float(v)) for b, v in worst.items()]


def audit_window_pair_bound(grid: Grid, n_occupied: int, trials: int, seed: int) -> dict:
    """Randomized check of ||B_{r,z}|| <= 2 tr|v chi u| <= 2 tr|[chi, omega]|.

    For orthonormal orbitals f_j, omega = sum_j |f_j><f_j|, u = 1 - omega and
    v = sum_j |conj f_j><f_j|, the kernel sum_j conj f_j(x) conj f_j(y), as in
    the particle-hole map R* a(g) R = a(u g) + a*(vbar gbar).
    With a(g) = sum_i conj(g_i) a_i, the pair operator
    int chi(x) a(u_x) a(vbar_x) dx is sum_ij (ubar chi v)_ij a_i a_j, whose
    matrix has the trace norm of o = v chi u.  Then v = v omega, ||v|| <= 1
    and omega chi u = -omega [chi, omega], so
    tr|v chi u| = tr|v omega [chi, omega]| <= tr|[chi, omega]|.  With the
    conjugate kernel vbar in place of v the audit would measure
    tr|vbar chi u| = tr|v chi ubar|, which [chi, omega] does not control
    unless omega is real.

    B = sum_ij o_ij a_i a_j lowers the particle number by two, so B^* B is
    block diagonal and ||B|| = max_n ||B[S_{n-2}, S_n]||: the pair monomials
    are built only on those sector blocks, and the norm is the largest block
    singular value.  Within a sector the trials run in `diagnostic_chunks`,
    and `_rows_times_real` keeps the monomial matrix real.
    """
    if grid.site_count > 8:
        raise ValueError("dense pair-bound audit supported up to 8 modes")
    m = grid.site_count
    space = FockSpace(m)
    rng = np.random.default_rng(seed)
    shape = (n_occupied,) + grid.shape
    h = grid.cell_volume
    o = np.empty((trials, m, m), dtype=complex)
    comm = np.empty((trials, m, m), dtype=complex)
    for trial in range(trials):
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        orbs = loewdin_orthonormalize(grid, raw).reshape(n_occupied, -1)
        omega = h * (orbs.T @ orbs.conj())
        u = np.eye(m) - omega
        v = h * np.conj(orbs.T @ orbs)
        radius = float(np.exp(rng.uniform(np.log(grid.h), np.log(grid.length / 2))))
        center = rng.uniform(0.0, grid.length, size=grid.dim)
        chi = np.diag(gaussian_window(grid, center, radius).reshape(-1))
        o[trial] = v @ chi @ u
        comm[trial] = chi @ omega - omega @ chi
    b_norm = np.full(trials, -np.inf)
    ann = _sector_annihilators(space)
    flat = o.reshape(trials, m * m)
    for n in range(2, m + 1):
        # mono[i, j] = a_i a_j from sector n to n - 2
        mono = np.matmul(ann[n - 1][:, None], ann[n][None, :])
        rows, cols = mono.shape[2:]
        mono = mono.reshape(m * m, rows * cols)
        for block in diagnostic_chunks(trials, rows * cols):
            pairs = _rows_times_real(flat[block], mono).reshape(-1, rows, cols)
            b_norm[block] = np.maximum(b_norm[block], np.linalg.norm(pairs, 2, axis=(1, 2)))
    tr_o = np.sum(np.linalg.svd(o, compute_uv=False), axis=1)
    tr_comm = np.sum(np.linalg.svd(comm, compute_uv=False), axis=1)
    return {
        "trials": trials,
        "max_slack_norm_vs_trace": float(np.max(b_norm - 2.0 * tr_o, initial=-np.inf)),
        "max_slack_trace_vs_commutator": float(np.max(tr_o - tr_comm, initial=-np.inf)),
    }
