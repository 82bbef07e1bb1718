"""Time-dependent Hartree-Fock dynamics for a Slater state on the torus.

Orbitals are propagated (rather than the density matrix) so rank and
idempotency are structural.  One step is a Strang split: half a kinetic step
(the exact spectral multiplier), a full mean-field step with the direct
potential and exchange operator frozen at the midpoint (one cheap predictor
supplies the midpoint orbitals), then the second kinetic half.  The frozen
mean-field exponential is a Chebyshev series over a bound on the operator's
spectrum, of a degree a Bessel tail bound fixes in advance.  On small grids
the one-body operators are dense matrices applied by matmul, on larger ones
they are applied by FFT.

On the FFT path the frozen exchange X is compressed once per step, after
L. Lin's adaptively compressed exchange: with P the projection onto the span
of the midpoint orbitals f_mid, the propagator applies X~ = P X + X P - P X P,
which is Hermitian and equals X on that span, using thin products and no FFT.
The neglected (1 - P) X (1 - P) enters at O(dt^3) per step, so the scheme
stays second order.

The kinetic substep is exact for any dt.  Accuracy of the split requires the
mean-field phase per step, dt * ||U - X|| / eps, to stay well below one; the
runner warns when the kinetic phase per step dt * eps * k_max^2 exceeds 2*pi,
which signals an aggressively large step for interacting runs.
"""

from __future__ import annotations

import functools
import itertools
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.special

from hflab.lattice import (
    DenseOperator,
    Grid,
    ScaledParams,
    projection_from_orbitals,
    spectral_multiplier_operator,
)
from hflab.potentials import PowerLawPotential

GRAM_ABORT = 1e-6
# Truncation bound of the Chebyshev propagator, and the degree past which it raises.
CHEBYSHEV_TOL = 1e-13
CHEBYSHEV_MAX_DEGREE = 40
# Largest phase tau r one series of a split propagation spans: degree 40 reaches
# tau r = 15.589..., so a series of this phase never meets the cap.
CHEBYSHEV_MAX_PHASE = 15.5
# The Chebyshev series runs over row chunks of its block, the self-exchange transforms
# its pair densities in batches of pair rows, and the compressed exchange forms its
# basis over column chunks, each of at most this many complex points (4 MiB): 8 rows
# at 3d m=32, the whole block on the dense path (M <= 128), one row at the 2**20-site
# field cap.  The self-exchange's two lanes share it: of B pair rows each holds
# (B - 4) // 2, 2 at 3d m=32.  A degree-3 series at 3d m=32 N=16 (2 vCPUs, one BLAS thread,
# medians of 7 rounds) took 58 ms on the whole block, 64 in 8-row chunks, 81 in 4,
# 113 in 2 and 99 in 1 (matrix-vector products); smaller budgets cost time there.
STEP_CHUNK_POINTS = 2**18
# Grids with at most this many sites step on cached dense M x M one-body
# matrices (one matmul per application, no FFT); larger grids use FFTs.  The
# dense step was faster at every N tried up to 128 sites; at 256 the faster
# path depends on N (table in README, "Small-grid step").
DENSE_STEP_SITES = 128


@dataclass
class SlaterState:
    """N orthonormal orbitals on a grid; induces the rank-N projection."""

    grid: Grid
    orbitals: np.ndarray  # shape (N,) + grid.shape
    params: ScaledParams
    time: float = 0.0

    def __post_init__(self):
        self.orbitals = np.asarray(self.orbitals, dtype=complex)
        if self.orbitals.shape != (self.params.n_particles,) + self.grid.shape:
            raise ValueError(
                f"expected orbital block of shape "
                f"{(self.params.n_particles,) + self.grid.shape}, "
                f"got {self.orbitals.shape}"
            )

    @property
    def n_orbitals(self) -> int:
        return self.orbitals.shape[0]

    def gram_defect(self) -> float:
        flat = self.orbitals.reshape(self.n_orbitals, -1)
        return _gram_defect(_gram(flat, self.grid.cell_volume))

    def copy(self) -> "SlaterState":
        return SlaterState(self.grid, self.orbitals.copy(), self.params, self.time)


def slater_state(grid, orbitals, params) -> SlaterState:
    """Validated constructor at time 0: Gram matrix must be the identity within 1e-8."""
    state = SlaterState(grid, np.array(orbitals, dtype=complex), params)
    defect = state.gram_defect()
    if defect > 1e-8:
        raise ValueError(f"orbitals are not orthonormal (Gram defect {defect:.3e})")
    return state


def _gram(rows: np.ndarray, volume: float) -> np.ndarray:
    """The Gram matrix volume * conj(rows) rows^T of a (k, M) block."""
    return volume * (rows.conj() @ rows.T)


def _gram_defect(gram: np.ndarray) -> float:
    residual = gram.copy()
    residual.reshape(-1)[:: len(gram) + 1] -= 1.0
    return float(np.abs(residual).max())


def _loewdin_transform(gram: np.ndarray) -> np.ndarray:
    """S such that the rows of S @ flat are the Loewdin orthonormalization of flat.

    `gram` is the Gram matrix h^d conj(flat) flat^T of the rows.
    """
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= 1e-14:  # eigh sorts the eigenvalues ascending
        raise ValueError("orbital family is numerically rank deficient")
    inv_sqrt = (vecs * (vals ** -0.5)) @ vecs.conj().T
    # rows transform with the transpose: Gram maps as conj(B) G B^T
    return inv_sqrt.T


def loewdin_orthonormalize(grid: Grid, orbitals: np.ndarray) -> np.ndarray:
    """Symmetric (minimal-change) orthonormalization of an orbital block."""
    block = np.asarray(orbitals, dtype=complex)
    flat = block.reshape(len(block), -1)
    return (_loewdin_transform(_gram(flat, grid.cell_volume)) @ flat).reshape(block.shape)


def orbital_density(orbitals: np.ndarray) -> np.ndarray:
    """rho = sum_j |f_j|^2 over the rows of an orbital block: omega(x;x), of integral N."""
    rho = np.abs(orbitals)
    rho *= rho
    return rho.sum(axis=0)


def laplacian_trace(grid: Grid, hat: np.ndarray) -> float:
    """tr(-Lap) omega = h^d / M sum_j sum_k |k|^2 |f^_j(k)|^2, from the orbitals' transforms."""
    k2 = grid.momentum_squared()
    return grid.cell_volume / grid.site_count * sum(np.vdot(row, row * k2).real for row in hat)


def _direct_potential(orbitals, potential, n_particles):
    return potential.convolve(orbital_density(orbitals) / n_particles)


def _pair_batches(n, capacity):
    """The pairs (i, j), i <= j < n, in row-major order, in batches of at most `capacity`.

    Yields (segments, rows): segments (i, lo, hi, at) place the pairs (i, lo) .. (i, hi - 1)
    at rows at .. at + hi - lo - 1 of a batch of `rows` rows.  One row's pairs may span
    batches.
    """
    batch, at = [], 0
    for i in range(n):
        lo = i
        while lo < n:
            hi = min(n, lo + capacity - at)
            batch.append((i, lo, hi, at))
            lo, at = hi, at + hi - lo
            if at == capacity:
                yield batch, at
                batch, at = [], 0
    if batch:
        yield batch, at


def _exchange(frozen, potential, n_particles, out):
    """The self-exchange X F, X g = (1/N) sum_i f_i (V * (conj(f_i) g)), written into `out`.

    Only the pairs j >= i are transformed: the (j, i) pair is conj(f_j) f_i =
    conj(conj(f_i) f_j), and V * conj(h) = conj(V * h) because v_hat is real and even.
    Two lanes, this thread and a helper, take alternate batches of `_pair_batches`, each
    formed and transformed in the lane's own buffer and added into `out` in batch order,
    so the bits are those of a one-thread walk of the batches whatever the timing.  Each
    lane's pair rows and scratch (a row, and about a row in the transform) fit half of
    STEP_CHUNK_POINTS.  One lane walks where all N(N+1)/2 pairs fit one batch or the
    budget holds under 6 pair rows.  An error in either lane stops both and raises here.
    """
    n = len(frozen)
    count, budget = n * (n + 1) // 2, max(1, STEP_CHUNK_POINTS // frozen[0].size)
    lanes = 2 if count > budget >= 6 else 1
    capacity = (budget - 4) // 2 if lanes == 2 else min(count, budget)
    buffers = [np.empty((capacity + 1,) + frozen.shape[1:], dtype=complex) for _ in range(lanes)]
    potential._scaled_v_hat  # a cached_property: filled here, not by two lanes at once
    turnstile, added, failed = threading.Condition(), [0], []
    out.fill(0.0)

    def lane(first):
        pairs, row = buffers[first][:-1], buffers[first][-1]  # pair rows over a scratch row
        walk = itertools.islice(enumerate(_pair_batches(n, capacity)), first, None, lanes)
        try:
            for k, (batch, rows) in walk:
                for i, lo, hi, at in batch:
                    segment = pairs[at:at + hi - lo]
                    np.multiply(np.conjugate(frozen[i], out=row), frozen[lo:hi], out=segment)
                done = potential.convolve(pairs[:rows], overwrite=True)
                with turnstile:  # the batches before this one are in `out`, or a lane failed
                    turnstile.wait_for(lambda: added[0] == k or failed)
                if failed:
                    return
                for i, lo, hi, at in batch:
                    pair = done[at:at + hi - lo]
                    # frozen orbitals j > i reach row i through the conjugate pair,
                    # conjugated in place and back: no conjugate copy of the frozen set
                    above = max(lo, i + 1)
                    tail = pair[above - lo:]
                    np.conjugate(tail, out=tail)
                    out[i] += np.einsum("j...,j...->...", frozen[above:hi], tail, out=row)
                    np.conjugate(tail, out=tail)
                    pair *= frozen[i]
                    out[lo:hi] += pair
                with turnstile:
                    added[0] += 1
                    turnstile.notify_all()
        except BaseException as error:
            with turnstile:
                failed.append(error)
                turnstile.notify_all()

    helpers = [threading.Thread(target=lane, args=(k,)) for k in range(1, lanes)]
    for thread in helpers:
        thread.start()
    lane(0)
    for thread in helpers:
        thread.join()
    if failed:
        raise failed[0]
    out /= n_particles


def _kinetic_multiply(block, multiplier):
    """ifft(multiplier * fft(f)) for each row of `block`."""
    axes = tuple(range(1, block.ndim))
    hat = scipy.fft.fftn(block, axes=axes)
    hat *= multiplier
    return scipy.fft.ifftn(hat, axes=axes, overwrite_x=True)


def _chebyshev_coefficients(z):
    """Coefficients c_k of exp(-1j z x) = sum_k c_k T_k(x) on [-1, 1], cut at an a-priori degree.

    By Jacobi-Anger c_0 = J_0(z) and c_k = 2 (-1j)^k J_k(z).  Since |T_k| <= 1
    there, degree d errs by at most 2 sum_{k>d} |J_k(z)|; d is the smallest
    degree that keeps this below CHEBYSHEV_TOL, and above CHEBYSHEV_MAX_DEGREE
    it raises.  Past a table of J_k, |J_k(z)| <= (z/2)^k / k!, a geometric
    series.  The table ends at the first order n where that bound on the rest
    is below the rounding of CHEBYSHEV_TOL, a few orders past the degree, so
    a longer table picks the same degree.  Where that order passes the cap,
    a table of cap + 2 orders decides and a longer one names the degree.
    """
    z = float(z)
    cap = CHEBYSHEV_MAX_DEGREE
    n, term = 1, z / 2  # term = (z/2)^n / n!
    while n <= cap + 1:
        ratio = z / (2 * (n + 1))
        if ratio < 1 and 2 * term <= 2**-52 * CHEBYSHEV_TOL * (1 - ratio):
            break
        n += 1
        term *= z / (2 * n)
    if n <= cap + 1:
        rest = term / (1 - ratio)  # bounds sum_{k>=n} |J_k(z)|
        bessel = scipy.special.jv(np.arange(n), z)
        # tail = sum_{d<k<n} |J_k(z)|, summed from the far end like the long table
        tail, degree = 0.0, n - 1
        for value in bessel[:0:-1].tolist():
            tail += abs(value)
            if 2 * (tail + rest) > CHEBYSHEV_TOL:
                break
            degree -= 1
    else:
        for n in (cap + 2, 2**16):
            bessel = scipy.special.jv(np.arange(n), z)
            with np.errstate(divide="ignore", over="ignore"):
                first = np.exp(n * np.log(z / 2) - scipy.special.gammaln(n + 1))
            beyond = first / (1 - z / (2 * (n + 1))) if z < 2 * (n + 1) else np.inf
            # tails[d] bounds 2 sum_{k>d} |J_k(z)|
            tails = 2 * (np.append(np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0) + beyond)
            fits = np.flatnonzero(tails <= CHEBYSHEV_TOL)
            if fits.size:
                break
        if not fits.size or fits[0] > cap:
            needed = f"degree {fits[0]}" if fits.size else f"a degree above {n - 1}"
            raise RuntimeError(
                f"Chebyshev propagator needs {needed} for tau * r = {z:.3e}, above the cap "
                f"{cap}: the truncation residual bound at the cap is {tails[cap]:.3e}"
            )
        degree = fits[0]
    coeffs = 2 * (-1j) ** np.arange(degree + 1) * bessel[: degree + 1]
    coeffs[0] /= 2
    return coeffs


def chebyshev_expm(apply, block, tau, centre, radius):
    """exp(-1j * tau * H) applied to each row of a (k, M) block by a Chebyshev series, in place.

    H is Hermitian with its spectrum in [c - r, c + r]; `apply` returns A b as a
    new block, A = 2 (H - c) / r acting on each row alone, and exp(-1j tau H) =
    exp(-1j tau c) exp(-1j tau r A / 2) (Tal-Ezer and Kosloff), of a degree fixed in
    advance.  The series runs over chunks of rows of at most STEP_CHUNK_POINTS points and
    writes each chunk's sum back over it, then returns `block`.  The chunk is T_0 and
    T_{k+1} = A T_k - T_{k-1} goes over T_{k-1}, so the sum, T_1 and A T_k (or c_k T_k)
    are the only other arrays alive, each of one chunk.  r = 0 is an exact phase.
    """
    coeffs = _chebyshev_coefficients(tau * radius)
    rows = max(1, STEP_CHUNK_POINTS // block.shape[1])
    for start in range(0, len(block), rows):
        chunk = block[start:start + rows]
        out = coeffs[0] * chunk
        prev, cur = None, chunk
        for coeff in coeffs[1:]:
            if prev is None:
                prev, cur = cur, apply(cur)
                cur *= 0.5  # T_1 = X T_0
            else:
                np.subtract(apply(cur), prev, out=prev)
                prev, cur = cur, prev
            out += coeff * cur
        out *= np.exp(-1j * tau * centre)
        chunk[...] = out
    return block


def _normalization(lo, hi):
    """Centre c, radius r and the factor 2 / r of A = 2 (H - c) / r for [lo, hi]; 0 if r = 0."""
    centre, radius = (hi + lo) / 2.0, (hi - lo) / 2.0
    return centre, radius, (2.0 / radius if radius > 0 else 0.0)


@functools.lru_cache(maxsize=16)
def _half_kinetic(grid: Grid, phase_time: float, dense: bool) -> np.ndarray:
    """exp(-1j phase_time k^2), the kinetic half-step, read-only: the multiplier the
    FFT path applies, or the dense path's matrix acting on rows (block @ matrix)."""
    out = np.exp(-1j * phase_time * grid.momentum_squared())
    if dense:
        out = spectral_multiplier_operator(grid, out).matrix.T.copy()
    out.flags.writeable = False
    return out


# Step operators on (k, M) row blocks, by FFT and as dense M x M matrices: self_field(F) is
# H(F) F, and frozen_field(F) the normalized A = 2 (H - c) / r of the mean field H frozen at
# F, with the centre c and radius r of an interval holding the spectrum of H.

def _fft_kinetic(block, grid, phase_time):
    rows = block.reshape((len(block),) + grid.shape)
    return _kinetic_multiply(rows, _half_kinetic(grid, phase_time, False)).reshape(len(block), -1)


def _fft_self_terms(frozen, potential, grid, n_particles, out):
    """u, and the pair-symmetric self-exchange X F written into `out`."""
    rows = frozen.reshape((len(frozen),) + grid.shape)
    u_vals = _direct_potential(rows, potential, n_particles).reshape(-1)
    _exchange(rows, potential, n_particles, out.reshape(rows.shape))
    return u_vals


def _fft_self_field(frozen, potential, grid, n_particles, out):
    u_vals = _fft_self_terms(frozen, potential, grid, n_particles, out)
    for row, image_row in zip(frozen, out):  # row by row: u F would be a second block
        np.subtract(u_vals * row, image_row, out=image_row)
    return out


def _fft_frozen_field(frozen, potential, grid, n_particles, basis):
    """A for H = U - X~ with X~ = P X + X P - P X P, given the rows F, and (c, r).

    P is the h^d-orthogonal projection onto span(F) and X the exchange frozen
    there, so X~ equals X on that span; off it X~ drops (1 - P) X (1 - P).
    With Loewdin rows q = S F (so X q = S X F), the Hermitian core
    K_ij = <q_i, X q_j> and z = X q - K q / 2 it is X~ = sum_i |q_i><z_i| + |z_i><q_i|,
    Hermitian whatever the rounding in K, and it inverts no core matrix.  The
    rows q are orthonormal, so ||X~|| <= 2 ||z|| = b, read off the N x N Gram
    matrix of z: H has its spectrum in [min u - b, max u + b].  With the shift
    and scale folded into u and z, and conj(q) over conj(z) kept as one (2N, M)
    basis, A b is u' b plus one product of the basis, written into the block
    it returns; it transforms no pair density.

    `basis` is a (2N, M) array whose first half is F: X F goes into its second
    half, and q and z are formed over F and X F in place, a column chunk at a
    time.
    """
    n = len(frozen)
    q, z = basis[:n], basis[n:]  # F over X F, then q over z
    u_vals = _fft_self_terms(q, potential, grid, n_particles, z)
    volume = grid.cell_volume
    s = _loewdin_transform(_gram(q, volume))
    # whole multiples of 64 columns meet the BLAS kernels one product over all columns
    # would, so q and z do not depend on the budget
    width = max(64, STEP_CHUNK_POINTS // n) // 64 * 64
    scratch = np.empty((n, min(width, q.shape[1])), dtype=complex)

    def columns(rows):
        return [rows[:, start:start + width] for start in range(0, rows.shape[1], width)]

    for part in columns(basis):  # q = S F and X q = S X F
        for half in (part[:n], part[n:]):
            half[...] = np.matmul(s, half, out=scratch[:, :half.shape[1]])
    # core[i, j] = <q_i, X q_j>, with q conjugated in place and back: no conjugate copy
    np.conjugate(q, out=q)
    core = volume * (q @ z.T)
    np.conjugate(q, out=q)
    for q_part, z_part in zip(columns(q), columns(z)):  # z -= K^T q / 2
        image = np.matmul(core.T, q_part, out=scratch[:, :q_part.shape[1]])
        image *= 0.5
        z_part -= image
    # kept conjugated, so the coefficients of a block are block @ basis.T; the Gram
    # matrix of conj(z) is the transpose of that of z, with the same eigenvalues
    np.conjugate(basis, out=basis)
    bound = 2.0 * np.sqrt(max(np.linalg.eigvalsh(_gram(z, volume))[-1], 0.0))
    centre, radius, scale = _normalization(u_vals.min() - bound, u_vals.max() + bound)
    u_vals = (u_vals - centre) * scale
    # A b = u' b - (2 / r) X~ b, and each term of X~ has one factor z and one h^d
    z *= -scale * volume
    swap = np.r_[n:2 * n, :n]

    def apply(block):
        # X~ b = sum_i <z_i, b> q_i + <q_i, b> z_i: the coefficients <q_i, b>, <z_i, b>
        # of each row swap halves, and X~ b = conj(conj(coefficients) @ basis)
        coeffs = block @ basis.T
        out = np.matmul(coeffs[:, swap].conj(), basis)
        np.conjugate(out, out=out)
        for row, image_row in zip(block, out):  # row by row: u' b would be a second block
            image_row += u_vals * row
        return out

    return apply, centre, radius


def _dense_kinetic(block, grid, phase_time):
    return block @ _half_kinetic(grid, phase_time, True)


def _dense_field_terms(frozen, potential, grid, n_particles):
    """V o (F^* F), u = (h^d/N) rho V with rho = sum_j |f_j|^2, and h^d/N: the field on rows
    is diag(u) - (h^d/N) V o (F^* F)."""
    pair = potential.pair_matrix
    scale = grid.cell_volume / n_particles
    matrix = frozen.conj().T @ frozen
    np.multiply(matrix, pair, out=matrix)
    return matrix, scale * (orbital_density(frozen) @ pair), scale


def _dense_self_field(frozen, potential, grid, n_particles, out):
    matrix, u_vals, scale = _dense_field_terms(frozen, potential, grid, n_particles)
    matrix *= -scale
    matrix.reshape(-1)[:: len(matrix) + 1] += u_vals
    return np.matmul(frozen, matrix, out=out)


def _dense_frozen_field(frozen, potential, grid, n_particles, _basis):
    """A for the field frozen at F, applied as block @ A, and (c, r) from Gershgorin discs.

    The discs are read off V o (F^* F), whose diagonal is real and non-negative, so A
    is formed in the one pass over the matrix that forms the field itself.  `_basis`,
    the FFT path's scratch, is not used."""
    matrix, u_vals, scale = _dense_field_terms(frozen, potential, grid, n_particles)
    diagonal = matrix.diagonal().real
    centres = u_vals - scale * diagonal
    radii = scale * (np.abs(matrix).sum(axis=1) - diagonal)
    centre, radius, factor = _normalization((centres - radii).min(), (centres + radii).max())
    matrix *= -scale * factor
    matrix.reshape(-1)[:: len(matrix) + 1] += factor * (u_vals - centre)
    return matrix.__rmatmul__, centre, radius


def hf_step(state: SlaterState, potential: PowerLawPotential, dt: float) -> SlaterState:
    """Advance one Strang step; re-orthonormalizes and checks Gram drift."""
    out, _ = hf_step_with_drift(state, potential, dt)
    return out


def hf_step_with_drift(state: SlaterState, potential: PowerLawPotential, dt: float):
    """hf_step plus the Gram defect measured before re-orthonormalization.

    Grids of at most DENSE_STEP_SITES sites apply the operators as dense
    matrices, larger ones by FFT; both run this one step body.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = state.grid
    p = state.params
    if g.site_count <= DENSE_STEP_SITES:
        kinetic, self_field, frozen_field = _dense_kinetic, _dense_self_field, _dense_frozen_field
    else:
        kinetic, self_field, frozen_field = _fft_kinetic, _fft_self_field, _fft_frozen_field
    phase_time = (dt / 2.0) * p.epsilon
    n = state.n_orbitals

    f1 = kinetic(state.orbitals.reshape(n, -1), g, phase_time)

    # predictor: first-order half-step of the mean-field flow fixes the midpoint, formed
    # in the first half of the (2N, M) array the FFT path's frozen operator keeps as its basis
    basis = np.empty((2 * n, f1.shape[1]), dtype=complex)
    f_mid = self_field(f1, potential, g, p.n_particles, out=basis[:n])
    f_mid *= -1j * (dt / (2.0 * p.epsilon))
    f_mid += f1
    midpoint_field, centre, radius = frozen_field(f_mid, potential, g, p.n_particles, basis)
    del f_mid, basis

    chebyshev_expm(midpoint_field, f1, dt / p.epsilon, centre, radius)  # f1 becomes f2
    del midpoint_field  # frees the basis before the last kinetic half-step

    f3 = kinetic(f1, g, phase_time)
    del f1

    gram = _gram(f3, g.cell_volume)  # serves the drift check and the Loewdin transform
    defect = _gram_defect(gram)
    if defect > GRAM_ABORT:
        raise RuntimeError(
            f"orthonormality drift {defect:.3e} exceeds {GRAM_ABORT:.0e} at "
            f"t={state.time + dt:.6f}; aborting run"
        )
    orbitals = (_loewdin_transform(gram) @ f3).reshape(state.orbitals.shape)
    return SlaterState(g, orbitals, p, state.time + dt), defect


def kinetic_phase_per_step(state: SlaterState, dt: float) -> float:
    return float(dt * state.params.epsilon * np.max(state.grid.momentum_squared()))


def run_hf(state, potential, dt, n_steps, snapshot_every=None):
    """Propagate n_steps; returns (snapshots, max_gram_drift).

    Snapshots are (time, SlaterState) pairs including the initial state and the
    final one.  Gram drift is measured per step before re-orthonormalization.
    """
    if snapshot_every is None:
        snapshot_every = max(1, n_steps)
    if kinetic_phase_per_step(state, dt) > 2.0 * np.pi:
        warnings.warn(
            "kinetic phase per step exceeds 2*pi; the kinetic substep is still "
            "exact but mean-field accuracy may degrade for interacting runs",
            stacklevel=2,
        )
    current = state.copy()
    snaps = [(current.time, current.copy())]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        current, drift = hf_step_with_drift(current, potential, dt)
        max_drift = max(max_drift, drift)
        if step % snapshot_every == 0 or step == n_steps:
            snaps.append((current.time, current.copy()))
    return snaps, max_drift


def hf_energy(state: SlaterState, potential: PowerLawPotential) -> float:
    """tr(-eps^2 Lap) omega + (1/2N) iint V [omega(x;x) omega(y;y) - |omega(x;y)|^2].

    With Q(g) = h^d sum_x conj(g) (V * g) by Parseval (`PowerLawPotential.pair_energy`),
    the pair terms are Q(rho), rho = sum_j |f_j|^2, and sum_ij Q(conj(f_i) f_j) =
    2 sum_{i<=j} Q(conj(f_i) f_j) - sum_i Q(|f_i|^2).  One (N, M) buffer holds the
    orbitals' transforms, then the N(N+1)/2 pairs j >= i in the batches of N rows of
    `_pair_batches`.
    """
    g = state.grid
    f = state.orbitals
    n = len(f)
    direct = potential.pair_energy(orbital_density(f)[None])[0]
    buf = scipy.fft.fftn(f, axes=tuple(range(1, g.dim + 1)))
    kinetic = state.params.epsilon**2 * laplacian_trace(g, buf)
    exchange = 0.0
    for batch, rows in _pair_batches(n, n):
        for i, lo, hi, at in batch:
            np.multiply(f[i].conj(), f[lo:hi], out=buf[at:at + hi - lo])
        energies = potential.pair_energy(buf[:rows])
        diagonal = [at for i, lo, _, at in batch if lo == i]
        exchange += 2.0 * energies.sum() - energies[diagonal].sum()
    return float(kinetic + 0.5 * (direct - exchange) / n)


def density_matrix(state: SlaterState) -> DenseOperator:
    """Dense omega = sum_j |f_j><f_j|; Hermitian projection with trace N."""
    return projection_from_orbitals(state.grid, state.orbitals)


def hs_distance_squared(a: SlaterState, b: SlaterState) -> float:
    """||omega_a - omega_b||_HS^2 for the projections of two orthonormal blocks.

    Equals N_a + N_b - 2 sum |<f_i, g_j>|^2, summed here as the residuals of
    each block off the other's span, h^d ||F_b - S F_a||^2 + h^d ||F_a - S^* F_b||^2
    with S = h^d F_b F_a^*, so near-equal states do not cancel to rounding noise.
    """
    fa = a.orbitals.reshape(a.n_orbitals, -1)
    fb = b.orbitals.reshape(b.n_orbitals, -1)
    overlaps = a.grid.cell_volume * (fb @ fa.conj().T)
    off_a = fb - overlaps @ fa
    off_b = fa - overlaps.conj().T @ fb
    return float(a.grid.cell_volume * (np.vdot(off_a, off_a) + np.vdot(off_b, off_b)).real)
