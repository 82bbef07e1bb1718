"""Reference implementations the tests compare the library against.

Nothing in `hflab` calls these.  The dense ones build the full operator (an
M x M matrix on the grid, or a 2^m vector in Fock space) that the library
avoids, so a test can check the library's answer against the textbook
formula; the exponent helpers state the Hoelder constraint of the
commutator-density budget.
"""

import functools
import itertools

import numpy as np
from scipy import sparse

from hflab.fock import FockSpace
from hflab.hartree_fock import _pair_batches
from hflab.lattice import DenseOperator, Field, spectral_multiplier_operator
from hflab.semiclassics import PLAIN, DiagnosticsConfig, _position_multiplier


def operator_norms(op: DenseOperator) -> dict:
    """Schatten diagnostics: operator, Hilbert-Schmidt and trace norms plus the trace."""
    try:
        sv = np.linalg.svd(op.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular value decomposition failed") from exc
    return {
        "operator_norm": float(sv[0]) if sv.size else 0.0,
        "hs_norm": float(np.sqrt(np.sum(sv**2))),
        "trace_norm": float(np.sum(sv)),
        "trace": complex(np.trace(op.matrix)),
    }


def absolute_value(op: DenseOperator) -> DenseOperator:
    """|A| = (A* A)^(1/2); Hermitian PSD with the singular values of A."""
    try:
        _, sv, vh = np.linalg.svd(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular value decomposition failed") from exc
    return DenseOperator(op.grid, vh.conj().T @ (sv[:, None] * vh))


def commutator_position(omega: DenseOperator, axis: int,
                        convention: str = PLAIN) -> DenseOperator:
    """[X_axis, omega] with X the chosen coordinate convention.

    periodic: (L / 2 pi) * [exp(2 pi i x / L), omega], which reduces to the
    plain commutator for states far from the wrap-around seam.
    """
    x, scale = _position_multiplier(omega.grid, axis, convention)
    mat = x[:, None] * omega.matrix - omega.matrix * x[None, :]
    return DenseOperator(omega.grid, scale * mat)


def commutator_momentum(omega: DenseOperator, axis: int, epsilon: float) -> DenseOperator:
    """[-i eps d/dx_axis, omega] via the spectral derivative."""
    g = omega.grid
    mult = epsilon * g.momentum_mesh()[axis]
    p_op = spectral_multiplier_operator(g, mult)
    return DenseOperator(g, p_op.matrix @ omega.matrix - omega.matrix @ p_op.matrix)


def exchange(block: np.ndarray, frozen: np.ndarray, potential, n_particles: int) -> np.ndarray:
    """X applied to each row g of `block`, X g = (1/N) sum_i f_i (V * (conj(f_i) g)) over the
    frozen rows f_i, with all N k pair densities in one array (no chunks, no pair symmetry)."""
    pairs = potential.convolve(frozen.conj()[:, None] * block[None])
    return np.einsum("i...,ij...->j...", frozen, pairs) / n_particles


def exchange_walk(frozen: np.ndarray, potential, n_particles: int, capacity: int) -> np.ndarray:
    """The self-exchange X F on one thread, over the batches of `_pair_batches(N, capacity)`
    in one buffer.  The library's lanes add the same batches into their result in this
    order, so at the capacity it picks the two give the same bits."""
    n = len(frozen)
    pairs = np.empty((capacity,) + frozen.shape[1:], dtype=complex)
    row = np.empty(frozen.shape[1:], dtype=complex)
    out = np.zeros_like(frozen)
    for batch, rows in _pair_batches(n, capacity):
        for i, lo, hi, at in batch:
            np.multiply(np.conjugate(frozen[i], out=row), frozen[lo:hi], out=pairs[at:at + hi - lo])
        done = potential.convolve(pairs[:rows], overwrite=True)
        for i, lo, hi, at in batch:
            pair = done[at:at + hi - lo]
            above = max(lo, i + 1)
            tail = pair[above - lo:]
            np.conjugate(tail, out=tail)
            out[i] += np.einsum("j...,j...->...", frozen[above:hi], tail, out=row)
            np.conjugate(tail, out=tail)
            pair *= frozen[i]
            out[lo:hi] += pair
    out /= n_particles
    return out


def diagonal_density(op: DenseOperator) -> Field:
    """Diagonal kernel of an operator as a field: rho(z) = A(z;z) = diag / h^d."""
    g = op.grid
    vals = np.real(np.diag(op.matrix)) / g.cell_volume
    return Field(g, vals.reshape(g.shape).astype(complex))


def annihilator(space: FockSpace, mode: int) -> sparse.csr_matrix:
    """Sparse matrix of a_mode in the occupation basis: block `mode` of the stack."""
    if not 0 <= mode < space.n_modes:
        raise ValueError(f"mode {mode} out of range")
    return space.annihilators[mode * space.dim:(mode + 1) * space.dim]


def slater_vector(space: FockSpace, occupied) -> np.ndarray:
    """Occupation-basis Slater vector a^*(e_{s1})...a^*(e_{sN}) Omega, s ascending."""
    occupied = sorted(set(int(s) for s in occupied))
    if occupied and not 0 <= occupied[-1] < space.n_modes:
        raise ValueError("occupied mode out of range")
    psi = np.zeros(space.dim, dtype=complex)
    psi[sum(1 << s for s in occupied)] = 1.0
    return psi


# The whole-Fock-space operators on all 2^m states: creation and annihilation of an orbital,
# the particle-hole map, the one-particle density and the lift of a one-particle unitary.
# The library works on one particle-number sector; these check it and the CAR algebra.

LIFT_CAP = 10


def vacuum(space: FockSpace) -> np.ndarray:
    psi = np.zeros(space.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def annihilate_orbital(space: FockSpace, g: np.ndarray) -> sparse.csr_matrix:
    """a(g) = sum_i conj(g_i) a_i = (conj(g)^T x I) A (antilinear in g)."""
    row = np.conj(np.asarray(g, dtype=complex))[None, :]
    return sparse.kron(row, sparse.identity(space.dim), format="csr") @ space.annihilators


def create_orbital(space: FockSpace, f: np.ndarray) -> sparse.csr_matrix:
    """a*(f) = sum_i f_i a_i^*; the adjoint of a(f)."""
    return annihilate_orbital(space, f).conj().T.tocsr()


def fock_gamma1(space: FockSpace, psi: np.ndarray) -> np.ndarray:
    """One-particle reduced density gamma_ij = <psi, a_j^* a_i psi> of a 2^m vector."""
    rows = (space.annihilators @ psi).reshape(space.n_modes, space.dim)
    return rows @ rows.conj().T


def particle_hole(space: FockSpace, occupied) -> sparse.csr_matrix:
    """Unitary R with R Omega = Slater(occupied) and R* a(g) R = a(u g) + a*(vbar gbar).

    Only basis-diagonal projections are supported: `occupied` is the mode
    subset S, u = 1 - 1_S, vbar = 1_S.  R is the signed occupation flip
    R|n> = (-1)^(sum_{j in n} |S below j|) |n xor S>.
    """
    occupied = sorted(set(int(s) for s in occupied))
    if occupied and not 0 <= occupied[-1] < space.n_modes:
        raise ValueError("occupied mode out of range")
    s_mask = sum(1 << s for s in occupied)
    s_bits = space.bits[s_mask]
    parity = (space.bits @ (np.cumsum(s_bits) - s_bits)) % 2
    states = np.arange(space.dim)
    return sparse.csr_matrix(
        ((1 - 2 * parity).astype(complex), (states ^ s_mask, states)),
        shape=(space.dim, space.dim),
    )


def fock_lift_unitary(space: FockSpace, w: np.ndarray) -> np.ndarray:
    """Multiplicative lift of a one-particle unitary: <S'|Gamma(W)|S> = det W[S'|S].

    Block diagonal across particle-number sectors; Gamma(W) a*(f) Gamma(W)* = a*(W f).
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (space.n_modes, space.n_modes):
        raise ValueError("one-particle map has the wrong shape")
    if np.max(np.abs(w.conj().T @ w - np.eye(space.n_modes))) > 1e-10:
        raise ValueError("one-particle map is not unitary")
    if space.n_modes > LIFT_CAP:
        raise ValueError(f"lift supported up to {LIFT_CAP} modes")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[0, 0] = 1.0
    for k in range(1, space.n_modes + 1):
        subsets = np.array(list(itertools.combinations(range(space.n_modes), k)))
        masks = np.sum(1 << subsets, axis=1)
        minors = w[subsets[:, None, :, None], subsets[None, :, None, :]]
        out[np.ix_(masks, masks)] = np.linalg.det(minors)
    return out


# The basis-state loops the annihilator stack and the occupation table replaced: each
# entry is built one state at a time from its bitmask.  The full 2^m Hamiltonian the
# sector builder is tested against is built here, from m^2 products of the a_i.


@functools.lru_cache(maxsize=None)
def loop_annihilator(space: FockSpace, mode: int) -> sparse.csr_matrix:
    """a_mode |n> = (-1)^(occupied modes below mode) |n - e_mode>, one bitmask at a time.

    Cached per (space, mode); callers must not write into the returned matrix."""
    rows, cols, vals = [], [], []
    bit = 1 << mode
    for n in range(space.dim):
        if n & bit:
            rows.append(n ^ bit)
            cols.append(n)
            vals.append(-1.0 if (n & (bit - 1)).bit_count() % 2 else 1.0)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex)


@functools.lru_cache(maxsize=None)
def _loop_products(space: FockSpace, kind: str) -> tuple:
    """The m^2 products x_i y_j of the loop annihilators, in COO form, cached per kind:
    a_i^* a_j ('dgamma'), a_i a_j ('annihilation') or a_i^* a_j^* ('creation')."""
    ops = [loop_annihilator(space, i) for i in range(space.n_modes)]
    dag = [op.conj().T for op in ops]
    left, right = {"dgamma": (dag, ops), "annihilation": (ops, ops), "creation": (dag, dag)}[kind]
    return tuple(tuple((x @ y).tocoo() for y in right) for x in left)


def loop_quadratic(space: FockSpace, one_body: np.ndarray, kind: str) -> sparse.csr_matrix:
    """sum_ij O_ij x_i y_j over the products of `_loop_products`: dGamma(O) for kind
    'dgamma', the pair operators sum_ij O_ij a_i a_j and sum_ij O_ij a_i^* a_j^* for
    'annihilation' and 'creation'."""
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for i, products in enumerate(_loop_products(space, kind)):
        for j, prod in enumerate(products):
            if one_body[i, j] != 0:
                rows.append(prod.row)
                cols.append(prod.col)
                vals.append(one_body[i, j] * prod.data)
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(space.dim, space.dim))


def loop_hamiltonian(space: FockSpace, kinetic: np.ndarray, pair_potential: np.ndarray,
                     coupling: float) -> sparse.csr_matrix:
    """dGamma(kinetic) + coupling * sum_{i<j} V_ij n_i n_j on the whole 2^m Fock space."""
    diag = np.zeros(space.dim)
    for n in range(space.dim):
        occ = [j for j in range(space.n_modes) if n >> j & 1]
        e = 0.0
        for a in range(len(occ)):
            for b in range(a + 1, len(occ)):
                e += pair_potential[occ[a], occ[b]]
        diag[n] = coupling * e
    return (loop_quadratic(space, kinetic, "dgamma") + sparse.diags(diag)).tocsr()


def min_holder_p(alpha: float, delta: float) -> float:
    """Smallest admissible Lp index 6 / (3 - 2 alpha - 6 delta) of the commutator-density budget."""
    denom = 3.0 - 2.0 * alpha - 6.0 * delta
    if denom <= 0:
        raise ValueError("no admissible p: need 3 - 2*alpha - 6*delta > 0")
    return 6.0 / denom


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate q = p / (p - 1)."""
    return p / (p - 1.0)


def admissible_for(config: DiagnosticsConfig, alpha: float) -> bool:
    """Whether the config's Lp index meets the Hoelder constraint for exponent alpha."""
    try:
        return config.lp_exponent > min_holder_p(alpha, config.delta)
    except ValueError:
        return False
