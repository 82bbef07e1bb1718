"""Semiclassical structure diagnostics: position/momentum commutators, their
trace norms and diagonal densities, the discrete maximal function, and the
window-commutator trace bound audit.

The position operator has no canonical torus analogue, so two conventions are
exposed: plain coordinate multiplication (for states supported in the central
half of the box) and the periodic phase exp(2 pi i x / L) with the commutator
rescaled by L / (2 pi) (for delocalized states).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft

from hflab.hartree_fock import SlaterState
from hflab.lattice import Field, diagnostic_chunks
from hflab.potentials import gaussian_window

PLAIN = "plain"
PERIODIC = "periodic"


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Exponent block for the commutator diagnostics.

    delta in (0, 1/2); lp_exponent is the Lp index of the density-norm budget.
    """

    delta: float = 0.1
    lp_exponent: float = 6.0
    position_convention: str = PLAIN

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.lp_exponent <= 1.0:
            raise ValueError("lp_exponent must exceed 1")
        if self.position_convention not in (PLAIN, PERIODIC):
            raise ValueError("position convention must be 'plain' or 'periodic'")


def _position_multiplier(g, axis: int, convention: str):
    """Diagonal (x, scale) with [X_axis, omega] = scale * [diag(x), omega]."""
    coords = g.coordinate_mesh(axis).reshape(-1)
    if convention == PLAIN:
        return coords, 1.0
    if convention == PERIODIC:
        return np.exp(2j * np.pi * coords / g.length), g.length / (2.0 * np.pi)
    raise ValueError("convention must be 'plain' or 'periodic'")


def field_lp_norm(f: Field, p: float) -> float:
    vals = np.abs(f.values)
    if np.isinf(p):
        return float(np.max(vals))
    return float((f.grid.cell_volume * np.sum(vals**p)) ** (1.0 / p))


def _range_factor(omega):
    """(lam, E) with omega = E diag(lam) E^*.

    A SlaterState already holds its range: lam = 1 and E = h^(d/2) F^T, whose
    columns are orthonormal.  A DenseOperator takes one Hermitian eigh;
    eigenpairs with |lam| <= M eps max|lam| are dropped: they are rounding
    noise of the factorization and move a commutator trace norm by at most
    2 ||a||_inf sum |lam_dropped|.
    """
    if isinstance(omega, SlaterState):
        flat = omega.orbitals.reshape(omega.n_orbitals, -1)
        return np.ones(omega.n_orbitals), np.sqrt(omega.grid.cell_volume) * flat.T
    if not omega.is_hermitian():
        raise ValueError("commutator diagnostics need a Hermitian omega")
    lam, vecs = np.linalg.eigh(omega.matrix)
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.max(np.abs(lam))
    return lam[keep], vecs[:, keep]


def _commutator_spectra(factor, mults: np.ndarray, density: bool = False):
    """tr|[diag(a), omega]| for each row a of `mults`, from omega's range factor.

    With omega = E diag(lam) E^* of rank r, [a, omega] = P D Q^* where
    P = [aE, E], D = diag(lam, -lam) and Q = [E, conj(a) E].  Thin QRs
    P = Q_P R_P and Q = Q_Q R_Q leave the 2r x 2r core K = R_P D R_Q^*, whose
    singular values are the nonzero ones of [a, omega].  With K = U S W^*,
    |[a, omega]| = (Q_Q W) S (Q_Q W)^*, so with `density` the diagonal of
    |[a, omega]| is also returned, shape (len(mults), M); otherwise None.

    Multipliers are stacked in `diagnostic_chunks`, whose factors P and Q fit
    the diagnostics budget; a full-rank omega at the dense cap (2r = 2M)
    takes one multiplier at a time.
    """
    lam, vecs = factor
    m, r = vecs.shape
    d = np.concatenate([lam, -lam])
    norms = np.empty(len(mults))
    diags = np.empty((len(mults), m)) if density else None
    for chunk in diagnostic_chunks(len(mults), 2 * r * m):
        a = mults[chunk, :, None]
        e = np.broadcast_to(vecs, (len(a), m, r))
        r_p = np.linalg.qr(np.concatenate([a * vecs, e], axis=2), mode="r")
        q_q, r_q = np.linalg.qr(np.concatenate([e, a.conj() * vecs], axis=2))
        core = (r_p * d) @ r_q.conj().swapaxes(1, 2)
        if density:
            _, sv, wh = np.linalg.svd(core)
            basis = q_q @ wh.conj().swapaxes(1, 2)
            diags[chunk] = (np.abs(basis) ** 2 @ sv[:, :, None])[:, :, 0]
        else:
            sv = np.linalg.svd(core, compute_uv=False)
        norms[chunk] = np.sum(sv, axis=1)
    return norms, diags


def commutator_trace_norms(omega, axis: int, epsilon: float, convention: str = PLAIN) -> tuple:
    """(tr|[X_axis, omega]|, tr|[eps p_axis, omega]|) from one range factor.

    omega is a SlaterState or a Hermitian DenseOperator.  p_axis is diagonal
    in the unitary Fourier basis, so the momentum commutator is the position
    routine applied to the transformed factor with multiplier eps * k_axis.
    """
    g = omega.grid
    lam, vecs = _range_factor(omega)
    x, scale = _position_multiplier(g, axis, convention)
    (tr_x,), _ = _commutator_spectra((lam, vecs), x[None])
    hat = scipy.fft.fftn(vecs.reshape(g.shape + (-1,)), axes=tuple(range(g.dim)), norm="ortho")
    k = epsilon * g.momentum_mesh()[axis].reshape(1, -1)
    (tr_p,), _ = _commutator_spectra((lam, hat.reshape(vecs.shape)), k)
    return float(scale * tr_x), float(tr_p)


def _position_commutator_densities(factor, g, convention: str) -> list:
    """Diagonal densities of |[X_axis, omega]|, one Field per axis."""
    mults, scales = zip(*(_position_multiplier(g, axis, convention) for axis in range(g.dim)))
    _, diags = _commutator_spectra(factor, np.array(mults), density=True)
    return [
        Field(g, (scale * diag / g.cell_volume).reshape(g.shape).astype(complex))
        for scale, diag in zip(scales, diags)
    ]


def _periodic_box_sum(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Centered periodic window sum of width 2*radius + 1 along one axis."""
    if radius == 0:
        return a
    m = a.shape[axis]
    tiled = np.concatenate([a, a, a], axis=axis)
    csum = np.cumsum(tiled, axis=axis)
    zero = np.zeros_like(np.take(csum, [0], axis=axis))
    csum = np.concatenate([zero, csum], axis=axis)
    idx = np.arange(m) + m
    hi = np.take(csum, idx + radius + 1, axis=axis)
    lo = np.take(csum, idx - radius, axis=axis)
    return hi - lo


def maximal_function(rho: Field) -> Field:
    """Discrete maximal function over centered periodic cubes of every admissible radius.

    rho*(z) = max over window radius w of the cube average; dominates rho
    pointwise (w = 0 gives rho back) and is monotone in rho.
    """
    vals = np.real(rho.values)
    if np.min(vals) < -1e-12:
        raise ValueError("maximal function requires a nonnegative density")
    vals = np.maximum(vals, 0.0)
    g = rho.grid
    best = vals.copy()
    for w in range(1, (g.m - 1) // 2 + 1):
        avg = vals
        for axis in range(g.dim):
            avg = _periodic_box_sum(avg, w, axis)
        avg = avg / float((2 * w + 1) ** g.dim)
        best = np.maximum(best, avg)
    return Field(g, best.astype(complex))


@dataclass
class WindowCommutatorRow:
    radius: float
    center: tuple
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else np.inf


@dataclass
class WindowCommutatorAudit:
    rows: list
    fitted_exponent: float
    predicted_exponent: float | None
    degenerate_rows: int


def window_commutator_audit(omega, config: DiagnosticsConfig, radii=None) -> WindowCommutatorAudit:
    """Trace-norm bound audit for the window commutators of a Slater or Hermitian dense omega.

    For each sampled (r, z): LHS = tr|[chi_(r,z), omega]| against the constant-free
    budget RHS = r^(3/2 - 3 delta) * sum_i ||rho_i||_1^(1/6 + delta) *
    (rho_i*(z))^(5/6 - delta) built from the position-commutator densities.
    Reports each row's ratio LHS/RHS and the least-squares r-exponent of the
    z-averaged LHS; the 3/2 - 3 delta prediction applies to 3d states only.
    """
    g = omega.grid
    delta = config.delta
    if radii is None:
        radii = np.exp(np.linspace(np.log(g.h), np.log(g.length / 2.0), 7))
    per_axis = {1: 8, 2: 3, 3: 2}[g.dim]
    step = max(1, g.m // per_axis)
    pts = g.axis_coordinates()[step // 2 :: step]
    centers = list(itertools.product((float(c) for c in pts), repeat=g.dim))
    factor = _range_factor(omega)
    densities = _position_commutator_densities(factor, g, config.position_convention)
    dens_l1 = [field_lp_norm(dens, 1.0) for dens in densities]
    dens_max = [maximal_function(dens) for dens in densities]

    windows = [(float(r), z) for r in radii for z in centers]
    chis = np.array([gaussian_window(g, np.array(z), r).reshape(-1) for r, z in windows])
    lhs_all, _ = _commutator_spectra(factor, chis)
    rows = []
    degenerate = 0
    for (r, z), lhs in zip(windows, lhs_all):
        site = tuple(int(round(c / g.h)) % g.m for c in z)
        rhs = 0.0
        for axis in range(g.dim):
            mstar = float(np.real(dens_max[axis].values[site]))
            rhs += dens_l1[axis] ** (1.0 / 6.0 + delta) * mstar ** (5.0 / 6.0 - delta)
        rhs *= r ** (1.5 - 3.0 * delta)
        if rhs <= 1e-12 and lhs > 1e-12:
            degenerate += 1
        rows.append(WindowCommutatorRow(r, tuple(z), float(lhs), rhs))

    radii = np.asarray(radii, dtype=float)
    means = np.mean(lhs_all.reshape(len(radii), len(centers)), axis=1)
    keep = means > 1e-14
    if np.count_nonzero(keep) >= 2:
        slope = np.polyfit(np.log(radii[keep]), np.log(means[keep]), 1)[0]
    else:
        slope = np.nan
    predicted = 1.5 - 3.0 * delta if g.dim == 3 else None
    return WindowCommutatorAudit(
        rows=rows,
        fitted_exponent=float(slope),
        predicted_exponent=predicted,
        degenerate_rows=degenerate,
    )


@dataclass
class DensityBudgetRow:
    """One time sample of the commutator-density budget, per axis."""

    time: float
    axis: int
    norm_l1: float
    norm_lp: float
    over_n_eps: float


def commutator_density_series(snapshots, n_particles: int, epsilon: float,
                              config: DiagnosticsConfig) -> dict:
    """Per-time budget sum_i (||rho_i||_1 + ||rho_i||_p) divided by N * eps.

    `snapshots` is an iterable of (time, omega) pairs sampled along a trajectory,
    omega a SlaterState or a Hermitian DenseOperator.  The verdict is the sup
    over the samples; whether it stays bounded is measured, not assumed.
    """
    rows = []
    totals = []
    for t, omega in snapshots:
        total = 0.0
        densities = _position_commutator_densities(
            _range_factor(omega), omega.grid, config.position_convention
        )
        for axis, dens in enumerate(densities):
            l1 = field_lp_norm(dens, 1.0)
            lp = field_lp_norm(dens, config.lp_exponent)
            total += l1 + lp
            rows.append(
                DensityBudgetRow(
                    time=float(t),
                    axis=axis,
                    norm_l1=l1,
                    norm_lp=lp,
                    over_n_eps=(l1 + lp) / (n_particles * epsilon),
                )
            )
        totals.append(total / (n_particles * epsilon))
    return {
        "rows": rows,
        "sup_over_n_eps": float(np.max(totals)) if totals else np.nan,
        "series": np.asarray(totals),
    }
