"""Periodic lattice substrate: grids, complex fields, dense operators, spectral calculus.

All states live on a uniform periodic box.  Fields carry the L2(grid) inner
product h^d * sum(conj(f) g); dense operators are stored in the plain
matrix-on-amplitudes convention, so np.trace of the matrix equals the operator
trace and the kernel is recovered as matrix / h^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

FIELD_SITE_CAP = 2**20
DENSE_SIDE_CAP = 2**10
HERMITIAN_TOL = 1e-12

# Working-set budget of the diagnostics: the commutator spectra and the Fock
# audits stack their multipliers or trials in chunks whose arrays hold at most
# this many complex points (1 MiB) each, so no audit's transient memory grows
# with its trial or window count.
DIAGNOSTICS_CHUNK_POINTS = 2**16


def diagnostic_chunks(count: int, points: int) -> list:
    """Consecutive slices of `count` items stacking `points` complex points each,
    at most DIAGNOSTICS_CHUNK_POINTS per slice (one item when one alone is more)."""
    size = max(1, DIAGNOSTICS_CHUNK_POINTS // max(1, points))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box with `dim` axes and `m` sites per axis.

    Spacing is h = length / m.  Sites sit at coordinates i*h, i = 0..m-1;
    wrap-around distances use the minimum image.  Simulation scenarios use
    power-of-two m >= 8; tiny even m is allowed for oracle grids.
    """

    dim: int
    m: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {self.dim}")
        if self.m < 2 or self.m % 2:
            raise ValueError(f"sites per axis must be even and >= 2, got {self.m}")
        if self.length <= 0:
            raise ValueError(f"box length must be positive, got {self.length}")
        if self.m**self.dim > FIELD_SITE_CAP:
            raise ValueError(
                f"site count {self.m**self.dim} exceeds field cap {FIELD_SITE_CAP}"
            )

    @property
    def h(self) -> float:
        return self.length / self.m

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.dim

    @property
    def site_count(self) -> int:
        return self.m**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Site coordinates along one axis, in [0, length)."""
        return self.h * np.arange(self.m)

    def axis_momenta(self) -> np.ndarray:
        """Discrete momenta 2*pi*n/length for n in [-m/2, m/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.m, d=self.h)

    def _broadcast(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Per-site `values` along `axis` as a read-only view shaped like a field."""
        return np.broadcast_to(values.reshape((-1,) + (1,) * (self.dim - 1 - axis)), self.shape)

    def coordinate_mesh(self, axis: int) -> np.ndarray:
        """Coordinate of every site along `axis`, shaped like a field."""
        return self._broadcast(self.axis_coordinates(), axis)

    def squared_distance_from(self, center) -> np.ndarray:
        """Field of squared minimum-image distances |x - center|^2, one coordinate per axis."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise ValueError(f"center needs one coordinate per axis, got shape {center.shape}")
        half = self.length / 2.0
        d2 = np.zeros(self.shape)
        for axis in range(self.dim):
            delta = np.mod(self.axis_coordinates() - center[axis] + half, self.length) - half
            d2 = d2 + self._broadcast(delta, axis) ** 2
        return d2

    def min_image_distance(self) -> np.ndarray:
        """Field of minimum-image distances |x|_per from the origin site."""
        signed = ((np.arange(self.m) + self.m // 2) % self.m - self.m // 2) * self.h
        d2 = np.zeros(self.shape)
        for axis in range(self.dim):
            d2 = d2 + self._broadcast(signed, axis) ** 2
        return np.sqrt(d2)

    def momentum_mesh(self) -> list:
        """Momentum component along each axis, shaped like a field."""
        return [self._broadcast(self.axis_momenta(), axis) for axis in range(self.dim)]

    def momentum_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for km in self.momentum_mesh():
            k2 = k2 + km**2
        return k2


@dataclass(frozen=True)
class ScaledParams:
    """Mean-field scaling block: particle number, interaction exponent, epsilon.

    epsilon defaults to n_particles**(-1/3), the choice that makes kinetic and
    potential energies comparable; the pair coupling is 1/n_particles.
    """

    n_particles: int
    alpha: float = 1.0
    epsilon: float | None = None

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", float(self.n_particles) ** (-1.0 / 3.0))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def coupling(self) -> float:
        return 1.0 / self.n_particles


@dataclass
class Field:
    """Complex field on a grid; values are per-site amplitudes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt(self.grid.cell_volume) * np.linalg.norm(self.values))


def normalized(f: Field) -> Field:
    n = f.norm()
    if n == 0:
        raise ValueError("cannot normalize the zero field")
    return Field(f.grid, f.values / n)


@dataclass
class DenseOperator:
    """Explicit one-particle operator on a grid, side m^d (capped).

    The matrix acts on amplitude vectors by plain matmul, so np.trace gives the
    operator trace and singular values are Schatten data directly.
    """

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.grid.site_count
        if n > DENSE_SIDE_CAP:
            raise ValueError(f"dense side {n} exceeds cap {DENSE_SIDE_CAP}")
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {self.matrix.shape}")

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) < HERMITIAN_TOL)


def spectral_multiplier_operator(grid: Grid, multiplier: np.ndarray) -> DenseOperator:
    """Dense matrix of ifft . diag(multiplier) . fft (e.g. kinetic, -i eps grad)."""
    n = grid.site_count
    cols = np.eye(n, dtype=complex).reshape(grid.shape + (n,))
    axes = tuple(range(grid.dim))
    hat = scipy.fft.fftn(cols, axes=axes)
    out = scipy.fft.ifftn(multiplier[..., None] * hat, axes=axes)
    return DenseOperator(grid, out.reshape(n, n))


def kinetic_operator(grid: Grid, params: ScaledParams) -> DenseOperator:
    return spectral_multiplier_operator(grid, params.epsilon**2 * grid.momentum_squared())


def projection_from_orbitals(grid: Grid, orbitals: np.ndarray) -> DenseOperator:
    """Rank-N projection sum_j |f_j><f_j| for orthonormal orbitals (rows)."""
    f = np.asarray(orbitals, dtype=complex).reshape(len(orbitals), -1)
    return DenseOperator(grid, grid.cell_volume * (f.T @ f.conj()))
