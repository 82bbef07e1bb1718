"""Inverse-power-law potential |x|^(-alpha) on the torus and its Gaussian-window
(Fefferman-de la Llave) representation.

The representation writes s^(-alpha) as a constant times the integral over
window radius r and center z of exp(-|x-z|^2/r^2) exp(-|y-z|^2/r^2), with the
radial measure dr / r^(d+1+alpha).  The radial integral is realized by a
log-spaced quadrature whose last node also carries the exact power-law tail
mass beyond r_max (the Gaussian factor is flat out there, so truncating instead
would lose O((s/r_max)^alpha) of the value).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from scipy.special import gamma

from hflab.lattice import DENSE_SIDE_CAP, Grid


def fdl_constant(alpha: float, dim: int) -> float:
    """Normalization making the Gaussian-window representation of s^(-alpha) exact.

    C = [ (pi/2)^(d/2) * 2^(alpha/2 - 1) * Gamma(alpha/2) ]^(-1); equals 4/pi^2
    at alpha = 1 in three dimensions.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    return 1.0 / ((np.pi / 2.0) ** (dim / 2.0) * 2.0 ** (alpha / 2.0 - 1.0) * gamma(alpha / 2.0))


@dataclass(frozen=True)
class RadialQuadrature:
    """Log-spaced radial nodes with dr-weights for the window-scale integral.

    Trapezoid in log r; the last weight additionally carries r_max/alpha, the
    exact mass of the power-law measure on [r_max, inf) relative to the
    integrand value at r_max.
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


def radial_quadrature(
    alpha: float, r_min: float = 1e-3, r_max: float = 1e3, n_nodes: int = 400
) -> RadialQuadrature:
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    logs = np.linspace(np.log(r_min), np.log(r_max), n_nodes)
    nodes = np.exp(logs)
    step = logs[1] - logs[0]
    weights = np.full(n_nodes, step)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights = weights * nodes
    weights[-1] += r_max / alpha
    return RadialQuadrature(nodes=nodes, weights=weights, alpha=alpha)


def fdl_reconstruct(s: float, alpha: float, quad: RadialQuadrature, dim: int = 3) -> float:
    """Quadrature value of the window representation at separation s (target s^-alpha)."""
    if s <= 0:
        raise ValueError("separation must be positive")
    if abs(quad.alpha - alpha) > 1e-14:
        raise ValueError("quadrature was built for a different alpha")
    if quad.nodes[0] > s / 20.0 or quad.nodes[-1] < 20.0 * s:
        warnings.warn(
            f"quadrature range [{quad.nodes[0]:g}, {quad.nodes[-1]:g}] does not bracket "
            f"[{s / 20.0:g}, {20.0 * s:g}]; reconstruction accuracy is degraded",
            stacklevel=2,
        )
    r = quad.nodes
    integrand = (
        fdl_constant(alpha, dim)
        * r ** (-(dim + 1 + alpha))
        * (np.pi * r**2 / 2.0) ** (dim / 2.0)
        * np.exp(-(s**2) / (2.0 * r**2))
    )
    return float(np.sum(quad.weights * integrand))


def split_quadrature(quad: RadialQuadrature, epsilon: float, alpha: float) -> dict:
    """Split nodes at the optimized cutoff k = epsilon^(1/(3-alpha)).

    Near part holds r < k, far part r >= k; weights are untouched, so the two
    parts exactly repartition the unsplit rule.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    k = epsilon ** (1.0 / (3.0 - alpha))
    near = quad.nodes < k
    parts = {}
    for name, mask in (("near", near), ("far", ~near)):
        if not np.any(mask):
            parts[name] = None
            continue
        parts[name] = RadialQuadrature(
            nodes=quad.nodes[mask], weights=quad.weights[mask], alpha=quad.alpha
        )
    parts["cutoff"] = k
    return parts


@dataclass(frozen=True)
class PowerLawPotential:
    """Grid realization of |x|^(-alpha) with per-cell regularization.

    V(x) = min(|x|_per^(-alpha), h^(-alpha)): exact at every site with
    |x|_per >= h, clipped only where the singularity sits.
    """

    grid: Grid
    alpha: float
    values: np.ndarray

    @cached_property
    def v_hat(self) -> np.ndarray:
        """fftn(V), computed once; V(x) = V(-x) on the torus, so it is real."""
        return scipy.fft.fftn(self.values).real

    @cached_property
    def pair_table(self) -> np.ndarray:
        """V(x - y) over all site pairs as a read-only (m,) * 2d array, computed once.

        An exact gather of `values` at (x - y) mod m on each axis, so it holds
        the very same numbers; axes 0..d-1 index x and axes d..2d-1 index y.
        """
        g = self.grid
        mesh = np.ix_(*[np.arange(g.m)] * (2 * g.dim))
        table = self.values[tuple((mesh[a] - mesh[g.dim + a]) % g.m for a in range(g.dim))]
        table.flags.writeable = False
        return table

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """`pair_table` as a dense M x M matrix (flat site order); the side is capped."""
        g = self.grid
        if g.site_count > DENSE_SIDE_CAP:
            raise ValueError(f"dense side {g.site_count} exceeds cap {DENSE_SIDE_CAP}")
        return self.pair_table.reshape(g.site_count, g.site_count)

    @cached_property
    def _scaled_v_hat(self) -> np.ndarray:
        """h^d v_hat, the multiplier `convolve` applies, computed once."""
        return self.v_hat * self.grid.cell_volume

    def convolve(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """h^d sum_y V(x-y) f(y) over the trailing grid axes of `values`.

        Real input takes the rfftn path and returns a real array.  Complex input
        returns a complex array; with `overwrite` its buffer is reused.
        """
        g = self.grid
        axes = tuple(range(-g.dim, 0))
        if np.isrealobj(values):
            hat = scipy.fft.rfftn(values, axes=axes)
            hat *= self._scaled_v_hat[..., : g.m // 2 + 1]
            return scipy.fft.irfftn(hat, s=g.shape, axes=axes, overwrite_x=True)
        hat = scipy.fft.fftn(values, axes=axes, overwrite_x=overwrite)
        hat *= self._scaled_v_hat
        return scipy.fft.ifftn(hat, axes=axes, overwrite_x=True)

    def pair_energy(self, values: np.ndarray) -> np.ndarray:
        """h^d sum_x conj(f) (V * f) per leading row f of `values`, by Parseval from forward
        transforms alone: h^d / M sum_k (h^d v_hat)(k) |f_hat(k)|^2.  Overwrites complex input."""
        hat = scipy.fft.fftn(values, axes=tuple(range(-self.grid.dim, 0)), overwrite_x=True)
        squares = hat.view(float)  # real and imaginary parts, squared in place
        np.square(squares, out=squares)
        weights = np.repeat(self._scaled_v_hat.reshape(-1), 2)
        power = squares.reshape(len(hat), -1) @ weights
        return self.grid.cell_volume / self.grid.site_count * power


def power_law_potential(grid: Grid, alpha: float) -> PowerLawPotential:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    dist = grid.min_image_distance()
    with np.errstate(divide="ignore"):
        raw = dist ** (-alpha)
    values = np.minimum(raw, grid.h ** (-alpha))
    return PowerLawPotential(grid=grid, alpha=alpha, values=values)


def gaussian_window(grid: Grid, center: np.ndarray, radius: float) -> np.ndarray:
    """Window exp(-|x-z|^2 / r^2) with minimum-image displacement from z."""
    if radius <= 0:
        raise ValueError("window radius must be positive")
    return np.exp(-grid.squared_distance_from(center) / radius**2)
