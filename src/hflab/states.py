"""Reference state constructors: plane waves, Fermi balls, Gaussian-packet Slaters.

Packet Slaters fill phase space with width proportional to epsilon, which is
the regime where the position-commutator trace norm grows like N * epsilon.
Localized constructions keep their support away from the wrap-around seam; the
delocalized ones are meant for the periodic position convention.
"""

from __future__ import annotations

import itertools

import numpy as np

from hflab.hartree_fock import SlaterState, loewdin_orthonormalize, slater_state
from hflab.lattice import Field, Grid, ScaledParams, normalized


def plane_wave(grid: Grid, mode: tuple) -> Field:
    """Normalized plane wave exp(i k x) with integer mode numbers per axis."""
    mode = np.atleast_1d(np.asarray(mode, dtype=int))
    if mode.size != grid.dim:
        raise ValueError("need one mode number per axis")
    phase = np.zeros(grid.shape)
    for axis in range(grid.dim):
        k = 2.0 * np.pi * mode[axis] / grid.length
        phase = phase + k * grid.coordinate_mesh(axis)
    values = np.exp(1j * phase) / grid.length ** (grid.dim / 2.0)
    return Field(grid, values)


def lowest_modes(grid: Grid, count: int) -> list:
    """The `count` lowest-|k| integer mode vectors, ties broken lexicographically."""
    rng = range(-grid.m // 2, grid.m // 2)
    modes = sorted(
        itertools.product(rng, repeat=grid.dim),
        key=lambda mv: (sum(c * c for c in mv), mv),
    )
    if count > len(modes):
        raise ValueError("more orbitals requested than grid modes")
    return modes[:count]


def fermi_ball(grid: Grid, params: ScaledParams) -> SlaterState:
    """Slater state of the N lowest plane waves (translation invariant)."""
    orbitals = [plane_wave(grid, mv).values for mv in lowest_modes(grid, params.n_particles)]
    return slater_state(grid, np.array(orbitals), params)


def gaussian_packet(grid: Grid, center, width: float, mode=None) -> Field:
    """Normalized Gaussian envelope exp(-|x-c|^2/(4 w^2)) times a plane-wave carrier.

    Uses the minimum-image displacement, so the packet must be narrow compared
    to the box (width a small fraction of the edge length).
    """
    if width <= 0:
        raise ValueError("packet width must be positive")
    values = np.exp(-grid.squared_distance_from(center) / (4.0 * width**2)).astype(complex)
    if mode is not None:
        values = values * plane_wave(grid, mode).values * grid.length ** (grid.dim / 2.0)
    return normalized(Field(grid, values))


def packet_slater(
    grid: Grid,
    params: ScaledParams,
    width: float | None = None,
    centered: bool = False,
) -> SlaterState:
    """Phase-space-filling family of Gaussian packets, Loewdin-orthonormalized.

    Packet width defaults to epsilon * length / 16, so the per-packet position
    spread tracks epsilon.  In 1d the packets occupy a position-times-momentum
    lattice: as many position columns as fit at five widths of separation (a
    divisor of N), the rest of the budget in carrier momenta spaced to keep
    distinct rows near orthogonal.  With `centered`, all packets sit inside the
    central half of the box (for the plain position convention).
    """
    n = params.n_particles
    if width is None:
        width = params.epsilon * grid.length / 16.0
    span = grid.length / 2.0 if centered else grid.length
    offset = grid.length / 4.0 if centered else 0.0
    if grid.dim == 1:
        fit = max(1, int(span / (5.0 * width)))
        n_pos = max(d for d in range(1, n + 1) if n % d == 0 and d <= fit)
        n_mom = n // n_pos
    else:
        n_pos = n
        n_mom = 1
    if grid.dim == 1:
        centers = [(offset + span * (i + 0.5) / n_pos,) for i in range(n_pos)]
    else:
        per_axis = int(np.ceil(n_pos ** (1.0 / grid.dim)))
        pts = [offset + span * (i + 0.5) / per_axis for i in range(per_axis)]
        centers = list(itertools.product(pts, repeat=grid.dim))[:n_pos]
    # momentum rows spaced ~2.5/width apart: small residual overlap, no aliasing
    kappa = max(1, int(np.ceil(2.5 * grid.length / (2.0 * np.pi * width))))
    if n_mom > 1 and (n_mom * kappa) // 2 + 3 >= grid.m // 2:
        raise ValueError("grid cannot resolve the requested packet family")
    orbitals = []
    for b in range(n_mom):
        mode_index = int(round((b - (n_mom - 1) / 2.0) * kappa))
        mode = (mode_index,) + (0,) * (grid.dim - 1)
        for c in centers:
            orbitals.append(gaussian_packet(grid, c, width, mode).values)
    block = loewdin_orthonormalize(grid, np.array(orbitals[:n]))
    return slater_state(grid, block, params)


def random_slater(grid: Grid, params: ScaledParams, rng: np.random.Generator) -> SlaterState:
    """Orthonormalized family of Gaussian-random fields."""
    shape = (params.n_particles,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return slater_state(grid, loewdin_orthonormalize(grid, raw), params)
