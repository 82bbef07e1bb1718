"""Kinetic-energy inequality chain audits on generated and propagated states.

Works with the trace-N density rho(x) = omega(x;x).  Constants are measured
and regression-tested, never compared to sharp continuum constants: the grid
and the torus change them.

Two printed-source discrepancies are resolved here in favor of internal
consistency (see the interpolation link): the pair-energy Lebesgue index is
6/(6-alpha) -- the unique index for which the double integral of
rho(x) rho(y) / |x-y|^alpha is controlled by a homogeneous norm square in 3d
and the one consistent with the interpolation exponents (12-5alpha)/6 and
5alpha/6 -- and the Young split of N^(1-5alpha/6) ||rho||^(5alpha/6) closes
with the alpha-independent pair ((2-alpha)/2 N, (alpha/2) N^(-2/3)
||rho||^(5/3)).  The 6/(5-alpha) norm is still recorded for reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from hflab.hartree_fock import SlaterState, hf_energy, laplacian_trace, orbital_density
from hflab.lattice import Field
from hflab.potentials import PowerLawPotential
from hflab.semiclassics import field_lp_norm


def charge_density(state: SlaterState) -> Field:
    """rho(x) = omega(x;x): integral equals the particle number."""
    return Field(state.grid, orbital_density(state.orbitals).astype(complex))


def kinetic_trace(state: SlaterState) -> float:
    """tr(-Lap) omega; the scaled kinetic energy is eps^2 times it."""
    g = state.grid
    hat = scipy.fft.fftn(state.orbitals, axes=tuple(range(1, g.dim + 1)))
    return float(laplacian_trace(g, hat))


def pair_energy(rho: Field, potential: PowerLawPotential, n_particles: int) -> float:
    """(1/N) iint V(x-y) rho(x) rho(y) dx dy on the torus."""
    return float(potential.pair_energy(rho.values.real[None])[0] / n_particles)


def hls_index(alpha: float) -> float:
    """Pair-energy Lebesgue index 6/(6-alpha) (classic 6/5 at alpha = 1)."""
    return 6.0 / (6.0 - alpha)


@dataclass
class ChainLink:
    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9 * max(1.0, abs(self.rhs))


@dataclass
class EnergyReport:
    kinetic_scaled: float
    kinetic_plain: float
    rho_l1: float
    rho_53: float
    rho_pair_index: float
    rho_pair_index_printed: float
    pair: float
    lieb_thirring_ratio: float
    hls_ratio: float
    links: list

    @property
    def violations(self) -> list:
        return [link.name for link in self.links if not link.holds]


def _chain_links(alpha: float, n: int, l1: float, l53: float, lq: float) -> list:
    """The interpolation, Young-split and exponent links from the norms of rho."""
    return [
        ChainLink(
            "interpolation",
            lq**2,
            l1 ** ((12.0 - 5.0 * alpha) / 6.0) * l53 ** (5.0 * alpha / 6.0),
        ),
        ChainLink(
            "young-split",
            n ** (1.0 - 5.0 * alpha / 6.0) * l53 ** (5.0 * alpha / 6.0),
            (2.0 - alpha) / 2.0 * n + (alpha / 2.0) * n ** (-2.0 / 3.0) * l53 ** (5.0 / 3.0),
        ),
        ChainLink(
            "exponent-identity",
            (12.0 - 5.0 * alpha) / 6.0 + 5.0 * alpha / 6.0,
            2.0,
        ),
    ]


def energy_report(state: SlaterState, potential: PowerLawPotential) -> EnergyReport:
    """Every energy quantity of one state, each computed once."""
    p = state.params
    rho = charge_density(state)
    l1 = field_lp_norm(rho, 1.0)
    l53 = field_lp_norm(rho, 5.0 / 3.0)
    lq = field_lp_norm(rho, hls_index(potential.alpha))
    kinetic_plain = kinetic_trace(state)  # one transform serves both
    kinetic_scaled = p.epsilon**2 * kinetic_plain
    pair = pair_energy(rho, potential, p.n_particles)
    hls_ratio = pair / (lq**2 / p.n_particles) if lq > 0 else np.inf
    links = _chain_links(potential.alpha, p.n_particles, l1, l53, lq)
    closure = max(hls_ratio, 1.0) * (p.n_particles + kinetic_scaled)
    links.append(ChainLink("pair-energy-closure", pair, closure))
    return EnergyReport(
        kinetic_scaled=kinetic_scaled,
        kinetic_plain=kinetic_plain,
        rho_l1=l1,
        rho_53=l53,
        rho_pair_index=lq,
        rho_pair_index_printed=field_lp_norm(rho, 6.0 / (5.0 - potential.alpha)),
        pair=pair,
        lieb_thirring_ratio=l53 ** (5.0 / 3.0) / kinetic_plain if kinetic_plain > 0 else np.inf,
        hls_ratio=hls_ratio,
        links=links,
    )


def conservation_transfer_audit(snapshots, potential: PowerLawPotential) -> tuple:
    """Along an HF run: ||rho_t||_{5/3}^{5/3} <= C * eps^-2 E_HF(omega_0).

    C is the time-zero measured ratio; the audit checks the bound with a
    multiplicative margin 1.2 at every snapshot.  It returns the excess, the worst
    `ratio_t - 1.2 * ratio_0`, and the bound holds while it is <= 1e-12.  Since the
    ratio falls, the excess is -0.2 ratio_0 whatever the run; the second value, the
    largest `ratio_t / ratio_0` over the snapshots after the first, measures the run.
    """
    if len(snapshots) < 2:
        raise ValueError("the transfer audit needs a snapshot after the initial one")
    ratios = []
    e0 = None
    for _, st in snapshots:
        if e0 is None:
            e0 = hf_energy(st, potential)
        rho = charge_density(st)
        val = field_lp_norm(rho, 5.0 / 3.0) ** (5.0 / 3.0)
        ratios.append(val * st.params.epsilon**2 / e0)
    ratios = np.asarray(ratios)
    return float(np.max(ratios - ratios[0] * 1.2)), float(np.max(ratios[1:] / ratios[0]))


def report_to_csv_row(report: EnergyReport) -> list:
    return [
        report.kinetic_scaled,
        report.kinetic_plain,
        report.rho_l1,
        report.rho_53,
        report.rho_pair_index,
        report.rho_pair_index_printed,
        report.pair,
        report.lieb_thirring_ratio,
        report.hls_ratio,
    ]


ENERGY_CSV_HEADER = (
    "kinetic_scaled,kinetic_plain,rho_L1,rho_L53,rho_pair_index,"
    "rho_pair_index_printed,pair,lt_ratio,hls_ratio"
)
