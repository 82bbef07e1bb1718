import numpy as np
import pytest

from hflab.energy import (
    ENERGY_CSV_HEADER,
    charge_density,
    conservation_transfer_audit,
    energy_report,
    hls_index,
    kinetic_trace,
    pair_energy,
    report_to_csv_row,
)
from hflab.hartree_fock import density_matrix, run_hf, slater_state
from hflab.lattice import Grid, ScaledParams, spectral_multiplier_operator
from hflab.potentials import power_law_potential
from hflab.semiclassics import field_lp_norm
from hflab.states import (
    fermi_ball,
    gaussian_packet,
    packet_slater,
    plane_wave,
    random_slater,
)

# measured-constant regression baselines, frozen from the first calibrated run
LT_RATIO_FERMI_BALL_3D = 0.10813984587253536
HLS_RATIO_FERMI_BALL_3D = 2.335094666759028


def test_hls_index_values():
    assert hls_index(1.0) == pytest.approx(6.0 / 5.0)  # classic pair-energy index
    assert hls_index(0.5) == pytest.approx(6.0 / 5.5)


def test_charge_density_normalization():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(0)
    st = random_slater(g, p, rng)
    rho = charge_density(st)
    assert field_lp_norm(rho, 1.0) == pytest.approx(3.0, abs=1e-10)


def test_plane_wave_closed_form():
    # constant density: all norms explicit, kinetic trace = |k|^2
    g = Grid(3, 8)
    p = ScaledParams(1, 1.0)
    st = slater_state(g, plane_wave(g, (1, 0, 0)).values[None], p)
    report = energy_report(st, power_law_potential(g, 1.0))
    k2 = (2 * np.pi / g.length) ** 2
    assert report.kinetic_plain == pytest.approx(k2, abs=1e-10)
    rho0 = 1.0 / g.length**3
    assert report.rho_53 ** (5 / 3) == pytest.approx(rho0 ** (5 / 3) * g.length**3, rel=1e-10)


def test_kinetic_trace_dense_matches_state():
    g = Grid(1, 16)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(1)
    st = random_slater(g, p, rng)
    # tr(-Lap) omega with both factors dense
    lap = spectral_multiplier_operator(g, g.momentum_squared()).matrix
    dense = np.trace(lap @ density_matrix(st).matrix).real
    assert dense == pytest.approx(kinetic_trace(st), abs=1e-8)


def test_lt_ratio_regression_fermi_ball():
    g = Grid(3, 8)
    st = fermi_ball(g, ScaledParams(7, 1.0))
    ratio = energy_report(st, power_law_potential(g, 1.0)).lieb_thirring_ratio
    assert ratio == pytest.approx(LT_RATIO_FERMI_BALL_3D, rel=1e-6)


def test_lt_ratio_dilation_invariance():
    # both sides scale as lambda^-2 in 3d for interior-supported states
    from hflab.hartree_fock import loewdin_orthonormalize

    g = Grid(3, 64)
    pot = power_law_potential(g, 1.0)

    def packet_state(width):
        c = g.length / 2
        offs = [(-1, -1, -1), (1, 1, 1), (-1, 1, 1), (1, -1, -1)]
        orbs = [
            gaussian_packet(
                g, [c + 0.5 * o[0] * width, c + 0.5 * o[1] * width, c + 0.5 * o[2] * width],
                width,
            ).values
            for o in offs
        ]
        return slater_state(g, loewdin_orthonormalize(g, np.array(orbs)), ScaledParams(4, 1.0))

    base = energy_report(packet_state(0.35), pot).lieb_thirring_ratio
    for lam in (0.5, 2.0):
        ratio = energy_report(packet_state(0.35 * lam), pot).lieb_thirring_ratio
        assert ratio == pytest.approx(base, rel=0.02)


def test_hls_single_cell_direction():
    g = Grid(3, 8)
    pot = power_law_potential(g, 1.0)
    # concentrated density: the pair energy stays below the regularized self term
    from hflab.lattice import Field

    rho_vals = np.zeros(g.shape)
    rho_vals[0, 0, 0] = 1.0 / g.cell_volume
    rho = Field(g, rho_vals.astype(complex))
    lhs = pair_energy(rho, pot, 1)
    assert lhs <= pot.values[0, 0, 0] * 1.0**2 + 1e-10
    assert np.isfinite(field_lp_norm(rho, hls_index(1.0)))


def test_hls_ratio_regression_fermi_ball():
    g = Grid(3, 8)
    st = fermi_ball(g, ScaledParams(7, 1.0))
    pot = power_law_potential(g, 1.0)
    report = energy_report(st, pot)
    assert report.hls_ratio == pytest.approx(HLS_RATIO_FERMI_BALL_3D, rel=1e-6)
    assert report.rho_pair_index_printed > 0


def test_hls_two_bump_separation_decay():
    # pair energy decays with bump separation while the norm side is unchanged
    from hflab.hartree_fock import loewdin_orthonormalize

    g = Grid(3, 16)
    pot = power_law_potential(g, 1.0)
    width = g.length / 16

    def bumps(sep):
        c = g.length / 2
        orbs = [
            gaussian_packet(g, [c - sep / 2, c, c], width).values,
            gaussian_packet(g, [c + sep / 2, c, c], width).values,
        ]
        return slater_state(
            g, loewdin_orthonormalize(g, np.array(orbs)), ScaledParams(2, 1.0)
        )

    rows = {}
    for sep in (g.length / 8, g.length / 4):
        st = bumps(sep)
        rho = charge_density(st)
        rows[sep] = (pair_energy(rho, pot, 2), field_lp_norm(rho, hls_index(1.0)))
    near, far = rows[g.length / 8], rows[g.length / 4]
    assert far[0] < near[0]
    assert far[1] == pytest.approx(near[1], rel=0.05)


def test_chain_constant_density_closed_form():
    # constant rho: interpolation is an equality, Young strict
    g = Grid(3, 8)
    p = ScaledParams(7, 0.5)
    st = fermi_ball(g, p)
    pot = power_law_potential(g, 0.5)
    links = {l.name: l for l in energy_report(st, pot).links}
    interp = links["interpolation"]
    assert interp.lhs == pytest.approx(interp.rhs, rel=1e-10)
    assert links["young-split"].holds
    ident = links["exponent-identity"]
    assert ident.lhs == pytest.approx(2.0, abs=1e-12)


def test_chain_exponent_identity_alpha_grid():
    for alpha in (0.25, 1.0):
        assert (12 - 5 * alpha) / 6 + 5 * alpha / 6 == pytest.approx(2.0, abs=1e-12)


def test_chain_random_states_no_violations():
    g = Grid(3, 8)
    rng = np.random.default_rng(3)
    for alpha in (0.25, 0.5, 1.0):
        pot = power_law_potential(g, alpha)
        for _ in range(5):
            p = ScaledParams(int(rng.integers(2, 7)), alpha)
            st = random_slater(g, p, rng)
            report = energy_report(st, pot)
            assert not report.violations
            assert report.lieb_thirring_ratio > 0


def test_conservation_transfer_along_run():
    g = Grid(1, 64)
    p = ScaledParams(4, 0.5)
    pot = power_law_potential(g, 0.5)
    st = packet_slater(g, p)
    snaps, _ = run_hf(st, pot, 1e-3, 200, 50)
    excess, peak = conservation_transfer_audit(snaps, pot)
    assert excess <= 1e-12
    # the ratio falls, so the excess is -0.2 ratio_0 at any length of run; the peak
    # after t = 0 is below 1 and moves with the snapshots the run keeps
    assert excess < 0 and 0.5 < peak < 1.0
    first_last = conservation_transfer_audit([snaps[0], snaps[-1]], pot)
    assert first_last == (excess, pytest.approx(0.7, abs=0.01))
    with pytest.raises(ValueError, match="after the initial one"):
        conservation_transfer_audit(snaps[:1], pot)


def test_csv_row_shape():
    g = Grid(3, 8)
    st = fermi_ball(g, ScaledParams(7, 1.0))
    report = energy_report(st, power_law_potential(g, 1.0))
    row = report_to_csv_row(report)
    assert len(row) == len(ENERGY_CSV_HEADER.split(","))
    assert all(isinstance(cell, float) for cell in row)


def test_energy_report_transforms_the_orbitals_once(monkeypatch):
    import scipy.fft

    g = Grid(3, 8)
    p = ScaledParams(4, 0.5)
    st = random_slater(g, p, np.random.default_rng(9))
    shapes = []
    real = scipy.fft.fftn

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "fftn", spy)
    rep = energy_report(st, power_law_potential(g, 0.5))
    assert shapes.count(st.orbitals.shape) == 1
    assert rep.kinetic_scaled == pytest.approx(p.epsilon**2 * rep.kinetic_plain, rel=1e-15)


def test_hf_energy_and_kinetic_trace_share_one_kinetic_term():
    # without interaction the HF energy is its kinetic term, the same bits as kinetic_trace
    import dataclasses

    from hflab.hartree_fock import hf_energy

    for g in (Grid(1, 32), Grid(3, 8)):
        st = random_slater(g, ScaledParams(3, 0.5), np.random.default_rng(2))
        free = dataclasses.replace(power_law_potential(g, 0.5), values=np.zeros(g.shape))
        assert hf_energy(st, free) == st.params.epsilon**2 * kinetic_trace(st)
