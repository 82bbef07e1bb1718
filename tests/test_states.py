import numpy as np
import pytest

from hflab.lattice import Grid, ScaledParams
from hflab.states import (
    fermi_ball,
    gaussian_packet,
    lowest_modes,
    packet_slater,
    plane_wave,
    random_slater,
)


def test_plane_wave_orthonormal_family():
    g = Grid(1, 32)
    waves = [plane_wave(g, (m,)) for m in (-3, 0, 7)]
    for i, a in enumerate(waves):
        for j, b in enumerate(waves):
            expect = 1.0 if i == j else 0.0
            assert abs(g.cell_volume * np.vdot(a.values, b.values) - expect) < 1e-12


def test_lowest_modes_deterministic_ties():
    g = Grid(1, 16)
    assert lowest_modes(g, 3) == [(0,), (-1,), (1,)]
    g3 = Grid(3, 8)
    modes = lowest_modes(g3, 7)
    assert modes[0] == (0, 0, 0)
    assert len(set(modes)) == 7
    assert all(sum(c * c for c in mv) <= 1 for mv in modes)


def test_fermi_ball_constant_density():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    st = fermi_ball(g, p)
    rho = np.sum(np.abs(st.orbitals) ** 2, axis=0)
    assert np.ptp(rho) < 1e-12
    assert st.gram_defect() < 1e-12


def test_gaussian_packet_center_and_norm():
    g = Grid(1, 128)
    f = gaussian_packet(g, [g.length / 2], 0.25, (4,))
    assert f.norm() ** 2 == pytest.approx(1.0, abs=1e-12)
    peak = np.argmax(np.abs(f.values))
    assert abs(peak * g.h - g.length / 2) <= g.h


@pytest.mark.parametrize("dim,center", [(1, [1.0, 2.0]), (2, [1.0]), (1, [[1.0]])])
def test_gaussian_packet_needs_one_center_coordinate_per_axis(dim, center):
    # an extra coordinate used to be dropped, a missing one raised IndexError
    with pytest.raises(ValueError, match="one coordinate per axis"):
        gaussian_packet(Grid(dim, 8), center, 0.3)


def test_packet_slater_counts_and_orthonormality():
    g = Grid(1, 256)
    for n in (8, 27, 64):
        st = packet_slater(g, ScaledParams(n, 1.0))
        assert st.n_orbitals == n
        assert st.gram_defect() < 1e-10


def test_packet_slater_centered_support():
    g = Grid(1, 256)
    st = packet_slater(g, ScaledParams(8, 1.0), centered=True)
    rho = np.sum(np.abs(st.orbitals) ** 2, axis=0)
    coords = g.axis_coordinates()
    outer = (coords < g.length / 8) | (coords > 7 * g.length / 8)
    assert np.sum(rho[outer]) < 1e-3 * np.sum(rho)


def test_packet_slater_rejects_unresolvable():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        packet_slater(g, ScaledParams(64, 1.0))


def test_random_slater_seeded():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    a = random_slater(g, p, np.random.default_rng(5))
    b = random_slater(g, p, np.random.default_rng(5))
    assert np.array_equal(a.orbitals, b.orbitals)
    assert a.gram_defect() < 1e-12
