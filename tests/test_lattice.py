import numpy as np
import pytest
import scipy.fft
from references import absolute_value, operator_norms

from hflab import lattice
from hflab.hartree_fock import _gram
from hflab.lattice import (
    DenseOperator,
    Field,
    Grid,
    ScaledParams,
    diagnostic_chunks,
    kinetic_operator,
    normalized,
    projection_from_orbitals,
    spectral_multiplier_operator,
)
from hflab.states import gaussian_packet, plane_wave


def random_field(grid, rng):
    return Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def inner(f, h):
    """<f, h> = h^d sum(conj(f) h), read off the Gram matrix the propagator uses."""
    rows = np.stack([f.values.reshape(-1), h.values.reshape(-1)])
    return _gram(rows, f.grid.cell_volume)[0, 1]


def apply_kinetic(f, params):
    """The dense kinetic operator applied to a field."""
    out = kinetic_operator(f.grid, params).matrix @ f.values.reshape(-1)
    return Field(f.grid, out.reshape(f.grid.shape))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 16)
    with pytest.raises(ValueError):
        Grid(1, 7)
    with pytest.raises(ValueError):
        Grid(1, 16, -1.0)
    g = Grid(2, 16, 3.0)
    assert g.h == pytest.approx(3.0 / 16)
    assert g.site_count == 256


def test_scaled_params_default_epsilon():
    p = ScaledParams(27, 0.5)
    assert p.epsilon == pytest.approx(27 ** (-1 / 3))
    assert p.coupling == pytest.approx(1 / 27)
    with pytest.raises(ValueError):
        ScaledParams(3, 1.5)
    with pytest.raises(ValueError):
        ScaledParams(0, 0.5)


def test_inner_normalized_gaussian():
    g = Grid(1, 128)
    f = gaussian_packet(g, [g.length / 2], 0.3)
    assert inner(f, f) == pytest.approx(1.0, abs=1e-10)


def test_inner_plane_wave_orthogonality():
    g = Grid(1, 64)
    f = plane_wave(g, (3,))
    h = plane_wave(g, (-5,))
    assert abs(inner(f, h)) < 1e-12
    assert inner(f, f) == pytest.approx(1.0, abs=1e-12)


def test_inner_conjugate_symmetry():
    g = Grid(2, 8)
    rng = np.random.default_rng(0)
    f, h = random_field(g, rng), random_field(g, rng)
    assert inner(f, h) == pytest.approx(np.conj(inner(h, f)), abs=1e-12)


def test_kinetic_plane_wave_eigenvector():
    g = Grid(1, 64, 2 * np.pi)
    p = ScaledParams(8, 1.0)
    f = plane_wave(g, (5,))
    kf = apply_kinetic(f, p)
    expected = p.epsilon**2 * (2 * np.pi * 5 / g.length) ** 2
    assert np.allclose(kf.values, expected * f.values, atol=1e-12)


def test_kinetic_constant_field():
    g = Grid(2, 16)
    p = ScaledParams(4)
    f = Field(g, np.ones(g.shape, dtype=complex))
    assert np.max(np.abs(apply_kinetic(f, p).values)) < 1e-12


def test_kinetic_positive_and_hermitian():
    g = Grid(1, 32)
    p = ScaledParams(5, 0.7)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f, h = random_field(g, rng), random_field(g, rng)
        assert inner(f, apply_kinetic(f, p)).real >= -1e-12
        lhs = inner(f, apply_kinetic(h, p))
        rhs = np.conj(inner(h, apply_kinetic(f, p)))
        assert abs(lhs - rhs) < 1e-10


def test_spectral_round_trip():
    # the dense spectral calculus with the multiplier 1 transforms there and back
    rng = np.random.default_rng(3)
    for dim, m in ((1, 64), (2, 16), (3, 8)):
        g = Grid(dim, m)
        f = random_field(g, rng)
        back = spectral_multiplier_operator(g, np.ones(g.shape)).matrix @ f.values.reshape(-1)
        assert np.linalg.norm(back - f.values.reshape(-1)) < 1e-12 * np.linalg.norm(f.values)


def test_norms_identity():
    g = Grid(1, 16)
    norms = operator_norms(DenseOperator(g, np.eye(g.site_count)))
    assert norms["operator_norm"] == pytest.approx(1.0)
    assert norms["hs_norm"] == pytest.approx(4.0)
    assert norms["trace_norm"] == pytest.approx(16.0)
    assert norms["trace"] == pytest.approx(16.0)


def test_norms_rank_one_projection():
    g = Grid(1, 32)
    f = gaussian_packet(g, [2.0], 0.4)
    op = projection_from_orbitals(g, f.values[None])
    norms = operator_norms(op)
    for key in ("operator_norm", "hs_norm", "trace_norm"):
        assert norms[key] == pytest.approx(1.0, abs=1e-10)
    assert norms["trace"] == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_matches_eigenvalue_oracle():
    # oracle: trace norm = sum of sqrt eigenvalues of A^* A
    rng = np.random.default_rng(4)
    g = Grid(1, 6)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    norms = operator_norms(DenseOperator(g, a))
    oracle = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0)))
    assert norms["trace_norm"] == pytest.approx(oracle, abs=1e-10)


def test_norm_ordering_and_trace_bound():
    rng = np.random.default_rng(5)
    g = Grid(1, 8)
    for _ in range(100):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        norms = operator_norms(DenseOperator(g, a))
        assert norms["trace_norm"] >= norms["hs_norm"] >= norms["operator_norm"]
        assert norms["trace_norm"] >= abs(norms["trace"]) - 1e-12


def test_absolute_value_psd_fixed_point():
    g = Grid(1, 8)
    rng = np.random.default_rng(6)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    psd = b @ b.conj().T
    out = absolute_value(DenseOperator(g, psd))
    assert np.allclose(out.matrix, psd, atol=1e-10)


def test_absolute_value_sign_flip():
    g = Grid(1, 16)
    f = normalized(gaussian_packet(g, [3.0], 0.5))
    proj = projection_from_orbitals(g, f.values[None])
    out = absolute_value(DenseOperator(g, -proj.matrix))
    assert np.allclose(out.matrix, proj.matrix, atol=1e-10)


def test_absolute_value_consistency_and_idempotency():
    rng = np.random.default_rng(7)
    g = Grid(1, 8)
    for _ in range(20):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = DenseOperator(g, a)
        abs_op = absolute_value(op)
        assert np.min(np.real(np.diag(abs_op.matrix))) >= -1e-12
        assert np.trace(abs_op.matrix).real == pytest.approx(
            operator_norms(op)["trace_norm"], abs=1e-10
        )
        again = absolute_value(abs_op)
        assert np.linalg.norm(again.matrix - abs_op.matrix) < 1e-10


def test_kinetic_operator_dense_matches_spectral():
    g = Grid(1, 16)
    p = ScaledParams(3, 0.5)
    kop = kinetic_operator(g, p)
    assert kop.is_hermitian()
    rng = np.random.default_rng(8)
    f = random_field(g, rng)
    dense = kop.matrix @ f.values
    direct = scipy.fft.ifftn(p.epsilon**2 * g.momentum_squared() * scipy.fft.fftn(f.values))
    assert np.allclose(dense, direct, atol=1e-10)


def test_dense_cap_enforced():
    g = Grid(2, 64)  # 4096 sites > 1024 cap
    with pytest.raises(ValueError):
        DenseOperator(g, np.zeros((4096, 4096)))


def test_field_site_cap_enforced():
    with pytest.raises(ValueError):
        Grid(3, 128)  # 2^21 sites exceeds the field cap


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 64])
def test_diagnostic_chunks_cover_every_item_in_order(monkeypatch, budget):
    monkeypatch.setattr(lattice, "DIAGNOSTICS_CHUNK_POINTS", budget)
    for count in range(12):
        chunks = diagnostic_chunks(count, 2)
        assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(count))
        assert all(c.stop - c.start <= max(1, budget // 2) for c in chunks)
