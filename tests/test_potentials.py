import numpy as np
import pytest
from scipy.integrate import quad

from hflab.lattice import Grid
from hflab.potentials import (
    fdl_constant,
    fdl_reconstruct,
    gaussian_window,
    power_law_potential,
    radial_quadrature,
    split_quadrature,
)
from hflab.scenarios import write_table


def radial_oracle_constant(alpha, dim):
    # independent quadrature oracle: C is fixed by demanding the value 1 at s = 1
    integrand = lambda r: (np.pi / 2) ** (dim / 2) * r ** (-(1 + alpha)) * np.exp(
        -1.0 / (2 * r**2)
    )
    val, _ = quad(integrand, 0, np.inf, limit=200)
    return 1.0 / val


def test_fdl_constant_coulomb_value():
    assert fdl_constant(1.0, 3) == pytest.approx(4.0 / np.pi**2, abs=1e-12)


def test_fdl_constant_gamma_oracle():
    for alpha, dim in ((0.5, 3), (0.25, 1), (0.75, 2), (1.0, 3)):
        assert fdl_constant(alpha, dim) == pytest.approx(
            radial_oracle_constant(alpha, dim), rel=1e-9
        )
    # printed reference value for the half-power case
    assert fdl_constant(0.5, 3) == pytest.approx(0.2356, abs=5e-4)


def test_fdl_constant_defining_identity():
    from scipy.special import gamma

    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = rng.uniform(0.05, 1.0)
        dim = int(rng.integers(1, 4))
        prod = (
            fdl_constant(alpha, dim)
            * (np.pi / 2) ** (dim / 2)
            * 2 ** (alpha / 2 - 1)
            * gamma(alpha / 2)
        )
        assert prod == pytest.approx(1.0, abs=1e-12)


def test_fdl_constant_validation():
    with pytest.raises(ValueError):
        fdl_constant(1.5, 3)
    with pytest.raises(ValueError):
        fdl_constant(0.5, 4)


def test_reconstruct_targets():
    quad1 = radial_quadrature(1.0)
    assert fdl_reconstruct(1.0, 1.0, quad1, dim=3) == pytest.approx(1.0, rel=1e-3)
    quad_half = radial_quadrature(0.5)
    assert fdl_reconstruct(2.0, 0.5, quad_half, dim=3) == pytest.approx(
        2.0**-0.5, rel=1e-3
    )


def test_reconstruct_accuracy_grid():
    svals = np.exp(np.linspace(np.log(0.2), np.log(5.0), 50))
    for alpha in (0.25, 0.5, 0.75, 1.0):
        quad_a = radial_quadrature(alpha)
        for s in svals:
            got = fdl_reconstruct(float(s), alpha, quad_a, dim=3)
            assert abs(got / float(s) ** (-alpha) - 1.0) < 1e-3


def test_reconstruct_scale_covariance():
    quad_a = radial_quadrature(0.6)
    s, lam = 0.9, 3.0
    lhs = fdl_reconstruct(lam * s, 0.6, quad_a, dim=3) * lam**0.6
    rhs = fdl_reconstruct(s, 0.6, quad_a, dim=3)
    assert lhs == pytest.approx(rhs, rel=2e-3)


def test_reconstruct_range_warning():
    quad_a = radial_quadrature(0.5, r_min=0.5, r_max=2.0, n_nodes=50)
    with pytest.warns(UserWarning):
        fdl_reconstruct(1.0, 0.5, quad_a, dim=3)


def test_split_quadrature_cutoff():
    quad_a = radial_quadrature(1.0)
    parts = split_quadrature(quad_a, epsilon=1.0 / 8.0, alpha=1.0)
    assert parts["cutoff"] == pytest.approx(0.125**0.5, abs=1e-12)
    parts = split_quadrature(quad_a, epsilon=1.0, alpha=0.3)
    assert parts["cutoff"] == pytest.approx(1.0, abs=1e-12)


def test_split_quadrature_partition():
    import warnings

    quad_a = radial_quadrature(0.75)
    parts = split_quadrature(quad_a, epsilon=0.2, alpha=0.75)
    n_near = parts["near"].nodes.size
    n_far = parts["far"].nodes.size
    assert n_near + n_far == quad_a.nodes.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        total = fdl_reconstruct(1.3, 0.75, parts["near"], dim=3) + fdl_reconstruct(
            1.3, 0.75, parts["far"], dim=3
        )
    assert total == pytest.approx(fdl_reconstruct(1.3, 0.75, quad_a, dim=3), abs=1e-12)


def test_quadrature_csv_export(tmp_path):
    quad_a = radial_quadrature(0.5, n_nodes=10)
    path = tmp_path / "quad.csv"
    write_table(path, "r_node,weight", zip(quad_a.nodes, quad_a.weights))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r_node,weight"
    assert len(lines) == 11
    back = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back[:, 0], quad_a.nodes)
    assert np.array_equal(back[:, 1], quad_a.weights)


def test_potential_regularization():
    g = Grid(1, 64, 2 * np.pi)
    v = power_law_potential(g, 0.5)
    assert np.all(v.values >= 0)
    dist = g.min_image_distance()
    mask = dist >= g.h
    assert np.allclose(v.values[mask], dist[mask] ** -0.5, atol=1e-12)
    assert v.values.reshape(-1)[0] == pytest.approx(g.h**-0.5)


def test_gaussian_window_range():
    g = Grid(2, 16)
    center = (3 * g.h, 5 * g.h)
    chi = gaussian_window(g, center, 0.8)
    assert np.all(chi > 0) and np.all(chi <= 1.0)
    assert chi[3, 5] == pytest.approx(1.0)


def test_convolution_point_mass():
    g = Grid(1, 64)
    v = power_law_potential(g, 1.0)
    rho = np.zeros(g.shape)
    rho[0] = 1.0 / g.cell_volume  # unit mass in one cell
    out = v.convolve(rho)
    assert np.allclose(out, v.values, atol=1e-10)


def test_convolution_positivity():
    g = Grid(1, 32)
    v = power_law_potential(g, 0.75)
    rng = np.random.default_rng(1)
    rho = np.abs(rng.standard_normal(g.shape))
    out = v.convolve(rho)
    assert np.min(out) >= -1e-10


def test_convolution_double_sum_oracle():
    g = Grid(1, 16)
    v = power_law_potential(g, 0.5)
    rng = np.random.default_rng(2)
    rho = np.abs(rng.standard_normal(16)) + 0.1
    out = v.convolve(rho)
    oracle = np.zeros(16)
    for i in range(16):
        for j in range(16):
            oracle[i] += g.h * v.values[(i - j) % 16] * rho[j]
    assert np.allclose(out, oracle, atol=1e-10)


def test_convolution_linearity_and_translation():
    g = Grid(1, 64)
    v = power_law_potential(g, 1.0)
    rng = np.random.default_rng(3)
    r1 = np.abs(rng.standard_normal(64))
    r2 = np.abs(rng.standard_normal(64))
    lhs = v.convolve(2.0 * r1 + 3.0 * r2)
    rhs = 2.0 * v.convolve(r1) + 3.0 * v.convolve(r2)
    assert np.allclose(lhs, rhs, atol=1e-10)
    shifted = v.convolve(np.roll(r1, 3))
    base = v.convolve(r1)
    assert np.allclose(shifted, np.roll(base, 3), atol=1e-10)


@pytest.mark.parametrize("dim,m", [(1, 6), (1, 8), (2, 6), (2, 8), (3, 6), (3, 8)])
def test_potential_transform_is_real(dim, m):
    # V(x) = V(-x) on the torus; m/2 odd and even place the far corner differently
    g = Grid(dim, m)
    v = power_law_potential(g, 0.75)
    full = np.fft.fftn(v.values)
    assert np.max(np.abs(full.imag)) <= 1e-12 * np.max(np.abs(full))
    assert np.allclose(v.v_hat, full.real, rtol=0, atol=1e-12 * np.max(np.abs(full)))


def test_transform_cache_follows_replaced_values():
    import dataclasses

    g = Grid(2, 8)
    v = power_law_potential(g, 0.5)
    assert v.v_hat is v.v_hat
    assert v.pair_matrix is v.pair_matrix
    zero = dataclasses.replace(v, values=np.zeros(g.shape))
    assert np.all(zero.v_hat == 0.0)
    assert np.max(np.abs(v.v_hat)) > 0.0
    assert np.all(zero.pair_matrix == 0.0)
    assert np.min(v.pair_matrix) > 0.0


@pytest.mark.parametrize("dim,m", [(1, 8), (3, 6)])
def test_convolve_matches_unscaled_transform_bitwise(dim, m):
    # the cached h^d-scaled multiplier gives the same bits as scaling v_hat per call
    import scipy.fft

    g = Grid(dim, m)
    v = power_law_potential(g, 0.5)
    rng = np.random.default_rng(5)
    axes = tuple(range(-dim, 0))
    real = rng.standard_normal((3,) + g.shape)
    hat = scipy.fft.rfftn(real, axes=axes) * (v.v_hat[..., : m // 2 + 1] * g.cell_volume)
    assert np.array_equal(v.convolve(real), scipy.fft.irfftn(hat, s=g.shape, axes=axes))
    pair = real + 1j * rng.standard_normal(real.shape)
    hat = scipy.fft.fftn(pair, axes=axes) * (v.v_hat * g.cell_volume)
    assert np.array_equal(v.convolve(pair.copy(), overwrite=True), scipy.fft.ifftn(hat, axes=axes))
    assert np.array_equal(v.v_hat, scipy.fft.fftn(v.values).real)
