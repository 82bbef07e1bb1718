import tracemalloc

import numpy as np
import pytest
from references import (
    absolute_value,
    admissible_for,
    commutator_momentum,
    commutator_position,
    conjugate_exponent,
    diagonal_density,
    min_holder_p,
    operator_norms,
)

from hflab.hartree_fock import SlaterState, density_matrix
from hflab.lattice import (
    DenseOperator,
    Field,
    Grid,
    ScaledParams,
)
from hflab.potentials import gaussian_window
from hflab.semiclassics import (
    PERIODIC,
    PLAIN,
    DiagnosticsConfig,
    _position_commutator_densities,
    _range_factor,
    commutator_density_series,
    commutator_trace_norms,
    field_lp_norm,
    maximal_function,
    window_commutator_audit,
)
from hflab.states import fermi_ball, gaussian_packet, packet_slater, random_slater


def test_config_validation():
    with pytest.raises(ValueError):
        DiagnosticsConfig(delta=0.6)
    with pytest.raises(ValueError):
        DiagnosticsConfig(lp_exponent=0.5)
    cfg = DiagnosticsConfig(delta=0.1, lp_exponent=6.0)
    assert conjugate_exponent(cfg.lp_exponent) == pytest.approx(1.2)
    # p > 6/(3 - 2 alpha - 6 delta): alpha = 0.5 at delta = 0.1 needs p > 4.2857
    assert min_holder_p(0.5, 0.1) == pytest.approx(6.0 / 1.4)
    assert admissible_for(cfg, 0.5)
    assert not admissible_for(DiagnosticsConfig(delta=0.1, lp_exponent=4.0), 0.5)


def test_position_commutator_diagonal_state():
    g = Grid(1, 16)
    proj = np.zeros((16, 16), dtype=complex)
    for i in (2, 5, 9):
        proj[i, i] = 1.0
    comm = commutator_position(DenseOperator(g, proj), 0, PLAIN)
    assert np.max(np.abs(comm.matrix)) < 1e-14


def test_position_commutator_antihermitian():
    g = Grid(1, 32)
    rng = np.random.default_rng(0)
    st = random_slater(g, ScaledParams(3, 0.5), rng)
    comm = commutator_position(density_matrix(st), 0, PLAIN).matrix
    assert np.max(np.abs(comm + comm.conj().T)) < 1e-10


def test_fermi_ball_periodic_commutator_svd_oracle():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    om = density_matrix(fermi_ball(g, p))
    comm = commutator_position(om, 0, PERIODIC)
    tr = operator_norms(comm)["trace_norm"]
    oracle = np.sum(np.linalg.svd(comm.matrix, compute_uv=False))
    assert tr == pytest.approx(oracle, abs=1e-8)
    # two Fermi edges, each of unit strength, rescaled by L / (2 pi)
    assert tr == pytest.approx(2.0 * g.length / (2 * np.pi), abs=1e-8)


def test_momentum_commutator_fermi_ball_zero():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    om = density_matrix(fermi_ball(g, p))
    comm = commutator_momentum(om, 0, p.epsilon)
    assert np.max(np.abs(comm.matrix)) < 1e-10


def test_momentum_commutator_localized_nonzero():
    g = Grid(1, 32)
    p = ScaledParams(1, 0.5)
    f = gaussian_packet(g, [g.length / 2], 0.4)
    om = density_matrix(
        __import__("hflab.hartree_fock", fromlist=["slater_state"]).slater_state(
            g, f.values[None], p
        )
    )
    comm = commutator_momentum(om, 0, p.epsilon)
    tr = operator_norms(comm)["trace_norm"]
    oracle = np.sum(np.linalg.svd(comm.matrix, compute_uv=False))
    assert tr == pytest.approx(oracle, abs=1e-8)
    assert tr > 1e-3
    assert np.max(np.abs(comm.matrix + comm.matrix.conj().T)) < 1e-10


def test_translation_covariance_of_occupied_window():
    # shifting which momenta are occupied leaves the edge structure unchanged
    g = Grid(1, 32)
    p = ScaledParams(4, 1.0)
    from hflab.hartree_fock import slater_state
    from hflab.states import plane_wave

    traces = []
    for base in (-2, 0, 3):
        orbs = np.array([plane_wave(g, (base + j,)).values for j in range(4)])
        om = density_matrix(slater_state(g, orbs, p))
        traces.append(operator_norms(commutator_position(om, 0, PERIODIC))["trace_norm"])
    assert np.allclose(traces, traces[0], atol=1e-8)


def test_diagonal_density_projection():
    g = Grid(1, 16)
    rng = np.random.default_rng(1)
    st = random_slater(g, ScaledParams(2, 0.5), rng)
    om = density_matrix(st)
    dens = diagonal_density(om)
    assert g.cell_volume * np.sum(dens.values.real) == pytest.approx(2.0, abs=1e-10)
    zero = diagonal_density(DenseOperator(g, np.zeros((16, 16))))
    assert np.max(np.abs(zero.values)) == 0.0


def test_diagonal_density_traces_trace_norm():
    g = Grid(1, 16)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        op = DenseOperator(g, a)
        dens = diagonal_density(absolute_value(op))
        total = g.cell_volume * np.sum(dens.values.real)
        assert total == pytest.approx(operator_norms(op)["trace_norm"], abs=1e-8)


def test_maximal_function_constant():
    g = Grid(2, 16)
    rho = Field(g, np.full(g.shape, 1.7, dtype=complex))
    out = maximal_function(rho)
    assert np.allclose(out.values.real, 1.7, atol=1e-12)


def test_maximal_function_single_cell_oracle():
    g = Grid(1, 16)
    vals = np.zeros(16)
    vals[0] = 4.0
    out = maximal_function(Field(g, vals.astype(complex))).values.real
    # direct enumeration over all centered windows
    for z in range(16):
        best = vals[z]
        for w in range(1, 8):
            window = [(z + o) % 16 for o in range(-w, w + 1)]
            best = max(best, sum(vals[i] for i in window) / (2 * w + 1))
        assert out[z] == pytest.approx(best, abs=1e-12)


def test_maximal_function_dominates_and_monotone():
    g = Grid(2, 8)
    rng = np.random.default_rng(3)
    rho = np.abs(rng.standard_normal(g.shape))
    out = maximal_function(Field(g, rho.astype(complex))).values.real
    assert np.all(out >= rho - 1e-14)
    bigger = maximal_function(Field(g, (rho + 0.5).astype(complex))).values.real
    assert np.all(bigger >= out - 1e-14)


def test_maximal_function_lp_bound_measured():
    # measured operator constants stay in a narrow band across random densities
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    for p in (2.0, 4.0):
        ratios = []
        for _ in range(20):
            rho = np.abs(rng.standard_normal(64))
            f = Field(g, rho.astype(complex))
            ratios.append(field_lp_norm(maximal_function(f), p) / field_lp_norm(f, p))
        ratios = np.array(ratios)
        assert np.all(ratios >= 1.0 - 1e-12)
        assert np.max(ratios) / np.min(ratios) < 1.2


def test_maximal_function_rejects_negative():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        maximal_function(Field(g, -np.ones(16, dtype=complex)))


def test_window_audit_scalar_multiple_of_identity():
    g = Grid(1, 16)
    op = DenseOperator(g, 0.5 * np.eye(16, dtype=complex))
    cfg = DiagnosticsConfig(delta=0.1)
    audit = window_commutator_audit(op, cfg)
    assert all(row.lhs < 1e-12 for row in audit.rows)


def test_window_audit_small_radius_limit():
    # toward r -> 0 the window flattens at the grid scale and the commutator shrinks
    g = Grid(1, 64)
    om = density_matrix(packet_slater(g, ScaledParams(4, 1.0), width=g.length / 8))
    cfg = DiagnosticsConfig(delta=0.1, position_convention=PERIODIC)
    radii = np.array([g.h, 4 * g.h, 16 * g.h])
    audit = window_commutator_audit(om, cfg, radii=radii)
    by_r = {}
    for row in audit.rows:
        by_r.setdefault(row.radius, []).append(row.lhs)
    means = [np.mean(by_r[r]) for r in sorted(by_r)]
    assert means[0] < means[1] < means[2]
    assert means[0] < 0.5 * means[-1]


def test_window_audit_single_constant_bound():
    g = Grid(1, 64)
    p = ScaledParams(8, 1.0)
    st = packet_slater(g, p)
    om = density_matrix(st)
    cfg = DiagnosticsConfig(delta=0.1, position_convention=PERIODIC)
    radii = np.exp(np.linspace(np.log(2 * g.h), np.log(g.length / 4), 5))
    audit = window_commutator_audit(om, cfg, radii=radii)
    assert audit.degenerate_rows == 0
    assert any(np.isfinite(row.ratio) for row in audit.rows)


def test_density_series_single_snapshot_consistency():
    g = Grid(1, 32)
    p = ScaledParams(3, 0.5)
    rng = np.random.default_rng(6)
    om = density_matrix(random_slater(g, p, rng))
    cfg = DiagnosticsConfig(delta=0.1, lp_exponent=6.0)
    result = commutator_density_series([(0.0, om)], 3, p.epsilon, cfg)
    row = result["rows"][0]
    comm = commutator_position(om, 0, PLAIN)
    assert row.norm_l1 == pytest.approx(operator_norms(comm)["trace_norm"], abs=1e-8)


def test_density_series_fermi_ball_constant():
    g = Grid(1, 32)
    p = ScaledParams(4, 1.0)
    om = density_matrix(fermi_ball(g, p))
    cfg = DiagnosticsConfig(delta=0.1, position_convention=PERIODIC)
    result = commutator_density_series(
        [(0.0, om), (0.5, om), (1.0, om)], 4, p.epsilon, cfg
    )
    series = result["series"]
    assert np.ptp(series) / np.max(series) < 1e-12


def _omega(kind, g):
    """Rank-N projection, its Slater orbitals, full-rank 0.5*I or a random Hermitian matrix."""
    n = g.site_count
    rng = np.random.default_rng(11)
    if kind == "slater":
        return random_slater(g, ScaledParams(3, 0.5), rng)
    if kind == "projection":
        return density_matrix(random_slater(g, ScaledParams(3, 0.5), rng))
    if kind == "half-identity":
        return DenseOperator(g, 0.5 * np.eye(n, dtype=complex))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DenseOperator(g, 0.5 * (a + a.conj().T))


def _assert_close(value, reference):
    # 1e-12 relative, or 1e-12 absolute where the reference is below 1
    value, reference = np.asarray(value), np.asarray(reference)
    assert np.all(np.abs(value - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


@pytest.mark.parametrize("kind", ["projection", "half-identity", "hermitian", "slater"])
@pytest.mark.parametrize("dim,m", [(1, 32), (3, 4)])
@pytest.mark.parametrize("convention", [PLAIN, PERIODIC])
def test_low_rank_commutators_match_dense_reference(convention, dim, m, kind):
    g = Grid(dim, m)
    om = _omega(kind, g)
    dense_om = density_matrix(om) if isinstance(om, SlaterState) else om
    cfg = DiagnosticsConfig(delta=0.1, position_convention=convention)
    dense = [
        diagonal_density(absolute_value(commutator_position(dense_om, axis, convention)))
        for axis in range(dim)
    ]
    low_rank = _position_commutator_densities(_range_factor(om), g, convention)
    for ref, dens in zip(dense, low_rank):
        _assert_close(dens.values, ref.values)
    series = commutator_density_series([(0.0, om)], 3, 0.5, cfg)
    for row, ref in zip(series["rows"], dense):
        _assert_close(row.norm_l1, field_lp_norm(ref, 1.0))
        _assert_close(row.norm_lp, field_lp_norm(ref, cfg.lp_exponent))
    # every window trace norm against the dense Hermitian spectrum of i[chi, omega]
    audit = window_commutator_audit(om, cfg)
    a = dense_om.matrix
    for row in audit.rows:
        chi = gaussian_window(g, np.array(row.center), row.radius).reshape(-1)
        herm = 1j * (chi[:, None] * a - a * chi[None, :])
        _assert_close(row.lhs, np.sum(np.abs(np.linalg.eigvalsh(herm))))
    # position and momentum trace norms against the SVDs of the dense commutators
    for axis in range(dim):
        tr_x, tr_p = commutator_trace_norms(om, axis, 0.5, convention)
        ref_x = commutator_position(dense_om, axis, convention)
        _assert_close(tr_x, operator_norms(ref_x)["trace_norm"])
        _assert_close(tr_p, operator_norms(commutator_momentum(dense_om, axis, 0.5))["trace_norm"])


def test_range_factor_rejects_non_hermitian():
    g = Grid(1, 8)
    a = np.triu(np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        _range_factor(DenseOperator(g, a))


def _spy_linalg(monkeypatch) -> dict:
    """Records the trailing matrix shape of every eigh, eigvalsh and svd call."""
    calls = {"eigh": [], "eigvalsh": [], "svd": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.shape(a)[-2:])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _packets_3d(m, n):
    g = Grid(3, m)
    return packet_slater(g, ScaledParams(n, 1.0), width=g.length / 8, centered=True)


def test_window_audit_factors_omega_once(monkeypatch):
    # 3d m=8, N=4: one M x M eigh of omega, then only 2r x 2r cores
    om = density_matrix(_packets_3d(8, 4))
    calls = _spy_linalg(monkeypatch)
    window_commutator_audit(om, DiagnosticsConfig(delta=0.1))
    assert calls["eigh"] == [(512, 512)]
    assert calls["eigvalsh"] == []
    assert calls["svd"] and all(max(shape) <= 8 for shape in calls["svd"])


def test_slater_diagnostics_make_no_eigh(monkeypatch):
    # the orbitals are the range factor: no eigh, and only 2N x 2N cores
    state = _packets_3d(8, 4)
    cfg = DiagnosticsConfig(delta=0.1)
    calls = _spy_linalg(monkeypatch)
    window_commutator_audit(state, cfg)
    commutator_density_series([(0.0, state)], 4, 0.5, cfg)
    commutator_trace_norms(state, 0, 0.5, PERIODIC)
    assert calls["eigh"] == calls["eigvalsh"] == []
    assert calls["svd"] and all(max(shape) <= 8 for shape in calls["svd"])


def test_slater_diagnostics_memory_past_dense_cap():
    # 3d m=16 (M = 4096): one M x M complex array alone would take 256 MiB
    state = _packets_3d(16, 8)
    cfg = DiagnosticsConfig(delta=0.1)
    tracemalloc.start()
    try:
        audit = window_commutator_audit(state, cfg)
        series = commutator_density_series([(0.0, state)], 8, 0.5, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert len(audit.rows) == 56 and audit.degenerate_rows == 0
    assert any(np.isfinite(row.ratio) for row in audit.rows) and np.isfinite(series["sup_over_n_eps"])


def test_window_audit_3d_memory_is_on_the_diagnostics_budget():
    # the window-audit preset's 3d state: measured 4.4 MiB, bounded with 35%
    # margin; chunks of 2^20 points took 11.0 MiB
    g = Grid(3, 8)
    state = packet_slater(g, ScaledParams(4, 1.0), width=g.length / 8.0, centered=True)
    tracemalloc.start()
    try:
        window_commutator_audit(state, DiagnosticsConfig(delta=0.1, lp_exponent=6.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_commutator_chunks_leave_results_unchanged(monkeypatch):
    from hflab import lattice

    g = Grid(1, 32)
    om = _omega("projection", g)
    cfg = DiagnosticsConfig(delta=0.1, position_convention=PERIODIC)
    # one multiplier per chunk, then the default budget (one chunk)
    monkeypatch.setattr(lattice, "DIAGNOSTICS_CHUNK_POINTS", 1)
    chunked = window_commutator_audit(om, cfg)
    monkeypatch.undo()
    whole = window_commutator_audit(om, cfg)
    assert len(chunked.rows) == len(whole.rows) == 56
    for a, b in zip(whole.rows, chunked.rows):
        assert b.lhs == pytest.approx(a.lhs, rel=1e-13)
        assert b.rhs == pytest.approx(a.rhs, rel=1e-13)
