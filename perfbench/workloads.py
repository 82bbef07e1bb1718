"""Benchmark workloads: inputs drawn from a seed, a timed body, correctness checks.

tdhf-3d   hf_step in 3d, m=32, N=16 Gaussian packets, alpha=1: exchange over
          N^2 pair densities and numpy FFT dominate.
tdhf-1d   hf_step in 1d, m=128, N=8 packet Slater, alpha=0.5, with diagnostic
          snapshots: the Lanczos small problem and per-call overhead dominate.
verify    `hflab verify` in process over all presets: the few-body, Fock and
          dense-diagnostic layers the tdhf workloads never touch.

The program receives only the generated inputs.  Each body starts from the
same inputs, so repeated bodies in one run must agree bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hflab import cli
from hflab import hartree_fock as hf
from hflab import potentials
from hflab import scenarios
from hflab import semiclassics as sc
from hflab import states
from hflab.lattice import Grid, ScaledParams

from tracing import Patcher, patch_namespaces

DRIFT_LIMIT = 1e-8  # per-step Gram drift, as the propagator scenarios gate it
ENERGY_DRIFT_LIMIT = 1e-6  # |E(T) - E(0)| / |E(0)|, acceptance criterion 4


@dataclass(frozen=True)
class TdhfSpec:
    dim: int
    m: int
    n_particles: int
    alpha: float
    dt: float
    steps: int
    snapshot_every: int  # 0: energies at start and end only
    warmup_steps: int


TDHF = {
    "tdhf-3d": TdhfSpec(dim=3, m=32, n_particles=16, alpha=1.0, dt=1e-3,
                        steps=3, snapshot_every=0, warmup_steps=0),
    "tdhf-1d": TdhfSpec(dim=1, m=128, n_particles=8, alpha=0.5, dt=1e-3,
                        steps=2000, snapshot_every=250, warmup_steps=20),
}

# A process's first verify pass runs about 25% slower than later ones
# (likely allocator growth and lazy library imports).  Users pay that on
# every CLI run, so a verify run makes exactly one pass and stays cold.
MAX_BODIES = {"verify": 1}


@dataclass
class Outcome:
    """What one body did: operations checked, step times and a result fingerprint."""

    attempted: int = 0
    failed: int = 0
    step_s: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    output_files: int = 0
    output_bytes: int = 0


def build(name: str, seed: int):
    """Workload inputs from the seed; verify takes the seed itself."""
    if name == "verify":
        return seed
    spec = TDHF[name]
    rng = np.random.default_rng(seed)
    grid = Grid(spec.dim, spec.m)
    params = ScaledParams(spec.n_particles, spec.alpha)
    potential = potentials.power_law_potential(grid, spec.alpha)
    if spec.dim == 1:
        width = params.epsilon * grid.length / 16.0 * rng.uniform(0.9, 1.1)
        packets = states.packet_slater(grid, params, width=width)
        block = np.roll(packets.orbitals, int(rng.integers(spec.m)), axis=1)
    else:
        width = grid.length / 16.0
        orbitals = [
            states.gaussian_packet(
                grid,
                rng.uniform(0.0, grid.length, spec.dim),
                width,
                tuple(int(k) for k in rng.integers(-2, 3, spec.dim)),
            ).values
            for _ in range(spec.n_particles)
        ]
        block = hf.loewdin_orthonormalize(grid, np.array(orbitals))
    return spec, potential, hf.slater_state(grid, block, params)


def warm_up(name: str, inputs) -> None:
    """Untimed steps so lazy library set-up is done before timing."""
    if name == "verify":
        return
    spec, potential, state = inputs
    for _ in range(spec.warmup_steps):
        state = hf.hf_step(state, potential, spec.dt)


def run_body(name: str, inputs, scratch: Path) -> Outcome:
    if name == "verify":
        return _verify_body(inputs, scratch)
    return _tdhf_body(*inputs)


def _tdhf_body(spec: TdhfSpec, potential, initial) -> Outcome:
    out = Outcome()
    config = sc.DiagnosticsConfig(position_convention=sc.PERIODIC)
    params = initial.params
    energies = [hf.hf_energy(initial, potential)]
    budgets = []

    def snapshot(state):
        energies.append(hf.hf_energy(state, potential))
        series = sc.commutator_density_series(
            [(state.time, hf.density_matrix(state))], params.n_particles, params.epsilon, config
        )
        budgets.append(float(series["series"][0]))

    if spec.snapshot_every:
        snapshot(initial)
    state = initial
    snapshot_time = state.time
    for step in range(1, spec.steps + 1):
        out.attempted += 1
        start = time.perf_counter()
        try:
            state, drift = hf.hf_step_with_drift(state, potential, spec.dt)
        except RuntimeError:  # Gram abort: the remaining steps cannot run
            out.attempted += spec.steps - step
            out.failed += spec.steps - step + 1
            break
        out.step_s.append(time.perf_counter() - start)
        out.failed += not drift <= DRIFT_LIMIT
        if spec.snapshot_every and step % spec.snapshot_every == 0:
            snapshot(state)
            snapshot_time = state.time
    if state.time != snapshot_time or len(energies) == 1:
        energies.append(hf.hf_energy(state, potential))
    out.attempted += 1
    out.failed += not abs(energies[-1] - energies[0]) <= ENERGY_DRIFT_LIMIT * abs(energies[0])
    out.fingerprint = {
        "energies": energies,
        "hs_distance_sq": hf.hs_distance_squared(state, initial),
        "budgets": budgets,
        "orbitals_sha256": hashlib.sha256(state.orbitals.tobytes()).hexdigest(),
    }
    return out


def _verify_body(seed: int, scratch: Path) -> Outcome:
    out = Outcome()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _step_timer(out.step_s):
        code = cli.main(["verify", "--seed", str(seed), "--out", str(scratch)])
    printed = dict(
        line.split(": ", 1) for line in buf.getvalue().splitlines() if ": " in line
    )
    manifest = json.loads((scratch / "manifest.json").read_text())
    passed = {run["scenario"]: run["passed"] for run in manifest["runs"]}
    for name in scenarios.SCENARIOS:
        out.attempted += 1
        out.failed += not (printed.get(name) == "PASS" and passed.get(name) is True)
    out.failed += code != 0 and out.failed == 0
    csv = hashlib.sha256()
    files = sorted(p for p in scratch.rglob("*") if p.is_file())
    for path in files:
        out.output_bytes += path.stat().st_size
        if path.suffix == ".csv":
            csv.update(str(path.relative_to(scratch)).encode())
            csv.update(path.read_bytes())
    out.output_files = len(files)
    out.fingerprint = {
        "csv_sha256": csv.hexdigest(),
        "manifest_runs_sha256": hashlib.sha256(
            json.dumps(manifest["runs"], sort_keys=True).encode()
        ).hexdigest(),
    }
    return out


@contextlib.contextmanager
def _step_timer(samples: list):
    """Times every propagator step the scenarios take inside the block."""
    original = hf.hf_step_with_drift

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        samples.append(time.perf_counter() - start)
        return result

    patcher = Patcher()
    patcher.replace(original, timed, patch_namespaces())
    try:
        yield
    finally:
        patcher.restore()
