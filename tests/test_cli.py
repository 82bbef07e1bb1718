import inspect
import json
import math

import pytest

from hflab import scenarios
from hflab.cli import _config, _jsonable, _load_config, main
from hflab.scenarios import FIELDS, SCENARIOS, Check, Scenario, build_config, run_scenario


def test_config_round_trip_bit_exact(tmp_path):
    # the manifest's config, fed back through `run --config`, is the same config
    cfg = build_config("fdl-verify", seed=99)
    first = ["run", "--scenario", "fdl-verify", "--seed", "99", "--out", str(tmp_path / "a")]
    assert main(first) == 0
    manifest = json.loads((tmp_path / "a" / "fdl-verify" / "manifest.json").read_text())
    text = json.dumps(manifest["runs"][0]["config"])
    assert text == json.dumps({"scenario": "fdl-verify", "seed": 99})
    assert json.loads(text) == _config(cfg)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert _load_config(str(config), None, None) == cfg
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    back = json.loads((tmp_path / "b" / "fdl-verify" / "manifest.json").read_text())
    assert json.dumps(back["runs"][0]["config"]) == text


def test_config_rejects_bad_alpha():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        build_config("fdl-verify", overrides={"alpha": 1.5})


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config fields"):
        build_config("fdl-verify", overrides={"bogus": 1})


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError, match="power of two"):
        build_config("fdl-verify", overrides={"m": 48})


def test_preset_table():
    assert len(SCENARIOS) >= 8
    for name, preset in SCENARIOS.items():
        assert callable(preset.run) and preset.description
        cfg = build_config(name)
        assert build_config(name, overrides=cfg.fields) == cfg
    # documented defaults of the two-body probe, whose grid is 1d by construction
    fields = build_config("hf-vs-exact-n2").fields
    assert fields["n_particles"] == 2 and fields["m"] == 64 and "dim" not in fields


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    assert "entry:" in out


def test_cli_requires_scenario(capsys):
    assert main(["run"]) == 2


def test_cli_unknown_scenario(capsys):
    assert main(["run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "fdl-verify", "alpha": 1.5}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_cli_run_writes_manifest(tmp_path, capsys):
    code = main(["run", "--scenario", "fdl-verify", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "fdl-verify" / "manifest.json").read_text())
    run = manifest["runs"][0]
    assert run["passed"] is True
    assert run["files"] == ["fdl_quadrature.csv", "fdl_reconstruction.csv"]
    for name in run["files"]:
        assert (tmp_path / "fdl-verify" / name).exists()
    check = next(c for c in run["checks"] if c["name"] == "max_rel_err")
    assert (check["relation"], check["bound"], check["passed"]) == ("<", 1e-3, True)
    assert check["value"] < check["bound"]


def test_run_determinism_same_seed(tmp_path):
    tags = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for name in ("fdl-verify", "fock-audit", "fermi-ball-1d"):
            cfg = build_config(name, seed=7)
            sub = out / name
            sub.mkdir(parents=True, exist_ok=True)
            result = run_scenario(cfg, sub)
            assert result.passed
        tags.append(out)
    a, b = tags
    csvs = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert csvs
    for rel in csvs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_verify_subset(tmp_path, capsys):
    code = main(
        ["verify", "--scenarios", "fdl-verify", "--seed", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fdl-verify: PASS" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["runs"][0]["scenario"] == "fdl-verify"


def test_manifest_records_blas_thread_variables(tmp_path, monkeypatch):
    # CSV digits follow the BLAS thread count; it is recorded beside the runs,
    # so the runs themselves stay comparable across thread settings
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["verify", "--scenarios", "fdl-verify", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["OMP_NUM_THREADS"] == "2"
    assert manifest["OPENBLAS_NUM_THREADS"] is None
    assert "OMP_NUM_THREADS" not in json.dumps(manifest["runs"])


def test_verify_rejects_unknown_name_before_running(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(
        ["verify", "--scenarios", "fdl-verify,nope", "--seed", "5", "--out", str(out)]
    )
    assert code == 2
    assert "unknown scenario 'nope'" in capsys.readouterr().err
    assert not (out / "fdl-verify").exists()
    assert not out.exists()


def test_verify_records_crashed_scenario(tmp_path, monkeypatch, capsys):
    def crash():
        raise RuntimeError("Chebyshev propagator needs degree 60")

    monkeypatch.setitem(SCENARIOS, "fermi-ball-1d", Scenario(crash, "crashes"))
    code = main(
        ["verify", "--scenarios", "fermi-ball-1d,fdl-verify", "--seed", "5",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "fermi-ball-1d: ERROR" in capsys.readouterr().out
    runs = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert [r["scenario"] for r in runs] == ["fermi-ball-1d", "fdl-verify"]
    assert runs[0]["passed"] is False
    assert runs[0]["error"] == "RuntimeError: Chebyshev propagator needs degree 60"
    assert runs[0]["config"]["seed"] == 5
    assert runs[1]["passed"] is True


def test_run_records_crashed_scenario(tmp_path, monkeypatch, capsys):
    # a preset that raises RuntimeError failed its run (exit 1), which is not a
    # configuration error (exit 2); run writes the manifest entry verify writes
    def crash():
        raise RuntimeError("Chebyshev propagator needs degree 60")

    monkeypatch.setitem(SCENARIOS, "fdl-verify", Scenario(crash, "crashes"))
    code = main(["run", "--scenario", "fdl-verify", "--seed", "5", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "fdl-verify: ERROR (Chebyshev propagator needs degree 60)" in capsys.readouterr().out
    runs = json.loads((tmp_path / "run" / "fdl-verify" / "manifest.json").read_text())["runs"]
    assert runs[0]["passed"] is False
    assert runs[0]["error"] == "RuntimeError: Chebyshev propagator needs degree 60"
    main(["verify", "--scenarios", "fdl-verify", "--seed", "5", "--out", str(tmp_path / "verify")])
    assert runs == json.loads((tmp_path / "verify" / "manifest.json").read_text())["runs"]


@pytest.mark.parametrize("relation", ["<", "<=", "=="])
def test_check_nan_fails_every_relation(relation):
    assert not Check("x", math.nan, relation, 1.0).passed
    assert not Check("x", 1.0, relation, math.nan).passed
    assert Check("x", 1.0, relation, 1.0).passed == (relation != "<")
    assert Check("x", 0.5, relation, 1.0).passed == (relation != "==")


def test_verify_manifest_records_every_check(tmp_path, capsys):
    assert main(["verify", "--seed", "5", "--out", str(tmp_path)]) == 0
    runs = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert [r["scenario"] for r in runs] == list(SCENARIOS)
    for run in runs:
        assert run["checks"], run["scenario"]
        assert run["passed"] == all(c["passed"] for c in run["checks"])
        for c in run["checks"]:
            assert set(c) == {"name", "value", "relation", "bound", "passed"}
        assert run["files"] == sorted(p.name for p in (tmp_path / run["scenario"]).iterdir())
    fock = next(r for r in runs if r["scenario"] == "fock-audit")
    assert "max_slack_trace_vs_commutator" in [c["name"] for c in fock["checks"]]


def test_fluctuation_ring_fails_on_tightened_baseline(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(scenarios.BASELINES, "fluct_ring_sup", 1e-6)
    assert main(["run", "--scenario", "fluctuation-ring", "--out", str(tmp_path)]) == 1
    assert "fluctuation-ring: FAIL" in capsys.readouterr().out
    run = json.loads((tmp_path / "fluctuation-ring" / "manifest.json").read_text())["runs"][0]
    checks = {c["name"]: c for c in run["checks"]}
    assert checks["sup_n_fluct"]["passed"] is False
    assert checks["sup_n_fluct"]["bound"] == pytest.approx(1.5e-6)
    assert run["passed"] is False


@pytest.mark.parametrize(
    "field, value", [("m", "64"), ("m", 64.0), ("alpha", None), ("dim", True)]
)
def test_cli_config_wrong_type_exit_code(tmp_path, capsys, field, value):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"scenario": "fdl-verify", field: value}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"config field {field}" in capsys.readouterr().err
    assert not (tmp_path / "fdl-verify").exists()


def test_fluctuation_ring_honours_alpha(tmp_path):
    series = {}
    for alpha in (0.5, 0.25):
        config = tmp_path / f"ring_{alpha}.json"
        config.write_text(
            json.dumps({"scenario": "fluctuation-ring", "alpha": alpha, "t_final": 0.2})
        )
        out = tmp_path / str(alpha)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        series[alpha] = (out / "fluctuation-ring" / "fluctuation_series.csv").read_bytes()
        manifest = json.loads((out / "fluctuation-ring" / "manifest.json").read_text())
        assert manifest["runs"][0]["config"]["alpha"] == alpha
    assert series[0.25] != series[0.5]


def test_config_file_starts_from_preset_defaults(tmp_path):
    config = tmp_path / "preset.json"
    for name in SCENARIOS:
        config.write_text(json.dumps({"scenario": name}))
        assert _load_config(str(config), None, None) == build_config(name)
        assert _load_config(str(config), None, 9) == build_config(name, seed=9)
    # file fields win over the preset, --seed over both
    config.write_text(json.dumps({"scenario": "fermi-ball-1d", "m": 32, "seed": 3}))
    cfg = _load_config(str(config), None, 9)
    assert (cfg.fields["m"], cfg.fields["n_particles"], cfg.seed) == (32, 8, 9)


def test_ring_config_runs_at_preset_alpha(tmp_path):
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({"scenario": "fluctuation-ring"}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fluctuation-ring" / "manifest.json").read_text())
    assert manifest["runs"][0]["config"]["alpha"] == 0.5


def test_cli_config_unknown_field_exit_code(tmp_path, capsys):
    config = tmp_path / "bogus.json"
    config.write_text(json.dumps({"scenario": "fluctuation-ring", "bogus": 1}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_exact_probe_honours_grid_size(tmp_path):
    series = {}
    for m in (64, 32):
        config = tmp_path / f"n2_{m}.json"
        config.write_text(json.dumps({"scenario": "hf-vs-exact-n2", "m": m, "t_final": 0.05}))
        out = tmp_path / str(m)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        series[m] = (out / "hf-vs-exact-n2" / "hf_vs_exact_n2_alpha0.5.csv").read_bytes()
        manifest = json.loads((out / "hf-vs-exact-n2" / "manifest.json").read_text())
        assert manifest["runs"][0]["config"]["m"] == m
    assert series[32] != series[64]


def test_exact_probe_rejects_other_particle_numbers(tmp_path, capsys):
    config = tmp_path / "n4.json"
    config.write_text(json.dumps({"scenario": "hf-vs-exact-n3", "n_particles": 4}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "2 or 3 particles" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, field, value",
    [("fermi-ball-3d", "m", 16), ("fermi-ball-3d", "n_particles", 4), ("window-audit", "dim", 2),
     ("window-audit", "n_particles", 4), ("energy-audit", "m", 16), ("gaussian-packets", "m", 128),
     ("hf-vs-exact-n2", "alpha", 0.5), ("hf-vs-exact-n3", "alpha", 0.25),
     ("fluctuation-ring", "m", 16), ("fluctuation-ring", "n_particles", 3),
     # fields that reached no output of these presets
     ("window-audit", "alpha", 0.75), ("window-audit", "epsilon_override", 0.37),
     ("window-audit", "lp_exponent", 3.0), ("gaussian-packets", "alpha", 0.75),
     ("fermi-ball-1d", "delta", 0.2),
     # an override at the global default of a field the preset does not take
     ("fermi-ball-3d", "dim", 1), ("fdl-verify", "m", 64)],
)
def test_run_rejects_overrides_the_preset_ignores(tmp_path, capsys, scenario, field, value):
    config = tmp_path / "ignored.json"
    config.write_text(json.dumps({field: value}))
    args = ["run", "--scenario", scenario, "--config", str(config), "--out", str(tmp_path)]
    assert main(args) == 2
    assert f"config fields ['{field}']" in capsys.readouterr().err
    assert not (tmp_path / scenario).exists()


def test_declared_fields_are_config_fields():
    # every keyword parameter of a run is a config field with a default, and the
    # manifest's config, fed back as overrides, is the same config
    for name, preset in SCENARIOS.items():
        parameters = inspect.signature(preset.run).parameters.values()
        assert all(p.name in FIELDS and p.default is not p.empty for p in parameters), name
        full = _config(build_config(name, seed=4))
        assert build_config(full.pop("scenario"), overrides=full) == build_config(name, seed=4)


def test_manifest_config_lists_the_fields_a_run_takes():
    for name, preset in SCENARIOS.items():
        cfg = build_config(name, seed=3)
        keys = {"scenario", "seed"} | set(inspect.signature(preset.run).parameters)
        assert set(_config(cfg)) == keys, name
        assert _config(cfg)["seed"] == 3


def test_fixed_grid_rejects_the_global_defaults(tmp_path, capsys):
    # fermi-ball-3d runs 3d m8 N7: a file naming the old global defaults was once recorded
    # as the run's config though none of it was used
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps({"dim": 1, "m": 64, "n_particles": 8}))
    args = ["run", "--scenario", "fermi-ball-3d", "--config", str(config), "--out", str(tmp_path)]
    assert main(args) == 2
    assert "config fields ['dim', 'm', 'n_particles']" in capsys.readouterr().err
    assert not (tmp_path / "fermi-ball-3d").exists()


@pytest.mark.parametrize("overrides", [{"t_final": 1e-4}, {"dt": 5.0}])
def test_run_rejects_a_flow_of_no_steps(tmp_path, capsys, overrides):
    # t_final < dt / 2 rounds to zero steps, which no preset's flow can report on
    for name, preset in SCENARIOS.items():
        if "dt" in inspect.signature(preset.run).parameters:
            with pytest.raises(ValueError, match="at least one step"):
                build_config(name, overrides=overrides)
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"scenario": "energy-audit", **overrides}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not (tmp_path / "energy-audit").exists()


def _moved(field, default):
    """A valid value of `field` off the preset's `default`."""
    if field == "n_particles":
        return 5 - default if default in (2, 3) else 4  # the exact probes take 2 or 3
    return {"dim": 2, "m": 32, "length": 7.0, "alpha": 0.75, "epsilon_override": 0.37,
            "dt": 5e-4, "t_final": 0.03, "snapshot_stride": 3, "delta": 0.2,
            "lp_exponent": 3.0}[field]


def test_every_parameter_reaches_an_output():
    # a field a preset takes must move a CSV cell, a check value or the report;
    # both sides run to t = 0.02 on 16 sites where the preset takes them
    def outputs(run, **fields):
        result = run(**fields)
        values = [c.value for c in result.checks]
        return json.dumps(_jsonable([result.tables, values, result.report]))

    silent = []
    for name, preset in SCENARIOS.items():
        parameters = inspect.signature(preset.run).parameters
        base = {k: v for k, v in {"t_final": 0.02, "m": 16}.items() if k in parameters}
        reference = outputs(preset.run, **base)
        for field, p in parameters.items():
            if field == "seed":
                continue
            moved = {**base, field: _moved(field, base.get(field, p.default))}
            if outputs(preset.run, **moved) == reference:
                silent.append(f"{name}.{field}")
    assert silent == []


def test_energy_audit_rounds_its_step_count(monkeypatch):
    # 0.043 / 1e-3 = 42.99999999999999 in floating point
    steps = []
    real = scenarios.run_hf

    def spy(state, potential, dt, n_steps, *args):
        steps.append(n_steps)
        return real(state, potential, dt, n_steps, *args)

    monkeypatch.setattr(scenarios, "run_hf", spy)
    scenarios.scenario_energy_audit(t_final=0.043)
    assert steps == [43]
