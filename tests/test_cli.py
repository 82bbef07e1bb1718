import json

import pytest

from hflab.cli import main
from hflab.scenarios import SCENARIOS, RunConfig, build_config, run_scenario


def test_config_round_trip_bit_exact():
    cfg = build_config("fdl-verify", seed=99)
    text = cfg.to_json()
    back = RunConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text


def test_config_rejects_bad_alpha():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        RunConfig.from_json(json.dumps({"scenario": "fdl-verify", "alpha": 1.5}))


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_json(json.dumps({"scenario": "fdl-verify", "bogus": 1}))


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError, match="power of two"):
        RunConfig.from_json(json.dumps({"scenario": "fdl-verify", "m": 48}))


def test_preset_table():
    assert len(SCENARIOS) >= 8
    for name, (fn, desc) in SCENARIOS.items():
        assert callable(fn) and desc
    # documented defaults of the two-body probe
    cfg = build_config("hf-vs-exact-n2")
    assert cfg.n_particles == 2 and cfg.m == 64 and cfg.dim == 1


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
    assert manifest["runs"][0]["passed"] is True
    files = {f["name"]: f for f in manifest["runs"][0]["files"]}
    assert files["fdl_reconstruction.csv"]["module"] == "potentials_fdl"
    assert (tmp_path / "fdl-verify" / "fdl_reconstruction.csv").exists()


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
    def crash(cfg, out):
        raise RuntimeError("Chebyshev propagator needs degree 60")

    monkeypatch.setitem(SCENARIOS, "fermi-ball-1d", (crash, "crashes"))
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


def test_diagnostics_toggle_disables_companion(tmp_path):
    cfg = build_config(
        "fermi-ball-1d", seed=3, overrides={"diagnostics": {"semiclassics": False}}
    )
    result = run_scenario(cfg, tmp_path)
    assert result.passed
    assert "sup_over_N_eps" not in result.details
    assert not (tmp_path / "density_budget.csv").exists()


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
