"""Command-line runner: scenario execution, preset listing, full verification.

Verbs:
    run             one scenario (--scenario, optional --config/--seed/--out)
    list-scenarios  static preset table
    verify          every preset with derived seeds; exit 0 iff all audits pass

Exit codes: 0 pass, 1 audit failure or a preset that raised, 2 usage or
configuration error.  CSV bodies are deterministic given (config, seed) and
the BLAS thread count; the manifest records the thread variables, and
timestamps appear only there.  The self-exchange's second thread does not
enter: its sums run in a fixed order, so the bits do not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import hflab
from hflab.scenarios import SCENARIOS, RunConfig, build_config, run_scenario


def _load_config(path: str, scenario: str | None, seed: int | None) -> RunConfig:
    """The file's fields over the preset defaults of its scenario; --seed wins over both."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("a config file holds one JSON object")
    name = data.pop("scenario", None)
    return build_config(name if scenario is None else scenario, seed, overrides=data)


def _write_manifest(out: Path, entries: list) -> None:
    manifest = {
        "package": "hflab",
        "version": hflab.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # BLAS reductions split by thread, so the last digits follow these
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "runs": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _config(cfg: RunConfig) -> dict:
    """The manifest's config: the preset, its seed and the fields its run takes, no more."""
    return {"scenario": cfg.scenario, "seed": cfg.seed, **cfg.fields}


def _result_entry(cfg: RunConfig, result) -> dict:
    # everything here is a function of (config, seed): wall times and other
    # run-to-run values belong beside "runs", which must stay comparable
    return {
        "scenario": cfg.scenario,
        "config": _config(cfg),
        "passed": result.passed,
        "checks": _jsonable(
            [{**dataclasses.asdict(c), "passed": c.passed} for c in result.checks]
        ),
        "report": _jsonable(result.report),
        "files": sorted(result.tables),
    }


def _error_entry(cfg: RunConfig, exc: Exception) -> dict:
    """The manifest entry of a preset that raised instead of returning a result."""
    return {"scenario": cfg.scenario, "config": _config(cfg), "passed": False,
            "error": f"{type(exc).__name__}: {exc}"}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def cmd_run(args) -> int:
    try:
        if args.config:
            cfg = _load_config(args.config, args.scenario, args.seed)
        else:
            if not args.scenario:
                print("error: provide --scenario or --config", file=sys.stderr)
                return 2
            cfg = build_config(args.scenario, seed=args.seed)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) / cfg.scenario
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_scenario(cfg, out)
    except ValueError as exc:  # a config the preset cannot honour
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the run itself failed, as verify records it
        print(f"{cfg.scenario}: ERROR ({exc})")
        _write_manifest(out, [_error_entry(cfg, exc)])
        return 1
    _write_manifest(out, [_result_entry(cfg, result)])
    status = "PASS" if result.passed else "FAIL"
    print(f"{cfg.scenario}: {status}")
    for c in result.checks:
        print(f"  {c.name}: {c.value} {c.relation} {c.bound} {'ok' if c.passed else 'FAILED'}")
    for key, val in result.report.items():
        print(f"  {key}: {val}")
    return 0 if result.passed else 1


def cmd_list(_args) -> int:
    rows = []
    for name, preset in SCENARIOS.items():
        rows.append((name, preset.run.__module__ + "." + preset.run.__name__, preset.description))
    width = max(len(r[0]) for r in rows)
    for name, entry_point, desc in rows:
        print(f"{name:<{width}}  {desc}")
        print(f"{'':<{width}}  entry: {entry_point}")
    return 0


def cmd_verify(args) -> int:
    names = args.scenarios.split(",") if args.scenarios else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"error: unknown scenario '{unknown[0]}'", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    all_pass = True
    for idx, name in enumerate(names):
        cfg = build_config(name, seed=args.seed + idx)
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        try:
            result = run_scenario(cfg, sub)
        except (ValueError, RuntimeError) as exc:
            print(f"{name}: ERROR ({exc})")
            entries.append(_error_entry(cfg, exc))
            all_pass = False
            continue
        entries.append(_result_entry(cfg, result))
        all_pass = all_pass and result.passed
        print(f"{name}: {'PASS' if result.passed else 'FAIL'}")
    _write_manifest(out, entries)
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hflab", description="mean-field fermion laboratory"
    )
    sub = parser.add_subparsers(dest="verb")

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", help="preset name (see list-scenarios)")
    p_run.add_argument("--config", help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="runs")

    sub.add_parser("list-scenarios", help="print the preset table")

    p_ver = sub.add_parser("verify", help="run the full audit suite")
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument("--out", default="runs/verify")
    p_ver.add_argument("--scenarios", help="comma-separated subset", default=None)

    args = parser.parse_args(argv)
    if args.verb == "run":
        return cmd_run(args)
    if args.verb == "list-scenarios":
        return cmd_list(args)
    if args.verb == "verify":
        return cmd_verify(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
