"""hflab benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload body back to back, starting another body only
while it is expected to end within S seconds (always at least one; verify
makes exactly one), and prints the end-to-end metrics of BENCHMARK.json.
--trace 1 runs a traced body between untraced ones and prints the per-layer
metrics.  Both modes check the program's outputs.  The last line of stdout is
the JSON result; lines before it give the environment and a readable summary.

BLAS/OpenMP thread variables are pinned to 1 before numpy loads, so every
figure is a plain single-threaded run.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import (  # noqa: E402
    FFT_BYTES_PER_POINT,
    KERNEL_LAYER,
    KERNELS,
    LAYERS,
    STEP_FUNCTION,
    Tracer,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hflab" / "__init__.py").is_file():
        print(f"error: no hflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hflab

    if Path(hflab.__file__).resolve().parent != SRC / "hflab":
        print(f"error: imported hflab from {hflab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            result, summary = traced_run(workloads, args, scratch, spec["per_layer"])
        else:
            result, summary = plain_run(workloads, args, scratch, spec["end_to_end"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    print("environment " + json.dumps(environment(workloads), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


def plain_run(workloads, args, scratch, metric_specs):
    """Untraced run: end-to-end metrics over as many bodies as fit in --seconds."""
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    inputs = workloads.build(args.workload, args.seed)
    workloads.warm_up(args.workload, inputs)
    bodies, steps, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out = workloads.run_body(args.workload, inputs, scratch / f"body{len(bodies)}")
        bodies.append(time.perf_counter() - began)
        steps.extend(out.step_s)
        outcomes.append(out)
        if (len(bodies) == workloads.MAX_BODIES.get(args.workload)
                or time.perf_counter() - start + bodies[-1] > args.seconds):
            break
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # every body starts from the same inputs, so every result must repeat exactly
    attempted += len(outcomes) - 1
    failed += sum(o.fingerprint != outcomes[0].fingerprint for o in outcomes[1:])
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(bodies),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "workload": args.workload,
        "loop": "closed, one caller",
        "bodies": len(bodies),
        "step_samples": len(steps),
        "setup_samples": len(setup),
        "failed_share": failed / attempted,
        **values,
    }
    return result_json(failed, attempted, values, metric_specs), summary


def traced_run(workloads, args, scratch, metric_specs):
    """A traced body between untraced ones; per-layer metrics from the traced body."""
    inputs = workloads.build(args.workload, args.seed)
    # A process's first body runs cold (likely allocator growth and lazy
    # library imports) and later ones keep warming a little, so the traced
    # body is compared with the mean of the untraced bodies around it.
    untraced, plain_s, cpu_s = [], [], []
    tracer = Tracer()

    def plain_body(label):
        wall, cpu = time.perf_counter(), time.process_time()
        untraced.append(workloads.run_body(args.workload, inputs, scratch / label))
        plain_s.append(time.perf_counter() - wall)
        cpu_s.append(time.process_time() - cpu)

    plain_body("cold")
    plain_body("before")
    with tracer.installed():
        traced_inputs = workloads.build(args.workload, args.seed)
        began = time.perf_counter()
        traced = workloads.run_body(args.workload, traced_inputs, scratch / "traced")
        traced_s = time.perf_counter() - began
    plain_body("after")
    untraced_s = statistics.mean(plain_s[1:])

    identical = all(out.fingerprint == traced.fingerprint for out in untraced)
    attempted = sum(out.attempted for out in untraced) + traced.attempted + 2
    failed = (sum(out.failed for out in untraced) + traced.failed
              + (not identical) + bool(tracer.restore_leftovers))
    extra = {
        "failed_share": failed / attempted,
        "process.cpu_s": statistics.mean(cpu_s[1:]),
        "trace.overhead_s": traced_s - untraced_s,
        "cli.output_files": traced.output_files,
        "cli.output_bytes": traced.output_bytes,
    }
    values = {m["name"]: layer_metric(tracer, m["name"], extra) for m in metric_specs}
    summary = {
        "workload": args.workload,
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
        "results_identical": identical,
        "bindings_left_wrapped": tracer.restore_leftovers,
    }
    return result_json(failed, attempted, values, metric_specs), summary


def layer_metric(tracer, name, extra):
    """Value of one per-layer metric named `<span>.<stat>` in BENCHMARK.json.

    <span> is a kernel, a layer (module) or a public hflab function.  A
    function that no longer exists reads 0, so a refactor does not stop the
    benchmark; the name is reported on stderr.
    """
    steps = tracer.step_calls
    step = tracer.get("hartree_fock", STEP_FUNCTION)
    special = {
        **extra,
        "hf_step.calls": step.calls,
        "hf_step.self_s": step.self_s + tracer.get("hartree_fock", "hf_step").self_s,
        "hf_step.alloc_peak_mb": tracer.step_alloc_peak_mb,
        "fft.points_per_step": tracer.fft_points_in_step / steps if steps else 0.0,
        "fft.gflops_computed": tracer.fft_flops / 1e9,
        "fft.gb_computed": tracer.fft_points * FFT_BYTES_PER_POINT / 1e9,
    }
    if name in special:
        return special[name]
    span, stat = name.rsplit(".", 1)
    if span.startswith("run_scenario."):
        return tracer.preset_s.get(span.split(".", 1)[1], 0.0)
    if (span in LAYERS or span == KERNEL_LAYER) and stat == "self_s":
        return tracer.layer_self_s(span)
    if span in KERNELS:
        stats = tracer.get(KERNEL_LAYER, span)
    else:
        found = [s for (layer, fn), s in tracer.stats.items()
                 if fn == span and layer != KERNEL_LAYER]
        if len(found) > 1:
            raise ValueError(f"metric {name}: '{span}' names several functions")
        if not found:
            print(f"note: metric {name} has no traced function; reads 0", file=sys.stderr)
        stats = found[0] if found else tracer.get("", span)
    per_step = stats.calls_in_step / steps if steps else 0.0
    return {"calls": stats.calls, "self_s": stats.self_s, "calls_per_step": per_step}[stat]


def result_json(failed, attempted, values, metric_specs):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment(workloads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    spec = workloads.TDHF["tdhf-3d"]
    pair_bytes = spec.n_particles**2 * spec.m**spec.dim * 16
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
        "llc_mib": llc_mib(),
        "tdhf_3d_pair_array_mib_computed": pair_bytes / 2**20,
    }


def git_sha():
    """HEAD of the checkout's git repository, or None when it is not one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def llc_mib():
    """Size of the highest cache level of cpu0 in MiB, read from sysfs (None if absent)."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 2**20)
        mib = float(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, mib)
    return best[1] if best else None


if __name__ == "__main__":
    sys.exit(main())
