"""End-to-end and per-layer benchmark of the `squidring` CLI.

    python3 perfbench/run.py --workload ramp --seed 0 --seconds 55 --trace 0

Each iteration starts one fresh Python process (`child.py`) that imports
squidring from this checkout's `src` and calls `squidring.cli.main` once,
the path a user takes. Iterations run one at a time (a closed loop with one
client) for about `--seconds`: an iteration starts only if it would likely
reach half-way before then. `--workload all` interleaves the three
workloads round-robin and prints every metric of each.

Every iteration's outputs are checked (`workloads.py`); an iteration that
exits non-zero or fails a check counts as failed and is not timed.
With `--trace 0` the result holds the end-to-end metrics (medians over
iterations; times at reference speed, see `at_reference_speed`). With
`--trace 1` iterations alternate between traced and untraced, and the result
holds the per-layer metrics of the traced ones plus `trace.overhead_s`,
traced minus untraced median wall time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A log of the run (machine,
library versions, resolved configs, every sample) goes to `.perfbench/log/`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# name, unit
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
# layers reported with call count and self time
TIMED_LAYERS = ("circuit.model_build", "circuit.assembly", "dynamics.tdse",
                "dynamics.lindblad", "observables.records", "observables.component_energy",
                "observables.labeled_basis", "observables.time_average", "linalg.vn_entropy")
# name, layer, key in the layer's totals, unit
LAYER_METRICS = tuple(
    (f"{layer}.{key}", layer, key, unit)
    for layer in TIMED_LAYERS for key, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("linalg.partial_trace.calls", "linalg.partial_trace", "calls", "count"),
    ("experiments.self_s", "experiments", "self_s", "s"),
    ("experiments.overlap", "experiments", "overlap", "ratio"),
    ("cli.config.self_s", "cli.config", "self_s", "s"),
    ("cli.write.self_s", "cli.write", "self_s", "s"),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SQUIDRING_THREADS")
RUN_LIMIT_S = 175.0   # a run with --seconds <= 100 ends within this many seconds
# Time metrics are reported at the machine speed at which reference_kernel_s()
# takes this long on average: its mean on the 2-vCPU x86_64 VM of the
# baseline in README.md, in a quiet period.
KERNEL_REF_S = 0.15
KERNEL_SAMPLES = 6    # reference kernel samples timed before each iteration
AT_REFERENCE_SPEED = ("wall_s", "setup_s", "cpu_s")


def reference_kernel_s() -> float:
    """Time of a fixed kernel shaped like the workloads: an RK4 loop of 16-dim
    complex matrix-vector products (the TDSE) and 40 x 40 `eigh` calls (the
    model builds)."""
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = h + h.conj().T
    m = rng.standard_normal((40, 40))
    m = m + m.T
    start = time.perf_counter()
    psi = np.ones(16, dtype=complex) / 4.0
    dt = 1e-3
    for _ in range(6000):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h @ (psi + dt * k3))
        psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    for _ in range(120):
        np.linalg.eigh(m)
    return time.perf_counter() - start


def kernel_samples() -> list[float]:
    """KERNEL_SAMPLES reference kernel times, taken in turn on each CPU this
    process may use: the host slows its CPUs separately, and `sweep` uses
    all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for i in range(KERNEL_SAMPLES):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            times.append(reference_kernel_s())
    finally:
        os.sched_setaffinity(0, cpus)   # the child inherits it
    return times


def at_reference_speed(values: list[float], kernel: list[float]) -> float:
    """Median of `values`, scaled to a machine on which the reference kernel
    takes KERNEL_REF_S on average.

    The host's speed drifts by up to 1.7x over tens of minutes, far beyond
    the bounds; the kernel, timed between iterations of the same run, slows
    with it, and the ratio cancels the drift. The kernel's mean, not its
    median, because an iteration's time sums its slow and fast stretches.
    """
    return statistics.median(values) * KERNEL_REF_S / statistics.mean(kernel)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def spawn_child(result_path: Path, traced: bool, cli_args: list[str], timeout: float):
    """Run child.py once; returns (spawn time, completed process, result or None)."""
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
           "1" if traced else "0", *cli_args]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return spawned, proc, result


def iterate(name: str, seed: int, traced: bool, timeout: float) -> dict:
    """One checked run of a workload; "errors" is empty when it passed."""
    workload = WORKLOADS[name]
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = WORK / "config.json"
    config_path.write_text(json.dumps(workload.config(seed)))
    sample = {"workload": name, "seed": seed, "traced": traced,
              "kernel_s": kernel_samples(), "errors": []}
    try:
        spawned, proc, result = spawn_child(
            WORK / "result.json", traced, workload.argv(config_path, out), timeout)
    except subprocess.TimeoutExpired:
        sample["errors"].append(f"timed out after {timeout:.0f} s")
        return sample
    if proc.returncode != 0 or result is None or result.get("exit_code") != 0:
        sample["errors"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return sample
    sample["errors"] = workload.check(out, seed)
    sample["resolved_config"] = json.loads((out / "resolved_config.json").read_text())
    sample["bytes_out"] = sum(p.stat().st_size for p in out.iterdir())
    sample["setup_s"] = result["entered"] - spawned
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "layers", "missing"):
        if key in result:
            sample[key] = result[key]
    return sample


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least 10 samples
    above it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p * n / 100) - 1)]


def summarize(name: str, samples: list[dict], trace: bool,
              kernel: list[float]) -> tuple[dict, list[str]]:
    """Metrics of one workload ({metric: {"value", "unit"}}) and report lines;
    `kernel` holds every reference kernel sample of the run."""
    good = [s for s in samples if not s["errors"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics, lines = {}, []
    lines.append(f"{name}: {len(samples)} attempted, {len(samples) - len(good)} failed")
    if not trace:
        for metric, unit in END_TO_END:
            values = [s[metric] for s in plain]
            if not values:
                continue
            median = statistics.median(values)
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.4f}" if tail
                         else "no tail percentile (needs > 10 samples)")
            if metric in AT_REFERENCE_SPEED:
                value = at_reference_speed(values, kernel)
                how = f"at reference speed; as measured: median {median:.4f}"
            else:
                value, how = median, "median"
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"  {metric:<12} {value:10.4f} {unit:<4} {how}, {tail_text}, "
                         f"n={len(values)}")
        return metrics, lines

    for metric, layer, key, unit in LAYER_METRICS:
        values = [s["layers"][layer][key] for s in traced if key in s["layers"].get(layer, {})]
        if len(values) == len(traced) and values:
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    if traced:
        metrics["cli.bytes_out"] = {
            "value": statistics.median(s["bytes_out"] for s in traced), "unit": "B"}
    if traced and plain:
        overhead = (statistics.median(s["wall_s"] for s in traced)
                    - statistics.median(s["wall_s"] for s in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    missing = sorted({m for s in traced for m in s.get("missing", [])})
    if missing:
        lines.append(f"  tracer targets not found: {', '.join(missing)}")
    for metric, m in metrics.items():
        lines.append(f"  {metric:<34} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  (traced n={len(traced)}, untraced n={len(plain)})")
    return metrics, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "squidring" / "cli.py").is_file():
        print(f"no squidring sources at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    start = time.monotonic()
    limit = start + max(RUN_LIMIT_S, args.seconds + 75.0)
    env = environment()

    # warm the file cache (and bytecode cache, if written) of the imports; not timed
    _, warm, _ = spawn_child(WORK / "result.json", False, [], limit - start)
    if warm.returncode != 0:
        print(f"squidring does not import: {warm.stderr.strip()[-2000:]}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    samples = {name: [] for name in names}
    durations = {name: [] for name in names}
    rounds = 0
    while True:
        # a traced run needs a traced and an untraced round per workload; an
        # iteration starts only if it would reach half-way before the deadline,
        # so a run lasts --seconds rounded to whole iterations
        if rounds >= (2 if trace else 1) and any(
                time.monotonic() + statistics.median(durations[n]) / 2 > deadline
                for n in names):
            break
        for name in names:
            began = time.monotonic()
            traced = trace and rounds % 2 == 0
            sample = iterate(name, args.seed, traced, max(5.0, limit - began))
            durations[name].append(time.monotonic() - began)
            samples[name].append(sample)
            for error in sample["errors"]:
                print(f"{name} seed {args.seed}: {error}", file=sys.stderr)
        rounds += 1

    metrics, attempted, failed = {}, 0, 0
    kernel = [k for name in names for s in samples[name] for k in s["kernel_s"]]
    print(f"squidring benchmark: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}")
    print(f"reference kernel: mean {statistics.mean(kernel) * 1e3:.1f} ms "
          f"(reference {KERNEL_REF_S * 1e3:.1f} ms), min {min(kernel) * 1e3:.1f}, "
          f"max {max(kernel) * 1e3:.1f}, n={len(kernel)}")
    for name in names:
        found, lines = summarize(name, samples[name], trace, kernel)
        print("\n".join(lines))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += len(samples[name])
        failed += sum(bool(s["errors"]) for s in samples[name])
    print(f"failed {failed} of {attempted} attempted")

    log_dir = WORK / "log"
    log_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (log_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, "samples": samples}, indent=1))
    shutil.rmtree(WORK / "out", ignore_errors=True)

    correct = failed == 0 and all(
        any(not s["errors"] and s["traced"] == trace for s in samples[n]) for n in names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
