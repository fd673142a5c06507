"""erglab benchmark: drive the `erglab` CLI as users run it and report metrics.

    python3 perfbench/run.py --workload sweep_tree --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are taken from this file. The checkout's src/
must hold erglab. Each run starts one fresh Python process (worker.py)
for the workload; before it, SETUP_SAMPLES - 1 more processes run set-up
only, and setup_s is the median over all of them. Times are scaled by
the machine's measured speed (worker.calibrate); NOTES.md says why.
Intermediate results, recorded digests and spans go to
.perfbench_work/<workload>-seed<seed>/.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per-layer with --trace 1, as
BENCHMARK.json lists them).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    """The worker's environment: one BLAS thread, no cap overrides, fixed hashing."""
    env = dict(os.environ)
    env.pop("ERGLAB_CAPS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def machine(env: dict[str, str]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
    }


def spawn(args, workdir: Path, env, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion; return its result with setup_s."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the worker did not finish in time") from None
    if rc != 0:
        raise RuntimeError(f"the worker exited with status {rc}")
    result = json.loads(result_path.read_text())
    result["setup_raw_s"] = result["ready_at"] - spawned_at
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one run from the worker's result."""
    attempted, failed = result["attempted"], result["failed"]
    return {
        "wall_s": result["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="erglab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "erglab" / "__init__.py").is_file():
        print(f"error: no erglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    try:
        samples = [
            spawn(args, workdir / f"setup-{i}", env, deadline, setup_only=True)
            for i in range(SETUP_SAMPLES - 1)
        ]
        setups = [sample["setup_s"] for sample in samples]
        raw_setups = [sample["setup_raw_s"] for sample in samples]
        result = spawn(args, workdir / "run", env, deadline, setup_only=False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_raw_s"] = statistics.median(raw_setups + [result["setup_raw_s"]])
    result["machine"] = machine(env)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        listed, values = spec["per_layer"], result["per_layer"]
    else:
        listed, values = spec["end_to_end"], end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result["metrics"] = metrics
    (workdir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True))

    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for failure in result["failures"]:
        print("FAILED " + failure)
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # unscaled, for reference only: these follow the host's speed phases
        print(f"wall_raw_s {result['wall_raw_s']:.6g} s (median pass, unscaled)")
        print(f"setup_raw_s {result['setup_raw_s']:.6g} s (median, unscaled)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
