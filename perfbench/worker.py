"""One workload run in one fresh Python process.

Set-up (import erglab, write the inputs, one untimed warm-up op) ends at
`ready_at`; then the fixed op list runs serially, in passes, through
`erglab.cli.main(argv)` in this process, until the time budget is used.
With --trace 1 one more pass runs with the tracer installed. Every op's
report is checked; a failed check is a failed op, never a crash.

A fixed pure-Python loop (`calibrate`) runs before each op and after the
last one. The host's speed drifts by up to twice in phases that last
seconds to minutes, so each op's time is scaled by CALIBRATION_REF_S over
the mean of the two loop times around it (NOTES.md, "Bounds and steadiness").
`run.py` starts this file; it writes its findings to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"
DEFAULT_SEED = 1  # the seed whose report digests are frozen
MIN_PASSES = 3
CALIBRATION_ROUNDS = 5
CALIBRATION_ITEMS = 8_000  # small, so the loop never sets the process's peak RSS
# The calibration loop's median time on the reference machine (NOTES.md).
# It only sets the scale of wall_s; comparisons on one machine cancel it.
CALIBRATION_REF_S = 0.015


def import_erglab():
    """Import the checkout's erglab from src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import erglab
    import erglab.cli
    import erglab.instances

    if not Path(erglab.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"erglab was imported from {erglab.__file__}, not from {src}")
    return erglab


# -- output checks ----------------------------------------------------------------


def failed_fields(doc, where: str = "") -> list[str]:
    """Paths of every `verdict` that is not "pass" and every `ok` that is not true."""
    bad = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{where}.{key}" if where else key
            if key == "verdict" and value != "pass":
                bad.append(path)
            elif key == "ok" and value is not True:
                bad.append(path)
            else:
                bad.extend(failed_fields(value, path))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            bad.extend(failed_fields(value, f"{where}[{i}]"))
    return bad


def report_digest(path: Path) -> tuple[str, list[str]]:
    """sha256 of a report and the verdict fields that did not pass.

    CSV is hashed as written. JSON drops only the envelope's tool_version
    and is hashed in canonical form, so a version bump is not a change.
    """
    data = path.read_bytes()
    if path.suffix == ".csv":
        return hashlib.sha256(data).hexdigest(), []
    doc = json.loads(data)
    doc.pop("tool_version", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest(), failed_fields(doc)


@dataclass
class Checker:
    """Judges op outputs against frozen digests, or against the first pass."""

    reference: dict | None  # label -> digest, for the default seed
    seen: dict = field(default_factory=dict)  # label -> digest of the first pass
    attempted: int = 0
    failures: list = field(default_factory=list)

    def judge(self, op, rc, error: str | None) -> None:
        self.attempted += 1
        problem = error
        if problem is None and rc != 0:
            problem = f"exit status {rc}"
        if problem is None:
            try:
                digest, bad = report_digest(op.out)
            except (OSError, ValueError) as exc:
                problem = f"unreadable report: {exc}"
            else:
                first = self.seen.setdefault(op.label, digest)
                if bad:
                    problem = "failed fields: " + ", ".join(bad)
                elif self.reference is not None and self.reference.get(op.label) != digest:
                    problem = "report differs from the frozen reference digest"
                elif digest != first:
                    problem = "report changed between passes"
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_op(cli, op) -> tuple[float, int | None, str | None]:
    """Run one op in-process: (seconds, exit status, error text or None)."""
    with contextlib.suppress(FileNotFoundError):
        op.out.unlink()
    saved = os.environ.pop("ERGLAB_CAPS", None)
    if op.caps is not None:
        os.environ["ERGLAB_CAPS"] = op.caps
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc, error = cli.main(list(op.argv)), None
            except Exception:  # an op that raises is a failed op, not a harness crash
                rc, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
    finally:
        os.environ.pop("ERGLAB_CAPS", None)
        if saved is not None:
            os.environ["ERGLAB_CAPS"] = saved
    if error is None and rc != 0:
        error = f"exit status {rc}: {sink.getvalue().strip()[-300:]}"
    return dt, rc, error


def calibrate() -> float:
    """Seconds for a fixed allocation, sort and loop in pure Python.

    It uses no erglab code, so it measures the machine's speed at this
    moment and nothing of the program. The collector is off while it
    runs, so the program's heap does not change its cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            table = {i: (i, i * 0.5, [i]) for i in range(CALIBRATION_ITEMS)}
            rows = sorted(table.values(), key=lambda row: -row[1])
            total = 0
            for a, _, c in rows:
                total += a * len(c)
            del table, rows
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_pass(cli, ops, checker: Checker, tracer=None) -> tuple[list[float], list[float]]:
    """Run the op list once: each op's wall time, and the calibration time around it."""
    times, cals = [], [calibrate()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        dt, rc, error = run_op(cli, op)
        times.append(dt)
        cals.append(calibrate())
        checker.judge(op, rc, error)
    return times, [(a + b) / 2 for a, b in zip(cals, cals[1:])]


def scaled_wall_s(op_s: list[list[float]], cal_s: list[list[float]]) -> float:
    """Sum over ops of the median, over passes, of the op's speed-scaled time."""
    return sum(
        statistics.median(t * CALIBRATION_REF_S / c for t, c in zip(times, cals))
        for times, cals in zip(zip(*op_s), zip(*cal_s))
    )


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(tracer, names, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Value of every per-layer metric named in BENCHMARK.json."""
    self_s = tracer.self_seconds()
    counts = tracer.counts
    derived = {
        "percolation.labelings": counts["percolation.connected_components.calls"],
        "percolation.labelings_per_trial": _ratio(
            tracer.count_under("percolation.connected_components", "percolation.sweep"),
            tracer.count_under("rng.uniforms", "percolation.sweep"),
        ),
        "coinduce.materialized_ratio": _ratio(
            counts["coinduce.materialized"], counts["coinduce.systems"]
        ),
        "coinduce.product_points": counts["coinduce.product_points"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts[name]
    return values


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- main -------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    erglab = import_erglab()
    warm, ops = workloads.build(args.workload, args.seed, args.workdir, erglab.instances)
    references = json.loads(REFERENCE_DIGESTS.read_text())
    reference = references.get(args.workload, {}) if args.seed == DEFAULT_SEED else None
    checker = Checker(reference)
    _, _, error = run_op(erglab.cli, warm)
    ready_at = time.monotonic()
    # setup_s is scaled like the ops, by the machine's speed just after set-up
    result = {"ready_at": ready_at,
              "setup_scale": CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(3))}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0
    checker.attempted += 1  # the warm-up is judged by its exit status only
    if error is not None:
        checker.failures.append(f"{warm.label}: {error}")

    op_s, cal_s = [], []  # [k][i]: op i of pass k, and the calibration around it
    last = 0.0
    while len(op_s) < MIN_PASSES or (time.monotonic() - ready_at) + last <= args.seconds:
        started = time.monotonic()
        times, cals = run_pass(erglab.cli, ops, checker)
        op_s.append(times)
        cal_s.append(cals)
        last = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = [sum(times) for times in op_s]
    result.update(op_s=op_s, cal_s=cal_s, pass_s=pass_s, wall_s=scaled_wall_s(op_s, cal_s),
                  wall_raw_s=statistics.median(pass_s), peak_rss_mb=peak_rss_mb)

    if args.trace:
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        tr = tracing.Tracer()
        tr.install()
        try:
            traced_s = sum(run_pass(erglab.cli, ops, checker, tracer=tr)[0])
        finally:
            tr.restore()
        tr.save(args.workdir / "spans.npz")
        result["traced_pass_s"] = traced_s
        result["per_layer"] = layer_metrics(tr, names, traced_s, result["wall_raw_s"])

    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        digests=checker.seen,
    )
    args.result.write_text(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
