"""Tests of the benchmark's own machinery: span arithmetic, patching, checks."""

from __future__ import annotations

import inspect

import pytest

import run
import tracer
import worker
from workloads import Op

erglab = worker.import_erglab()


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 100] holds leaf [10, 30] and mid [40, 90]; mid holds leaf [50, 70]
    tr = tracer.Tracer(clock=_fake_clock([0, 10, 30, 40, 50, 70, 90, 100]))
    outer = tr.open(tr._name("x.outer"))
    leaf = tr.open(tr._name("x.leaf"))
    tr.close(leaf)
    mid = tr.open(tr._name("x.mid"))
    leaf = tr.open(tr._name("x.leaf"))
    tr.close(leaf)
    tr.close(mid)
    tr.close(outer)
    own = tr.self_seconds()
    assert own["x.outer"] == pytest.approx(30e-9)
    assert own["x.mid"] == pytest.approx(30e-9)
    assert own["x.leaf"] == pytest.approx(40e-9)
    assert tr.count_under("x.leaf", "x.mid") == 1
    assert tr.count_under("x.leaf", "x.outer") == 2


def _namespaces() -> dict:
    spaces = {name: dict(vars(mod)) for name, mod in tracer.erglab_modules().items()}
    for short, cls_name, _ in tracer.METHODS:
        cls = getattr(erglab, short).__dict__[cls_name]
        spaces[f"{short}.{cls_name}"] = dict(cls.__dict__)
    return spaces


def _same(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        before[k].keys() == after[k].keys()
        and all(before[k][a] is after[k][a] for a in before[k])
        for k in before
    )


def test_install_wraps_every_binding_and_restore_undoes_it(tmp_path):
    before = _namespaces()
    original_ball = erglab.percolation.cayley_ball
    tr = tracer.Tracer()
    tr.install()
    try:
        # the CLI binds these by name; wrapping only the defining module would miss them
        assert erglab.cli.cayley_ball is not original_ball
        assert erglab.cli.cayley_ball is erglab.percolation.cayley_ball
        assert inspect.unwrap(erglab.cli.sweep) is before["erglab.percolation"]["sweep"]
        tr.op_id = 0
        rc = erglab.cli.main([
            "sweep", "--model", "z2", "--radius", "3", "--grid", "0.4,0.6",
            "--trials", "2", "--out", str(tmp_path / "s.csv"),
        ])
    finally:
        tr.restore()
    assert rc == 0
    assert _same(before, _namespaces())
    assert tr.counts["percolation.sweep.calls"] == 1
    assert tr.counts["percolation.connected_components.calls"] == 4
    assert tr.count_under("percolation.cayley_ball", "cli.main") == 1
    assert tr.count_under("percolation.connected_components", "percolation.sweep") == 4


def test_corrupted_reference_digest_counts_as_failed_op(tmp_path):
    ops = [
        Op(f"amplify-{n}", ("kazhdan", "amplify", "--k", "3", "--eps", "0.1", "--n", str(n),
                            "--out", str(tmp_path / f"{n}.json")), tmp_path / f"{n}.json")
        for n in (2, 3)
    ]
    recorded = worker.Checker(reference=None)
    worker.run_pass(erglab.cli, ops, recorded)
    assert recorded.failed == 0

    reference = dict(recorded.seen)
    reference["amplify-3"] = "0" * 64
    checker = worker.Checker(reference=reference)
    worker.run_pass(erglab.cli, ops, checker)
    assert checker.failures == ["amplify-3: report differs from the frozen reference digest"]
    result = {"attempted": checker.attempted, "failed": checker.failed,
              "wall_s": 1.0, "peak_rss_mb": 1.0}
    assert run.end_to_end(result, [1.0])["pass_frac"] == 0.5


def test_scaled_wall_s_cancels_machine_speed():
    ref = worker.CALIBRATION_REF_S
    # op 0 takes 1 s and op 1 takes 2 s at reference speed; pass 1 runs at half speed
    op_s = [[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]]
    cal_s = [[ref, ref], [2 * ref, 2 * ref], [ref, ref]]
    assert worker.scaled_wall_s(op_s, cal_s) == pytest.approx(3.0)
    # the median over passes drops one pass that the scale did not explain
    op_s[1] = [9.0, 9.0]
    assert worker.scaled_wall_s(op_s, cal_s) == pytest.approx(3.0)
