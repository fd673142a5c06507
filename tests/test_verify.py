"""Verification suites: coverage, determinism, and result reporting."""

import itertools
import random
from fractions import Fraction

import pytest

from erglab import (
    SUITE_NAMES,
    FinAction,
    FinSpace,
    FreeGroupAction,
    Perm,
    SuiteResult,
    ValidationError,
    run_all,
    run_suite,
)
from erglab.verify import _autocorrelation, _shift_action


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_on_generated_instances(name):
    result = run_suite(name, seed=0)
    assert result.ok, result.failures
    assert result.suite == name
    assert result.checked > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown verify suite"):
        run_suite("prop99")


def test_count_and_size_are_honored():
    result = run_suite("prop11", count=5, size=4, seed=3)
    assert result.checked == 5
    assert result.ok


def test_suites_are_deterministic():
    a = run_suite("thm25", count=10, seed=42)
    b = run_suite("thm25", count=10, seed=42)
    assert a == b


def test_run_all_covers_every_suite():
    results = run_all(seed=1)
    assert [r.suite for r in results] == list(SUITE_NAMES)
    assert all(r.ok for r in results)


def test_summary_formats():
    good = SuiteResult("prop11", 500, ())
    assert good.summary() == "prop11: PASS, 500/500"
    assert good.ok
    bad = SuiteResult("thm27", 40, ("instance 3: min capture 0 below 1",))
    assert bad.summary() == "thm27: FAIL, 39/40"
    assert not bad.ok


@pytest.mark.parametrize("seed", [0, 1, 7, 20260819])
def test_seed_sweep_stays_green(seed):
    for name in ("definiteness", "thm25", "coinduce_identities", "kazhdan_forms"):
        result = run_suite(name, count=8, seed=seed)
        assert result.ok, (name, result.failures)


def _s3_left_regular() -> FinAction:
    elems = [Perm(p) for p in itertools.permutations(range(3))]
    where = {e: i for i, e in enumerate(elems)}
    gens = [(name, Perm([where[s * e] for e in elems])) for name, s in
            [("s", Perm((1, 0, 2))), ("t", Perm((0, 2, 1)))]]
    return FinAction(FinSpace(6), gens, {"s": "s", "t": "t"})


def test_kazhdan_forms_psi_is_the_autocorrelation_of_the_weights():
    # the index-grid psi table against N^2 scalar products by name, on
    # abelian shifts and on the non-abelian S_3, where g^-1 h != h g^-1
    rng = random.Random(3)
    actions = [_shift_action(m, step) for m, step in [(4, 1), (6, 2), (8, 4), (8, 1)]]
    for a0 in map(FreeGroupAction, [*actions, _s3_left_regular()]):
        for _ in range(3):
            w = {e.name: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in a0.elements}
            want = {
                g.name: sum(
                    (w[a0.mult(a0.inverse_name(g.name), h.name)] * w[h.name] for h in a0.elements),
                    Fraction(0),
                )
                for g in a0.elements
            }
            got = _autocorrelation(a0, w)
            assert list(got.items()) == list(want.items())
