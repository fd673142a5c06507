"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with -s (or read the captured output) to see the per-criterion
lines; each criterion is one test so the pytest report doubles as the
checklist. Stated time budgets are asserted, not aspirational.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from erglab import (
    EqRel,
    FinAction,
    FinSpace,
    FiniteRep,
    FreeModel,
    KazhdanPair,
    Perm,
    ZdModel,
    action_to_percolation,
    amplify,
    averaging_norm,
    bounds,
    cayley_ball,
    check_prop34_pairing,
    check_rho_cocycle,
    check_thm27,
    check_thm33_identity,
    choice_functions,
    coinduced_action,
    delta_u,
    full_group,
    full_group_size,
    gram_check,
    length_function,
    LengthSystem,
    load_instance,
    make_coinduce_ready,
    make_random_pair,
    min_index_set,
    phi,
    project_to_full_group,
    psi,
    sample_full_group,
    sigma,
    sweep,
    tau_character,
    theta,
    weak_metric,
)
from erglab.cli import main
from erglab.coinduce import invariant_observables as _invariant_observables
from erglab.coinduce import target_orbit_sets as _target_orbit_sets
from erglab.verify import _doubled_target


def _random_relation(m: int, rng: random.Random) -> EqRel:
    points = list(range(m))
    rng.shuffle(points)
    classes = []
    i = 0
    while i < m:
        step = rng.randint(1, m - i)
        classes.append(points[i : i + step])
        i += step
    return EqRel(m, classes)


def _random_perm(m: int, rng: random.Random) -> Perm:
    images = list(range(m))
    rng.shuffle(images)
    return Perm(tuple(images))


def _pair(size: int, seed: int):
    inst = load_instance(make_random_pair(size, seed))
    return inst.relation("E"), inst.relation("F"), inst.action("main")


def _report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS: {text}")


def test_criterion_01_theta_oracle_equivalence():
    start = time.time()
    rng = random.Random(20260819)
    kept = 0
    while kept < 500:
        m = rng.randint(2, 8)
        rel = _random_relation(m, rng)
        if full_group_size(rel) > 20000:
            continue
        s = _random_perm(m, rng)
        want = theta(rel, s)
        brute = min(delta_u(s, t) for t in full_group(rel, cap=30000))
        assert want == brute
        assert delta_u(s, project_to_full_group(rel, s)) == want
        kept += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"theta equals brute force on 500 instances, projection attains ({elapsed:.1f}s)")


def test_criterion_02_definiteness_suite():
    start = time.time()
    rng = random.Random(2)
    for i in range(200):
        m = rng.randint(2, 7)
        rel = _random_relation(m, rng)
        perms = [_random_perm(m, rng) for _ in range(rng.randint(2, 6))]
        gram = [[psi(rel, s, t) for t in perms] for s in perms]
        assert gram_check(gram, "positive").ok
    for i in range(200):
        m = rng.randint(2, 7)
        perms = [_random_perm(m, rng) for _ in range(rng.randint(2, 6))]
        if i % 2 == 0:
            gram = [[delta_u(s, t) for t in perms] for s in perms]
        else:
            sets = [rng.sample(range(m), rng.randint(1, m)) for _ in range(3)]
            gram = [[weak_metric(s, t, sets) for t in perms] for s in perms]
        assert gram_check(gram, "negative").ok
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, f"200 positive and 200 negative certificates, exact ({elapsed:.1f}s)")


def test_criterion_03_tau_character_identity():
    start = time.time()
    rng = random.Random(7)
    pairs = 0
    while pairs < 1000:
        e_rel, f_rel, _ = _pair(rng.randint(2, 10), rng.randrange(10**6))
        cs = choice_functions(e_rel, f_rel)
        for _ in range(10):
            if pairs >= 1000:
                break
            s = sample_full_group(f_rel, rng)
            assert tau_character(cs, s) == phi(e_rel, s)
            pairs += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(3, f"representation character matches capture on 1000 pairs ({elapsed:.1f}s)")


def test_criterion_04_cocycle_identities():
    rng = random.Random(4)
    for i in range(50):
        e_rel, f_rel, _ = _pair(rng.randint(2, 8), rng.randrange(10**6))
        cs = choice_functions(e_rel, f_rel)
        for _ in range(3):
            s = sample_full_group(f_rel, rng)
            t = sample_full_group(f_rel, rng)
            for x in range(f_rel.size):
                assert sigma(cs, s * t, x) == sigma(cs, s, t(x)) * sigma(cs, t, x)
    for i in range(50):
        m = rng.choice([2, 4, 6, 8])
        idx = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        inst = load_instance(make_coinduce_ready(m, idx))
        spec = inst.coinduce
        sys = coinduced_action(spec.a0, spec.b0, spec.a)
        assert check_rho_cocycle(sys) == len(spec.b0.closure()) ** 2 * m
    _report(4, "index and transport cocycle identities on 100 instances, exact")


def test_criterion_05_index_bounds():
    rng = random.Random(555)
    kept = 0
    attempts = 0
    high_c = 0
    while kept < 500:
        attempts += 1
        assert attempts < 20000
        e_rel, f_rel, action = _pair(rng.randint(2, 10), rng.randrange(10**6))
        if rng.random() < 0.5:
            s = sample_full_group(f_rel, rng)
            sp = sample_full_group(f_rel, rng)
        else:
            s = sp = Perm.identity(f_rel.size)
        report = min_index_set(e_rel, f_rel, s, sp, action)
        if report.c == 0:
            continue
        kept += 1
        assert report.m_star <= math.floor(1 / report.c)
        if report.c > Fraction(1, 2):
            assert report.m_star == 1
        if report.c > Fraction(3, 4):
            high_c += 1
            assert report.a1_measure >= 4 * report.c - 3
    _report(5, f"500 pairs with positive capture, {high_c} above 3/4, bounds exact")


def _partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def test_criterion_06_uniform_capture_bound():
    cyc = Perm(tuple((x + 1) % 5 for x in range(5)))
    action5 = FinAction(
        FinSpace(5), [("g", cyc), ("g_inv", cyc.inverse())], {"g": "g_inv", "g_inv": "g"}
    )
    count = 0
    for part in _partitions(list(range(5))):
        report = check_thm27(EqRel(5, part), action5, cap=50000)
        assert report.verdict == "pass"
        assert report.mode == "exhaustive"
        count += 1
    assert count == 52
    rng = random.Random(66)
    batch = 0
    while batch < 100:
        inst = load_instance(make_random_pair(rng.randint(2, 8), rng.randrange(10**6)))
        if full_group_size(inst.relation("F")) > 50000:
            continue
        report = check_thm27(inst.relation("E"), inst.action("main"), cap=50000)
        assert report.verdict == "pass"
        assert report.mode == "exhaustive"
        batch += 1
    _report(6, "capture bound over every full-group element, 52 partitions + 100 instances")


def test_criterion_07_coinduction_identities():
    rng = random.Random(33)
    for i in range(100):
        m = rng.choice([2, 4, 6, 8])
        idx = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        inst = load_instance(make_coinduce_ready(m, idx))
        spec = inst.coinduce
        systems = [
            coinduced_action(spec.a0, spec.b0, spec.a),
            coinduced_action(spec.a0, spec.b0, _doubled_target(spec.a0, spec.a)),
        ]
        gammas = [e.name for e in spec.b0.closure()]
        for sys in systems:
            for gamma in rng.sample(gammas, min(4, len(gammas))):
                for b_set in _target_orbit_sets(spec.a0, sys.a):
                    check_thm33_identity(sys, sorted(b_set), gamma)
                for f in _invariant_observables(spec.a0, sys.a):
                    if sys.N <= 3:
                        slots = [(k, n) for k in range(sys.N) for n in range(sys.N)]
                    else:
                        slots = [
                            (rng.randrange(sys.N), rng.randrange(sys.N)) for _ in range(6)
                        ]
                    for k, n in slots:
                        check_prop34_pairing(sys, f, k, n, gamma)
    _report(7, "overlap and pairing identities on 100 co-induction instances, all invariant sets")


def test_criterion_08_dictionary():
    # documented six-point example: rotation by one, marked set {0, 1, 3, 4}
    g = Perm(tuple((x + 1) % 6 for x in range(6)))
    action = FinAction(
        FinSpace(6), [("g", g), ("g_inv", g.inverse())], {"g": "g_inv", "g_inv": "g"}
    )
    a1 = [0, 1, 3, 4]
    rep = action_to_percolation(action, {"g": a1, "g_inv": [(x + 1) % 6 for x in a1]}, r=2)
    assert rep.phi_values["g^1"] == Fraction(2, 3)
    assert rep.cluster_probs == rep.phi_values
    rng = random.Random(88)
    for i in range(199):
        m = rng.randint(3, 10)
        step = rng.randint(1, m - 1)
        p = Perm(tuple((x + step) % m for x in range(m)))
        if p == p.inverse():
            act = FinAction(FinSpace(m), [("g", p)], {"g": "g"})
        else:
            act = FinAction(
                FinSpace(m),
                [("g", p), ("g_inv", p.inverse())],
                {"g": "g_inv", "g_inv": "g"},
            )
        marked: set[int] = set()
        for x in range(m):
            if x <= p(x) and rng.random() < 0.5:
                marked |= {x, p(x)}
        if p == p.inverse():
            a_sets = {"g": sorted(marked)}
        else:
            a_sets = {"g": sorted(marked), "g_inv": sorted(p(x) for x in marked)}
        action_to_percolation(act, a_sets, r=2)
    _report(8, "equivariance and capture/cluster equality on 200 instances, exact")


def test_criterion_09_percolation_reproduction():
    z2 = ZdModel(2)
    start = time.time()
    ball = cayley_ball(z2, z2.basis_generators(), 64)
    result = sweep(ball, [0.40, 0.44, 0.47, 0.50, 0.53, 0.56, 0.60], 200, 20260819)
    z2_elapsed = time.time() - start
    assert z2_elapsed < 60.0
    rows = sorted(result.rows, key=lambda r: r.p)
    crossing = None
    for a, b in zip(rows, rows[1:]):
        if a.theta_hat <= 0.5 <= b.theta_hat:
            crossing = a.p + (0.5 - a.theta_hat) * (b.p - a.p) / (b.theta_hat - a.theta_hat)
            break
    assert crossing is not None
    assert abs(crossing - 0.50) <= 0.05

    f2 = FreeModel(2)
    start = time.time()
    ball = cayley_ball(f2, f2.letter_generators(), 12)
    result = sweep(ball, [0.25, 0.28, 0.31, 0.34, 0.37, 0.40, 0.45], 200, 20260819)
    f2_elapsed = time.time() - start
    assert f2_elapsed < 60.0
    rows = sorted(result.rows, key=lambda r: r.p)
    slopes = [
        ((b.theta_hat - a.theta_hat) / (b.p - a.p), (a.p + b.p) / 2)
        for a, b in zip(rows, rows[1:])
    ]
    inflection = max(slopes)[1]
    assert 0.28 <= inflection <= 0.40
    _report(
        9,
        f"square-lattice crossing {crossing:.3f} ({z2_elapsed:.0f}s), "
        f"tree inflection {inflection:.3f} ({f2_elapsed:.0f}s)",
    )


def test_criterion_10_kazhdan_forms():
    # independent high-precision evaluation of the closed form
    mpmath.mp.dps = 50
    k, eps, n = 3, mpmath.mpf("0.1"), 2
    ratio = (k - eps * eps / 2) / k
    oracle = mpmath.sqrt(2 * (1 - ratio**n))
    value = amplify(KazhdanPair(3, 0.1), 2)
    assert abs(value - float(oracle)) < 1e-7

    g = Perm((1, 2, 3, 0))
    action = FinAction(
        FinSpace(4), [("g", g), ("g_inv", g.inverse())], {"g": "g_inv", "g_inv": "g"}
    )
    rep = FiniteRep.regular(action)
    q = ["g^0", "g^1", "g^3"]
    report = averaging_norm(rep, q)
    t_mat = sum(rep.matrix(name) for name in q) / 3
    ones = np.ones((4, 1)) / 2.0
    comp = np.eye(4) - ones @ ones.T
    eigs = np.linalg.eigvalsh(comp @ t_mat @ comp)
    oracle_norm = float(np.max(np.abs(eigs)))
    assert abs(oracle_norm - 1 / 3) < 1e-12
    assert abs(report.norm - 1 / 3) < 1e-9

    assert bounds("cost_a", 2, 1) == Fraction(4, 3)
    _report(10, "amplification vs 50-digit oracle, averaging norm 1/3, cost bound 4/3")


def test_criterion_11_length_scale_properties():
    rng = random.Random(1111)
    f2 = FreeModel(2)
    ls_f2 = LengthSystem(f2, f2.letter_generators())
    z2 = ZdModel(2)
    ls_z2 = LengthSystem(z2, z2.basis_generators())
    for i in range(10000):
        if i % 2 == 0:
            model, ls = f2, ls_f2
            gens = list(f2.letter_generators())
        else:
            model, ls = z2, ls_z2
            gens = list(z2.basis_generators())
        gens += [model.inv(g) for g in gens]
        w1 = model.identity()
        w2 = model.identity()
        for _ in range(rng.randint(0, 10)):
            w1 = model.mul(w1, rng.choice(gens))
        for _ in range(rng.randint(0, 10)):
            w2 = model.mul(w2, rng.choice(gens))
        n1 = length_function(ls, w1).n
        assert n1 == length_function(ls, model.inv(w1)).n
        assert length_function(ls, model.mul(w1, w2)).n <= n1 + length_function(ls, w2).n
    _report(11, "length symmetry and subadditivity on 10^4 pairs in both groups")


def test_criterion_12_determinism(tmp_path):
    perc = [
        "percolate", "--model", "z2", "--radius", "10", "--p", "0.5",
        "--trials", "60", "--seed", "12",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*perc, "--out", str(a)]) == 0
    assert main([*perc, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    base = [
        "sweep", "--model", "f2", "--radius", "5", "--grid", "0.25,0.35",
        "--trials", "45", "--seed", "12",
    ]
    w1, w3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert main([*base, "--workers", "1", "--out", str(w1)]) == 0
    assert main([*base, "--workers", "3", "--out", str(w3)]) == 0
    assert w1.read_bytes() == w3.read_bytes()

    gen = ["generate", "--kind", "random_pair", "--size", "12", "--seed", "99"]
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert main([*gen, "--out", str(g1)]) == 0
    assert main([*gen, "--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()

    ver = ["verify", "--suite", "thm25", "--count", "8", "--seed", "5"]
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main([*ver, "--out", str(v1)]) == 0
    assert main([*ver, "--out", str(v2)]) == 0
    assert v1.read_bytes() == v2.read_bytes()
    assert json.loads(v1.read_text())["seed"] == 5
    _report(12, "byte-identical reports under repetition and worker repartitioning")
