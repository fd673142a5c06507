"""Seeded verification suites over generated instances.

Each suite draws a reproducible batch of instances, checks one family
of exact identities, and reports how many instances were checked and
which ones failed. A failure here means a violated identity, not a
malformed input; callers treat it as a bug signal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kazhdan
from .coinduce import (
    FreeGroupAction,
    TargetAction,
    check_prop34_pairings,
    check_rho_cocycle,
    check_thm33_identity,
    coinduced_action,
    invariant_observables,
    target_orbit_sets,
)
from .ergcore import (
    EqRel,
    FinAction,
    FinSpace,
    Perm,
    delta_u,
    full_group_table,
    gram_check,
    hit_counts,
    project_to_full_group,
    psi,
    sample_full_group,
    theta,
    weak_metric,
)
from .errors import CheckFailed, ValidationError
from .instances import load_instance, make_coinduce_ready, make_random_pair
from .percolation import (
    FreeModel,
    LengthSystem,
    ZdModel,
    action_to_percolation,
    length_function,
)
from .subrel import check_thm27, choice_functions, min_index_set, sigma


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.suite}: {status}, {self.checked - len(self.failures)}/{self.checked}"


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


def _pair_instance(size: int, seed: int):
    inst = load_instance(make_random_pair(size, seed))
    return inst.relation("E"), inst.relation("F"), inst.action("main")


def _shift_action(m: int, step: int, label: str = "d") -> FinAction:
    p = Perm(tuple((x + step) % m for x in range(m)))
    if p == p.inverse():
        return FinAction(FinSpace(m), [(label, p)], {label: label})
    inv = label + "_inv"
    return FinAction(
        FinSpace(m), [(label, p), (inv, p.inverse())], {label: inv, inv: label}
    )


def suite_definiteness(count: int = 40, size: int = 6, seed: int = 0) -> SuiteResult:
    """Pair-capture Grams are positive; uniform and weak metrics are negative."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        m = rng.randint(2, size)
        rel = _random_relation(m, rng)
        perms = [_random_perm(m, rng) for _ in range(rng.randint(2, 6))]
        gram_pos = [[psi(rel, s, t) for t in perms] for s in perms]
        if not gram_check(gram_pos, "positive").ok:
            failures.append(f"instance {i}: capture gram not positive")
            continue
        gram_neg = [[delta_u(s, t) for t in perms] for s in perms]
        if not gram_check(gram_neg, "negative").ok:
            failures.append(f"instance {i}: uniform metric not negative")
            continue
        sets = [rng.sample(range(m), rng.randint(1, m)) for _ in range(3)]
        gram_wm = [[weak_metric(s, t, sets) for t in perms] for s in perms]
        if not gram_check(gram_wm, "negative").ok:
            failures.append(f"instance {i}: weak metric not negative")
    return SuiteResult("definiteness", count, tuple(failures))


def suite_prop11(count: int = 50, size: int = 7, seed: int = 0) -> SuiteResult:
    """theta equals the brute-force distance to the full group."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        m = rng.randint(2, size)
        rel = _random_relation(m, rng)
        s = _random_perm(m, rng)
        want = theta(rel, s)
        # exhaustive: the most points any full-group element agrees with s on
        agree = hit_counts(full_group_table(rel, cap=50000), s.images)
        brute = Fraction(m - int(agree.max()), m)
        proj = project_to_full_group(rel, s)
        if want != brute:
            failures.append(f"instance {i}: theta {want} vs brute force {brute}")
        elif delta_u(s, proj) != want:
            failures.append(f"instance {i}: projection misses the minimum")
    return SuiteResult("prop11", count, tuple(failures))


def suite_cocycle(count: int = 30, size: int = 8, seed: int = 0) -> SuiteResult:
    """Index and transport cocycle identities, exhaustive per instance."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        if i % 2 == 0:
            e_rel, f_rel, _ = _pair_instance(rng.randint(2, size), seed * 1000 + i)
            cs = choice_functions(e_rel, f_rel)
            s = sample_full_group(f_rel, rng)
            t = sample_full_group(f_rel, rng)
            st = s * t
            ok = all(
                sigma(cs, st, x) == sigma(cs, s, t(x)) * sigma(cs, t, x)
                for x in range(f_rel.size)
            )
            if not ok:
                failures.append(f"instance {i}: index cocycle identity broken")
        else:
            m = rng.choice([2, 4, 6, 8])
            idx = rng.choice([d for d in range(1, m + 1) if m % d == 0])
            inst = load_instance(make_coinduce_ready(m, idx))
            spec = inst.coinduce
            sys = coinduced_action(spec.a0, spec.b0, spec.a)
            want = len(spec.b0.closure()) ** 2 * m
            try:
                if check_rho_cocycle(sys) != want:
                    failures.append(f"instance {i}: transport cocycle count off")
            except CheckFailed as exc:
                failures.append(f"instance {i}: {exc}")
    return SuiteResult("cocycle", count, tuple(failures))


def suite_thm25(count: int = 60, size: int = 8, seed: int = 0) -> SuiteResult:
    """Index bounds from capture: m* <= 1/c, forced index one, mass bound."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        e_rel, f_rel, action = _pair_instance(rng.randint(2, size), seed * 977 + i)
        if rng.random() < 0.5:
            s = sample_full_group(f_rel, rng)
            sp = sample_full_group(f_rel, rng)
        else:
            s = sp = Perm.identity(f_rel.size)
        try:
            report = min_index_set(e_rel, f_rel, s, sp, action)
        except CheckFailed as exc:
            failures.append(f"instance {i}: {exc}")
            continue
        if report.c == 0:
            if report.verdict != "vacuous":
                failures.append(f"instance {i}: zero capture must be vacuous")
            continue
        if report.m_star > math.floor(1 / report.c):
            failures.append(f"instance {i}: index bound broken")
        elif report.c > Fraction(1, 2) and report.m_star != 1:
            failures.append(f"instance {i}: index one not forced")
        elif report.c > Fraction(3, 4) and report.a1_measure < 4 * report.c - 3:
            failures.append(f"instance {i}: mass bound broken")
    return SuiteResult("thm25", count, tuple(failures))


def suite_thm27(count: int = 40, size: int = 7, seed: int = 0) -> SuiteResult:
    """Uniform capture bound phi >= 1 - 4*eps over the ambient full group."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        e_rel, _, action = _pair_instance(rng.randint(2, size), seed * 31 + i)
        report = check_thm27(e_rel, action, cap=50000)
        if report.verdict != "pass":
            failures.append(
                f"instance {i}: min capture {report.min_phi} below {report.bound}"
            )
    return SuiteResult("thm27", count, tuple(failures))


def _doubled_target(a0: FreeGroupAction, a: TargetAction) -> TargetAction:
    """A two-orbit enlargement of a transitive shift target: the image
    of each element doubles its shift on a space of twice the size."""
    y = a.space.size
    images = {}
    for e in a0.elements:
        t = a.perm(e.name)(0)
        images[e.name] = Perm(tuple((v + 2 * t) % (2 * y) for v in range(2 * y)))
    return TargetAction(a0, FinSpace(2 * y), images)


def suite_coinduce_identities(count: int = 20, size: int = 8, seed: int = 0) -> SuiteResult:
    """Overlap and pairing identities on co-induction instances.

    Each instance is checked twice: with its own (transitive) target,
    where only trivial invariant sets exist, and with a two-orbit
    enlargement that makes both identities carry content.
    """
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        m = rng.choice([v for v in range(2, size + 1) if v % 2 == 0])
        idx = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        inst = load_instance(make_coinduce_ready(m, idx))
        spec = inst.coinduce
        systems = [
            coinduced_action(spec.a0, spec.b0, spec.a),
            coinduced_action(spec.a0, spec.b0, _doubled_target(spec.a0, spec.a)),
        ]
        gammas = [e.name for e in spec.b0.closure()]
        sampled = rng.sample(gammas, min(3, len(gammas)))
        try:
            for sys in systems:
                b_sets = [sorted(b_set) for b_set in target_orbit_sets(spec.a0, sys.a)]
                observables = invariant_observables(spec.a0, sys.a)
                for gamma in sampled:
                    for b_set in b_sets:
                        check_thm33_identity(sys, b_set, gamma)
                    for f in observables:
                        check_prop34_pairings(sys, f, gamma)
        except CheckFailed as exc:
            failures.append(f"instance {i}: {exc}")
    return SuiteResult("coinduce_identities", count, tuple(failures))


def suite_phi_correspondence(count: int = 25, size: int = 10, seed: int = 0) -> SuiteResult:
    """Capture values equal cluster probabilities in the dictionary."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        m = rng.randint(3, size)
        step = rng.randint(1, m - 1)
        action = _shift_action(m, step, "g")
        p = action.generator("g")
        a1: set[int] = set()
        for x in range(m):
            if x <= p(x) and rng.random() < 0.5:
                a1 |= {x, p(x)}
        if p == p.inverse():
            a_sets = {"g": sorted(a1)}
        else:
            a_sets = {"g": sorted(a1), "g_inv": sorted(p(x) for x in a1)}
        try:
            action_to_percolation(action, a_sets, r=2)
        except (CheckFailed, ValidationError) as exc:  # the dictionary rejected the instance
            failures.append(f"instance {i}: {exc}")
    return SuiteResult("phi_correspondence", count, tuple(failures))


def suite_length(count: int = 400, size: int = 8, seed: int = 0) -> SuiteResult:
    """Symmetry and subadditivity of the length hierarchy."""
    rng = random.Random(seed)
    failures = []
    f2 = FreeModel(2)
    ls_f2 = LengthSystem(f2, f2.letter_generators())
    z2 = ZdModel(2)
    ls_z2 = LengthSystem(z2, z2.basis_generators())

    def random_word(model, gens, max_len):
        w = model.identity()
        for _ in range(rng.randint(0, max_len)):
            w = model.mul(w, rng.choice(gens))
        return w

    for i in range(count):
        if i % 2 == 0:
            model, ls = f2, ls_f2
            gens = list(f2.letter_generators())
        else:
            model, ls = z2, ls_z2
            gens = list(z2.basis_generators())
        gens += [model.inv(g) for g in gens]
        g1 = random_word(model, gens, size)
        g2 = random_word(model, gens, size)
        n1 = length_function(ls, g1).n
        if n1 != length_function(ls, model.inv(g1)).n:
            failures.append(f"pair {i}: length not symmetric")
            continue
        n12 = length_function(ls, model.mul(g1, g2)).n
        if n12 > n1 + length_function(ls, g2).n:
            failures.append(f"pair {i}: length not subadditive")
    return SuiteResult("length", count, tuple(failures))


def _autocorrelation(a0: FreeGroupAction, w: dict) -> dict:
    """psi(g) = sum_h w(g^-1 h) w(h), a positive-definite function, for
    weights keyed by element name in closure order: every g^-1 h is read
    off one index grid."""
    weights = list(w.values())
    inverses = a0.by_image0[a0.at0]
    products = a0.mult_indices(inverses[:, None], np.arange(a0.size)[None, :]).tolist()
    return {
        g.name: sum((weights[k] * wh for k, wh in zip(row, weights)), Fraction(0))
        for g, row in zip(a0.elements, products)
    }


def suite_kazhdan_forms(count: int = 32, size: int = 8, seed: int = 0) -> SuiteResult:
    """Gap arithmetic coherence and certificate positivity."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        stage = i % 4
        if stage == 0:
            k = rng.randint(1, 6)
            eps = rng.uniform(0.05, math.sqrt(2.0))
            pair = kazhdan.KazhdanPair(k, eps)
            values = [kazhdan.amplify(pair, n) for n in range(1, 12)]
            if any(b < a - 1e-15 for a, b in zip(values, values[1:])):
                failures.append(f"case {i}: amplification not monotone")
            elif any(v > math.sqrt(2.0) + 1e-15 for v in values):
                failures.append(f"case {i}: amplification exceeds the ceiling")
        elif stage == 1:
            eps = Fraction(rng.randint(1, 14), 10)
            t = kazhdan.cor54_thresholds(eps)
            if not (t[0] < t[1] < t[2] < t[3]):
                failures.append(f"case {i}: thresholds out of order")
                continue
            e_rel, f_rel, action = _pair_instance(rng.randint(2, size), seed * 53 + i)
            ident = Perm.identity(f_rel.size)
            try:
                report = min_index_set(e_rel, f_rel, ident, ident, action)
            except CheckFailed as exc:
                failures.append(f"case {i}: {exc}")
                continue
            tier = kazhdan.cor54_tier(report.c, eps)
            if tier >= 2 and report.c > 0 and report.m_star > 1 / report.c:
                failures.append(f"case {i}: tier dispatch misses index bound")
            elif tier >= 3 and report.m_star != 1:
                failures.append(f"case {i}: tier dispatch misses forced index")
            elif tier >= 4 and report.a1_measure < 4 * report.c - 3:
                failures.append(f"case {i}: tier dispatch misses mass bound")
        elif stage == 2:
            m = rng.choice([4, 6, 8])
            step = rng.choice([d for d in (1, 2, m // 2) if m % d == 0])
            a0 = FreeGroupAction(_shift_action(m, step))
            w = {e.name: Fraction(rng.randint(-3, 3)) for e in a0.elements}
            if not any(w.values()):
                w[a0.identity_name] = Fraction(1)
            ambient = _shift_action(m, 1)
            try:
                kazhdan.pd_transfer(_autocorrelation(a0, w), a0, ambient)
            except CheckFailed as exc:
                failures.append(f"case {i}: {exc}")
        else:
            m = rng.randint(2, 6)
            rep = kazhdan.FiniteRep.regular(_shift_action(m, 1))
            names = list(rep.names)
            q = {rep.identity_name}
            for name in names:
                if rng.random() < 0.5:
                    q.add(name)
                    q.add(rep.inverse_name(name))
            report = kazhdan.averaging_norm(rep, sorted(q))
            t_mat = sum(rep.matrix(name) for name in q) / len(q)
            avg = sum(rep.matrix(name) for name in names) / len(names)
            vals, vecs = np.linalg.eigh(avg)
            u = vecs[:, vals > 0.5]
            comp = np.eye(rep.dimension) - u @ u.T
            oracle = float(np.linalg.norm(comp @ t_mat @ comp, 2))
            if abs(report.norm - oracle) > 1e-9:
                failures.append(f"case {i}: averaging norm off the oracle")
    return SuiteResult("kazhdan_forms", count, tuple(failures))


# name -> (suite, least size): the smallest instance each suite draws.
# `length` draws words of length 0..size, the other suites point counts
# from 2 (phi_correspondence: 3, for a shift with a non-zero step) up to size.
_SUITES = {
    "definiteness": (suite_definiteness, 2),
    "prop11": (suite_prop11, 2),
    "cocycle": (suite_cocycle, 2),
    "thm25": (suite_thm25, 2),
    "thm27": (suite_thm27, 2),
    "coinduce_identities": (suite_coinduce_identities, 2),
    "phi_correspondence": (suite_phi_correspondence, 3),
    "length": (suite_length, 0),
    "kazhdan_forms": (suite_kazhdan_forms, 2),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, count: int | None = None, size: int | None = None, seed: int = 0
) -> SuiteResult:
    if name not in _SUITES:
        raise ValidationError(f"unknown verify suite {name!r}")
    suite, least_size = _SUITES[name]
    kwargs: dict = {"seed": seed}
    if count is not None:
        if count < 1:
            raise ValidationError(f"count must be at least 1, not {count}")
        kwargs["count"] = count
    if size is not None:
        if size < least_size:
            raise ValidationError(f"suite {name!r} needs size at least {least_size}, not {size}")
        kwargs["size"] = size
    return suite(**kwargs)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, seed=seed) for name in SUITE_NAMES]
