"""Choice systems, the slot cocycle, the carrier representation, and the
index/separation/merge/evasion constructions."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from erglab import (
    CheckFailed,
    EqRel,
    FinAction,
    FinSpace,
    Infeasible,
    Perm,
    ValidationError,
    check_thm27,
    choice_functions,
    cost,
    evading_map,
    full_group,
    in_full_group,
    index_cocycle,
    invariant_analysis,
    merge_links,
    min_index_set,
    orbit_relation,
    phi,
    sample_full_group,
    separating_maps,
    sigma,
    tau_character,
    tau_representation,
)

F = Fraction


# --- fixtures ----------------------------------------------------------------


def cyclic_action(m: int, step: int = 1) -> FinAction:
    g = Perm([(x + step) % m for x in range(m)])
    return FinAction(
        FinSpace(m),
        [("g", g), ("g_inv", g.inverse())],
        {"g": "g_inv", "g_inv": "g"},
    )


def six_point_system():
    e = EqRel(6, [[0, 1], [2, 3], [4, 5]])
    f = EqRel.full(6)
    return choice_functions(e, f)


def random_nested_pair(rng: random.Random, m: int, max_ambient: int | None = None):
    """A random ambient relation and a random refinement of it."""
    pts = list(range(m))
    rng.shuffle(pts)
    ambient_classes = []
    i = 0
    while i < m:
        k = rng.randint(1, min(m - i, max_ambient or m))
        ambient_classes.append(pts[i : i + k])
        i += k
    f = EqRel(m, ambient_classes)
    fine_classes = []
    for cls in f.classes:
        cls = list(cls)
        rng.shuffle(cls)
        j = 0
        while j < len(cls):
            k = rng.randint(1, len(cls) - j)
            fine_classes.append(cls[j : j + k])
            j += k
    e = EqRel(m, fine_classes)
    return e, f


# --- choice functions ----------------------------------------------------------


def test_choice_functions_six_point_frozen():
    cs = six_point_system()
    assert cs.choices_at(0) == (0, 2, 4)
    assert cs.choices_at(2) == (2, 4, 0)
    assert cs.choices_at(4) == (4, 0, 2)
    assert cs.choices_at(1) == (1, 2, 4)
    assert cs.strata == (3,) * 6


def test_choice_functions_equal_relations_trivial():
    e = EqRel(5, [[0, 1], [2], [3, 4]])
    cs = choice_functions(e, e)
    assert cs.strata == (1,) * 5
    assert all(cs.choices_at(x) == (x,) for x in range(5))


def test_choice_functions_pair_inside_singletons():
    e = EqRel.equality(4)
    f = EqRel(4, [[0, 1], [2], [3]])
    cs = choice_functions(e, f)
    assert cs.strata == (2, 2, 1, 1)
    assert cs.choice(0, 1) == 1
    assert cs.choice(1, 1) == 0


def test_choice_functions_first_slot_is_identity():
    rng = random.Random(1)
    for _ in range(20):
        e, f = random_nested_pair(rng, rng.randint(2, 9))
        cs = choice_functions(e, f)
        for x in range(e.size):
            assert cs.choice(x, 0) == x
            row = cs.choices_at(x)
            assert len({e.class_id(y) for y in row}) == len(row)
            assert {e.class_id(y) for y in row} == {
                e.class_id(y) for y in f.class_of(x)
            }


def _reference_choices(e: EqRel, f: EqRel, convention: str) -> list[tuple[int, ...]]:
    """Each point's row built on its own: the sorted E-class ids of its
    ambient class, rotated to its own class, each named by its minimum
    (min_up, walking up) or maximum (max_down, walking down)."""
    pick, step = (min, 1) if convention == "min_up" else (max, -1)
    rows = []
    for x in range(e.size):
        ids = sorted({e.class_id(y) for y in f.class_of(x)})
        pos = ids.index(e.class_id(x))
        rest = (pick(e.classes[ids[(pos + step * t) % len(ids)]]) for t in range(1, len(ids)))
        rows.append((x, *rest))
    return rows


def test_choice_functions_match_the_per_point_reference():
    rng = random.Random(5)
    for _ in range(30):
        e, f = random_nested_pair(rng, rng.randint(1, 12))
        for convention in ("min_up", "max_down"):
            cs = choice_functions(e, f, convention)
            assert [cs.choices_at(x) for x in range(e.size)] == _reference_choices(e, f, convention)


def test_choice_functions_on_one_large_ambient_class():
    # the per-class work is done once per ambient class, not once per point
    m = 20000
    e = EqRel(m, [range(0, m, 2), range(1, m, 2)])
    start = time.perf_counter()
    cs = choice_functions(e, EqRel.full(m))
    assert time.perf_counter() - start < 5
    assert cs.choices_at(0) == (0, 1)
    assert cs.choices_at(m - 1) == (m - 1, 0)
    assert cs.strata == (2,) * m


def test_choice_functions_rejects_non_nested():
    e = EqRel(4, [[0, 1], [2, 3]])
    f = EqRel(4, [[0, 2], [1, 3]])
    with pytest.raises(ValidationError):
        choice_functions(e, f)


# --- index cocycle ---------------------------------------------------------------


def test_index_cocycle_six_point_frozen():
    cs = six_point_system()
    pi = index_cocycle(cs, 0, 2)
    assert pi.images == (2, 0, 1)
    assert index_cocycle(cs, 0, 0).is_identity()
    assert index_cocycle(cs, 2, 0).images == (1, 2, 0)


def test_index_cocycle_rejects_cross_class():
    e = EqRel.equality(4)
    f = EqRel(4, [[0, 1], [2, 3]])
    cs = choice_functions(e, f)
    with pytest.raises(ValidationError):
        index_cocycle(cs, 0, 2)


def test_index_cocycle_inverse_pairing():
    rng = random.Random(9)
    for _ in range(25):
        e, f = random_nested_pair(rng, rng.randint(2, 8))
        cs = choice_functions(e, f)
        for cls in f.classes:
            x = rng.choice(cls)
            y = rng.choice(cls)
            assert index_cocycle(cs, y, x) == index_cocycle(cs, x, y).inverse()


def test_slot_cocycle_identity_exhaustive():
    rng = random.Random(14)
    for _ in range(20):
        e, f = random_nested_pair(rng, rng.randint(2, 7))
        cs = choice_functions(e, f)
        s = sample_full_group(f, rng)
        t = sample_full_group(f, rng)
        st = s * t
        for x in range(e.size):
            assert sigma(cs, st, x) == sigma(cs, s, t(x)) * sigma(cs, t, x)


# --- carrier representation -------------------------------------------------------


def test_tau_identity_and_multiplicativity():
    rng = random.Random(21)
    for _ in range(15):
        e, f = random_nested_pair(rng, rng.randint(2, 7))
        cs = choice_functions(e, f)
        assert tau_representation(cs, Perm.identity(e.size)).is_identity()
        s = sample_full_group(f, rng)
        t = sample_full_group(f, rng)
        assert tau_representation(cs, s * t) == tau_representation(
            cs, s
        ) * tau_representation(cs, t)


def test_tau_character_equals_capture():
    rng = random.Random(22)
    for _ in range(60):
        e, f = random_nested_pair(rng, rng.randint(2, 8))
        cs = choice_functions(e, f)
        s = sample_full_group(f, rng)
        assert tau_character(cs, s) == phi(e, s)


def test_tau_rejects_class_breaking_maps():
    e = EqRel.equality(4)
    f = EqRel(4, [[0, 1], [2, 3]])
    cs = choice_functions(e, f)
    with pytest.raises(ValidationError):
        tau_representation(cs, Perm.from_cycles(4, [(1, 2)]))


def test_tau_character_shift_values():
    # E = orbits of +2 inside the full six-point class
    e = EqRel(6, [[0, 2, 4], [1, 3, 5]])
    f = EqRel.full(6)
    cs = choice_functions(e, f)
    shift1 = Perm([(x + 1) % 6 for x in range(6)])
    shift2 = shift1 * shift1
    assert tau_character(cs, shift2) == 1
    assert tau_character(cs, shift1) == 0


def test_convention_change_preserves_character_and_orbit_sizes():
    rng = random.Random(30)
    for _ in range(10):
        e, f = random_nested_pair(rng, rng.randint(3, 7))
        cs_a = choice_functions(e, f, convention="min_up")
        cs_b = choice_functions(e, f, convention="max_down")
        for _ in range(6):
            s = sample_full_group(f, rng)
            assert tau_character(cs_a, s) == tau_character(cs_b, s)
        gens = [sample_full_group(f, rng) for _ in range(2)]

        def orbit_sizes(cs):
            taus = [tau_representation(cs, g) for g in gens]
            n = len(cs.carrier)
            seen = [False] * n
            sizes = []
            for start in range(n):
                if seen[start]:
                    continue
                stack, comp = [start], 0
                seen[start] = True
                while stack:
                    p = stack.pop()
                    comp += 1
                    for tmap in taus:
                        for q in (tmap(p), tmap.inverse()(p)):
                            if not seen[q]:
                                seen[q] = True
                                stack.append(q)
                sizes.append(comp)
            return sorted(sizes)

        assert orbit_sizes(cs_a) == orbit_sizes(cs_b)


# --- invariant analysis -------------------------------------------------------------


def test_invariant_analysis_six_point_shift():
    e = EqRel(6, [[0, 2, 4], [1, 3, 5]])
    f = EqRel.full(6)
    cs = choice_functions(e, f)
    act = cyclic_action(6)
    report = invariant_analysis(cs, act)
    assert report.carrier_size == 12
    assert len(report.components) == 2
    assert {row.a_set for row in report.basis_extractions} == {
        (0, 2, 4),
        (1, 3, 5),
    }
    assert all(row.multiplicity == 1 for row in report.basis_extractions)
    assert report.ones_extraction.a_set == tuple(range(6))
    assert report.ones_extraction.multiplicity == 2
    assert report.average_inner == F(1, 2)
    assert report.min_phi == 0
    assert report.average_nonzero
    assert report.full_group_invariance


def test_invariant_analysis_equal_relations():
    m = 4
    e = EqRel(m, [[0, 1, 2, 3]])
    cs = choice_functions(e, e)
    act = cyclic_action(m)
    report = invariant_analysis(cs, act)
    assert report.carrier_size == m
    assert len(report.components) == 1
    assert report.ones_extraction.a_set == tuple(range(m))
    assert report.ones_extraction.multiplicity == 1
    assert report.average_inner == 1
    assert report.min_phi == 1


def test_invariant_analysis_component_count_matches_class_count():
    rng = random.Random(40)
    for _ in range(10):
        m = rng.choice([4, 6, 8])
        act = cyclic_action(m)
        f = EqRel.full(m)
        # E = orbits of a subgroup shift so every class is preserved-ish
        step = rng.choice([d for d in (1, 2, m // 2) if m % d == 0])
        e = EqRel.from_perms(m, [Perm([(x + step) % m for x in range(m)])])
        if not e.refines(f):
            continue
        cs = choice_functions(e, f)
        report = invariant_analysis(cs, act)
        assert len(report.components) == e.num_classes
        assert report.average_inner >= report.min_phi


def test_invariant_analysis_rejects_orbit_mismatch():
    e = EqRel(4, [[0, 1], [2, 3]])
    f = EqRel(4, [[0, 1], [2, 3]])
    cs = choice_functions(e, f)
    with pytest.raises(ValidationError):
        invariant_analysis(cs, cyclic_action(4))


# --- minimum-index witnesses -----------------------------------------------------------


def test_min_index_trivial_equal_relations():
    m = 4
    act = cyclic_action(m)
    f = orbit_relation(act)
    report = min_index_set(f, f, Perm.identity(m), Perm.identity(m), act)
    assert report.c == 1
    assert report.m_star == 1
    assert report.a_set == tuple(range(m))
    assert report.verdict == "pass"


def test_min_index_two_point_swap_example():
    g = Perm.from_cycles(4, [(0, 1), (2, 3)])
    act = FinAction(FinSpace(4), [("s", g)], {"s": "s"})
    f = orbit_relation(act)
    e = EqRel(4, [[0, 1], [2], [3]])
    report = min_index_set(e, f, Perm.identity(4), Perm.identity(4), act)
    assert report.c == F(1, 2)
    assert report.m_star == 1
    assert report.a_set == (0, 1)
    assert report.a1_set == (0, 1)
    assert report.verdict == "pass"


def test_min_index_vacuous_when_capture_vanishes():
    act = cyclic_action(6)
    f = orbit_relation(act)
    e = EqRel(6, [[0, 2, 4], [1, 3, 5]])
    report = min_index_set(e, f, Perm.identity(6), Perm.identity(6), act)
    assert report.c == 0
    assert report.verdict == "vacuous"


def test_min_index_refined_witness_on_lopsided_classes():
    m = 12
    act = cyclic_action(m)
    f = orbit_relation(act)
    e = EqRel(m, [list(range(11)), [11]])
    report = min_index_set(e, f, Perm.identity(m), Perm.identity(m), act)
    assert report.c == F(5, 6)
    assert report.m_star == 2
    assert report.m_star * report.c > 1
    assert report.verdict == "refined"
    assert report.refined_set == tuple(range(11))
    # the refined witness meets every ambient class in exactly one E-class
    assert report.a1_measure == 0


def test_min_index_rejects_maps_outside_full_group():
    act = cyclic_action(4)
    f = orbit_relation(act)
    e = EqRel(4, [[0, 1], [2, 3]])
    # fine for identity; a transposition still lies in [F] since F is everything
    ok = min_index_set(e, f, Perm.from_cycles(4, [(0, 1)]), Perm.identity(4), act)
    assert ok.c >= 0
    g = Perm.from_cycles(4, [(0, 1), (2, 3)])
    act2 = FinAction(FinSpace(4), [("s", g)], {"s": "s"})
    f2 = orbit_relation(act2)
    with pytest.raises(ValidationError):
        min_index_set(
            EqRel.equality(4), f2, Perm.from_cycles(4, [(1, 2)]), Perm.identity(4), act2
        )


def test_min_index_bound_holds_on_homogeneous_instances():
    rng = random.Random(77)
    for _ in range(50):
        m = rng.choice([4, 6, 8])
        act = cyclic_action(m)
        f = orbit_relation(act)
        div = rng.choice([d for d in (1, 2, 3, 4) if m % d == 0])
        e = EqRel.from_perms(m, [Perm([(x + div) % m for x in range(m)])])
        s = sample_full_group(f, rng)
        sp = sample_full_group(f, rng)
        report = min_index_set(e, f, s, sp, act)
        if report.c > 0:
            assert report.verdict == "pass"
            assert report.m_star * report.c <= 1
            if report.c > F(1, 2):
                assert report.m_star == 1


# --- separating maps ---------------------------------------------------------------


def test_separating_maps_index_shift_pair():
    f = EqRel.full(4)
    e = EqRel(4, [[0, 1], [2, 3]])
    result = separating_maps(e, f, 1)
    assert result.kind == "maps"
    t0, t1 = result.maps
    assert t0.is_identity()
    assert t1 == Perm.from_cycles(4, [(0, 2), (1, 3)])


def test_separating_maps_infeasible_on_lopsided_pair():
    f = EqRel.full(4)
    e = EqRel(4, [[0, 1, 2], [3]])
    result = separating_maps(e, f, 1)
    assert result.kind == "infeasible"
    assert result.witness_class == (0, 1, 2, 3)


def test_separating_maps_class_bound_branch():
    f = EqRel(6, [[0, 1], [2, 3, 4, 5]])
    e = EqRel(6, [[0, 1], [2, 3], [4, 5]])
    result = separating_maps(e, f, 1)
    assert result.kind == "class_bound"
    assert result.a_set == (0, 1)


def test_separating_maps_unequal_sizes_solved_by_search():
    f = EqRel.full(7)
    e = EqRel(7, [[0, 1, 2], [3, 4], [5, 6]])
    result = separating_maps(e, f, 1)
    assert result.kind == "maps"
    t0, t1 = result.maps
    assert t0.is_identity()
    for x in range(7):
        assert not e.same(t1(x), x)


def test_separating_maps_three_slots_need_more_classes():
    f = EqRel.full(7)
    e = EqRel(7, [[0, 1, 2], [3, 4], [5, 6]])
    # n = 2 demands 3 pairwise-separated images; the size-3 class cannot host them
    result = separating_maps(e, f, 2)
    assert result.kind == "infeasible"


def test_separating_maps_pairwise_property_random():
    rng = random.Random(50)
    found = 0
    for _ in range(40):
        e, f = random_nested_pair(rng, rng.randint(4, 9))
        n = rng.randint(0, 2)
        result = separating_maps(e, f, n)
        if result.kind != "maps":
            continue
        found += 1
        assert result.maps[0].is_identity()
        for t in result.maps:
            assert in_full_group(f, t)
        for x in range(e.size):
            ids = [e.class_id(t(x)) for t in result.maps]
            assert len(set(ids)) == len(ids)
    assert found > 0


def test_separating_maps_rejects_negative():
    with pytest.raises(ValidationError):
        separating_maps(EqRel.equality(2), EqRel.full(2), -1)


# --- uniform capture bound -----------------------------------------------------------


def test_capture_bound_trivial_cases():
    m = 4
    e = EqRel.full(m)
    act = cyclic_action(m)
    report = check_thm27(e, act)
    assert report.eps == 0
    assert report.min_phi == 1
    assert report.verdict == "pass"
    assert report.mode == "exhaustive"

    ident_act = FinAction(FinSpace(3), [("e", Perm.identity(3))], {"e": "e"})
    report2 = check_thm27(EqRel.equality(3), ident_act)
    assert report2.eps == 0 and report2.tested == 1 and report2.verdict == "pass"


def test_capture_bound_vacuous_pass():
    g = Perm.from_cycles(4, [(0, 1), (2, 3)])
    act = FinAction(FinSpace(4), [("s", g)], {"s": "s"})
    e = EqRel(4, [[0, 1], [2], [3]])
    report = check_thm27(e, act)
    assert report.eps == F(1, 2)
    assert report.bound == -1
    assert report.tested == 4
    assert report.min_phi == F(1, 2)
    assert report.verdict == "pass"


def test_capture_bound_meets_ambient_first():
    # E not nested in F: the op must work with E meet F
    m = 4
    act = cyclic_action(m)
    e = EqRel(4, [[0, 3], [1, 2]])  # not a union inside orbit classes? orbits are everything
    report = check_thm27(e, act)
    assert report.verdict == "pass"


def test_capture_bound_sampled_mode():
    m = 10
    act = cyclic_action(m)
    e = EqRel.from_perms(m, [Perm([(x + 2) % m for x in range(m)])])
    report = check_thm27(e, act, cap=100)
    assert report.mode == "sampled"
    assert report.verdict == "pass"
    assert report.min_phi >= report.bound


def test_capture_bound_holds_on_random_instances():
    rng = random.Random(61)
    for _ in range(30):
        m = rng.choice([4, 6, 8])
        act = cyclic_action(m)
        step = rng.choice([d for d in (1, 2, 4) if m % d == 0])
        e = EqRel.from_perms(m, [Perm([(x + step) % m for x in range(m)])])
        report = check_thm27(e, act, cap=5000)
        assert report.verdict == "pass"
        assert report.margin >= 0


# --- table kernels against per-element reference loops -------------------------


def _full_group_reference(rel: EqRel) -> list[Perm]:
    out = []
    for combo in itertools.product(*(itertools.permutations(c) for c in rel.classes)):
        images = [0] * rel.size
        for cls, img in zip(rel.classes, combo):
            for x, y in zip(cls, img):
                images[x] = y
        out.append(Perm(images))
    return out


def _thm27_reference(e_rel: EqRel, action: FinAction, cap: int):
    """check_thm27's fields from one phi call per element, and how many
    elements attain the minimum."""
    f_rel = orbit_relation(action)
    e_meet = e_rel.meet(f_rel)
    eps = max(1 - phi(e_meet, el.perm) for el in action.closure())
    perms = _full_group_reference(f_rel)
    mode = "exhaustive"
    if len(perms) > cap:
        rng = random.Random(0)
        perms = [sample_full_group(f_rel, rng) for _ in range(500)]
        mode = "sampled"
    values = [phi(e_meet, t) for t in perms]
    best = min(values)
    fields = (eps, 1 - 4 * eps, mode, len(perms), best, perms[values.index(best)].images)
    return fields, values.count(best)


def _random_instance(rng: random.Random):
    m = rng.randint(2, 6)
    e_rel = EqRel.from_perms(m, [Perm(rng.sample(range(m), m))])
    gens = [Perm(rng.sample(range(m), m)) for _ in range(rng.randint(1, 2))]
    labels = [f"g{i}" for i in range(len(gens))]
    pairs = [(lab, g) for lab, g in zip(labels, gens)] + [
        (lab + "_inv", g.inverse()) for lab, g in zip(labels, gens)
    ]
    inverses = {lab: lab + "_inv" for lab in labels}
    inverses.update({lab + "_inv": lab for lab in labels})
    return e_rel, FinAction(FinSpace(m), pairs, inverses)


def test_capture_bound_matches_the_per_element_reference():
    rng = random.Random(271)
    modes = set()
    ties = 0
    for trial in range(60):
        e_rel, act = _random_instance(rng)
        cap = rng.choice([1, 5, 50000])
        report = check_thm27(e_rel, act, cap=cap)
        fields, attained = _thm27_reference(e_rel, act, cap)
        assert (
            report.eps, report.bound, report.mode, report.tested, report.min_phi, report.argmin
        ) == fields
        assert report.margin == report.min_phi - report.bound
        modes.add(report.mode)
        ties += attained > 1
    assert modes == {"exhaustive", "sampled"}
    assert ties > 10  # the first minimum is the one reported


def test_min_index_capture_matches_the_per_element_reference():
    rng = random.Random(272)
    ties = 0
    for trial in range(60):
        _, act = _random_instance(rng)
        f_rel = orbit_relation(act)
        e_rel, _ = random_nested_pair(rng, f_rel.size)
        e_rel = e_rel.meet(f_rel)
        s, sp = sample_full_group(f_rel, rng), sample_full_group(f_rel, rng)
        report = min_index_set(e_rel, f_rel, s, sp, act)
        values = [(phi(e_rel, s * el.perm * sp), el.name) for el in act.closure()]
        c = min(v for v, _ in values)
        assert report.c == c
        assert report.argmin_gamma == next(name for v, name in values if v == c)
        ties += sum(v == c for v, _ in values) > 1
    assert ties > 10


# --- merge links and evading maps ------------------------------------------------------


def test_merge_links_frozen_examples():
    e = EqRel(6, [[0, 1], [2, 3], [4, 5]])
    f = EqRel.full(6)
    links = merge_links(e, f)
    assert len(links) == 2
    assert [iso.pairs for iso in links] == [((0, 2),), ((2, 4),)]
    assert cost(f) == cost(e) + F(2, 6)
    assert merge_links(e, e) == []
    eq = EqRel.equality(5)
    assert len(merge_links(eq, EqRel.full(5))) == 4


def test_merge_links_join_recovers_ambient():
    rng = random.Random(70)
    for _ in range(25):
        e, f = random_nested_pair(rng, rng.randint(2, 10))
        links = merge_links(e, f)
        assert e.join_links(links) == f
        assert len(links) == e.num_classes - f.num_classes


def test_evading_map_frozen_examples():
    f = EqRel.full(4)
    e = EqRel(4, [[0, 1], [2, 3]])
    s = evading_map(e, f)
    assert s == Perm.from_cycles(4, [(0, 2), (1, 3)])
    assert phi(e, s) == 0

    bad = evading_map(EqRel(4, [[0, 1, 2], [3]]), f)
    assert isinstance(bad, Infeasible)
    assert bad.witness_class == (0, 1, 2, 3)


def test_evading_map_rejects_single_class_ambient():
    e = EqRel(4, [[0, 1], [2, 3]])
    f = EqRel(4, [[0, 1], [2, 3]])
    with pytest.raises(ValidationError):
        evading_map(e, f)


def test_evading_map_exhaustive_agreement_small():
    # the Hall-type boundary matches brute force over the full group
    rng = random.Random(81)
    for _ in range(30):
        e, f = random_nested_pair(rng, rng.randint(2, 6), max_ambient=6)
        if any(
            len({e.class_id(x) for x in cls}) < 2 for cls in f.classes
        ):
            continue
        result = evading_map(e, f)
        exists = any(phi(e, t) == 0 for t in full_group(f, cap=20000))
        if isinstance(result, Infeasible):
            assert not exists
        else:
            assert exists and phi(e, result) == 0


def test_evading_map_multi_class():
    f = EqRel(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
    e = EqRel(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    s = evading_map(e, f)
    assert phi(e, s) == 0
    assert in_full_group(f, s)
