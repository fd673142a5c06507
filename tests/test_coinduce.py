"""Skew-product construction and its exact counting identities."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erglab import (
    CheckFailed,
    CoinducedSystem,
    EqRel,
    FinAction,
    FinSpace,
    FiniteRep,
    FreeGroupAction,
    Perm,
    TargetAction,
    ValidationError,
    check_prop34_pairing,
    check_rho_cocycle,
    check_thm33_identity,
    choice_functions,
    choice_perm,
    coinduced_action,
    delta_bar,
    index_cocycle,
    load_instance,
    make_coinduce_ready,
    orbit_relation,
    phi,
    phi_kn,
    semidirect_mul,
)
from erglab.coinduce import invariant_observables as _invariant_observables
from erglab.coinduce import target_orbit_sets as _target_orbit_sets
from erglab.verify import _doubled_target


def shift_action(m: int, step: int = 1, label: str = "g") -> FinAction:
    p = Perm(tuple((x + step) % m for x in range(m)))
    inv = p.inverse()
    if p == inv:
        return FinAction(FinSpace(m), [(label, p)], {label: label})
    lab2 = label + "_inv"
    return FinAction(
        FinSpace(m), [(label, p), (lab2, inv)], {label: lab2, lab2: label}
    )


@pytest.fixture
def z4_pair():
    """Four-cycle ambient action with the half-turn subaction."""
    b0 = shift_action(4)
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    return a0, b0


def swap_target(a0: FreeGroupAction, pairs: Perm) -> TargetAction:
    images = {}
    for e in a0.elements:
        images[e.name] = pairs if not e.perm.is_identity() else Perm.identity(pairs.size)
    return TargetAction(a0, FinSpace(pairs.size), images)


# -- group closure with freeness certificate ---------------------------------


def test_free_group_action_elements(z4_pair):
    a0, _ = z4_pair
    assert a0.size == 2
    assert a0.identity_name == "d^0"
    assert a0.perm_of("d^1").images == (2, 3, 0, 1)


def test_free_group_action_rejects_fixed_points():
    act = FinAction(
        FinSpace(4), [("s", Perm.from_cycles(4, [(0, 1)]))], {"s": "s"}
    )
    with pytest.raises(ValidationError, match="not free"):
        FreeGroupAction(act)


def test_transporter_unique_and_total(z4_pair):
    a0, _ = z4_pair
    assert a0.transporter(0, 2) == "d^1"
    assert a0.transporter(0, 0) == "d^0"
    assert a0.transporter(3, 1) == "d^1"
    with pytest.raises(ValidationError, match="different orbits"):
        a0.transporter(0, 1)


def test_group_arithmetic(z4_pair):
    a0, _ = z4_pair
    assert a0.mult("d^1", "d^1") == "d^0"
    assert a0.inverse_name("d^1") == "d^1"
    assert a0.name_of(Perm.identity(4)) == "d^0"
    with pytest.raises(ValidationError):
        a0.name_of(Perm((1, 0, 2, 3)))


def test_group_arithmetic_matches_composition_in_a_nonabelian_group():
    """S_3 acting freely on itself by left multiplication."""
    elems = [Perm(p) for p in itertools.permutations(range(3))]
    where = {e: i for i, e in enumerate(elems)}

    def left(s: Perm) -> Perm:
        return Perm([where[s * e] for e in elems])

    gens = [("s", left(Perm((1, 0, 2)))), ("t", left(Perm((0, 2, 1))))]
    a0 = FreeGroupAction(FinAction(FinSpace(6), gens, {"s": "s", "t": "t"}))
    assert a0.size == 6
    for g in a0.elements:
        assert a0.perm_of(a0.inverse_name(g.name)) == g.perm.inverse()
        for h in a0.elements:
            assert a0.perm_of(a0.mult(g.name, h.name)) == g.perm * h.perm


def test_orbit_relation_of_group(z4_pair):
    a0, _ = z4_pair
    assert a0.orbit_relation().classes == ((0, 2), (1, 3))


# -- target actions -----------------------------------------------------------


def test_target_action_accepts_involution(z4_pair):
    a0, _ = z4_pair
    act = swap_target(a0, Perm((1, 0)))
    assert act.perm("d^1").images == (1, 0)
    assert act.perm("d^0").is_identity()


def test_target_action_rejects_non_homomorphism(z4_pair):
    a0, _ = z4_pair
    three_cycle = Perm((1, 2, 0))
    with pytest.raises(ValidationError, match="multiplicativity"):
        TargetAction(
            a0,
            FinSpace(3),
            {"d^0": Perm.identity(3), "d^1": three_cycle},
        )


def test_target_action_checks_every_generator():
    # Z/2 x Z/2 with images sigma, tau of a, b that do not commute: the
    # table sending ab to sigma*tau passes every product s*h with s = a and
    # fails one with s = b; the table sending ab to tau*sigma does the reverse
    a, b = Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))
    group = FreeGroupAction(FinAction(FinSpace(4), [("a", a), ("b", b)], {"a": "a", "b": "b"}))
    sigma, tau = Perm((1, 0, 2)), Perm((0, 2, 1))
    names = {key: group.name_of(p) for key, p in [("e", Perm.identity(4)), ("a", a), ("b", b), ("ab", a * b)]}
    for ab in (sigma * tau, tau * sigma):
        images = {names["e"]: Perm.identity(3), names["a"]: sigma, names["b"]: tau, names["ab"]: ab}
        with pytest.raises(ValidationError, match="multiplicativity"):
            TargetAction(group, FinSpace(3), images)
    ident = {n: Perm.identity(3) for n in names.values()}
    TargetAction(group, FinSpace(3), ident)
    with pytest.raises(ValidationError, match="multiplicativity"):
        TargetAction(group, FinSpace(3), {**ident, names["e"]: sigma})


def test_target_action_rejects_bad_keys(z4_pair):
    a0, _ = z4_pair
    with pytest.raises(ValidationError, match="cover the group"):
        TargetAction(a0, FinSpace(2), {"d^0": Perm.identity(2)})


def test_target_action_rejects_wrong_space(z4_pair):
    a0, _ = z4_pair
    with pytest.raises(ValidationError, match="wrong space"):
        TargetAction(
            a0, FinSpace(2), {"d^0": Perm.identity(2), "d^1": Perm.identity(3)}
        )


def test_trivial_target(z4_pair):
    a0, _ = z4_pair
    act = TargetAction.trivial(a0, FinSpace(3))
    assert all(act.perm(e.name).is_identity() for e in a0.elements)


# -- transport vectors ---------------------------------------------------------


def test_delta_bar_frozen_values(z4_pair):
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    assert index_cocycle(cs, 0, 1).images == (1, 0)
    assert delta_bar(cs, a0, 0, 1) == ("d^0", "d^0")
    assert index_cocycle(cs, 0, 2).is_identity()
    assert delta_bar(cs, a0, 0, 2) == ("d^1", "d^0")
    assert delta_bar(cs, a0, 1, 2) == ("d^1", "d^0")
    assert delta_bar(cs, a0, 0, 0) == ("d^0", "d^0")


def test_delta_bar_requires_matching_classes(z4_pair):
    a0, b0 = z4_pair
    f_rel = orbit_relation(b0)
    cs = choice_functions(f_rel, f_rel)
    with pytest.raises(ValidationError, match="differ from the group orbits"):
        delta_bar(cs, a0, 0, 1)


def test_delta_bar_closes_the_triangle(z4_pair):
    """Each entry really carries the matching choice point across."""
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    for x in range(4):
        for y in range(4):
            pi = index_cocycle(cs, x, y)
            db = delta_bar(cs, a0, x, y)
            for n in range(cs.strata[x]):
                src = cs.choice(x, pi.inverse()(n))
                assert a0.perm_of(db[n])(src) == cs.choice(y, n)


def test_semidirect_mul_matches_composed_transport(z4_pair):
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    sys = CoinducedSystem(a0, b0, swap_target(a0, Perm((1, 0))), cs)
    for x in range(4):
        for y in range(4):
            for z in range(4):
                combined = semidirect_mul(a0, sys.rho(y, z), sys.rho(x, y))
                assert combined == sys.rho(x, z)


# -- system construction --------------------------------------------------------


def test_coinduced_action_builds(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    assert sys.N == 2
    assert sys.product_size == 16
    assert sys.materialized


def test_generator_step_with_trivial_target(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    g = b0.generator("g")
    # crossing into the other class swaps the two coordinates
    assert sys.point_map(g, 0, (0, 1)) == (1, (1, 0))
    assert sys.point_map(g, 0, (1, 0)) == (1, (0, 1))


def test_generator_step_with_swap_target(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    g = b0.generator("g")
    # transport out of x = 1 applies the half-turn image on coordinate 0
    assert sys.point_map(g, 1, (0, 1)) == (2, (0, 0))
    assert sys.point_map(g, 1, (1, 0)) == (2, (1, 1))


def test_product_encoding_round_trip(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    for idx in range(sys.product_size):
        x, ybar = sys.decode(idx)
        assert sys.encode(x, ybar) == idx


def test_small_orbits_refine_product_orbits(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    small = EqRel.from_perms(
        sys.product_size, [sys.a_prime_perm(e.name) for e in a0.elements]
    )
    big = EqRel.from_perms(
        sys.product_size,
        [sys.product_perm(g.perm) for g in b0.closure()],
    )
    assert small.refines(big)


def test_small_orbits_refine_even_outside_ambient_closure():
    """The subaction need not sit inside the ambient closure as a group."""
    b0 = shift_action(4)
    a0 = FreeGroupAction(
        FinAction(
            FinSpace(4),
            [("d", Perm.from_cycles(4, [(0, 1), (2, 3)]))],
            {"d": "d"},
        )
    )
    assert a0.perm_of("d^1").images not in {
        g.perm.images for g in b0.closure()
    }
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    small = EqRel.from_perms(
        sys.product_size, [sys.a_prime_perm(e.name) for e in a0.elements]
    )
    big = EqRel.from_perms(
        sys.product_size,
        [sys.product_perm(g.perm) for g in b0.closure()],
    )
    assert small.refines(big)


def test_rejects_non_refining_orbits():
    b0 = shift_action(4, step=2)
    a0 = FreeGroupAction(
        FinAction(
            FinSpace(4),
            [("d", Perm.from_cycles(4, [(0, 1), (2, 3)]))],
            {"d": "d"},
        )
    )
    with pytest.raises(ValidationError, match="refine"):
        coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))


def test_rejects_non_constant_index():
    b0 = FinAction(
        FinSpace(6),
        [("g", Perm.from_cycles(6, [(0, 1), (2, 3, 4, 5)])), (
            "g_inv",
            Perm.from_cycles(6, [(0, 1), (2, 3, 4, 5)]).inverse(),
        )],
        {"g": "g_inv", "g_inv": "g"},
    )
    a0 = FreeGroupAction(
        FinAction(
            FinSpace(6),
            [("d", Perm.from_cycles(6, [(0, 1), (2, 4), (3, 5)]))],
            {"d": "d"},
        )
    )
    with pytest.raises(ValidationError, match="index not constant.*\\(0, 1\\).*\\(2, 2\\)"):
        coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))


def test_rejects_foreign_group_keys(z4_pair):
    a0, b0 = z4_pair
    other = FreeGroupAction(shift_action(4, step=2, label="d"))
    target = swap_target(other, Perm((1, 0)))
    with pytest.raises(ValidationError, match="different group"):
        coinduced_action(a0, b0, target)


def test_rejects_mismatched_spaces():
    b0 = shift_action(6)
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    with pytest.raises(ValidationError, match="different spaces"):
        coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))


def test_above_cap_skips_materialization(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))), cap=10)
    assert not sys.materialized
    with pytest.raises(ValidationError, match="exceeds the cap"):
        sys.product_perm(b0.generator("g"))
    # the factorized identity routes still work and stay exact
    rep = check_thm33_identity(sys, [0, 1], "g")
    assert rep.lhs_materialized is None
    assert rep.lhs_factorized == rep.rhs == 1


# -- transport cocycle ----------------------------------------------------------


def test_rho_cocycle_exhaustive(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    assert check_rho_cocycle(sys) == 4 * 4 * 4


def test_rho_cocycle_on_klein_ambient():
    gens = [
        ("u", Perm.from_cycles(4, [(0, 1), (2, 3)])),
        ("v", Perm.from_cycles(4, [(0, 2), (1, 3)])),
    ]
    b0 = FinAction(FinSpace(4), gens, {"u": "u", "v": "v"})
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    assert check_rho_cocycle(sys) == 4 * 4 * 4


# -- slot statistics -------------------------------------------------------------


def test_phi_kn_frozen_values(z4_pair):
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    g = b0.generator("g")
    assert phi_kn(cs, b0, 0, 0, g) == 0
    assert phi_kn(cs, b0, 0, 1, g) == 1
    assert phi_kn(cs, b0, 0, 0, g * g) == 1
    assert phi_kn(cs, b0, 1, 1, g * g) == 1
    assert phi_kn(cs, b0, 0, 0, "g^0") == 1


def test_phi_kn_matches_class_capture(z4_pair):
    a0, b0 = z4_pair
    e_rel = a0.orbit_relation()
    cs = choice_functions(e_rel, orbit_relation(b0))
    for g in b0.closure():
        assert phi_kn(cs, b0, 0, 0, g.perm) == phi(e_rel, g.perm)


def test_phi_kn_validates_indices(z4_pair):
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    with pytest.raises(ValidationError, match="below 2"):
        phi_kn(cs, b0, 0, 2, b0.generator("g"))


def test_phi_kn_requires_constant_index():
    f_rel = EqRel(6, [(0, 1), (2, 3, 4, 5)])
    e_rel = EqRel(6, [(0, 1), (2, 4), (3, 5)])
    cs = choice_functions(e_rel, f_rel)
    dummy = shift_action(6, step=3, label="s")
    with pytest.raises(ValidationError, match="constant index"):
        phi_kn(cs, dummy, 0, 0, Perm.identity(6))


# -- overlap identity -------------------------------------------------------------


def test_overlap_identity_frozen_quarter(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    rep = check_thm33_identity(sys, [0], "g")
    assert rep.p == Fraction(1, 2)
    assert rep.phi_value == 0
    assert rep.rhs == Fraction(1, 4)
    assert rep.lhs_factorized == Fraction(1, 4)
    assert rep.lhs_materialized == Fraction(1, 4)
    assert rep.verdict == "pass"


def test_overlap_identity_extremes(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    assert check_thm33_identity(sys, [0, 1], "g").rhs == 1
    assert check_thm33_identity(sys, [], "g").rhs == 0


def test_overlap_identity_inside_class(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    rep = check_thm33_identity(sys, [0], "g^2")
    assert rep.phi_value == 1
    assert rep.rhs == Fraction(1, 2)


def test_overlap_identity_requires_invariance(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    with pytest.raises(ValidationError, match="not invariant"):
        check_thm33_identity(sys, [0], "g")


def test_overlap_identity_with_nontrivial_target(z4_pair):
    a0, b0 = z4_pair
    swap4 = Perm.from_cycles(4, [(0, 1), (2, 3)])
    sys = coinduced_action(a0, b0, swap_target(a0, swap4))
    rep = check_thm33_identity(sys, [0, 1], "g")
    assert rep.p == Fraction(1, 2)
    assert rep.rhs == Fraction(1, 4)
    assert rep.lhs_materialized == Fraction(1, 4)


def test_overlap_identity_rejects_stray_points(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    with pytest.raises(ValidationError, match="leaves the target"):
        check_thm33_identity(sys, [5], "g")


# -- pairing identity --------------------------------------------------------------


def test_pairing_frozen_values(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    rep = check_prop34_pairing(sys, [1, -1], 0, 1, "g")
    assert rep.norm_sq == 1
    assert rep.phi_kn_value == 1
    assert rep.lhs_factorized == 1
    assert rep.lhs_materialized == 1
    rep2 = check_prop34_pairing(sys, [1, -1], 0, 0, "g^2")
    assert rep2.rhs == 1
    rep3 = check_prop34_pairing(sys, [1, -1], 0, 0, "g")
    assert rep3.rhs == 0
    assert rep3.lhs_factorized == 0


def test_pairing_with_invariant_observable(z4_pair):
    a0, b0 = z4_pair
    swap4 = Perm.from_cycles(4, [(0, 1), (2, 3)])
    sys = coinduced_action(a0, b0, swap_target(a0, swap4))
    rep = check_prop34_pairing(sys, [1, 1, -1, -1], 0, 1, "g")
    assert rep.norm_sq == 1
    assert rep.rhs == 1
    assert rep.lhs_materialized == 1


def test_pairing_rejects_non_invariant_observable(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    with pytest.raises(ValidationError, match="not invariant"):
        check_prop34_pairing(sys, [1, -1], 0, 1, "g")


def test_pairing_rejects_nonzero_mean(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    with pytest.raises(ValidationError, match="zero mean"):
        check_prop34_pairing(sys, [1, 1], 0, 1, "g")


def test_pairing_rejects_wrong_length(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
    with pytest.raises(ValidationError, match="length"):
        check_prop34_pairing(sys, [1, 0, -1], 0, 1, "g")


def test_zero_observable_is_trivially_consistent(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    rep = check_prop34_pairing(sys, [0, 0], 0, 1, "g")
    assert rep.norm_sq == 0
    assert rep.lhs_factorized == 0


# -- convention independence ---------------------------------------------------------


def test_product_maps_conjugate_across_conventions(z4_pair):
    a0, b0 = z4_pair
    e_rel = a0.orbit_relation()
    f_rel = orbit_relation(b0)
    target = swap_target(a0, Perm((1, 0)))
    sys_min = CoinducedSystem(a0, b0, target, choice_functions(e_rel, f_rel))
    sys_max = CoinducedSystem(
        a0, b0, target, choice_functions(e_rel, f_rel, convention="max_down")
    )
    for g in b0.closure():
        p_min = sys_min.product_perm(g.perm)
        p_max = sys_max.product_perm(g.perm)
        assert p_min.cycle_type() == p_max.cycle_type()


# -- bijective choice maps ------------------------------------------------------------


def test_choice_perm_identity_slot(z4_pair):
    a0, b0 = z4_pair
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0))
    assert choice_perm(cs, 0) == Perm.identity(4)
    assert choice_perm(cs, 1) is None  # two points share a choice target


def test_slot_statistic_transports_through_bijective_choices():
    """With singleton classes every slot map is a permutation and the
    slot statistic is the capture value of a conjugated map."""
    b0 = shift_action(4)
    a0 = FreeGroupAction(
        FinAction(FinSpace(4), [("d", Perm.identity(4))], {"d": "d"})
    )
    e_rel = a0.orbit_relation()
    cs = choice_functions(e_rel, orbit_relation(b0))
    assert cs.strata == (4, 4, 4, 4)
    for g in b0.closure():
        for k in range(4):
            ck = choice_perm(cs, k)
            assert ck is not None
            for n in range(4):
                cn = choice_perm(cs, n)
                expected = phi(e_rel, cn * g.perm * ck.inverse())
                assert phi_kn(cs, b0, k, n, g.perm) == expected


def test_singleton_class_system_builds_with_four_slots():
    b0 = shift_action(4)
    a0 = FreeGroupAction(
        FinAction(FinSpace(4), [("d", Perm.identity(4))], {"d": "d"})
    )
    sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(3)))
    assert sys.N == 4
    assert sys.product_size == 4 * 81
    assert check_rho_cocycle(sys) == 4 * 4 * 4
    rep = check_thm33_identity(sys, [0], "g")
    assert rep.rhs == rep.lhs_factorized == rep.lhs_materialized


# -- randomized identity sweep ---------------------------------------------------------


def random_cyclic_instance(rng: random.Random):
    """Ambient full cycle on m points with the subaction by +m/q."""
    m = rng.choice([4, 6, 8])
    divisors = [q for q in (2, 4) if m % q == 0 and m // q >= 1 and m > q]
    q = rng.choice(divisors)
    b0 = shift_action(m)
    a0 = FreeGroupAction(shift_action(m, step=m // q, label="d"))
    return a0, b0


def test_identity_sweep_over_random_instances():
    rng = random.Random(20260819)
    for _ in range(25):
        a0, b0 = random_cyclic_instance(rng)
        sys = coinduced_action(a0, b0, TargetAction.trivial(a0, FinSpace(2)))
        check_rho_cocycle(sys)
        gammas = b0.closure()
        g = gammas[rng.randrange(len(gammas))].name
        b_set = [y for y in range(2) if rng.random() < 0.5]
        check_thm33_identity(sys, b_set, g)
        f_val = rng.randint(1, 5)
        check_prop34_pairing(
            sys, [f_val, -f_val], rng.randrange(sys.N), rng.randrange(sys.N), g
        )


# -- array kernels against the per-point definition -----------------------------------


@pytest.mark.parametrize("m, idx", [(4, 2), (6, 2), (9, 3), (8, 4)])
def test_array_kernels_match_the_per_point_definition(m, idx):
    spec = load_instance(make_coinduce_ready(m, idx)).coinduce
    a0 = spec.a0
    assert a0.orbit_relation() is a0.orbit_relation()
    gammas = spec.b0.closure()
    for target in (spec.a, _doubled_target(a0, spec.a)):
        sys = coinduced_action(a0, spec.b0, target)
        assert sys.materialized
        size = sys.product_size
        points = [sys.decode(c) for c in range(size)]
        assert sys.base_column().tolist() == [x for x, _ in points]
        for n in range(sys.N):
            assert sys.digit_column(n).tolist() == [ybar[n] for _, ybar in points]
        for g in [e.perm for e in gammas] + [d.perm for d in a0.elements]:
            images = []
            for x, ybar in points:
                pi, dbar = sys.rho(x, g(x))
                images.append(sys.encode(g(x), sys.apply_transport(pi, dbar, ybar)))
            assert sys.product_perm(g).images == tuple(images)
            assert sys.product_images(g).tolist() == images

        slot_pairs = {(0, 0), (0, sys.N - 1), (sys.N - 1, 1 % sys.N)}
        for gamma in gammas[:3]:
            moved = [points[c] for c in sys.product_perm(gamma.perm).images]
            for b_set in _target_orbit_sets(a0, target):
                rep = check_thm33_identity(sys, sorted(b_set), gamma.name)
                count = sum(
                    1 for (_, yb), (_, nyb) in zip(points, moved)
                    if yb[0] in b_set and nyb[0] in b_set
                )
                assert rep.lhs_materialized == Fraction(count, size) == rep.lhs_factorized
            for f in _invariant_observables(a0, target)[:2]:
                for k, n in slot_pairs:
                    rep = check_prop34_pairing(sys, f, k, n, gamma.name)
                    total = sum(f[nyb[n]] * f[yb[k]] for (_, yb), (_, nyb) in zip(points, moved))
                    assert rep.lhs_materialized == total / size == rep.lhs_factorized



@pytest.mark.parametrize(
    "cycles", [[1], [2], [1, 1], [3, 1], [1, 2, 3], [2, 2, 1, 1], [1] * 6, [3, 1, 2, 1, 1, 2]]
)
def test_invariant_observables_are_the_first_four_proper_orbit_unions(cycles):
    """invariant_observables against its definition over every orbit union."""
    images, start = [], 0
    for n in cycles:
        images += [start + (i + 1) % n for i in range(n)]
        start += n
    sigma = Perm(tuple(images))
    a0 = FreeGroupAction(shift_action(max(sigma.order(), 2)))
    powers = {e.name: sigma ** e.perm(0) for e in a0.elements}
    target = TargetAction(a0, FinSpace(sigma.size), powers)
    y = sigma.size
    expected = [
        [Fraction(1) - Fraction(len(s), y) if v in s else -Fraction(len(s), y) for v in range(y)]
        for s in _target_orbit_sets(a0, target)
        if 0 < len(s) < y
    ][:4]
    assert _invariant_observables(a0, target) == expected

def test_pairing_fold_when_value_pairs_outnumber_points():
    """One slot and a target larger than the base: Y^2 cells exceed the X*Y points."""
    b0 = shift_action(2)
    a0 = FreeGroupAction(shift_action(2, label="d"))
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0, 2))))
    assert sys.N == 1 and sys.y_size**2 > sys.product_size
    for gamma in ("g^0", "g^1"):
        rep = check_prop34_pairing(sys, [1, 1, -2], 0, 0, gamma)
        assert rep.lhs_materialized == rep.lhs_factorized == rep.rhs == 2


@settings(max_examples=100, deadline=None)
@given(images=st.integers(1, 8).flatmap(lambda y: st.permutations(range(y))))
def test_orbit_blocks_come_in_least_member_order(images):
    """Target orbit sets and invariant basis columns list the orbits of
    a cyclic target by least member, as the frozen reports expect."""
    sigma = Perm(images)
    k = max(sigma.order(), 2)
    a0 = FreeGroupAction(shift_action(k))
    powers = {e.name: sigma ** e.perm(0) for e in a0.elements}
    orbits = sorted({tuple(sorted({(sigma ** j)(v) for j in range(k)})) for v in range(sigma.size)})

    sets = _target_orbit_sets(a0, TargetAction(a0, FinSpace(sigma.size), powers))
    assert len(sets) == 1 << len(orbits)
    assert [tuple(sorted(sets[1 << b])) for b in range(len(orbits))] == orbits
    basis = FiniteRep(a0.base, powers).invariant_basis()
    assert [tuple(np.flatnonzero(col).tolist()) for col in basis.T] == orbits
