"""Skew-product construction and its exact counting identities."""

import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    check_prop34_pairings,
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
import erglab.coinduce as coinduce_module
from erglab.coinduce import MixingIdentityReport, PairingReport, _target_orbits
from erglab.subrel import ChoiceSystem
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


def _under_product_cap(product, build, *args):
    """build(*args) with ERGLAB_CAPS setting this product cap (None: the
    defaults), the only way a cap is set: a system reads its `product`
    cap when it is built."""
    with pytest.MonkeyPatch.context() as mp:
        if product is None:
            mp.delenv("ERGLAB_CAPS", raising=False)
        else:
            mp.setenv("ERGLAB_CAPS", f"product={product}")
        return build(*args)


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
    assert a0.base.element_of(Perm.identity(4)).name == "d^0"
    with pytest.raises(ValidationError):
        a0.base.element_of(Perm((1, 0, 2, 3)))


def _s3_left_regular() -> FinAction:
    """S_3 acting freely on itself by left multiplication."""
    elems = [Perm(p) for p in itertools.permutations(range(3))]
    where = {e: i for i, e in enumerate(elems)}

    def left(s: Perm) -> Perm:
        return Perm([where[s * e] for e in elems])

    gens = [("s", left(Perm((1, 0, 2)))), ("t", left(Perm((0, 2, 1))))]
    return FinAction(FinSpace(6), gens, {"s": "s", "t": "t"})


def test_group_arithmetic_matches_composition_in_a_nonabelian_group():
    a0 = FreeGroupAction(_s3_left_regular())
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
    keyed = [("e", Perm.identity(4)), ("a", a), ("b", b), ("ab", a * b)]
    names = {key: group.base.element_of(p).name for key, p in keyed}
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
        sys.product_size, [sys.product_perm(a0.perm_of(e.name)) for e in a0.elements]
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
        sys.product_size, [sys.product_perm(a0.perm_of(e.name)) for e in a0.elements]
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
    sys = _under_product_cap(10, coinduced_action, a0, b0, swap_target(a0, Perm((1, 0))))
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


def _s3_on_six_points() -> FinAction:
    # S_3 acting on itself by left translation: free, six points
    t = Perm.from_cycles(6, [(0, 3), (1, 5), (2, 4)])
    c = Perm.from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    return FinAction(
        FinSpace(6), [("t", t), ("c", c), ("c_inv", c.inverse())], {"t": "t", "c": "c_inv", "c_inv": "c"}
    )


def _word_target(a0: FreeGroupAction, gen_images: dict) -> TargetAction:
    """The target action sending each generator label to its given image,
    evaluated along each element's word (the last letter acts last)."""
    size = next(iter(gen_images.values())).size
    images = {}
    for e in a0.elements:
        p = Perm.identity(size)
        for lab in e.word:
            p = gen_images[lab] * p
        images[e.name] = p
    return TargetAction(a0, FinSpace(size), images)


def _s3_targets(a0: FreeGroupAction) -> list[TargetAction]:
    t3, c3 = Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])
    # natural S_3 on {0, 1, 2} and the sign on {3, 4}, with a fixed point 5
    t6, c6 = Perm.from_cycles(6, [(0, 1), (3, 4)]), Perm.from_cycles(6, [(0, 1, 2)])
    return [
        _word_target(a0, {"t": t3, "c": c3, "c_inv": c3.inverse()}),
        _word_target(a0, {"t": t6, "c": c6, "c_inv": c6.inverse()}),
        # regular: S_3 translating its own six points
        TargetAction(a0, FinSpace(6), {e.name: e.perm for e in a0.elements}),
    ]


def _cyclic_targets(a0: FreeGroupAction) -> list[TargetAction]:
    sigma = Perm.from_cycles(7, [(0, 1), (2, 3, 4)])
    return [
        _word_target(a0, {"g": sigma, "g_inv": sigma.inverse()}),
        TargetAction.trivial(a0, FinSpace(3)),
        TargetAction(a0, FinSpace(a0.base.space.size), {e.name: e.perm for e in a0.elements}),
    ]


@pytest.mark.parametrize(
    "make, targets",
    [
        (_s3_on_six_points, _s3_targets),
        (lambda: shift_action(6), _cyclic_targets),
        (lambda: shift_action(12, step=2), _cyclic_targets),
    ],
    ids=["s3-regular", "shift-6", "shift-12-by-2"],
)
def test_target_orbits_are_the_orbits_of_every_image(make, targets):
    a0 = FreeGroupAction(make())
    for target in targets(a0):
        every = (target.perm(e.name) for e in a0.elements)
        assert _target_orbits(a0, target) == EqRel.from_perms(target.space.size, every).classes



@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_target_orbits_are_the_brute_force_orbits(data):
    """Random homomorphic targets: copies of a0 on its own space and fixed
    points, side by side, relabelled by a random permutation."""
    a0 = FreeGroupAction(data.draw(st.sampled_from(SMALL_FREE))())
    m = a0.base.space.size
    copies = data.draw(st.integers(0, 2))
    fixed = data.draw(st.integers(0 if copies else 1, 3))
    size = copies * m + fixed
    sigma = Perm(data.draw(st.permutations(range(size))))
    images = {}
    for e in a0.elements:
        blocks = [c * m + y for c in range(copies) for y in e.perm.images]
        images[e.name] = sigma * Perm(blocks + list(range(copies * m, size))) * sigma.inverse()
    target = TargetAction(a0, FinSpace(size), images)
    every = [p.images for p in images.values()]
    brute = sorted({tuple(sorted({img[y] for img in every})) for y in range(size)})
    assert list(_target_orbits(a0, target)) == brute

# -- the integer transport table against the scalar definition -------------------------


def s3_on_two_copies():
    """S_3 acting freely on two copies of itself by left multiplication
    (two orbits), inside the ambient group of right multiplications and
    the copy swap (one class): the nonabelian case, with two slots."""
    elems = [Perm(p) for p in itertools.permutations(range(3))]
    where = {e: i for i, e in enumerate(elems)}

    def on_copies(f) -> Perm:
        return Perm([c * 6 + where[f(e)] for c in (0, 1) for e in elems])

    s, t = Perm((1, 0, 2)), Perm((0, 2, 1))
    a0 = FreeGroupAction(
        FinAction(
            FinSpace(12),
            [("s", on_copies(lambda e: s * e)), ("t", on_copies(lambda e: t * e))],
            {"s": "s", "t": "t"},
        )
    )
    swap = Perm([(x + 6) % 12 for x in range(12)])
    b0 = FinAction(
        FinSpace(12),
        [("u", on_copies(lambda e: e * s)), ("v", on_copies(lambda e: e * t)), ("w", swap)],
        {"u": "u", "v": "v", "w": "w"},
    )
    return a0, b0


def _coinduce_ready_pair(m, idx):
    spec = load_instance(make_coinduce_ready(m, idx)).coinduce
    return spec.a0, spec.b0


TABLE_CASES = [(4, 2), (6, 2), (9, 3), (8, 4), (12, 6), "s3"]


def _table_system(case, convention):
    a0, b0 = s3_on_two_copies() if case == "s3" else _coinduce_ready_pair(*case)
    cs = choice_functions(a0.orbit_relation(), orbit_relation(b0), convention)
    target = TargetAction.trivial(a0, FinSpace(2))
    return CoinducedSystem(a0, b0, target, cs)


@pytest.mark.parametrize("convention", ["min_up", "max_down"])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_transport_table_matches_the_scalar_definition(case, convention):
    sys = _table_system(case, convention)
    a0, cs = sys.a0, sys.cs
    names = [e.name for e in a0.elements]
    slots, deltas = sys.transport_table()
    gammas = sys.b0.closure()
    assert slots.shape == deltas.shape == (len(gammas), sys.x_size, sys.N)
    # rows of b0's closure, and rows of a0's elements, which need not lie in it
    maps = [g.perm for g in gammas] + [d.perm for d in a0.elements]
    for i, g in enumerate(maps):
        rows = sys.transport_rows(g)
        if i < len(gammas):
            assert np.array_equal(rows[0], slots[i]) and np.array_equal(rows[1], deltas[i])
        for x in range(sys.x_size):
            assert rows[0][x].tolist() == list(index_cocycle(cs, x, g(x)).images)
            assert tuple(names[j] for j in rows[1][x]) == delta_bar(cs, a0, x, g(x))


def test_the_nonabelian_case_has_noncommuting_transports():
    """The S_3 table case only guards the product order of the transports
    if its transport entries do not all commute."""
    sys = _table_system("s3", "min_up")
    used = {int(j) for j in np.unique(sys.transport_table()[1])}
    a0 = sys.a0
    names = [e.name for e in a0.elements]
    assert any(
        a0.mult(names[i], names[j]) != a0.mult(names[j], names[i]) for i in used for j in used
    )
    assert sys.N == 2 and len(sys.b0.closure()) == 12
    assert check_rho_cocycle(sys) == 12 * 12 * 12


def _first_cocycle_break(sys):
    """The per-triple cocycle loop over the transport table's rows, read
    as scalars: g1 outermost, then g2, then x."""
    gammas = sys.b0.closure()
    slots, deltas = sys.transport_table()
    products = sys.b0.product_table()
    names = [e.name for e in sys.a0.elements]

    def rho(i, x):
        return Perm(slots[i, x].tolist()), tuple(names[j] for j in deltas[i, x])

    for i, g1 in enumerate(gammas):
        for j, g2 in enumerate(gammas):
            for x in range(sys.x_size):
                y = g2.perm(x)
                if rho(products[i, j], x) != semidirect_mul(sys.a0, rho(i, y), rho(j, x)):
                    return g1.name, g2.name, x
    return None


@pytest.mark.parametrize("case", [(8, 4), (12, 6), "s3"])
@pytest.mark.parametrize("entry", [0, 1, 2])
def test_a_corrupted_table_entry_fails_the_cocycle_where_the_triple_loop_does(case, entry):
    sys = _table_system(case, "min_up")
    assert _first_cocycle_break(sys) is None
    slots, deltas = sys.transport_table()
    rng = random.Random(entry)
    i, x = rng.randrange(len(slots)), rng.randrange(sys.x_size)
    if entry == 2:  # swap two slots: still a permutation, now the wrong one
        slots.setflags(write=True)
        slots[i, x] = np.roll(slots[i, x], 1)
    else:
        n = rng.randrange(sys.N)
        deltas.setflags(write=True)
        deltas[i, x, n] = (deltas[i, x, n] + 1) % sys.a0.size
    first = _first_cocycle_break(sys)
    assert first is not None
    with pytest.raises(CheckFailed, match=re.escape("fails at (%s, %s, %d)" % first) + "$"):
        check_rho_cocycle(sys)


@pytest.mark.parametrize("case", [(8, 4), "s3"])
def test_a_product_row_that_is_not_a_permutation_is_refused(case):
    sys = _table_system(case, "min_up")
    slots, _ = sys.transport_table()
    slots.setflags(write=True)
    slots[1, 0] = 0  # every slot of point 0 goes to slot 0
    g = sys.b0.closure()[1].perm
    for build in (sys.product_images, sys.product_perm):
        message = r"not a permutation of 0\.\.%d: \(" % (sys.product_size - 1)
        with pytest.raises(ValidationError, match=message):
            build(g)
    assert sys.product_images(sys.b0.closure()[2].perm).size == sys.product_size


def _pairing_cases():
    """(system, observables) with N = 1..4 slots, materialized and
    factorized, and the sparse fold (target larger than the product)."""
    for m, idx in ((4, 1), (4, 2), (6, 3), (8, 4)):
        spec = load_instance(make_coinduce_ready(m, idx)).coinduce
        target = _doubled_target(spec.a0, spec.a)
        for product in (None, 1):
            system = _under_product_cap(product, coinduced_action, spec.a0, spec.b0, target)
            yield system, _invariant_observables(spec.a0, target)
    b0 = shift_action(2)
    a0 = FreeGroupAction(shift_action(2, label="d"))
    yield coinduced_action(a0, b0, swap_target(a0, Perm((1, 0, 2)))), [[1, 1, -2]]


def test_all_pairs_pairing_returns_the_one_pair_reports():
    slot_counts = set()
    for sys, observables in _pairing_cases():
        slot_counts.add(sys.N)
        assert observables
        for gamma in sys.b0.closure():
            for f in observables:
                reports = check_prop34_pairings(sys, f, gamma.name)
                assert list(reports) == list(itertools.product(range(sys.N), repeat=2))
                for (k, n), rep in reports.items():
                    assert rep == check_prop34_pairing(sys, f, k, n, gamma.name)
                    assert (rep.lhs_materialized is None) == (not sys.materialized)
    assert slot_counts == {1, 2, 3, 4}


def test_all_pairs_pairing_validates_like_the_one_pair_call(z4_pair):
    a0, b0 = z4_pair
    sys = coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))
    for f, message in (([1, -1], "not invariant"), ([1, 1], "zero mean"), ([1, 0, -1], "length")):
        with pytest.raises(ValidationError, match=message):
            check_prop34_pairings(sys, f, "g")
    with pytest.raises(ValidationError, match="slot indices"):
        check_prop34_pairings(sys, [0, 0], "g", [(0, 2)])


def test_table_and_cocycle_with_noncommuting_slot_permutations():
    """The canonical choice systems only rotate slots, and rotations
    commute; a hand-made choice system on the natural S_3 action makes
    the slot permutations a nonabelian family, so the order in which
    the cocycle composes them is tested."""
    b0 = FinAction(
        FinSpace(3),
        [("t", Perm((1, 0, 2))), ("c", Perm((1, 2, 0))), ("c_inv", Perm((2, 0, 1)))],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )
    a0 = FreeGroupAction(FinAction(FinSpace(3), [("d", Perm.identity(3))], {"d": "d"}))
    choices = ((0, 1, 2), (1, 0, 2), (2, 1, 0))
    cs = ChoiceSystem(a0.orbit_relation(), orbit_relation(b0), "hand", choices)
    sys = CoinducedSystem(a0, b0, TargetAction.trivial(a0, FinSpace(2)), cs)
    slots, _ = sys.transport_table()
    perms = {Perm(row) for row in slots.reshape(-1, 3).tolist()}
    assert any(p * q != q * p for p in perms for q in perms)
    for g, rows in zip(b0.closure(), slots):
        for x in range(3):
            assert rows[x].tolist() == list(index_cocycle(cs, x, g.perm(x)).images)
    assert check_rho_cocycle(sys) == 6 * 6 * 3


@pytest.mark.parametrize("name", ["g^0", "g^1", "g^2", "g^3"])
def test_the_action_law_is_checked_through_the_generators(z4_pair, monkeypatch, name):
    """The law is checked on the identity and the generators' rows only;
    a wrong product map anywhere in the closure still breaks it."""
    a0, b0 = z4_pair
    build = CoinducedSystem.product_images
    bad = b0.element(name).perm.images

    def corrupted(self, g):
        images = build(self, g)
        if g.images == bad:
            images = images.copy()
            images[[0, 1]] = images[[1, 0]]
        return images

    monkeypatch.setattr(CoinducedSystem, "product_images", corrupted)
    with pytest.raises(CheckFailed, match="do not compose as an action"):
        coinduced_action(a0, b0, swap_target(a0, Perm((1, 0))))


def test_a_choice_system_finer_than_the_ambient_orbits(z4_pair):
    """Ambient classes set by the choice system, not by b0: the cocycle
    over b0's closure fails where b0 leaves a class, while an element
    that keeps the classes still gets its own transport rows."""
    a0, b0 = z4_pair
    e_rel = a0.orbit_relation()
    sys = CoinducedSystem(a0, b0, swap_target(a0, Perm((1, 0))), choice_functions(e_rel, e_rel))
    with pytest.raises(ValidationError, match="0 and 1 are in different ambient classes"):
        check_rho_cocycle(sys)
    rep = check_thm33_identity(sys, [0, 1], "g^2")
    assert rep.lhs_factorized == rep.lhs_materialized == rep.rhs
    with pytest.raises(ValidationError, match="preserve each ambient class"):
        check_thm33_identity(sys, [0, 1], "g")


def test_the_action_law_reads_no_product_table(z4_pair, monkeypatch):
    """coinduced_action checks the law on the step table's rows; b0's
    N x N product table is never built."""
    a0, b0 = z4_pair

    def refuse(self):
        raise AssertionError("product_table was built")

    monkeypatch.setattr(FinAction, "product_table", refuse)
    for target in (swap_target(a0, Perm((1, 0))), TargetAction.trivial(a0, FinSpace(3))):
        assert coinduced_action(a0, b0, target).materialized
    spec = load_instance(make_coinduce_ready(9, 3)).coinduce
    assert coinduced_action(spec.a0, spec.b0, _doubled_target(spec.a0, spec.a)).materialized


# -- the group arithmetic and the target table against their definitions --------------


ORACLE_CASES = [*TABLE_CASES, "s3-left", "s3-six"]


def _oracle_group(case) -> FreeGroupAction:
    if case == "s3-left":
        return FreeGroupAction(_s3_left_regular())
    if case == "s3-six":
        return FreeGroupAction(_s3_on_six_points())
    return s3_on_two_copies()[0] if case == "s3" else _coinduce_ready_pair(*case)[0]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_mult_and_inverse_match_perm_composition(case):
    a0 = _oracle_group(case)
    elems = a0.elements
    index = {e.perm: i for i, e in enumerate(elems)}
    products = [[index[g.perm * h.perm] for h in elems] for g in elems]
    for g in elems:
        assert a0.inverse_name(g.name) == elems[index[g.perm.inverse()]].name
        for h in elems:
            assert a0.mult(g.name, h.name) == elems[index[g.perm * h.perm]].name
    left, right = np.indices((len(elems), len(elems)))
    assert a0.mult_indices(left, right).tolist() == products


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_transporter_matches_a_scan_of_the_elements(case):
    a0 = _oracle_group(case)
    m = a0.base.space.size
    for src in range(m):
        for dst in range(m):
            carriers = [e.name for e in a0.elements if e.perm(src) == dst]
            assert len(carriers) <= 1  # freeness
            if carriers:
                assert a0.transporter(src, dst) == carriers[0]
                k = a0.transporter_indices(np.array([src]), np.array([dst]))[0]
                assert a0.elements[k].name == carriers[0]
            else:
                with pytest.raises(ValidationError, match=f"carries {src} to {dst}; .*different orbits"):
                    a0.transporter(src, dst)
    for src, dst in ((-1, 0), (0, -1), (-m, 0), (m, 0), (0, m), (m + 3, -2)):
        with pytest.raises(ValidationError, match=re.escape(f"no element carries {src} to {dst};")):
            a0.transporter(src, dst)


def _oracle_targets(case, a0: FreeGroupAction) -> list[dict]:
    """Name-keyed homomorphisms of a0: trivial, a0 on its own space
    (plainly and conjugated), and the instance's own targets."""
    m = a0.base.space.size
    tau = Perm(tuple(reversed(range(m))))
    tables = [
        {e.name: Perm.identity(3) for e in a0.elements},
        {e.name: e.perm for e in a0.elements},
        {e.name: tau * e.perm * tau.inverse() for e in a0.elements},
    ]
    if case == "s3-six":
        tables += [{e.name: t.perm(e.name) for e in a0.elements} for t in _s3_targets(a0)]
    elif case not in ("s3", "s3-left"):
        spec = load_instance(make_coinduce_ready(*case)).coinduce
        for t in (spec.a, _doubled_target(spec.a0, spec.a)):
            tables.append({e.name: t.perm(e.name) for e in spec.a0.elements})
    return tables


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_target_rows_are_the_name_keyed_images(case):
    a0 = _oracle_group(case)
    for images in _oracle_targets(case, a0):
        size = next(iter(images.values())).size
        target = TargetAction(a0, FinSpace(size), images)
        assert not target.rows.flags.writeable
        assert target.rows.tolist() == [list(images[e.name].images) for e in a0.elements]
        assert all(target.perm(name) == p for name, p in images.items())


def _klein_four_regular() -> FinAction:
    u, v = Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])
    return FinAction(FinSpace(4), [("u", u), ("v", v)], {"u": "u", "v": "v"})


SMALL_FREE = [
    lambda: shift_action(1),
    lambda: shift_action(2),
    lambda: shift_action(3),
    lambda: shift_action(4, step=2, label="d"),
    lambda: shift_action(5),
    lambda: shift_action(6),
    lambda: shift_action(6, step=2),
    lambda: FinAction(FinSpace(3), [("d", Perm.identity(3))], {"d": "d"}),
    _klein_four_regular,
    _s3_left_regular,
    _s3_on_six_points,
]


def _first_break(a0: FreeGroupAction, images: dict) -> tuple[str, str] | None:
    """The first pair breaking images[g h] = images[g] images[h], by
    brute force: the identity, then each generator by name against every
    element in closure order."""
    elems = a0.elements
    name = {e.perm: e.name for e in elems}
    ident = elems[0].name
    if not images[ident].is_identity():
        return ident, ident
    gens = sorted({name[g] for _, g in a0.base.gens})
    for g in gens:
        for h in elems:
            if images[name[a0.perm_of(g) * h.perm]] != images[g] * images[h.name]:
                return g, h.name
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_target_action_accepts_exactly_the_all_pairs_homomorphisms(data):
    a0 = FreeGroupAction(data.draw(st.sampled_from(SMALL_FREE))())
    elems = a0.elements
    if data.draw(st.booleans()):
        # random generator images, evaluated along each element's word
        size = data.draw(st.integers(1, 4))
        gen_images = {}
        for lab in a0.base.labels:
            partner = gen_images.get(a0.base.inverses[lab])
            if partner is not None and data.draw(st.booleans()):
                gen_images[lab] = partner.inverse()
            else:
                gen_images[lab] = Perm(data.draw(st.permutations(range(size))))
        images = {}
        for e in elems:
            p = Perm.identity(size)
            for lab in e.word:
                p = gen_images[lab] * p
            images[e.name] = p
    else:
        # a0 on its own space, conjugated
        size = a0.base.space.size
        tau = Perm(data.draw(st.permutations(range(size))))
        images = {e.name: tau * e.perm * tau.inverse() for e in elems}
    for name in data.draw(st.lists(st.sampled_from([e.name for e in elems]), max_size=2)):
        images[name] = Perm(data.draw(st.permutations(range(size))))

    name = {e.perm: e.name for e in elems}
    all_pairs = all(
        images[name[g.perm * h.perm]] == images[g.name] * images[h.name] for g in elems for h in elems
    )
    first = _first_break(a0, images)
    assert all_pairs == (first is None)
    if all_pairs:
        target = TargetAction(a0, FinSpace(size), images)
        assert target.rows.tolist() == [list(images[e.name].images) for e in elems]
    else:
        message = re.escape("images break multiplicativity at (%s, %s)" % first) + "$"
        with pytest.raises(ValidationError, match=message):
            TargetAction(a0, FinSpace(size), images)


_HASH_SEED_SCRIPT = """
from erglab import FinAction, FinSpace, FreeGroupAction, Perm, TargetAction, ValidationError

def shift(m, k):
    return Perm([(x + k) % m for x in range(m)])

gens = [("d", shift(6, 1)), ("d_inv", shift(6, -1))]
a0 = FreeGroupAction(FinAction(FinSpace(6), gens, {"d": "d_inv", "d_inv": "d"}))
images = {f"d^{k}": shift(6, k) for k in range(6)}
images["d^2"] = images["d^4"] = Perm((1, 0, 2, 3, 4, 5))
try:
    TargetAction(a0, FinSpace(6), images)
except ValidationError as exc:
    print(exc)
"""


def test_the_target_action_error_does_not_follow_the_hash_seed():
    """A Z/6 shift target broken at two elements fails at several pairs;
    the error names the first one in generator-name, then closure order.
    Under hash seeds 2 and 6 a scan in set order named two different ones."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    messages = set()
    for seed in ("2", "6"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        messages.add(done.stdout)
    assert messages == {"images break multiplicativity at (d^1, d^1)\n"}


# -- the integer folds of the two identities ------------------------------------------


def _doubled_system(m, idx, product=None):
    spec = load_instance(make_coinduce_ready(m, idx)).coinduce
    target = _doubled_target(spec.a0, spec.a)
    return _under_product_cap(product, coinduced_action, spec.a0, spec.b0, target), target


def _corrupt_transport(monkeypatch, corrupt):
    """Route every later transport_rows call through corrupt(slots, deltas).
    Product maps that coinduced_action already built stay as they were."""
    rows = CoinducedSystem.transport_rows
    monkeypatch.setattr(CoinducedSystem, "transport_rows", lambda self, g: corrupt(*rows(self, g)))


def _raised(call) -> str | None:
    try:
        call()
    except CheckFailed as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("product, message", [
    (None, "factorized and materialized overlap counts disagree"),
    (1, "overlap identity violated"),
])
def test_overlap_check_fails_on_a_corrupted_slot_column(monkeypatch, product, message):
    """Reversing every slot permutation moves the points that fix slot 0:
    the factorized overlap leaves the materialized count (which then
    fails first) and the closed form."""
    sys, _ = _doubled_system(4, 2, product)
    b_set = [0, 2]  # one of the two target orbits
    assert len(b_set) < sys.y_size
    gammas = sys.b0.closure()
    for gamma in gammas:
        fixed = np.count_nonzero(sys.transport_rows(gamma.perm)[0][:, 0] == 0)
        assert 2 * fixed != sys.x_size  # so reversing the slots moves the count
    _corrupt_transport(monkeypatch, lambda slots, deltas: (slots[:, ::-1], deltas))
    for gamma in gammas:
        with pytest.raises(CheckFailed, match=f"^{message}$"):
            check_thm33_identity(sys, b_set, gamma.name)


def test_pairing_route_check_fails_exactly_at_the_moved_slot_pairs(monkeypatch):
    """Rotating one point's slot permutation moves that point to other
    slot pairs on the factorized route only. The pairs whose counts moved
    fail the route check, alone or in any call; the others still pass
    with their uncorrupted reports."""
    sys, target = _doubled_system(6, 3)
    f = _invariant_observables(sys.a0, target)[0]
    gamma = sys.b0.closure()[1]
    clean = check_prop34_pairings(sys, f, gamma.name)
    slots = sys.transport_rows(gamma.perm)[0]
    rotated = slots.copy()
    rotated[2] = np.roll(slots[2], 1)
    _corrupt_transport(monkeypatch, lambda s, d: (rotated if s is slots else s, d))

    def hits(table):
        return {(k, n): int(np.count_nonzero(table[:, k] == n)) for k, n in clean}

    moved = {pair for pair, h in hits(rotated).items() if h != hits(slots)[pair]}
    assert moved and len(moved) < len(clean)
    disagree = "factorized and materialized pairings disagree"
    for pair in clean:
        raised = _raised(lambda: check_prop34_pairings(sys, f, gamma.name, [pair]))
        assert raised == (disagree if pair in moved else None)
    with pytest.raises(CheckFailed, match=f"^{disagree}$"):
        check_prop34_pairings(sys, f, gamma.name)
    kept = [pair for pair in clean if pair not in moved]
    assert check_prop34_pairings(sys, f, gamma.name, kept) == {p: clean[p] for p in kept}


def test_an_overflowing_int64_fold_fails_the_pairing_at_its_first_pair(monkeypatch):
    """The pairing identity holds for every transport (invariance of f
    gives each element the weight sum f^2), so what it guards is the
    exactness of the fold. Forced into int64 with observables scaled by
    3^20, the fold wraps at every pair that a point reaches: the first
    such pair in row-major order fails both checks, and its route check
    is the one reported; the pairs before it still pass."""
    monkeypatch.setattr(coinduce_module, "_fold_dtype", lambda bound: np.int64)
    factorized, target = _doubled_system(4, 2, product=1)
    materialized, _ = _doubled_system(4, 2)
    f = [v * 3**20 for v in _invariant_observables(materialized.a0, target)[0]]
    gamma = materialized.b0.element("g^1")
    slots = materialized.transport_rows(gamma.perm)[0]
    pairs = list(itertools.product(range(materialized.N), repeat=2))
    first = next(i for i, (k, n) in enumerate(pairs) if np.any(slots[:, k] == n))
    assert first > 0  # g^1 moves slot 0 at every point
    for sys, message in (
        (materialized, "factorized and materialized pairings disagree"),
        (factorized, "pairing identity violated"),
    ):
        assert check_prop34_pairings(sys, f, gamma.name, pairs[:first])
        assert _raised(lambda: check_prop34_pairings(sys, f, gamma.name, [pairs[first]])) == message
        with pytest.raises(CheckFailed, match=f"^{message}$"):
            check_prop34_pairings(sys, f, gamma.name)


def _thm33_oracle(sys, b_set, gamma) -> MixingIdentityReport:
    """The overlap identity folded point by point in Fractions."""
    g = sys.b0.resolve(gamma)
    x_size, y_size = sys.x_size, sys.y_size
    p = Fraction(len(b_set), y_size)
    phi_val = phi(sys.cs.E, g)
    slots, deltas = sys.transport_rows(g)
    rows = sys.a.rows.tolist()
    lhs_fact = Fraction(0)
    for x in range(x_size):
        image = rows[deltas[x, 0]]
        if slots[x, 0] == 0:  # B against its own image
            lhs_fact += Fraction(sum(1 for v in b_set if image[v] in b_set), x_size * y_size)
        else:  # B against the preimage of B in an independent coordinate
            lhs_fact += p * Fraction(sum(1 for v in image if v in b_set), x_size * y_size)
    lhs_mat = None
    if sys.materialized:
        first = sys.digit_column(0).tolist()
        images = sys.product_images(g).tolist()
        count = sum(1 for c, d in enumerate(images) if first[c] in b_set and first[d] in b_set)
        lhs_mat = Fraction(count, sys.product_size)
    rhs = p * phi_val + p * p * (1 - phi_val)
    return MixingIdentityReport(p, phi_val, lhs_fact, lhs_mat, rhs, "pass")


def _prop34_oracle(sys, f, gamma) -> dict[tuple[int, int], PairingReport]:
    """The pairing identity folded pair by pair and point by point in Fractions."""
    g = sys.b0.resolve(gamma)
    f = [Fraction(v) for v in f]
    x_size, y_size = sys.x_size, sys.y_size
    norm_sq = sum(v * v for v in f) / y_size
    slots, deltas = sys.transport_rows(g)
    weights = [sum(f[t] * v for t, v in zip(row, f)) for row in sys.a.rows.tolist()]
    if sys.materialized:
        images = sys.product_images(g).tolist()
        digits = [sys.digit_column(n).tolist() for n in range(sys.N)]
    reports = {}
    for k, n in itertools.product(range(sys.N), repeat=2):
        sends = [x for x in range(x_size) if slots[x, k] == n]
        phi_val = Fraction(len(sends), x_size)
        lhs_fact = sum((weights[deltas[x, n]] for x in sends), Fraction(0)) / (x_size * y_size)
        lhs_mat = None
        if sys.materialized:
            total = sum(f[digits[k][c]] * f[digits[n][d]] for c, d in enumerate(images))
            lhs_mat = total / sys.product_size
        reports[(k, n)] = PairingReport(norm_sq, phi_val, lhs_fact, lhs_mat, phi_val * norm_sq, "pass")
    return reports


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_folds_match_the_fraction_oracle(data):
    """Both checks return the oracle's reports on random coinduce_ready
    systems, materialized or factorized. Each observable also runs scaled
    by 3^40, whose squares leave int64, so both fold dtypes run."""
    m = data.draw(st.sampled_from([2, 4, 6]), label="m")
    idx = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]), label="idx")
    product = data.draw(st.sampled_from([None, 1]), label="product cap")
    sys, target = _doubled_system(m, idx, product)
    gamma = data.draw(st.sampled_from(sys.b0.closure()), label="gamma").name
    b_set = data.draw(st.sampled_from(_target_orbit_sets(sys.a0, target)), label="b_set")
    f = data.draw(st.sampled_from(_invariant_observables(sys.a0, target)), label="f")
    oracle = _thm33_oracle(sys, sorted(b_set), gamma)
    assert oracle.lhs_factorized == oracle.rhs and oracle.lhs_materialized in (None, oracle.rhs)
    assert check_thm33_identity(sys, sorted(b_set), gamma) == oracle

    fold = coinduce_module._fold_dtype
    dtypes = []

    def spy(bound):
        dtypes.append(fold(bound))
        return dtypes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coinduce_module, "_fold_dtype", spy)
        for scale in (1, 3**40):
            scaled = [v * scale for v in f]
            oracle = _prop34_oracle(sys, scaled, gamma)
            for rep in oracle.values():
                assert rep.lhs_factorized == rep.rhs and rep.lhs_materialized in (None, rep.rhs)
            reports = check_prop34_pairings(sys, scaled, gamma)
            assert list(reports) == list(oracle) and reports == oracle
    assert dtypes == [np.int64, object]
