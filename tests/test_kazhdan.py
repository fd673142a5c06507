"""Gap arithmetic, averaging-operator certificates, and table transfer."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erglab import (
    CheckFailed,
    FinAction,
    FinSpace,
    FiniteRep,
    FreeGroupAction,
    KazhdanPair,
    Perm,
    ValidationError,
    amplify,
    averaging_norm,
    bounds,
    cor54_thresholds,
    cor54_tier,
    cost_band,
    gram_check,
    min_index_set,
    orbit_relation,
    pd_transfer,
    phi,
    prop53_check,
)
from erglab.ergcore import EqRel

SQRT2 = math.sqrt(2.0)


def shift_action(m: int, step: int = 1, label: str = "g") -> FinAction:
    p = Perm(tuple((x + step) % m for x in range(m)))
    inv = p.inverse()
    if p == inv:
        return FinAction(FinSpace(m), [(label, p)], {label: label})
    lab2 = label + "_inv"
    return FinAction(
        FinSpace(m), [(label, p), (lab2, inv)], {label: lab2, lab2: label}
    )


def klein_action() -> FinAction:
    u = Perm.from_cycles(4, [(0, 1), (2, 3)])
    v = Perm.from_cycles(4, [(0, 2), (1, 3)])
    return FinAction(FinSpace(4), [("u", u), ("v", v)], {"u": "u", "v": "v"})


def s3_action() -> FinAction:
    t = Perm.from_cycles(3, [(0, 1)])
    c = Perm.from_cycles(3, [(0, 1, 2)])
    return FinAction(
        FinSpace(3),
        [("t", t), ("c", c), ("c_inv", c.inverse())],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )


# -- pair validation ----------------------------------------------------------


def test_pair_accepts_boundary_values():
    KazhdanPair(1, SQRT2)
    KazhdanPair(3, Fraction(1, 10))
    KazhdanPair(2, 1.0)


@pytest.mark.parametrize(
    "k,eps",
    [(0, 1.0), (3, 0.0), (3, -0.5), (3, 1.5), (3, Fraction(3, 2)), (-1, 0.1)],
)
def test_pair_rejects_bad_values(k, eps):
    with pytest.raises(ValidationError):
        KazhdanPair(k, eps)


# -- amplification ------------------------------------------------------------


def test_amplify_frozen_value():
    # binary64 evaluation of sqrt(2*(1 - (599/600)^2))
    got = amplify(KazhdanPair(3, 0.1), 2)
    assert abs(got - 0.08161563031130196) < 1e-12


def test_amplify_matches_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for k in (1, 2, 3, 5):
        for eps in (0.05, 0.3, 1.0):
            for n in (1, 2, 7):
                ratio = (k - mp.mpf(eps) ** 2 / 2) / k
                want = float(mp.sqrt(2 * (1 - ratio**n)))
                got = amplify(KazhdanPair(k, eps), n)
                assert abs(got - want) < 1e-12


def test_amplify_ratio_zero_hits_ceiling():
    pair = KazhdanPair(1, SQRT2)
    for n in (1, 2, 9):
        assert amplify(pair, n) == pytest.approx(SQRT2, abs=1e-15)


def test_amplify_monotone_and_bounded():
    for k, eps in [(1, 0.4), (2, 1.0), (3, 0.1), (5, 1.2), (4, SQRT2)]:
        pair = KazhdanPair(k, eps)
        values = [amplify(pair, n) for n in range(1, 31)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-15
        assert all(v <= SQRT2 + 1e-15 for v in values)


def test_amplify_limit_is_sqrt2():
    assert abs(amplify(KazhdanPair(3, 1.0), 300) - SQRT2) < 1e-12


def test_amplify_rejects_zero_power():
    with pytest.raises(ValidationError, match="at least 1"):
        amplify(KazhdanPair(3, 0.1), 0)


# -- closed-form bounds -------------------------------------------------------


def test_bounds_eps_n_value():
    got = bounds("eps_n", 1, None)
    assert abs(got - math.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(got - 0.816497) < 1e-6
    # eps plays no role for this selector
    assert bounds("eps_n", 3, None) == bounds("eps_n", 3, 1.0)


def test_bounds_cost_a_exact_rational():
    got = bounds("cost_a", 2, 1)
    assert isinstance(got, Fraction)
    assert got == Fraction(4, 3)


def test_bounds_cost_b_exact_rational():
    assert bounds("cost_b", 3, Fraction(1, 2)) == Fraction(47, 16)


def test_bounds_cost_c_trivial_at_zero():
    assert bounds("cost_c", 2, 0) == 2


def test_bounds_pu():
    assert bounds("pu", 1, 1) == Fraction(1, 2)
    assert bounds("pu", 1, 1.0) == pytest.approx(0.5)


def test_bounds_rational_and_float_routes_agree():
    grid = [
        ("pu", 1, Fraction(3, 5)),
        ("cost_a", 4, Fraction(1, 3)),
        ("cost_b", 2, Fraction(5, 4)),
        ("cost_c", 6, Fraction(1, 1)),
    ]
    for sel, n, eps in grid:
        exact = bounds(sel, n, eps)
        approx = bounds(sel, n, float(eps))
        assert isinstance(exact, Fraction)
        assert abs(float(exact) - approx) < 1e-12


def test_bounds_validation():
    with pytest.raises(ValidationError, match="unknown selector"):
        bounds("cost_z", 2, 1)
    with pytest.raises(ValidationError, match="at least 1"):
        bounds("pu", 0, 1)
    with pytest.raises(ValidationError):
        bounds("pu", 1, -0.1)
    with pytest.raises(ValidationError):
        bounds("pu", 1, Fraction(2))


def test_cost_band():
    assert cost_band(5) == (1, 5)
    with pytest.raises(ValidationError):
        cost_band(0)


def test_cost_c_stays_below_trivial_bound():
    for n in range(1, 9):
        for eps in (0.01, 0.5, 1.0, 1.2, SQRT2):
            assert bounds("cost_c", n, eps) < n


def test_cost_a_below_trivial_bound_for_large_eps():
    # the formula dips under the trivial band once eps is of unit size
    for n in range(1, 9):
        for eps in (1, Fraction(7, 5), 1.2):
            assert bounds("cost_a", n, eps) < n


# -- capture thresholds -------------------------------------------------------


def test_thresholds_exact_at_unit_eps():
    assert cor54_thresholds(1) == (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(7, 8),
        Fraction(15, 16),
    )


def test_thresholds_strictly_increase():
    for eps in (0.05, 0.5, 1.0, 1.3, SQRT2):
        t = cor54_thresholds(eps)
        assert t[0] < t[1] < t[2] < t[3]


def test_tier_counting():
    assert cor54_tier(Fraction(1), 1) == 4
    assert cor54_tier(Fraction(1, 2), 1) == 0
    assert cor54_tier(0.76, 1.0) == 2
    assert cor54_tier(0.9, 1.0) == 3
    assert cor54_tier(0.95, 1.0) == 4
    # nesting: a larger capture value never clears fewer thresholds
    grid = [0.1, 0.45, 0.55, 0.7, 0.8, 0.9, 0.99]
    tiers = [cor54_tier(c, 1.2) for c in grid]
    assert tiers == sorted(tiers)


def _two_orbit_action():
    p = Perm.from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    return FinAction(
        FinSpace(6), [("g", p), ("g_inv", p.inverse())], {"g": "g_inv", "g_inv": "g"}
    )


def test_tier_dispatch_drives_index_checks():
    eps = Fraction(7, 5)  # thresholds 1/50, 51/100, 151/200, 351/400
    cases = [
        # (action, e-classes, expected tier)
        (shift_action(6), [(0, 1, 2), (3, 4, 5)], 0),
        (_two_orbit_action(), [(0, 1), (2,), (3, 4, 5)], 2),
        (shift_action(4), [(0, 1, 2, 3)], 4),
    ]
    for action, classes, want_tier in cases:
        f_rel = orbit_relation(action)
        e_rel = EqRel(action.space.size, classes)
        ident = Perm.identity(action.space.size)
        report = min_index_set(e_rel, f_rel, ident, ident, action)
        tier = cor54_tier(report.c, eps)
        assert tier == want_tier
        if tier == 0:
            assert report.verdict == "vacuous"
        if tier >= 2:
            assert report.verdict in ("pass", "refined")
            assert report.m_star <= 1 / report.c
        if tier >= 3:
            assert report.m_star == 1
        if tier >= 4:
            assert report.a1_bound_ok is True
            assert report.a1_measure >= 4 * report.c - 3


# -- near-invariance propagation ----------------------------------------------


def test_prop53_all_ones_pass():
    table = {"1": 1, "a": 1, "b": 1}
    for eps in (0.3, 1.0, SQRT2):
        for delta in (0.1, 0.7, 2.0):
            report = prop53_check(table, ("a",), eps, delta)
            assert report.verdict == "PASS"


def test_prop53_pass_from_capture_table():
    e = EqRel(4, [(0, 1), (2, 3)])
    act = shift_action(4)
    table = {el.name: phi(e, el.perm) for el in act.closure()}
    report = prop53_check(table, ("g^1", "g^3"), 1, 1, identity="g^0")
    assert report.verdict == "PASS"
    assert report.min_over_q == Fraction(1, 2)
    assert report.min_over_all == 0


def test_prop53_vacuous_when_hypothesis_fails():
    table = {"1": 1, "q": 0.5, "far": -0.2}
    report = prop53_check(table, ("q",), 1.0, 0.5)
    # threshold 1 - (0.25)(1)/2 = 0.875 sits above the q-row
    assert report.verdict == "VACUOUS"
    assert report.min_over_q == pytest.approx(0.5)


def test_prop53_counterexample_is_diagnostic():
    table = {"1": 1, "q": 0.7, "far": -0.9}
    report = prop53_check(table, ("q",), 1.0, 0.9)
    assert report.verdict == "COUNTEREXAMPLE"
    assert report.witness == "far"
    assert report.min_over_all == pytest.approx(-0.9)


def test_prop53_uses_real_parts():
    table = {"1": 1 + 0j, "q": 0.9 + 0.4j, "r": 0.2 - 0.5j}
    report = prop53_check(table, ("q",), 1.0, 1.0)
    assert report.min_over_q == pytest.approx(0.9)
    assert report.min_over_all == pytest.approx(0.2)


def test_prop53_validation():
    with pytest.raises(ValidationError, match="identity"):
        prop53_check({"a": 1}, ("a",), 1.0, 0.5)
    with pytest.raises(ValidationError, match="must be 1"):
        prop53_check({"1": 0.9, "a": 1}, ("a",), 1.0, 0.5)
    with pytest.raises(ValidationError, match="delta"):
        prop53_check({"1": 1, "a": 1}, ("a",), 1.0, 0)
    with pytest.raises(ValidationError):
        prop53_check({"1": 1, "a": 1}, ("a",), 0, 0.5)
    with pytest.raises(ValidationError, match="outside the table"):
        prop53_check({"1": 1, "a": 1}, ("b",), 1.0, 0.5)
    with pytest.raises(ValidationError, match="empty"):
        prop53_check({"1": 1, "a": 1}, (), 1.0, 0.5)


# -- finite representations ---------------------------------------------------


def test_natural_rep():
    rep = FiniteRep.natural(shift_action(4))
    assert rep.kind == "perm"
    assert rep.dimension == 4
    assert len(rep.names) == 4
    assert rep.identity_name == "g^0"
    assert rep.inverse_name("g^1") == "g^3"


@pytest.mark.parametrize("make", [lambda: shift_action(7), lambda: _two_orbit_action()])
def test_natural_rep_inverses_match_perm_inversion_without_a_product_table(make, monkeypatch):
    """FiniteRep.natural and averaging_norm read inverses off the closure
    index: the N x N product table is never built on that path."""
    act = make()

    def refuse(self):
        raise AssertionError("product_table was built")

    monkeypatch.setattr(FinAction, "product_table", refuse)
    rep = FiniteRep.natural(act)
    for e in act.closure():
        assert rep.inverse_name(e.name) == act.element_of(e.perm.inverse()).name
    assert averaging_norm(rep, rep.names).k == len(rep.names)
    with pytest.raises(ValidationError, match="no closure element"):
        rep.inverse_name("no-such-element")


def test_regular_rep_dimension_is_group_order():
    rep = FiniteRep.regular(shift_action(4))
    assert rep.dimension == 4
    rep6 = FiniteRep.regular(_two_orbit_action())
    assert rep6.dimension == 3  # the cycle pair generates a 3-element group


def test_rep_rejects_broken_homomorphism():
    act = shift_action(4)
    images = {el.name: el.perm for el in act.closure()}
    images["g^1"], images["g^2"] = images["g^2"], images["g^1"]
    with pytest.raises(ValidationError, match="multiplicativity"):
        FiniteRep(act, images)


def test_rep_rejects_wrong_name_cover():
    act = shift_action(4)
    images = {el.name: el.perm for el in act.closure()}
    del images["g^2"]
    with pytest.raises(ValidationError, match="cover the closure"):
        FiniteRep(act, images)


def test_rep_rejects_mixed_kinds():
    act = shift_action(2)
    images = {"g^0": Perm.identity(2), "g^1": np.eye(2)}
    with pytest.raises(ValidationError, match="all permutations or all matrices"):
        FiniteRep(act, images)


def _rotation_rep() -> FiniteRep:
    act = shift_action(4)

    def rot(j):
        a = j * math.pi / 2
        return np.array(
            [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
        )

    return FiniteRep(act, {f"g^{j}": rot(j) for j in range(4)})


def test_matrix_rep_accepts_rotations():
    rep = _rotation_rep()
    assert rep.kind == "matrix"
    assert rep.dimension == 2
    assert rep.invariant_basis().shape == (2, 0)


def test_matrix_group_average_adds_the_images_in_the_order_given():
    """The rotations of a 7-gon plus a fixed axis, conjugated by a random
    orthogonal matrix: the group average's rounding, and so the basis
    bits, depend on the order of the sum, which is the mapping's order."""
    act = shift_action(7)
    conj = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    mats = {}
    for j in (4, 2, 1, 0, 5, 3, 6):  # in closure order g^0..g^6 the bits differ
        a = 2 * math.pi * j / 7
        block = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        mats[f"g^{j}"] = conj @ block @ conj.T
    avg = np.zeros((3, 3))
    for mat in mats.values():
        avg += mat
    avg /= 7
    vals, vecs = np.linalg.eigh(avg)
    basis = FiniteRep(act, mats).invariant_basis()
    assert np.array_equal(basis, vecs[:, vals > 0.5])


def test_matrix_rep_rejects_non_orthogonal():
    act = shift_action(2)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="not orthogonal"):
        FiniteRep(act, {"g^0": np.eye(2), "g^1": shear})


def test_invariant_basis_perm_is_exact():
    rep = FiniteRep.natural(_two_orbit_action())
    basis = rep.invariant_basis()
    assert basis.shape == (6, 2)
    want = 1.0 / math.sqrt(3.0)
    assert np.allclose(sorted(basis[:, 0]), [0, 0, 0, want, want, want]) or np.allclose(
        sorted(basis[:, 1]), [0, 0, 0, want, want, want]
    )
    # columns are exactly orbit indicators, orthonormal
    assert np.allclose(basis.T @ basis, np.eye(2))
    for el in _two_orbit_action().closure():
        for c in range(2):
            assert np.array_equal(rep.apply(el.name, basis[:, c]), basis[:, c])



def _cyclic_with_fixed_points() -> FinAction:
    p = Perm.from_cycles(7, [(0, 1, 2), (3, 4)])
    return FinAction(FinSpace(7), [("g", p), ("g_inv", p.inverse())], {"g": "g_inv", "g_inv": "g"})


@pytest.mark.parametrize("kind", ["natural", "regular"])
@pytest.mark.parametrize(
    "make",
    [
        s3_action,
        lambda: s3_on_six_points(),
        lambda: shift_action(6),
        lambda: shift_action(6, step=2),
        _two_orbit_action,
        _cyclic_with_fixed_points,
    ],
    ids=["s3", "s3-on-six", "shift-6", "shift-6-by-2", "two-orbits", "fixed-points"],
)
def test_perm_invariant_basis_is_the_orbits_of_every_image(make, kind):
    action = make()
    rep = FiniteRep.natural(action) if kind == "natural" else FiniteRep.regular(action)
    d = rep.dimension
    # the partition built from the images of all elements, not only the generators
    images = [np.argmax(rep.matrix(name), axis=0).tolist() for name in rep.names]
    comps = EqRel.from_pairs(d, ((x, y) for img in images for x, y in enumerate(img))).classes
    want = np.zeros((d, len(comps)))
    for c, members in enumerate(comps):
        want[list(members), c] = 1.0 / math.sqrt(len(members))
    assert np.array_equal(rep.invariant_basis(), want)


# -- averaging operator norm --------------------------------------------------


def test_avgnorm_z4_regular_frozen():
    rep = FiniteRep.regular(shift_action(4))
    report = averaging_norm(rep, ("g^0", "g^1", "g^3"))
    assert report.k == 3
    assert report.invariant_dimension == 1
    assert abs(report.norm - 1.0 / 3.0) < 1e-9
    assert abs(report.eps_cap - SQRT2) < 1e-12


def test_avgnorm_z4_matches_eigenvalue_enumeration():
    rep = FiniteRep.regular(shift_action(4))
    q = ("g^0", "g^1", "g^3")
    t_mat = sum(rep.matrix(name) for name in q) / len(q)
    vals = sorted(np.linalg.eigvalsh(t_mat))
    # (1 + 2cos(2 pi j/4))/3 for j = 0..3
    want = sorted((1 + 2 * math.cos(2 * math.pi * j / 4)) / 3 for j in range(4))
    assert np.allclose(vals, want, atol=1e-12)
    complement = [v for v in vals if abs(v - 1.0) > 1e-9]
    oracle = max(abs(v) for v in complement)
    report = averaging_norm(rep, q)
    assert abs(report.norm - oracle) < 1e-9


def _dense_complement_norm(rep: FiniteRep, q) -> float:
    t_mat = sum(rep.matrix(name) for name in q) / len(q)
    avg = sum(rep.matrix(name) for name in rep.names) / len(rep.names)
    vals, vecs = np.linalg.eigh(avg)
    u = vecs[:, vals > 0.5]
    comp = np.eye(rep.dimension) - u @ u.T
    return float(np.linalg.norm(comp @ t_mat @ comp, 2))


def test_avgnorm_matches_dense_oracle_on_small_groups():
    act5 = shift_action(5)
    act6 = shift_action(6)
    kl = klein_action()
    s3 = s3_action()
    names5 = [el.name for el in act5.closure()]
    cases = [
        (FiniteRep.natural(act5), tuple(names5)),
        (FiniteRep.natural(act6), ("g^0", "g^1", "g^5")),
        (FiniteRep.regular(act6), ("g^0", "g^2", "g^4")),
        (FiniteRep.natural(kl), None),
        (FiniteRep.regular(kl), None),
        (FiniteRep.natural(s3), None),
        (FiniteRep.regular(s3), None),
        (_rotation_rep(), ("g^0", "g^1", "g^3")),
    ]
    for rep, q in cases:
        if q is None:
            q = rep.names  # the whole group is symmetric and has the identity
        report = averaging_norm(rep, q)
        oracle = _dense_complement_norm(rep, q)
        assert abs(report.norm - oracle) < 1e-9
        assert -1e-12 <= report.norm <= 1.0 + 1e-12
        assert report.eps_cap <= SQRT2 + 1e-15


def test_avgnorm_s3_conjugate_transposition_sets_agree():
    # (0 1) and (0 2) = t*c are conjugate, so {1, t} and {1, t*c} average
    # to conjugate operators: each fixes a non-constant vector, norm 1
    for rep in (FiniteRep.natural(s3_action()), FiniteRep.regular(s3_action())):
        for q in (("1", "t"), ("1", "t*c")):
            report = averaging_norm(rep, q)
            assert abs(report.norm - 1.0) < 1e-12
            assert abs(report.norm - _dense_complement_norm(rep, q)) < 1e-12
            assert report.eps_cap < 1e-6
            assert report.iterations == 0


def _two_generator_action(a: Perm, b: Perm) -> FinAction:
    gens, inverses = [], {}
    for lab, p in (("a", a), ("b", b)):
        gens.append((lab, p))
        if p.inverse() == p:
            inverses[lab] = lab
        else:
            gens.append((lab + "_inv", p.inverse()))
            inverses[lab], inverses[lab + "_inv"] = lab + "_inv", lab
    return FinAction(FinSpace(a.size), gens, inverses)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_avgnorm_matches_the_dense_oracle_on_random_actions(data):
    # regular representations stay at most 5 points (|S_5| = 120)
    kind = data.draw(st.sampled_from(["natural", "regular"]))
    n = data.draw(st.integers(1, 6 if kind == "natural" else 5))
    a, b = (Perm(tuple(data.draw(st.permutations(range(n))))) for _ in range(2))
    action = _two_generator_action(a, b)
    rep = FiniteRep.natural(action) if kind == "natural" else FiniteRep.regular(action)
    chosen = data.draw(st.sets(st.sampled_from(rep.names), max_size=4))
    q = {rep.identity_name} | chosen | {rep.inverse_name(name) for name in chosen}
    report = averaging_norm(rep, sorted(q))
    assert abs(report.norm - _dense_complement_norm(rep, sorted(q))) < 1e-9
    assert report.k == len(q)
    assert report.iterations == 0


def _brute_orbits(images: list) -> list[tuple[int, ...]]:
    """Orbits of a permutation group listed element by element: the
    orbit of x is every image of x, ordered by least member."""
    return sorted({tuple(sorted({img[x] for img in images})) for x in range(len(images[0]))})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invariant_basis_is_the_brute_force_orbit_indicators(data):
    kind = data.draw(st.sampled_from(["natural", "regular"]))
    n = data.draw(st.integers(1, 6 if kind == "natural" else 5))
    a, b = (Perm(tuple(data.draw(st.permutations(range(n))))) for _ in range(2))
    action = _two_generator_action(a, b)
    rep = FiniteRep.natural(action) if kind == "natural" else FiniteRep.regular(action)
    images = [np.argmax(rep.matrix(name), axis=0).tolist() for name in rep.names]
    orbits = _brute_orbits(images)
    expected = np.zeros((rep.dimension, len(orbits)))
    for c, orbit in enumerate(orbits):
        expected[list(orbit), c] = 1.0 / math.sqrt(len(orbit))
    assert np.array_equal(rep.invariant_basis(), expected)


def test_avgnorm_whole_group_average_vanishes():
    rep = FiniteRep.regular(shift_action(4))
    report = averaging_norm(rep, rep.names)
    assert abs(report.norm) < 1e-12
    assert abs(report.eps_cap - SQRT2) < 1e-12


def test_avgnorm_trivial_rep_convention():
    act = FinAction(FinSpace(3), [("s", Perm.identity(3))], {"s": "s"})
    rep = FiniteRep.natural(act)
    report = averaging_norm(rep, ("s^0",))
    assert report.norm == 0.0
    assert report.eps_cap == pytest.approx(SQRT2)
    assert report.invariant_dimension == 3


def test_avgnorm_validation():
    rep = FiniteRep.natural(shift_action(4))
    with pytest.raises(ValidationError, match="outside the group"):
        averaging_norm(rep, ("g^0", "h"))
    with pytest.raises(ValidationError, match="contain the identity"):
        averaging_norm(rep, ("g^1", "g^3"))
    with pytest.raises(ValidationError, match="not symmetric"):
        averaging_norm(rep, ("g^0", "g^1"))
    with pytest.raises(ValidationError, match="repeats"):
        averaging_norm(rep, ("g^0", "g^1", "g^3", "g^0"))


# -- transfer of positive-definite tables -------------------------------------


def test_transfer_constant_table_gives_capture_values():
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    action = shift_action(4)
    result = pd_transfer({"d^0": 1, "d^1": 1}, a0, action)
    e_rel = a0.orbit_relation()
    for el in action.closure():
        assert result.values[el.name] == phi(e_rel, el.perm)
    assert result.certificate.ok
    assert result.certificate.mode == "positive"


def test_transfer_identity_indicator_gives_fixed_mass():
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    s = Perm.from_cycles(4, [(0, 1)])
    action = FinAction(FinSpace(4), [("s", s)], {"s": "s"})
    result = pd_transfer({"d^0": 1, "d^1": 0}, a0, action)
    assert result.values["s^0"] == 1
    assert result.values["s^1"] == Fraction(1, 2)  # s fixes 2 of 4 points


def test_transfer_identity_value_is_psi_at_identity():
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    action = shift_action(4)
    psi_table = {"d^0": Fraction(1), "d^1": Fraction(1, 2)}
    result = pd_transfer(psi_table, a0, action, certify_input=True)
    assert result.values["g^0"] == Fraction(1)
    assert all(isinstance(v, Fraction) for v in result.values.values())


def test_transfer_validation():
    a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
    with pytest.raises(ValidationError, match="different spaces"):
        pd_transfer({"d^0": 1, "d^1": 1}, a0, shift_action(6))
    with pytest.raises(ValidationError, match="keyed by the small group"):
        pd_transfer({"d^0": 1}, a0, shift_action(4))
    with pytest.raises(ValidationError, match="not positive-definite"):
        pd_transfer({"d^0": 1, "d^1": 2}, a0, shift_action(4), certify_input=True)


def test_transfer_names_the_element_where_the_table_is_not_symmetric():
    a0 = FreeGroupAction(shift_action(4, label="d"))
    psi_table = {"d^0": 1, "d^1": Fraction(1, 2), "d^2": 0, "d^3": 0}
    for certify_input in (False, True):
        with pytest.raises(ValidationError, match=r"not symmetric: psi\(d\^1\) != psi\(d\^3\)"):
            pd_transfer(psi_table, a0, shift_action(4), certify_input=certify_input)
    psi_table["d^3"] = Fraction(1, 2)
    assert pd_transfer(psi_table, a0, shift_action(4)).certificate.ok


def _autocorrelation_table(a0: FreeGroupAction, rng: random.Random) -> dict:
    # psi(g) = sum_h w(g^-1 h) w(h) is positive-definite for any weights
    w = {e.name: Fraction(rng.randint(-3, 3)) for e in a0.elements}
    table = {}
    for g in a0.elements:
        g_inv = a0.inverse_name(g.name)
        total = Fraction(0)
        for h in a0.elements:
            total += w[a0.mult(g_inv, h.name)] * w[h.name]
        table[g.name] = total
    return table


def test_transfer_random_tables_stay_positive():
    rng = random.Random(20260819)
    ambients = [shift_action(4), klein_action()]
    for _ in range(10):
        a0 = FreeGroupAction(shift_action(4, step=2, label="d"))
        psi_table = _autocorrelation_table(a0, rng)
        if psi_table["d^0"] == 0:
            psi_table["d^0"] = Fraction(1)  # keep the table certifiable
            psi_table["d^1"] = Fraction(0)
        action = ambients[rng.randrange(2)]
        result = pd_transfer(psi_table, a0, action, certify_input=True)
        assert result.certificate.ok
        ident = next(
            el.name for el in action.closure() if el.perm.is_identity()
        )
        assert result.values[ident] == psi_table["d^0"]


def _transfer_reference(psi_table, a0, action):
    """pd_transfer's values and Gram certificate, one element at a time."""
    m = action.space.size
    values = {}
    for el in action.closure():
        total = Fraction(0)
        for d in a0.elements:
            agree = sum(1 for x in range(m) if el.perm(x) == d.perm(x))
            total += Fraction(psi_table[d.name]) * Fraction(agree, m)
        values[el.name] = total
    gram = [
        [values[action.element_of(e1.perm.inverse() * e2.perm).name] for e2 in action.closure()]
        for e1 in action.closure()
    ]
    return values, gram_check(gram, "positive")


def s3_on_six_points() -> FinAction:
    # S_3 acting on itself by left translation: six points, non-abelian words
    t = Perm.from_cycles(6, [(0, 3), (1, 5), (2, 4)])
    c = Perm.from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    return FinAction(
        FinSpace(6),
        [("t", t), ("c", c), ("c_inv", c.inverse())],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )


def test_transfer_matches_the_per_element_reference():
    rng = random.Random(314)
    ambients = [shift_action(4), klein_action(), shift_action(4, step=3), s3_on_six_points()]
    failed = 0
    for trial in range(24):
        action = ambients[trial % len(ambients)]
        m = action.space.size
        step = rng.choice([d for d in range(1, m + 1) if m % d == 0 and d < m] or [1])
        a0 = FreeGroupAction(shift_action(m, step=step, label="d"))
        if trial % 2:
            psi_table = _autocorrelation_table(a0, rng)
        else:  # symmetric, mixed denominators, not necessarily positive-definite
            psi_table = {}
            for e in a0.elements:
                value = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                psi_table.setdefault(e.name, value)
                psi_table.setdefault(a0.inverse_name(e.name), value)
        values, cert = _transfer_reference(psi_table, a0, action)
        if cert.ok:
            result = pd_transfer(psi_table, a0, action)
            assert result.values == values
            assert list(result.values) == list(values)
            assert result.certificate == cert
        else:
            with pytest.raises(CheckFailed, match="positivity certificate"):
                pd_transfer(psi_table, a0, action)
            failed += 1
    assert 0 < failed < 12


def _perm_matrix(p: Perm) -> np.ndarray:
    """The matrix sending basis vector j to basis vector p(j)."""
    mat = np.zeros((p.size, p.size))
    mat[list(p.images), range(p.size)] = 1.0
    return mat


def _first_step_break(act: FinAction, images: dict) -> tuple[str, str] | None:
    """The first pair breaking images[g h] = images[g] images[h], by brute
    force over Perms: the identity, then each generator by closure name
    against every element in closure order."""
    elems = act.closure()
    name = {e.perm: e.name for e in elems}
    ident = elems[0].name
    if not images[ident].is_identity():
        return ident, ident
    for g in sorted({name[p] for _, p in act.gens}):
        for h in elems:
            if images[name[act.element(g).perm * h.perm]] != images[g] * images[h.name]:
                return g, h.name
    return None


def _first_pair_break(act: FinAction, mats: dict) -> tuple[str, str] | None:
    """The first (e1, e2) over all pairs in closure order whose product's
    matrix is not the product of their matrices, to within 1e-12."""
    elems = act.closure()
    name = {e.perm: e.name for e in elems}
    for e1 in elems:
        for e2 in elems:
            composite = mats[name[e1.perm * e2.perm]]
            if np.abs(mats[e1.name] @ mats[e2.name] - composite).max() > 1e-12:
                return e1.name, e2.name
    return None


def _broken_at(pair: tuple[str, str]) -> str:
    return r"^images break multiplicativity at \(%s, %s\)$" % tuple(map(re.escape, pair))


def test_rep_reports_the_first_broken_pair():
    """Permutation images are checked on the step table and name its first
    broken (generator, element) pair; matrix images, whose per-pair
    tolerance does not compose along words, name the first broken pair
    of all pairs. On S_3 with one image swapped the two pairs differ."""
    act = s3_action()
    elems = act.closure()
    perm_images = {el.name: el.perm for el in elems}
    perm_images[elems[2].name] = elems[3].perm
    mats = {name: _perm_matrix(p) for name, p in perm_images.items()}
    step_pair, all_pair = _first_step_break(act, perm_images), _first_pair_break(act, mats)
    assert None not in (step_pair, all_pair) and step_pair != all_pair
    with pytest.raises(ValidationError, match=_broken_at(step_pair)):
        FiniteRep(act, perm_images)
    with pytest.raises(ValidationError, match=_broken_at(all_pair)):
        FiniteRep(act, mats)


def test_rep_pair_checks_match_their_oracles_on_corrupted_images():
    """Random corruptions of one or two images: the step-table oracle finds
    a break exactly when the all-pairs oracle does, and each kind of
    image is refused at its oracle's pair or accepted."""
    rng = random.Random(2024)
    broken = 0
    for trial in range(40):
        act = [s3_action, klein_action, s4_action, lambda: shift_action(6)][trial % 4]()
        elems = act.closure()
        perms = [e.perm for e in elems] + [Perm.identity(act.space.size)]
        images = {e.name: e.perm for e in elems}
        for _ in range(rng.randint(1, 2)):
            images[rng.choice(elems).name] = rng.choice(perms)
        mats = {name: _perm_matrix(p) for name, p in images.items()}
        step_pair, all_pair = _first_step_break(act, images), _first_pair_break(act, mats)
        assert (step_pair is None) == (all_pair is None)
        if step_pair is None:
            FiniteRep(act, images)
            FiniteRep(act, mats)
            continue
        broken += 1
        with pytest.raises(ValidationError, match=_broken_at(step_pair)):
            FiniteRep(act, images)
        with pytest.raises(ValidationError, match=_broken_at(all_pair)):
            FiniteRep(act, mats)
    assert 20 < broken < 40


def s4_action() -> FinAction:
    t = Perm.from_cycles(4, [(0, 1)])
    c = Perm.from_cycles(4, [(0, 1, 2, 3)])
    return FinAction(
        FinSpace(4),
        [("t", t), ("c", c), ("c_inv", c.inverse())],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )


BUILT_ACTIONS = [s4_action, klein_action, lambda: shift_action(12)]


def _perm_of_matrix(mat: np.ndarray) -> Perm:
    """The permutation whose matrix sends basis vector j to basis vector
    perm(j): the row of the 1 in column j."""
    return Perm(np.argmax(mat, axis=0).tolist())


@pytest.mark.parametrize("make", BUILT_ACTIONS)
@pytest.mark.parametrize("kind", ["natural", "regular"])
def test_built_reps_pass_the_pair_check_they_skip(make, kind):
    """natural and regular skip the homomorphism check; run both oracles
    here on the built rep's own images, pass those images through the
    public constructor, and show the check is live on a corrupted copy."""
    act = make()
    rep = FiniteRep.natural(act) if kind == "natural" else FiniteRep.regular(act)
    elems = act.closure()
    images = {e.name: _perm_of_matrix(rep.matrix(e.name)) for e in elems}
    mats = {e.name: rep.matrix(e.name) for e in elems}
    assert _first_step_break(act, images) is None and _first_pair_break(act, mats) is None
    checked = FiniteRep(act, images)
    for e in elems:
        assert np.array_equal(checked.matrix(e.name), rep.matrix(e.name))
        assert checked.apply(e.name, np.arange(rep.dimension)).tolist() == rep.apply(
            e.name, np.arange(rep.dimension)
        ).tolist()
    images[elems[1].name] = images[elems[0].name]
    with pytest.raises(ValidationError, match=_broken_at(_first_step_break(act, images))):
        FiniteRep(act, images)


@pytest.mark.parametrize("make", BUILT_ACTIONS)
def test_permutation_images_build_no_product_table(make, monkeypatch):
    """Permutation images are checked on the step table: the N x N product
    table is never built for them, for a homomorphism or a broken one.
    Matrix images still read it for their all-pairs check."""
    act = make()
    elems = act.closure()
    images = {e.name: e.perm for e in elems}
    mats = {name: _perm_matrix(p) for name, p in images.items()}

    def refuse(self):
        raise AssertionError("product_table was built")

    monkeypatch.setattr(FinAction, "product_table", refuse)
    assert FiniteRep(act, images).invariant_basis().shape == (act.space.size, 1)
    images[elems[1].name] = elems[0].perm
    with pytest.raises(ValidationError, match=_broken_at(_first_step_break(act, images))):
        FiniteRep(act, images)
    with pytest.raises(AssertionError, match="product_table was built"):
        FiniteRep(act, mats)


@pytest.mark.parametrize("make", BUILT_ACTIONS)
def test_built_rep_matrices_are_the_closure_perms_and_product_rows(make):
    """natural's image of e is e's own permutation; regular's image of e_i
    sends e_j to e_i e_j, row i of the product table."""
    act = make()
    natural, regular = FiniteRep.natural(act), FiniteRep.regular(act)
    products = act.product_table()
    for i, e in enumerate(act.closure()):
        assert _perm_of_matrix(natural.matrix(e.name)) == e.perm
        assert _perm_of_matrix(regular.matrix(e.name)).images == tuple(products[i].tolist())
        vec = np.arange(act.space.size) * 10.0
        assert natural.apply(e.name, vec)[list(e.perm.images)].tolist() == vec.tolist()


@pytest.mark.parametrize("make", BUILT_ACTIONS + [lambda: _two_orbit_action()])
def test_natural_rep_builds_no_closure_table(make, monkeypatch):
    """natural wraps the closure's own image tuples: neither the (N, m)
    image table nor the N x N product table is built for it."""
    act = make()

    def refuse(name):
        def method(self):
            raise AssertionError(f"{name} was built")

        return method

    for name in ("closure_images", "product_table"):
        monkeypatch.setattr(FinAction, name, refuse(name))
    rep = FiniteRep.natural(act)
    for e in act.closure():
        rep.matrix(e.name)
        rep.apply(e.name, np.zeros(rep.dimension))
    rep.invariant_basis()
    assert averaging_norm(rep, rep.names).k == len(rep.names)
