"""Core primitives: exact values, independent brute-force oracles, invariants."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erglab import (
    CapExceeded,
    EqRel,
    FinAction,
    FinSpace,
    PartialIso,
    Perm,
    ValidationError,
    cost,
    delta_u,
    full_group,
    full_group_size,
    full_group_table,
    gram_check,
    hit_counts,
    in_full_group,
    orbit_relation,
    phi,
    project_to_full_group,
    psi,
    sample_full_group,
    theta,
    weak_metric,
)

F = Fraction


# --- helpers ---------------------------------------------------------------


def random_partition(rng: random.Random, m: int, max_class: int | None = None) -> EqRel:
    pts = list(range(m))
    rng.shuffle(pts)
    classes = []
    i = 0
    while i < m:
        hi = min(m - i, max_class or m)
        k = rng.randint(1, hi)
        classes.append(pts[i : i + k])
        i += k
    return EqRel(m, classes)


def random_perm(rng: random.Random, m: int) -> Perm:
    images = list(range(m))
    rng.shuffle(images)
    return Perm(images)


def brute_force_distance_to_full_group(rel: EqRel, s: Perm) -> Fraction:
    """Independent oracle: minimize delta_u over per-class permutation tables."""
    per_class = [list(itertools.permutations(c)) for c in rel.classes]
    best = None
    for combo in itertools.product(*per_class):
        images = [0] * rel.size
        for cls, img in zip(rel.classes, combo):
            for x, y in zip(cls, img):
                images[x] = y
        d = F(sum(1 for x in range(rel.size) if images[x] != s(x)), rel.size)
        if best is None or d < best:
            best = d
    return best


def partitions_st(max_m: int = 8):
    return st.integers(2, max_m).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
        )
    )


def _rel_from_labels(m: int, labels: list[int]) -> EqRel:
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return EqRel(m, list(groups.values()))


# --- permutations and relations --------------------------------------------


def test_perm_composition_is_function_composition():
    s = Perm.from_cycles(4, [(0, 1)])
    t = Perm.from_cycles(4, [(1, 2)])
    # (s * t)(1) = s(t(1)) = s(2) = 2
    assert (s * t)(1) == 2
    assert (t * s)(1) == t(0) == 0


def test_perm_inverse_and_power():
    rng = random.Random(7)
    for _ in range(20):
        p = random_perm(rng, 6)
        assert (p * p.inverse()).is_identity()
        assert p**3 == p * p * p
        assert p**-1 == p.inverse()


def test_perm_rejects_non_bijection():
    with pytest.raises(ValidationError):
        Perm([0, 0, 1])


def test_perm_cycles_canonical():
    p = Perm.from_cycles(5, [(1, 3), (2, 4)])
    assert p.cycles() == [(0,), (1, 3), (2, 4)]
    assert p.cycle_type() == (2, 2, 1)
    assert p.order() == 2


def test_eqrel_canonical_class_order():
    r = EqRel(5, [[4, 2], [3], [0, 1]])
    assert r.classes == ((0, 1), (2, 4), (3,))
    assert r.same(2, 4) and not r.same(1, 2)
    assert r.class_of(4) == (2, 4)


def test_eqrel_rejects_non_partition():
    with pytest.raises(ValidationError):
        EqRel(3, [[0, 1], [1, 2]])
    with pytest.raises(ValidationError):
        EqRel(3, [[0, 1]])


def test_eqrel_meet_join():
    a = EqRel(6, [[0, 1, 2], [3, 4, 5]])
    b = EqRel(6, [[0, 1], [2, 3], [4, 5]])
    assert a.meet(b).classes == ((0, 1), (2,), (3,), (4, 5))
    assert a.join(b) == EqRel.full(6)
    assert a.meet(a) == a
    assert a.meet(b).refines(a) and a.meet(b).refines(b)
    assert a.refines(a.join(b)) and b.refines(a.join(b))


def test_eqrel_from_perms_orbits():
    p = Perm.from_cycles(6, [(0, 1), (2, 3)])
    q = Perm.from_cycles(6, [(3, 4)])
    r = EqRel.from_perms(6, [p, q])
    assert r.classes == ((0, 1), (2, 3, 4), (5,))


def _closure_classes(m: int, pairs) -> tuple[tuple[int, ...], ...]:
    """Independent oracle: classes of the reflexive, symmetric and
    transitive closure of the pairs (Warshall), in least-member order."""
    reach = [[x == y for y in range(m)] for x in range(m)]
    for x, y in pairs:
        reach[x][y] = reach[y][x] = True
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                for j in range(m):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return tuple(sorted({tuple(y for y in range(m) if reach[x][y]) for x in range(m)}))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eqrel_constructors_match_brute_force_closure(data):
    m = data.draw(st.integers(1, 8))
    point = st.integers(0, m - 1)
    pair_lists = st.lists(st.tuples(point, point), max_size=10)
    pairs, other = data.draw(pair_lists), data.draw(pair_lists)
    perms = [Perm(p) for p in data.draw(st.lists(st.permutations(range(m)), max_size=3))]
    maps = data.draw(st.lists(st.tuples(st.permutations(range(m)), st.sets(point)), max_size=3))
    links = [PartialIso([(x, img[x]) for x in dom]) for img, dom in maps]
    link_pairs = [pair for iso in links for pair in iso.pairs]

    rel = EqRel.from_pairs(m, pairs)
    assert rel.classes == _closure_classes(m, pairs)
    perm_pairs = [(x, p(x)) for p in perms for x in range(m)]
    assert EqRel.from_perms(m, perms).classes == _closure_classes(m, perm_pairs)
    assert rel.join(EqRel.from_pairs(m, other)).classes == _closure_classes(m, pairs + other)
    assert rel.join_links(links).classes == _closure_classes(m, pairs + link_pairs)


@pytest.mark.parametrize("wrong", [3, 6])
def test_eqrel_from_perms_rejects_a_wrong_sized_perm(wrong):
    # a perm on 6 points would give the pair (0, 5), outside the space,
    # if its images were read before its size is checked
    perms = [Perm.identity(4), Perm.from_cycles(wrong, [(0, wrong - 1)])]
    with pytest.raises(ValidationError, match="permutation size differs from space size"):
        EqRel.from_perms(4, perms)


def test_partial_iso_validation_and_graph():
    link = PartialIso([(0, 2), (1, 3)])
    assert link.domain == (0, 1)
    assert link(1) == 3
    with pytest.raises(ValidationError):
        PartialIso([(0, 2), (0, 3)])
    with pytest.raises(ValidationError):
        PartialIso([(0, 2), (1, 2)])
    f = EqRel(4, [[0, 2], [1, 3]])
    assert link.graph_inside(f)
    assert not link.graph_inside(EqRel.equality(4))


# --- capture functionals ----------------------------------------------------


def test_delta_u_simple_swap():
    s = Perm.identity(4)
    t = Perm.from_cycles(4, [(0, 1)])
    assert delta_u(s, t) == F(1, 2)
    assert delta_u(s, s) == 0
    assert delta_u(t, t) == 0


def test_phi_four_cycle_against_pair_classes():
    e = EqRel(4, [[0, 1], [2, 3]])
    s = Perm.from_cycles(4, [(0, 1, 2, 3)])
    assert phi(e, s) == F(1, 2)
    assert theta(e, s) == F(1, 2)


def test_phi_extremes():
    m = 5
    s = Perm.from_cycles(m, [tuple(range(m))])
    assert phi(EqRel.full(m), s) == 1
    assert phi(EqRel.equality(m), s) == 0
    assert phi(EqRel.equality(m), Perm.identity(m)) == 1


def test_psi_identity_reduces_to_phi():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(2, 8)
        e = random_partition(rng, m)
        s = random_perm(rng, m)
        assert psi(e, Perm.identity(m), s) == phi(e, s)
        assert psi(e, s, Perm.identity(m)) == phi(e, s)


@settings(max_examples=60, deadline=None)
@given(
    data=partitions_st(7),
    seed=st.integers(0, 2**32 - 1),
)
def test_psi_left_invariance(data, seed):
    m, labels = data
    e = _rel_from_labels(m, labels)
    rng = random.Random(seed)
    s, t, r = (random_perm(rng, m) for _ in range(3))
    assert psi(e, r * s, r * t) == psi(e, s, t)
    assert psi(e, s, t) == psi(e, t, s)


@settings(max_examples=40, deadline=None)
@given(data=partitions_st(7), seed=st.integers(0, 2**32 - 1))
def test_phi_inverse_symmetry(data, seed):
    m, labels = data
    e = _rel_from_labels(m, labels)
    s = random_perm(random.Random(seed), m)
    assert phi(e, s) == phi(e, s.inverse())


# --- projection onto the full group -----------------------------------------


def test_projection_four_cycle_example():
    e = EqRel(4, [[0, 1, 2], [3]])
    s = Perm.from_cycles(4, [(0, 1, 2, 3)])
    t = project_to_full_group(e, s)
    assert t.images == (1, 2, 0, 3)
    assert delta_u(s, t) == theta(e, s) == F(1, 2)


def test_projection_fixes_full_group_members():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(2, 8)
        e = random_partition(rng, m)
        s = sample_full_group(e, rng)
        assert project_to_full_group(e, s) == s


def test_projection_attains_brute_force_minimum():
    rng = random.Random(20260819)
    for _ in range(100):
        m = rng.randint(2, 7)
        e = random_partition(rng, m, max_class=4)
        s = random_perm(rng, m)
        t = project_to_full_group(e, s)
        assert in_full_group(e, t)
        d = delta_u(s, t)
        assert d == theta(e, s)
        assert d == brute_force_distance_to_full_group(e, s)


@settings(max_examples=40, deadline=None)
@given(data=partitions_st(6), seed=st.integers(0, 2**32 - 1))
def test_projection_never_beaten_by_samples(data, seed):
    m, labels = data
    e = _rel_from_labels(m, labels)
    rng = random.Random(seed)
    s = random_perm(rng, m)
    d = delta_u(s, project_to_full_group(e, s))
    for _ in range(10):
        assert delta_u(s, sample_full_group(e, rng)) >= d


# --- full group enumeration ---------------------------------------------------


def test_full_group_sizes_and_membership():
    e = EqRel(4, [[0, 1], [2, 3]])
    members = list(full_group(e))
    assert len(members) == full_group_size(e) == 4
    assert len(set(members)) == 4
    assert all(in_full_group(e, t) for t in members)
    assert full_group_size(EqRel.equality(5)) == 1
    assert full_group_size(EqRel.full(3)) == 6


def test_full_group_cap_trips():
    with pytest.raises(CapExceeded):
        list(full_group(EqRel.full(9), cap=1000))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("ERGLAB_CAPS", "full_group=2")
    with pytest.raises(CapExceeded):
        list(full_group(EqRel.full(3)))
    monkeypatch.setenv("ERGLAB_CAPS", "full_group=10")
    assert len(list(full_group(EqRel.full(3)))) == 6


def test_a_per_call_cap_still_checks_the_environment(monkeypatch):
    monkeypatch.setenv("ERGLAB_CAPS", "full_grup=10")
    with pytest.raises(ValidationError, match="'full_grup=10' names no cap"):
        full_group_table(EqRel.full(3), cap=10)
    monkeypatch.setenv("ERGLAB_CAPS", "full_group=2")
    assert len(full_group_table(EqRel.full(3), cap=10)) == 6  # the per-call cap wins


def _full_group_by_product(rel: EqRel) -> list[tuple[int, ...]]:
    """Independent enumeration: one per-class permutation each, combined
    in itertools.product order (the first class varies slowest)."""
    out = []
    for combo in itertools.product(*(itertools.permutations(c) for c in rel.classes)):
        images = [0] * rel.size
        for cls, img in zip(rel.classes, combo):
            for x, y in zip(cls, img):
                images[x] = y
        out.append(tuple(images))
    return out


def test_full_group_table_is_the_full_group_in_order():
    rng = random.Random(17)
    rels = [EqRel.equality(3), EqRel.full(4), EqRel(5, [[0, 3], [1, 2, 4]])]
    rels += [random_partition(rng, rng.randint(1, 7)) for _ in range(40)]
    for rel in rels:
        table = full_group_table(rel)
        assert table.shape == (full_group_size(rel), rel.size)
        rows = [tuple(row) for row in table.tolist()]
        assert rows == [t.images for t in full_group(rel)] == _full_group_by_product(rel)
    with pytest.raises(CapExceeded):
        full_group_table(EqRel.full(5), cap=119)


def test_hit_counts_equal_phi_and_delta_u():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 7)
        rel = random_partition(rng, m)
        perms = [random_perm(rng, m) for _ in range(rng.randint(1, 6))]
        rows = np.array([p.images for p in perms])
        cid = rel.class_ids()
        assert cid.tolist() == [rel.class_id(x) for x in range(m)]
        assert [F(int(c), m) for c in hit_counts(rows, cid, cid)] == [phi(rel, p) for p in perms]
        t = random_perm(rng, m)
        assert [1 - F(int(c), m) for c in hit_counts(rows, t.images)] == [
            delta_u(p, t) for p in perms
        ]


# --- gram certification -------------------------------------------------------


def test_gram_positive_accepts_psd():
    cert = gram_check([[2, 1], [1, 1]], "positive")
    assert cert.ok and cert.mode == "positive"
    assert all(p >= 0 for p in cert.pivots)


def test_gram_positive_rejects_indefinite_with_witness():
    cert = gram_check([[1, 2], [2, 1]], "positive")
    assert not cert.ok
    assert cert.value is not None and cert.value < 0
    # zero diagonal with nonzero coupling is the degenerate branch
    cert2 = gram_check([[0, 1], [1, 0]], "positive")
    assert not cert2.ok and cert2.value == -2


def test_gram_positive_zero_matrix_and_rank_deficient():
    assert gram_check([[0, 0], [0, 0]], "positive").ok
    assert gram_check([[1, 1], [1, 1]], "positive").ok


def test_gram_negative_squared_line_distances():
    rho = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
    assert gram_check(rho, "negative").ok


def test_gram_negative_rejects_with_zero_sum_witness():
    rho = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
    cert = gram_check(rho, "negative")
    assert not cert.ok
    assert sum(cert.witness) == 0
    assert cert.value > 0
    # identity is not conditionally negative on zero-sum vectors
    cert2 = gram_check([[1, 0], [0, 1]], "negative")
    assert not cert2.ok and sum(cert2.witness) == 0 and cert2.value > 0


def test_gram_rejects_asymmetric_and_ragged():
    with pytest.raises(ValidationError):
        gram_check([[1, 2], [3, 1]], "positive")
    with pytest.raises(ValidationError):
        gram_check([[1, 2, 3], [2, 1]], "positive")
    with pytest.raises(ValidationError):
        gram_check([[1]], "sideways")


def test_gram_positive_matches_float_eigenvalues():
    import numpy as np

    rng = random.Random(99)
    for trial in range(60):
        n = rng.randint(1, 6)
        a = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        mat = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        if trial % 2 == 0:
            # force PSD: gram of the random matrix
            mat = [
                [sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        eigs = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in mat]))
        cert = gram_check(mat, "positive")
        if eigs.min() > 1e-9:
            assert cert.ok
        elif eigs.min() < -1e-9:
            assert not cert.ok and cert.value < 0
        else:
            # boundary: trust the exact arithmetic, just check consistency
            if not cert.ok:
                assert cert.value < 0


def test_gram_pair_capture_matrices_are_positive():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(2, 7)
        e = random_partition(rng, m)
        fam = [random_perm(rng, m) for _ in range(rng.randint(1, 5))]
        gram = [[psi(e, s, t) for t in fam] for s in fam]
        assert gram_check(gram, "positive").ok


def test_gram_uniform_distance_matrices_are_negative():
    rng = random.Random(6)
    for _ in range(25):
        m = rng.randint(2, 7)
        fam = [random_perm(rng, m) for _ in range(rng.randint(1, 5))]
        rho = [[delta_u(s, t) for t in fam] for s in fam]
        assert gram_check(rho, "negative").ok


# --- the integer LDL^T against a rational oracle ---------------------------


def _oracle_factor(mat):
    """Rational LDL^T with symmetric diagonal pivoting, written out in
    Fractions: the largest remaining diagonal entry pivots (first index on
    ties). Returns (ok, pivots, witness) as gram_check defines them."""
    n = len(mat)
    a = [[F(v) for v in row] for row in mat]
    order = list(range(n))
    lower = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []

    def witness(y):
        x = [F(0)] * n
        for i in reversed(range(n)):
            x[i] = y[i] - sum(lower[t][i] * x[t] for t in range(i + 1, n))
        out = [F(0)] * n
        for i, p in enumerate(order):
            out[p] = x[i]
        return tuple(out)

    for k in range(n):
        diag = [a[t][t] for t in range(k, n)]
        j = k + diag.index(max(diag))
        if a[j][j] > 0:
            a[k], a[j] = a[j], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            order[k], order[j] = order[j], order[k]
            for c in range(k):
                lower[k][c], lower[j][c] = lower[j][c], lower[k][c]
            d = a[k][k]
            pivots.append(d)
            for i in range(k + 1, n):
                lower[i][k] = a[i][k] / d
            for i in range(k + 1, n):
                for jj in range(k + 1, n):
                    a[i][jj] -= a[i][k] * a[k][jj] / d
            continue
        y = [F(0)] * n
        neg = [t for t in range(k, n) if a[t][t] < 0]
        if neg:
            y[neg[0]] = F(1)
            return False, tuple(pivots), witness(y)
        pairs = [(i, jj) for i in range(k, n) for jj in range(i + 1, n) if a[i][jj] != 0]
        if not pairs:
            return True, tuple(pivots) + (F(0),) * (n - k), None
        i, jj = pairs[0]
        y[i], y[jj] = (F(-1) if a[i][jj] > 0 else F(1)), F(1)
        return False, tuple(pivots), witness(y)
    return True, tuple(pivots), None


def _oracle_gram(mat, mode):
    """(ok, pivots, witness, value) from the rational oracle; negative
    mode factors -(I - J/n) M (I - J/n), built by matrix products."""
    n = len(mat)
    m = [[F(v) for v in row] for row in mat]

    def quad(vec):
        return sum((vec[i] * m[i][j] * vec[j] for i in range(n) for j in range(n)), F(0))

    if mode == "positive":
        ok, pivots, w = _oracle_factor(m)
        return ok, pivots, w, None if ok else quad(w)
    p = [[F(int(i == j)) - F(1, n) for j in range(n)] for i in range(n)]
    pm = [[sum((p[i][t] * m[t][j] for t in range(n)), F(0)) for j in range(n)] for i in range(n)]
    b = [[-sum((pm[i][t] * p[t][j] for t in range(n)), F(0)) for j in range(n)] for i in range(n)]
    ok, pivots, w = _oracle_factor(b)
    if ok:
        return ok, pivots, None, None
    alpha = tuple(v - sum(w) / n for v in w)
    return ok, pivots, alpha, quad(alpha)


GRAM_CASES = {
    "empty": [],
    "one-positive": [[3]],
    "one-zero": [[0]],
    "one-negative": [[F(-2, 3)]],
    "rank-one": [[1, 1], [1, 1]],
    "rank-two-of-three": [[2, 1, 3], [1, 1, 1], [3, 1, 4]],
    "zero-block": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "zero-diagonal-coupling": [[0, 1], [1, 0]],
    "zero-diagonal-negative-coupling": [[0, -2], [-2, 0]],
    "coupling-after-a-pivot": [[1, 1, 0], [1, 1, 2], [0, 2, 4]],
    "negative-diagonal-later": [[2, 1], [1, -3]],
    "negative-diagonal-after-pivot": [[1, 2, 0], [2, 1, 0], [0, 0, 1]],
    "tied-diagonal": [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    "tied-indefinite": [[1, 0, 2], [0, 1, 0], [2, 0, 1]],
    "tie-after-elimination": [[4, 2, 2, 0], [2, 3, 1, 1], [2, 1, 3, -1], [0, 1, -1, 3]],
    "mixed-denominators": [[F(1, 2), F(1, 3)], [F(1, 3), F(1, 6)]],
    "mixed-indefinite": [
        [F(1, 4), F(-1, 6), F(1, 10)],
        [F(-1, 6), F(1, 9), F(2, 5)],
        [F(1, 10), F(2, 5), F(-1, 15)],
    ],
    "squared-line": [[0, 1, 4], [1, 0, 1], [4, 1, 0]],
    "stretched-line": [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
}


def _certificate(cert):
    return cert.ok, cert.pivots, cert.witness, cert.value


@pytest.mark.parametrize("mode", ["positive", "negative"])
@pytest.mark.parametrize("name", list(GRAM_CASES))
def test_gram_certificates_equal_the_rational_oracle(name, mode):
    mat = GRAM_CASES[name]
    cert = gram_check(mat, mode)
    assert (cert.mode, cert.size) == (mode, len(mat))
    assert _certificate(cert) == _oracle_gram(mat, mode)
    assert all(isinstance(p, Fraction) for p in cert.pivots)


def test_gram_certificates_equal_the_oracle_on_random_matrices():
    rng = random.Random(2024)
    failing = 0
    for trial in range(300):
        n = rng.randint(0, 6)
        r = rng.randint(0, n)
        if trial % 3 == 0:  # a Gram matrix of rank r: semidefinite, often singular
            vecs = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(r)]
            mat = [[sum((v[i] * v[j] for v in vecs), F(0)) for j in range(n)] for i in range(n)]
        else:  # small entries: ties, zero diagonals and negative pivots are common
            half = [[F(rng.randint(-2, 2), rng.choice([1, 1, 2, 3])) for _ in range(n)] for _ in range(n)]
            mat = [[half[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for mode in ("positive", "negative"):
            cert = gram_check(mat, mode)
            assert _certificate(cert) == _oracle_gram(mat, mode), (mat, mode)
            failing += not cert.ok
    assert failing > 100


# --- weak metric and cost -----------------------------------------------------


def test_weak_metric_frozen_values():
    s = Perm.identity(2)
    t = Perm.from_cycles(2, [(0, 1)])
    assert weak_metric(s, t, [[0]]) == F(1, 2)
    assert weak_metric(s, t, [[0], [0, 1]]) == F(1, 2)
    assert weak_metric(s, t, [[0, 1], [0]]) == F(1, 4)
    assert weak_metric(s, s, [[0], [1]]) == 0


def test_weak_metric_is_pseudometric_dominated_by_uniform():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(2, 8)
        sets = [
            rng.sample(range(m), rng.randint(0, m))
            for _ in range(rng.randint(1, 4))
        ]
        s, t, u = (random_perm(rng, m) for _ in range(3))
        dw = weak_metric(s, t, sets)
        assert dw == weak_metric(t, s, sets)
        assert dw <= weak_metric(s, u, sets) + weak_metric(u, t, sets)
        assert dw <= 2 * delta_u(s, t)


def test_cost_values():
    assert cost(EqRel.equality(6)) == 0
    assert cost(EqRel.full(4)) == F(3, 4)
    assert cost(EqRel(6, [[0, 1, 2], [3, 4, 5]])) == F(2, 3)


# --- actions -------------------------------------------------------------------


def test_action_closure_single_pair_powers():
    m = 6
    g = Perm.from_cycles(m, [tuple(range(m))])
    act = FinAction(
        FinSpace(m),
        [("g", g), ("g_inv", g.inverse())],
        {"g": "g_inv", "g_inv": "g"},
    )
    names = [e.name for e in act.closure()]
    assert names == [f"g^{k}" for k in range(6)]
    assert act.element("g^2").perm == g * g
    assert orbit_relation(act) == EqRel.full(m)


def test_action_closure_involution_self_paired():
    m = 4
    s = Perm.from_cycles(m, [(0, 1), (2, 3)])
    act = FinAction(FinSpace(m), [("s", s)], {"s": "s"})
    names = [e.name for e in act.closure()]
    assert names == ["s^0", "s^1"]
    assert orbit_relation(act).classes == ((0, 1), (2, 3))


def test_action_closure_two_generators_words():
    m = 4
    a = Perm.from_cycles(m, [(0, 1)])
    b = Perm.from_cycles(m, [(2, 3)])
    act = FinAction(
        FinSpace(m),
        [("a", a), ("b", b)],
        {"a": "a", "b": "b"},
    )
    elems = act.closure()
    assert [e.name for e in elems] == ["1", "a", "b", "a*b"]
    assert elems[3].perm == a * b == b * a


def _cyclic_action(m: int, cycle: tuple[int, ...]) -> FinAction:
    g = Perm.from_cycles(m, [cycle])
    return FinAction(FinSpace(m), [("g", g), ("g_inv", g.inverse())], {"g": "g_inv", "g_inv": "g"})


def _two_involution_action() -> FinAction:
    a = Perm.from_cycles(4, [(0, 1)])
    b = Perm.from_cycles(4, [(2, 3)])
    return FinAction(FinSpace(4), [("a", a), ("b", b)], {"a": "a", "b": "b"})


@pytest.mark.parametrize(
    "act", [_cyclic_action(6, tuple(range(6))), _two_involution_action()], ids=["powers", "words"]
)
def test_action_element_of_and_resolve_read_the_closure_table(act):
    elems = act.closure()
    for k, e in enumerate(elems):
        assert act.index_of(e.perm) == k
        assert act.element_of(e.perm) is e
        assert act.element(e.name) is e
        assert act.resolve(e.name) == e.perm
        assert act.resolve(e.perm) is e.perm
    for lab in act.labels:
        assert act.resolve(lab) == act.generator(lab)
    outside = Perm((1, 2, 0) + tuple(range(3, act.space.size)))
    assert outside.images not in {e.perm.images for e in elems}
    with pytest.raises(ValidationError):
        act.element_of(outside)
    with pytest.raises(ValidationError):
        act.index_of(outside)
    with pytest.raises(ValidationError):
        act.resolve(0)
    with pytest.raises(ValidationError):
        act.resolve("no-such-element")


def test_action_fixing_element():
    assert _cyclic_action(6, tuple(range(6))).fixing_element() is None
    # g is a 3-cycle on four points: every non-identity power fixes 3.
    act = _cyclic_action(4, (0, 1, 2))
    assert act.fixing_element() is act.element("g^1")
    # a and b each fix the other's pair; a is first in closure order.
    act = _two_involution_action()
    assert act.fixing_element() is act.element("a")
    free = FinAction(
        FinSpace(4),
        [("a", Perm.from_cycles(4, [(0, 1), (2, 3)])), ("b", Perm.from_cycles(4, [(0, 2), (1, 3)]))],
        {"a": "a", "b": "b"},
    )
    assert [e.name for e in free.closure()] == ["1", "a", "b", "a*b"]
    assert free.fixing_element() is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixing_element_matches_a_scan_of_the_elements(data):
    n = data.draw(st.integers(1, 6))
    a, b = (Perm(tuple(data.draw(st.permutations(range(n))))) for _ in range(2))
    act = _two_generator_action(a, b)
    scan = next((e for e in act.closure()[1:] if e.perm.fixed_points()), None)
    assert act.fixing_element() is scan


def test_action_rejects_bad_pairing():
    m = 3
    g = Perm.from_cycles(m, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        FinAction(FinSpace(m), [("g", g)], {"g": "g"})  # not an involution
    with pytest.raises(ValidationError):
        FinAction(FinSpace(m), [("g", g)], {"g": "h"})  # missing partner


def test_action_closure_cap(monkeypatch):
    m = 7
    g = Perm.from_cycles(m, [tuple(range(m))])
    act = FinAction(
        FinSpace(m),
        [("g", g), ("g_inv", g.inverse())],
        {"g": "g_inv", "g_inv": "g"},
    )
    monkeypatch.setenv("ERGLAB_CAPS", "closure=3")
    with pytest.raises(CapExceeded) as exc:
        act.closure()
    assert (exc.value.needed, exc.value.cap) == (4, 3)
    monkeypatch.setenv("ERGLAB_CAPS", "closure=7")
    assert len(act.closure()) == 7


def _non_free_word_action() -> FinAction:
    # S_3 on {0, 1, 2} plus a fixed point: words over a transposition and a 3-cycle
    t = Perm.from_cycles(4, [(0, 1)])
    c = Perm.from_cycles(4, [(0, 1, 2)])
    return FinAction(
        FinSpace(4), [("t", t), ("c", c), ("c_inv", c.inverse())], {"t": "t", "c": "c_inv", "c_inv": "c"}
    )


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


def _natural_symmetric_action(n: int) -> FinAction:
    # S_n on n points, generated by a transposition and an n-cycle
    return _two_generator_action(Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))]))


def _regular_s4_action() -> FinAction:
    # S_4 acting on its 24 elements by left translation
    points = list(itertools.permutations(range(4)))
    where = {p: i for i, p in enumerate(points)}

    def left(g: tuple[int, ...]) -> Perm:
        return Perm([where[tuple(g[x] for x in h)] for h in points])

    return _two_generator_action(left((1, 0, 2, 3)), left((1, 2, 3, 0)))


def _assert_product_table_matches_element_of(act: FinAction) -> None:
    elems = act.closure()
    images = act.closure_images()
    assert [tuple(row) for row in images.tolist()] == [e.perm.images for e in elems]
    # step (s, i) is the index of g_s * e_i
    steps = act.step_table()
    assert steps.shape == (len(act.gens), len(elems)) and not steps.flags.writeable
    for (_, g), row in zip(act.gens, steps.tolist()):
        assert [elems[k].perm for k in row] == [g * e.perm for e in elems]
    table = act.product_table()
    assert table.shape == (len(elems), len(elems))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[table[i, j]] is act.element_of(a.perm * b.perm)
    assert act.product_table() is table


@pytest.mark.parametrize(
    "act",
    [
        _cyclic_action(6, tuple(range(6))),
        _cyclic_action(5, (0, 2, 4)),
        _two_involution_action(),
        _non_free_word_action(),
        _regular_s4_action(),
        _natural_symmetric_action(5),
    ],
    ids=[
        "free-powers",
        "non-free-powers",
        "non-free-words",
        "non-abelian-words",
        "regular-s4",
        "natural-s5",
    ],
)
def test_product_table_matches_element_of(act):
    _assert_product_table_matches_element_of(act)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_table_matches_element_of_on_random_actions(data):
    n = data.draw(st.integers(1, 6))
    a, b = (Perm(tuple(data.draw(st.permutations(range(n))))) for _ in range(2))
    _assert_product_table_matches_element_of(_two_generator_action(a, b))


@pytest.mark.parametrize(
    "act",
    [_cyclic_action(1000, tuple(range(1000))), _natural_symmetric_action(7)],
    ids=["shift-1000", "natural-s7"],
)
def test_product_table_must_finish(act):
    elems = act.closure()
    start = time.perf_counter()
    table = act.product_table()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"product_table took {elapsed:.2f} s on {len(elems)} elements"
    rng = random.Random(7)
    for i, j in ((rng.randrange(len(elems)), rng.randrange(len(elems))) for _ in range(200)):
        assert elems[table[i, j]] is act.element_of(elems[i].perm * elems[j].perm)
