"""Cayley balls, bond percolation, cluster engines, the exact
action/configuration dictionary, and word-length scales."""

import random
from fractions import Fraction

import numpy as np
import pytest

from erglab import (
    CapExceeded,
    FinAction,
    FinSpace,
    FreeModel,
    LengthSystem,
    Perm,
    PermGroupModel,
    ProductModel,
    ValidationError,
    ZdModel,
    action_to_percolation,
    cayley_ball,
    cluster_labels,
    cluster_stats,
    length_function,
    percolate,
    sweep,
)
from erglab.percolation import _FreeWords, _scipy_labels, _unionfind_labels, _ZdCodes
from erglab.rng import GOLDEN, MASK64, mix64, stream_key, uniform_at, uniforms


# -- random numbers -----------------------------------------------------------


def _mix_reference(z: int) -> int:
    """Independent restatement of the two-round mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


def test_mixer_matches_reference():
    for z in (0, 1, 42, MASK64, 0xDEADBEEF, GOLDEN):
        assert mix64(z) == _mix_reference(z)


def test_scalar_and_vector_uniforms_agree():
    for seed, stream in ((0, 0), (1, 0), (0, 3), (123456789, 7)):
        vec = uniforms(seed, stream, 20)
        for i in range(20):
            assert vec[i] == uniform_at(seed, stream, i)


def test_uniforms_in_unit_interval_and_distinct_streams():
    a = uniforms(9, 0, 1000)
    b = uniforms(9, 1, 1000)
    assert float(a.min()) >= 0.0 and float(a.max()) < 1.0
    assert not np.array_equal(a, b)
    assert np.array_equal(a, uniforms(9, 0, 1000))


def test_stream_key_mixes_trial_index():
    keys = {stream_key(5, t) for t in range(100)}
    assert len(keys) == 100


# -- group models ---------------------------------------------------------------


def test_zd_model_ops():
    zd = ZdModel(2)
    assert zd.identity() == (0, 0)
    assert zd.mul((1, 2), (3, -1)) == (4, 1)
    assert zd.inv((1, -2)) == (-1, 2)
    assert zd.render((1, 0)) == "(1,0)"
    assert len(zd.basis_generators()) == 4


def test_free_model_reduction():
    fm = FreeModel(2)
    a, b = (1,), (2,)
    assert fm.mul(a, fm.inv(a)) == ()
    assert fm.mul((1, 2), (-2, -1)) == ()
    assert fm.mul((1, 2), (-2, 1)) == (1, 1)
    assert fm.render((1, -2, 1)) == "aBa"
    assert fm.render(()) == "e"


def test_perm_model_ops():
    pm = PermGroupModel(3)
    s = Perm.from_cycles(3, [(0, 1)])
    assert pm.mul(s, s).is_identity()
    assert pm.inv(s) == s
    assert pm.key(s) == (1, 0, 2)
    assert pm.render(pm.identity()) == "e"


def test_product_model_ops():
    pm = ProductModel([ZdModel(1), FreeModel(1)])
    e = pm.identity()
    g = ((1,), (1,))
    assert pm.mul(g, g) == ((2,), (1, 1))
    assert pm.mul(g, pm.inv(g)) == e
    assert "|" in pm.render(g)


def test_group_axioms_on_sampled_triples():
    rng = random.Random(11)
    fm = FreeModel(2)
    words = [tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(5))) for _ in range(12)]
    words = [fm.mul(w, ()) for w in words]  # reduce
    for a in words[:4]:
        for b in words[4:8]:
            for c in words[8:]:
                assert fm.mul(fm.mul(a, b), c) == fm.mul(a, fm.mul(b, c))
                assert fm.mul(a, fm.inv(a)) == ()


# -- Cayley balls ------------------------------------------------------------------


def test_z2_ball_counts():
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), 2)
    assert ball.vertex_count == 13
    assert ball.edge_count == 16
    assert len(ball.boundary) == 8
    assert ball.vertices[0] == (0, 0)


def test_f2_ball_counts():
    fm = FreeModel(2)
    ball = cayley_ball(fm, fm.letter_generators(), 2)
    assert ball.vertex_count == 17
    assert ball.edge_count == 16
    assert len(ball.boundary) == 12
    assert ball.is_tree()


def test_radius_zero_ball():
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), 0)
    assert ball.vertex_count == 1
    assert ball.edge_count == 0
    assert ball.boundary == (0,)


class _Delegate:
    """Duck-typed copy of a model that dodges isinstance dispatch."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name

    def identity(self):
        return self._inner.identity()

    def mul(self, a, b):
        return self._inner.mul(a, b)

    def inv(self, a):
        return self._inner.inv(a)

    def key(self, a):
        return self._inner.key(a)

    def render(self, a):
        return self._inner.render(a)


@pytest.mark.parametrize(
    "model",
    [ZdModel(1), ZdModel(2), ZdModel(3), FreeModel(2), FreeModel(3)],
    ids=lambda m: m.name,
)
def test_array_balls_match_generic(model):
    # the Z^d and free fast paths against the breadth-first build
    if isinstance(model, ZdModel):
        gens, radii = model.basis_generators(), range(7)
    else:
        gens, radii = model.letter_generators(), range(6)
    plain = _Delegate(model)
    for r in radii:
        fast = cayley_ball(model, gens, r)
        generic = cayley_ball(plain, gens, r)
        assert fast.vertices == generic.vertices
        assert fast.edges.dtype == generic.edges.dtype
        assert fast.edges.shape == generic.edges.shape
        assert np.array_equal(fast.edges, generic.edges)
        assert np.array_equal(fast.distances, generic.distances)
        assert fast.boundary == generic.boundary
        assert [fast.index_of(v) for v in generic.vertices] == list(range(fast.vertex_count))
        n = generic.vertex_count
        for cap in (0, n - 1, n):
            raised = []
            for m in (model, plain):
                try:
                    cayley_ball(m, gens, r, cap=cap)
                    raised.append(None)
                except CapExceeded as exc:
                    raised.append((exc.cap_name, exc.needed, exc.cap))
            assert raised[0] == raised[1]
            assert (raised[0] is None) == (cap >= n or r == 0)


def test_generators_closed_under_inversion():
    zd = ZdModel(1)
    ball = cayley_ball(zd, [(1,)], 2)
    assert ball.vertex_count == 5  # -2..2


def test_identity_generator_rejected():
    zd = ZdModel(1)
    with pytest.raises(ValidationError, match="identity"):
        cayley_ball(zd, [(0,)], 1)


def test_ball_cap():
    zd = ZdModel(2)
    with pytest.raises(CapExceeded):
        cayley_ball(zd, zd.basis_generators(), 3, cap=10)
    fm = FreeModel(2)
    with pytest.raises(CapExceeded):
        cayley_ball(fm, fm.letter_generators(), 3, cap=10)


@pytest.mark.parametrize(
    "model, r",
    [(ZdModel(1), 10**12), (ZdModel(2), 10**9), (ZdModel(3), 10**9)],
    ids=["Z^1", "Z^2", "Z^3"],
)
def test_huge_radius_trips_the_cap(model, r):
    # the radius is outside input: Z^d balls must trip the cap before
    # anything grows with r, also where (2r+1)^d leaves the array path
    gens = model.basis_generators()
    raised = []
    for m in (model, _Delegate(model)):
        with pytest.raises(CapExceeded) as exc:
            cayley_ball(m, gens, r, cap=1000)
        raised.append((exc.value.needed, exc.value.cap))
    assert raised[0] == raised[1] == (1001, 1000)
    with pytest.raises(CapExceeded):
        cayley_ball(model, gens, r)  # the default cap


def test_vertex_order_is_distance_then_key():
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), 2)
    pairs = [(int(ball.distances[i]), ball.vertices[i]) for i in range(ball.vertex_count)]
    assert pairs == sorted(pairs)


def test_description_fields():
    fm = FreeModel(2)
    d = cayley_ball(fm, fm.letter_generators(), 1).description()
    assert d["model"] == "F_2"
    assert d["vertex_count"] == 5
    assert d["edge_count"] == 4
    assert sorted(d["generators"]) == ["A", "B", "a", "b"]


def test_perm_group_ball_saturates():
    pm = PermGroupModel(4)
    shift = Perm((1, 2, 3, 0))
    ball = cayley_ball(pm, [shift], 10)
    assert ball.vertex_count == 4  # the cyclic group itself


# -- percolation configurations -----------------------------------------------------


@pytest.fixture(scope="module")
def z2_ball():
    zd = ZdModel(2)
    return cayley_ball(zd, zd.basis_generators(), 3)


@pytest.fixture(scope="module")
def f2_ball():
    fm = FreeModel(2)
    return cayley_ball(fm, fm.letter_generators(), 4)


def test_percolate_extremes(z2_ball):
    assert percolate(z2_ball, 0.0, 1).open_count() == 0
    assert percolate(z2_ball, 1.0, 1).open_count() == z2_ball.edge_count


def test_percolate_deterministic(z2_ball):
    a = percolate(z2_ball, 0.5, 42, trial=3)
    b = percolate(z2_ball, 0.5, 42, trial=3)
    c = percolate(z2_ball, 0.5, 42, trial=4)
    assert np.array_equal(a.open, b.open)
    assert not np.array_equal(a.open, c.open)
    assert a.p == 0.5 and a.seed == 42 and a.trial == 3


def test_percolate_validates_probability(z2_ball):
    with pytest.raises(ValidationError):
        percolate(z2_ball, 1.5, 0)


# -- engines --------------------------------------------------------------------------


def test_engines_agree_on_plane(z2_ball):
    for trial in range(30):
        cfg = percolate(z2_ball, 0.5, 7, trial=trial)
        uf = _unionfind_labels(z2_ball, cfg.open)
        sp = _scipy_labels(z2_ball, cfg.open)
        assert np.array_equal(uf, sp)


def test_engines_agree_on_tree(f2_ball):
    for trial in range(30):
        cfg = percolate(f2_ball, 0.4, 3, trial=trial)
        uf = cluster_labels(cfg, "unionfind")
        sp = cluster_labels(cfg, "scipy")
        fo = cluster_labels(cfg, "forest")
        assert np.array_equal(uf, sp)
        assert np.array_equal(uf, fo)


def test_labels_are_min_members(z2_ball):
    cfg = percolate(z2_ball, 0.6, 5)
    labels = cluster_labels(cfg)
    for i, lab in enumerate(labels):
        assert lab <= i
        assert labels[lab] == lab


def test_forest_engine_rejects_cyclic_ball(z2_ball):
    cfg = percolate(z2_ball, 0.5, 1)
    with pytest.raises(ValidationError, match="not a tree"):
        cluster_labels(cfg, "forest")


def test_unknown_engine_rejected(z2_ball):
    cfg = percolate(z2_ball, 0.5, 1)
    with pytest.raises(ValidationError, match="unknown cluster engine"):
        cluster_labels(cfg, "bfs")


# -- statistics -------------------------------------------------------------------------


def test_cluster_stats_full_and_empty(z2_ball):
    targets = [(1, 0), (2, 1)]
    full = cluster_stats([percolate(z2_ball, 1.0, 0)], targets)
    assert full.theta_hat == 1.0
    assert full.boundary_clusters_mean == 1.0
    assert full.tau_hat(0) == full.tau_hat(1) == 1.0
    empty = cluster_stats([percolate(z2_ball, 0.0, 0)], targets)
    assert empty.theta_hat == 0.0
    assert empty.tau_hat(0) == 0.0
    assert empty.boundary_clusters_mean == len(z2_ball.boundary)


def test_cluster_stats_identity_target(z2_ball):
    st = cluster_stats([percolate(z2_ball, 0.0, 0)], [(0, 0)])
    assert st.tau_hat(0) == 1.0  # the identity is always in its own cluster


def test_cluster_stats_target_outside(z2_ball):
    with pytest.raises(ValidationError, match="outside ball"):
        cluster_stats([percolate(z2_ball, 0.5, 0)], [(9, 9)])


def test_cluster_stats_streams_and_se(z2_ball):
    cfgs = (percolate(z2_ball, 0.5, 11, trial=t) for t in range(40))
    st = cluster_stats(cfgs, [(1, 0)])
    assert st.n == 40
    assert 0.0 <= st.theta_hat <= 1.0
    assert st.theta_se <= 0.5 / (40**0.5) + 1e-12


# -- sweeps ------------------------------------------------------------------------------


def test_sweep_extreme_grid(z2_ball):
    res = sweep(z2_ball, [0.0, 1.0], trials=5, seed=1)
    assert res.rows[0].theta_hat == 0.0
    assert res.rows[1].theta_hat == 1.0
    assert res.monotone_exact
    assert res.monotone_within_2se


def test_sweep_csv_shape(z2_ball):
    res = sweep(z2_ball, [0.3, 0.6], trials=4, seed=2, targets=[(1, 0)])
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == "p,trials,theta_hat,theta_se,boundary_clusters_mean,tau_hat:(1;0)"
    assert len(lines) == 3
    assert lines[1].startswith("0.3,4,")


def test_sweep_worker_invariance(z2_ball):
    base = sweep(z2_ball, [0.2, 0.5, 0.8], trials=10, seed=3).to_csv()
    for workers in (2, 3, 7, 10):
        assert sweep(z2_ball, [0.2, 0.5, 0.8], trials=10, seed=3, workers=workers).to_csv() == base


def test_sweep_engine_invariance(f2_ball):
    grid = [0.25, 0.4]
    fast = sweep(f2_ball, grid, trials=12, seed=5, targets=[(1,)], engine="forest")
    slow = sweep(f2_ball, grid, trials=12, seed=5, targets=[(1,)], engine="unionfind")
    spy = sweep(f2_ball, grid, trials=12, seed=5, targets=[(1,)], engine="scipy")
    assert fast.to_csv() == slow.to_csv() == spy.to_csv()


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_sweep_forest_edge_cases(radius):
    # tiny balls (the root alone is the boundary at radius 0), an unsorted
    # grid with duplicates and both ends, and the identity as a target
    f2 = FreeModel(2)
    ball = cayley_ball(f2, f2.letter_generators(), radius)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3]
    targets = [()] + ([(1,), (-2,)] if radius else [])
    fast = sweep(ball, grid, trials=25, seed=4, targets=targets, engine="forest")
    slow = sweep(ball, grid, trials=25, seed=4, targets=targets, engine="unionfind")
    assert fast.rows == slow.rows
    assert [row.p for row in fast.rows] == grid


_Z1, _Z2, _Z3, _F2, _S4 = ZdModel(1), ZdModel(2), ZdModel(3), FreeModel(2), PermGroupModel(4)
_SWAP, _SHIFT = Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))
# name -> (model, generators, radius, targets)
KERNEL_BALLS = {
    "z2-r0": (_Z2, _Z2.basis_generators(), 0, [(0, 0)]),
    "z2-r1": (_Z2, _Z2.basis_generators(), 1, [(0, 0), (0, -1)]),
    "z1-r6": (_Z1, _Z1.basis_generators(), 6, [(0,), (3,), (-6,)]),
    "z3-r4": (_Z3, _Z3.basis_generators(), 4, [(0, 0, 0), (1, -1, 2)]),
    "s4-r3": (_S4, [_SWAP, _SHIFT], 3, [Perm.identity(4), _SWAP * _SHIFT]),
    # a 4-cycle of radius 2 inside a radius-5 ball: the boundary is empty
    "c4-r5": (_S4, [_SHIFT], 5, [Perm.identity(4), _SHIFT * _SHIFT]),
    "f2-r3": (_F2, _F2.letter_generators(), 3, [(), (1,), (-2, 1)]),
}


@pytest.mark.parametrize("name", list(KERNEL_BALLS))
def test_sweep_contraction_kernel_matches_unionfind(name):
    # an unsorted grid with duplicates and both ends, and the identity as a target
    model, gens, radius, targets = KERNEL_BALLS[name]
    ball = cayley_ball(model, gens, radius)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3]
    fast = sweep(ball, grid, trials=25, seed=4, targets=targets, engine="scipy")
    slow = sweep(ball, grid, trials=25, seed=4, targets=targets, engine="unionfind")
    assert fast.rows == slow.rows
    assert [row.p for row in fast.rows] == grid


def test_sweep_engines_agree_when_uniforms_hit_grid_points(monkeypatch, z2_ball, f2_ball):
    # an edge is open at p iff its uniform is < p, so one drawn exactly at
    # a grid point opens only at the points above it
    from erglab import percolation

    def on_grid(seed, trial, n):
        return np.random.default_rng([seed, trial]).choice([0.0, 0.3, 0.5, 0.7], n)

    monkeypatch.setattr(percolation, "uniforms", on_grid)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3, 0.7]
    for ball, targets, engines in [
        (z2_ball, [(0, 0), (1, 0), (2, -1)], ["scipy"]),
        (f2_ball, [(), (1,), (-2, 1)], ["scipy", "forest"]),
    ]:
        slow = sweep(ball, grid, trials=15, seed=6, targets=targets, engine="unionfind")
        for engine in engines:
            fast = sweep(ball, grid, trials=15, seed=6, targets=targets, engine=engine)
            assert fast.rows == slow.rows


def test_sweep_matches_cluster_stats(z2_ball):
    grid = [0.45]
    res = sweep(z2_ball, grid, trials=15, seed=9, targets=[(1, 1)])
    st = cluster_stats(
        [percolate(z2_ball, 0.45, 9, trial=t) for t in range(15)], [(1, 1)]
    )
    assert res.rows[0].theta_count == st.theta_count
    assert res.rows[0].boundary_total == st.boundary_total
    assert res.rows[0].tau_counts == st.tau_counts


def test_sweep_monotone_under_crn(f2_ball):
    res = sweep(f2_ball, [0.1, 0.2, 0.3, 0.4, 0.5, 0.7], trials=20, seed=13)
    assert res.monotone_exact


def test_sweep_validates_inputs(z2_ball):
    with pytest.raises(ValidationError):
        sweep(z2_ball, [], trials=5, seed=1)
    with pytest.raises(ValidationError):
        sweep(z2_ball, [1.5], trials=5, seed=1)
    with pytest.raises(ValidationError):
        sweep(z2_ball, [0.5], trials=0, seed=1)


# -- the dictionary -----------------------------------------------------------------------


def six_point_action() -> FinAction:
    g = Perm(tuple((x + 1) % 6 for x in range(6)))
    return FinAction(
        FinSpace(6), [("g", g), ("g_inv", g.inverse())], {"g": "g_inv", "g_inv": "g"}
    )


def test_six_point_dictionary():
    action = six_point_action()
    a1 = [0, 1, 3, 4]
    a_sets = {"g": a1, "g_inv": [(x + 1) % 6 for x in a1]}
    rep = action_to_percolation(action, a_sets, r=2)
    assert rep.e_rel.classes == ((0, 1, 2), (3, 4, 5))
    assert rep.phi_values["g^1"] == Fraction(2, 3)
    assert rep.phi_values["g^0"] == 1
    assert rep.cluster_probs == rep.phi_values
    assert rep.equivariance_triples == 36
    assert len(rep.configs) == 6


def test_dictionary_all_marked():
    action = six_point_action()
    a_sets = {"g": range(6), "g_inv": range(6)}
    rep = action_to_percolation(action, a_sets, r=1)
    assert all(v == 1 for v in rep.phi_values.values())
    assert all(bits.all() for bits in rep.configs)


def test_dictionary_none_marked():
    action = six_point_action()
    rep = action_to_percolation(action, {"g": [], "g_inv": []}, r=1)
    for name, v in rep.phi_values.items():
        assert v == (1 if name == "g^0" else 0)
    assert all(not bits.any() for bits in rep.configs)


def test_dictionary_rejects_incompatible_sets():
    action = six_point_action()
    with pytest.raises(ValidationError, match="incompatible"):
        action_to_percolation(action, {"g": [0], "g_inv": [0]}, r=1)


def test_dictionary_requires_free_action():
    swap = Perm.from_cycles(3, [(0, 1)])
    action = FinAction(FinSpace(3), [("s", swap)], {"s": "s"})
    with pytest.raises(ValidationError, match="free"):
        action_to_percolation(action, {"s": [0, 1]}, r=1)


def test_dictionary_sample_ball_restriction():
    action = six_point_action()
    a1 = [0, 1, 3, 4]
    rep = action_to_percolation(
        action, {"g": a1, "g_inv": [(x + 1) % 6 for x in a1]}, r=1
    )
    assert rep.sample_ball.radius == 1
    assert all(len(bits) == rep.sample_ball.edge_count for bits in rep.configs)
    assert rep.full_ball.vertex_count == 6


def test_dictionary_random_instances():
    rng = random.Random(20260819)
    for _ in range(20):
        m = rng.choice([4, 6, 8])
        step = rng.choice([1, 2] if m % 2 == 0 else [1])
        if m % step:
            step = 1
        g = Perm(tuple((x + step) % m for x in range(m)))
        if g.inverse() == g:
            action = FinAction(FinSpace(m), [("g", g)], {"g": "g"})
            # a self-paired generator needs a symmetric marked set
            a1 = set()
            for x in range(m):
                if x <= g(x) and rng.random() < 0.5:
                    a1 |= {x, g(x)}
            a_sets = {"g": sorted(a1)}
        else:
            action = FinAction(
                FinSpace(m),
                [("g", g), ("g_inv", g.inverse())],
                {"g": "g_inv", "g_inv": "g"},
            )
            a1 = sorted(rng.sample(range(m), rng.randrange(m + 1)))
            a_sets = {"g": a1, "g_inv": [g(x) for x in a1]}
        rep = action_to_percolation(action, a_sets, r=2)
        assert rep.cluster_probs == rep.phi_values


# -- word-length scales ---------------------------------------------------------------------


def test_default_scale_sequence():
    fm = FreeModel(2)
    ls = LengthSystem(fm, fm.letter_generators())
    assert [ls.a(n) for n in range(1, 5)] == [1, 2, 5, 16]


def test_length_frozen_values():
    fm = FreeModel(2)
    ls = LengthSystem(fm, fm.letter_generators())
    assert length_function(ls, ()).n == 0
    assert length_function(ls, ()).f == 1
    assert length_function(ls, (1,)).n == 1
    assert length_function(ls, (1,)).f == Fraction(1, 2)
    assert length_function(ls, (1, 2)).n == 2
    assert length_function(ls, (1, 2, 1, 2)).n == 2  # wordlength 4 = 2*a_2
    assert length_function(ls, (1, 2, 1, 2, 1)).n == 3


def test_zd_closed_form_length():
    zd = ZdModel(2)
    ls = LengthSystem(zd, zd.basis_generators())
    assert ls.wordlength((3, -4)) == 7
    assert length_function(ls, (0, 0)).n == 0


def test_length_symmetry_and_subadditivity_sample():
    rng = random.Random(99)
    fm = FreeModel(2)
    ls = LengthSystem(fm, fm.letter_generators())
    words = []
    for _ in range(40):
        w = ()
        for _ in range(rng.randrange(8)):
            w = fm.mul(w, (rng.choice([1, -1, 2, -2]),))
        words.append(w)
    for g in words:
        assert ls.length(g) == ls.length(fm.inv(g))
    for g in words[:20]:
        for h in words[20:]:
            assert ls.length(fm.mul(g, h)) <= ls.length(g) + ls.length(h)


def test_custom_scale_validation():
    fm = FreeModel(1)
    with pytest.raises(ValidationError, match="admissible"):
        LengthSystem(fm, fm.letter_generators(), a_seq=[1, 1])
    ls = LengthSystem(fm, fm.letter_generators(), a_seq=[1, 2, 5])
    assert ls.a(3) == 5
    with pytest.raises(ValidationError, match="exhausted"):
        ls.a(4)


def test_bfs_wordlength_fallback():
    pm = PermGroupModel(6)
    shift = Perm(tuple((x + 1) % 6 for x in range(6)))
    ls = LengthSystem(pm, [shift])
    assert ls.wordlength(shift * shift) == 2
    assert ls.wordlength(Perm.identity(6)) == 0
    assert ls.wordlength(shift.inverse()) == 1


def test_bfs_wordlength_not_generated():
    pm = PermGroupModel(3)
    swap = Perm.from_cycles(3, [(0, 1)])
    ls = LengthSystem(pm, [swap])
    with pytest.raises(ValidationError, match="not generated"):
        ls.wordlength(Perm.from_cycles(3, [(1, 2)]))


def test_free_ball_index_of_searches_its_level():
    fm = FreeModel(2)
    ball = cayley_ball(fm, fm.letter_generators(), 5)
    assert isinstance(ball._store, _FreeWords)
    for i, v in enumerate(ball.vertices):
        assert ball.index_of(v) == i
        assert ball.index_of(list(v)) == i
    for word in [(1, 2, -1, -2, 1, 1), (1, -1), (3,), ("a",)]:
        with pytest.raises(ValidationError, match="target outside ball"):
            ball.index_of(word)
    # Z^d balls search their codes
    zd = ZdModel(2)
    lattice = cayley_ball(zd, zd.basis_generators(), 3)
    assert isinstance(lattice._store, _ZdCodes)
    assert [lattice.index_of(v) for v in lattice.vertices] == list(range(lattice.vertex_count))


def _refuse_decoding(monkeypatch):
    def decode(self):
        raise AssertionError("vertices decoded")

    monkeypatch.setattr(_FreeWords, "decode", decode)
    monkeypatch.setattr(_ZdCodes, "decode", decode)


@pytest.mark.parametrize(
    "model",
    [ZdModel(1), ZdModel(2), ZdModel(3), FreeModel(2), FreeModel(3)],
    ids=lambda m: m.name,
)
def test_array_ball_index_of_needs_no_vertices(model, monkeypatch):
    if isinstance(model, ZdModel):
        gens, radii = model.basis_generators(), range(7)
    else:
        gens, radii = model.letter_generators(), range(6)
    listed = [cayley_ball(_Delegate(model), gens, r).vertices for r in radii]
    _refuse_decoding(monkeypatch)
    for r, vertices in zip(radii, listed):
        ball = cayley_ball(model, gens, r)
        assert [ball.index_of(v) for v in vertices] == list(range(len(vertices)))
        assert [ball.index_of(list(v)) for v in vertices] == list(range(len(vertices)))


@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_zd_index_of_refuses_points_outside_the_ball(r):
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), r)
    base = 2 * r + 1

    def code(x):
        return (x[0] + r) * base + x[1] + r

    # out of the box, (1, -(r+1)) has the code of the inside point (0, r)
    assert code((1, -(r + 1))) == code((0, r))
    outside = [(1, -(r + 1)), (0, r + 1), (-(r + 1), 0), (r, 1), (r + 1,), (0, 0, 0), ()]
    outside += [(0.5, 0), ("0", 0), (None, 0), (float("inf"), 0), (10**30, -(10**30))]
    for x in outside:
        with pytest.raises(ValidationError, match="target outside ball"):
            ball.index_of(x)
    assert ball.index_of((0, r)) == ball.vertices.index((0, r))


def test_free_index_of_refuses_words_outside_the_ball():
    fm = FreeModel(2)
    ball = cayley_ball(fm, fm.letter_generators(), 3)
    outside = [(1, -1), (2, 1, -1), (3,), (-3,), (0,), ("a",), (1, "a"), (None,), ((1,),)]
    outside += [(1, 2, 1, 2), (1.5,)]
    for word in outside:
        with pytest.raises(ValidationError, match="target outside ball"):
            ball.index_of(word)


@pytest.mark.parametrize("model", [ZdModel(2), FreeModel(2)], ids=lambda m: m.name)
def test_sweeps_and_configurations_never_decode_vertices(model, monkeypatch):
    if isinstance(model, ZdModel):
        gens, targets = model.basis_generators(), [(1, 0), (0, 2), (-1, 1)]
    else:
        gens, targets = model.letter_generators(), [(1,), (1, 2), (-2, 1, 1)]
    grid = [0.3, 0.5, 0.7, 0.5]

    def run():
        ball = cayley_ball(model, gens, 3)
        rows = {
            engine: sweep(ball, grid, 5, 11, targets, engine=engine, workers=2).rows
            for engine in ("scipy", "forest", "unionfind")
            if engine != "forest" or ball.is_tree()
        }
        configs = [percolate(ball, 0.5, 11, t) for t in range(4)]
        return rows, [c.open.tolist() for c in configs], ball.description()

    expected = run()
    _refuse_decoding(monkeypatch)
    assert run() == expected
