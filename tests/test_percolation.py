"""Cayley balls, bond percolation, cluster labels and sweep kernels, the
exact action/configuration dictionary, and word-length scales."""

import inspect
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import erglab
from erglab import (
    CapExceeded,
    CayleyBall,
    CheckFailed,
    FinAction,
    FinSpace,
    FreeModel,
    LengthSystem,
    Perm,
    PermGroupModel,
    ValidationError,
    ZdModel,
    action_to_percolation,
    cayley_ball,
    cluster_labels,
    cluster_stats,
    length_function,
    percolate,
    phi,
    sweep,
)
from erglab import percolation
from erglab.errors import get_cap
from erglab.percolation import (
    _ball_prefix,
    _close_generators,
    _closure_ball,
    _contract_chunk,
    _free_ball,
    _FreeWords,
    _unionfind_labels,
    _zd_ball,
    _ZdCodes,
)
from erglab.rng import GOLDEN, MASK64, IndexDraw, mix64, stream_key, uniform_at, uniforms


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


def test_index_draw_fills_a_reused_buffer_at_any_indices():
    rng = np.random.default_rng(8)
    edges = 1000
    index = np.concatenate([[0, edges - 1], rng.integers(0, edges, 300), [edges - 1, 0]])
    draw = IndexDraw(index)
    out = np.full(len(index), np.nan)
    for seed, stream in ((0, 0), (7, 3), (2**64 - 1, 12), (123456789, 0)):
        assert draw.fill(seed, stream, out) is out
        assert np.array_equal(out, uniforms(seed, stream, edges)[index])
        picks = rng.integers(0, len(index), 20).tolist() + [0, len(index) - 1]
        assert [out[k] for k in picks] == [uniform_at(seed, stream, int(index[k])) for k in picks]
    # a strided view of a larger buffer, as the forest kernel's u_pe[1:] is
    # a slice, is written in place
    big = np.zeros(2 * len(index) + 1)
    draw.fill(5, 1, big[1::2])
    assert np.array_equal(big[1::2], uniforms(5, 1, edges)[index])
    assert not big[0::2].any()


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
    assert tuple(ball.boundary) == (0,)


class _VertexList:
    """Vertex elements listed in ball order, with their index by key."""

    def __init__(self, vertices: tuple, order: dict):
        self.vertices = vertices
        self.order = order

    def decode(self) -> tuple:
        return self.vertices

    def index(self, key) -> int:
        try:
            return self.order[key]
        except KeyError:
            raise ValidationError("target outside ball") from None


def _bfs_ball(model, q, r: int) -> CayleyBall:
    """The breadth-first word-length ball over model products, with the
    ball cap counted vertex by vertex: the oracle of every `cayley_ball`
    build, for any model."""
    if r < 0:
        raise ValidationError("radius must be non-negative")
    capn = get_cap("ball")
    qc = _close_generators(model, q)
    ident = model.identity()
    vertices = [ident]
    dist = {model.key(ident): 0}
    order = {model.key(ident): 0}
    frontier = [ident]
    distances = [0]
    for d in range(1, r + 1):
        nxt: dict = {}
        for v in frontier:
            for s in qc:
                w = model.mul(s, v)
                k = model.key(w)
                if k in dist or k in nxt:
                    continue
                if len(dist) + len(nxt) + 1 > capn:
                    raise CapExceeded("ball", len(dist) + len(nxt) + 1, capn)
                nxt[k] = w
        frontier = [nxt[k] for k in sorted(nxt)]
        for w in frontier:
            k = model.key(w)
            dist[k] = d
            order[k] = len(vertices)
            vertices.append(w)
            distances.append(d)
    edges = set()
    for i, v in enumerate(vertices):
        for s in qc:
            j = order.get(model.key(model.mul(s, v)))
            if j is not None and i != j:
                edges.add((min(i, j), max(i, j)))
    edge_arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    dist_arr = np.array(distances, dtype=np.int64)
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        distances=dist_arr,
        edges=edge_arr,
        boundary=range(int(np.searchsorted(dist_arr, r)), len(vertices)),
        _store=_VertexList(tuple(vertices), order),
    )


def _assert_same_ball(got, want):
    """Equal balls: description, distances, edges (dtype too), boundary,
    vertices, and `index_of` on every vertex."""
    assert got.description() == want.description()
    assert got.distances.dtype == want.distances.dtype
    assert np.array_equal(got.distances, want.distances)
    assert got.edges.dtype == want.edges.dtype
    assert got.edges.shape == want.edges.shape
    assert np.array_equal(got.edges, want.edges)
    assert got.boundary == want.boundary
    assert got.vertices == want.vertices
    assert [got.index_of(v) for v in want.vertices] == list(range(want.vertex_count))


def _cap_outcomes(model, gens, r, caps):
    """Per ball cap, set through ERGLAB_CAPS, what `cayley_ball` and the
    oracle raise: None, or the CapExceeded fields."""
    outcomes = []
    for cap in caps:
        raised = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ERGLAB_CAPS", f"ball={cap}")
            for build in (cayley_ball, _bfs_ball):
                try:
                    build(model, gens, r)
                    raised.append(None)
                except CapExceeded as exc:
                    raised.append((exc.cap_name, exc.needed, exc.cap))
        outcomes.append(raised)
    return outcomes


@pytest.mark.parametrize(
    "model",
    [ZdModel(1), ZdModel(2), ZdModel(3), ZdModel(40), ZdModel(64), FreeModel(2), FreeModel(3)],
    ids=lambda m: m.name,
)
def test_array_balls_match_generic(model):
    # the Z^d and free array builds against the breadth-first oracle; at
    # ranks 40 and 64 the Z^d codes leave int64 from radius 1 on
    if isinstance(model, ZdModel):
        radii = {40: range(3), 64: range(2)}.get(model.d, range(7))
        gens = model.basis_generators()
    else:
        gens, radii = model.letter_generators(), range(6)
    for r in radii:
        generic = _bfs_ball(model, gens, r)
        _assert_same_ball(cayley_ball(model, gens, r), generic)
        n = generic.vertex_count
        caps = (0, n - 1, n)
        for cap, (fast, oracle) in zip(caps, _cap_outcomes(model, gens, r, caps)):
            assert fast == oracle
            assert (fast is None) == (cap >= n or r == 0)


def test_generators_closed_under_inversion():
    zd = ZdModel(1)
    ball = cayley_ball(zd, [(1,)], 2)
    assert ball.vertex_count == 5  # -2..2


@pytest.mark.parametrize(
    "model, gens, standard",
    [
        (ZdModel(2), [(1, 0), (0, 1)], True),
        (ZdModel(2), [(0, -1), (-1, 0), (1, 0)], True),
        (ZdModel(2), [(1.0, 0), (0, True)], True),  # keys compare by equality
        (ZdModel(2), [(1, 0), (1, 1)], False),
        (ZdModel(2), [(2, 0), (0, 1)], False),
        (ZdModel(3), [(1, 0, 0), (0, 1, 0)], False),
        (FreeModel(2), [(2,), (-1,)], True),
        (FreeModel(2), [(1,)], False),
        (FreeModel(2), [(1,), (2, 1)], False),
    ],
)
def test_standard_generating_sets_take_the_array_paths(model, gens, standard):
    # cayley_ball and LengthSystem recognise the same standard sets, and
    # both refuse the other sets of these models
    if standard:
        assert isinstance(cayley_ball(model, gens, 2)._store, (_ZdCodes, _FreeWords))
        assert LengthSystem(model, gens)._kind in ("zd", "free")
    else:
        with pytest.raises(ValidationError, match="standard generators"):
            cayley_ball(model, gens, 2)
        with pytest.raises(ValidationError, match="standard generators"):
            LengthSystem(model, gens)


class _Integers:
    """A duck-typed model of Z, which no ball build takes."""

    name = "Z"

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def key(self, a):
        return a

    def render(self, a):
        return str(a)


def test_other_models_are_refused():
    with pytest.raises(ValidationError, match="PermGroupModel"):
        cayley_ball(_Integers(), [1], 2)
    with pytest.raises(ValidationError, match="PermGroupModel"):
        LengthSystem(_Integers(), [1])
    # the oracle still takes it
    assert _bfs_ball(_Integers(), [1], 2).vertices == (0, -1, 1, -2, 2)


def test_identity_generator_rejected():
    zd = ZdModel(1)
    with pytest.raises(ValidationError, match="identity"):
        cayley_ball(zd, [(0,)], 1)


def test_ball_cap(monkeypatch):
    monkeypatch.setenv("ERGLAB_CAPS", "ball=10")
    zd = ZdModel(2)
    with pytest.raises(CapExceeded):
        cayley_ball(zd, zd.basis_generators(), 3)
    fm = FreeModel(2)
    with pytest.raises(CapExceeded):
        cayley_ball(fm, fm.letter_generators(), 3)


@pytest.mark.parametrize(
    "model, r",
    [(ZdModel(1), 10**12), (ZdModel(2), 10**9), (ZdModel(3), 10**9)],
    ids=["Z^1", "Z^2", "Z^3"],
)
def test_huge_radius_trips_the_cap(monkeypatch, model, r):
    # the radius is outside input: Z^d balls must trip the cap before
    # anything grows with r, also where (2r+1)^d leaves the array path
    gens = model.basis_generators()
    raised = []
    monkeypatch.setenv("ERGLAB_CAPS", "ball=1000")
    for build in (cayley_ball, _bfs_ball):
        with pytest.raises(CapExceeded) as exc:
            build(model, gens, r)
        raised.append((exc.value.needed, exc.value.cap))
    assert raised[0] == raised[1] == (1001, 1000)
    monkeypatch.delenv("ERGLAB_CAPS")
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


def shift_action(m: int, step: int) -> FinAction:
    """x -> x + step on Z_m: one self-paired label when the shift is an
    involution, else the pair g, g_inv."""
    g = Perm(tuple((x + step) % m for x in range(m)))
    if g == g.inverse():
        return FinAction(FinSpace(m), [("g", g)], {"g": "g"})
    return FinAction(FinSpace(m), [("g", g), ("g_inv", g.inverse())], {"g": "g_inv", "g_inv": "g"})


def natural_s5() -> FinAction:
    t, c = Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])
    return FinAction(
        FinSpace(5),
        [("t", t), ("c", c), ("c_inv", c.inverse())],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )


def _oracle_actions():
    for m in range(2, 13):
        for step in range(1, m):
            yield f"shift-{m}-{step}", shift_action(m, step)
    yield "natural-s5", natural_s5()
    yield "regular-klein", regular_klein()
    yield "regular-s3", regular_s3()


def test_closure_balls_match_the_breadth_first_oracle():
    # every permutation-group ball (cayley_ball, and the dictionary's full
    # and sample balls) against the breadth-first search over Perm products
    names = []
    for name, action in _oracle_actions():
        names.append(name)
        m, n = action.space.size, len(action.closure())
        model = PermGroupModel(m)
        gens = [g for _, g in action.gens]
        whole = _bfs_ball(model, gens, n)
        free = action.fixing_element() is None
        for r in (0, 1, 2, 3, 5, n):
            want = _bfs_ball(model, gens, r)
            got = cayley_ball(model, gens, r)
            _assert_same_ball(got, want)
            for v in whole.vertices[want.vertex_count :]:
                with pytest.raises(ValidationError, match="target outside ball"):
                    got.index_of(v)
            size = want.vertex_count
            caps = (0, size - 1, size)
            for cap, (fast, oracle) in zip(caps, _cap_outcomes(model, gens, r, caps)):
                assert fast == oracle
                assert (fast is None) == (cap >= size or r == 0)
            if free:
                rep = action_to_percolation(action, {lab: [] for lab in action.labels}, r)
                _assert_same_ball(rep.full_ball, whole)
                _assert_same_ball(rep.sample_ball, _bfs_ball(model, gens, min(r, n)))
    assert len(names) == 69 and "natural-s5" in names


def test_closure_ball_refuses_malformed_generators():
    pm = PermGroupModel(4)
    with pytest.raises(ValidationError, match="identity"):
        cayley_ball(pm, [Perm((1, 2, 3, 0)), Perm.identity(4)], 1)
    with pytest.raises(ValidationError, match="wrong space"):
        cayley_ball(pm, [Perm((1, 0, 2))], 1)
    with pytest.raises(ValidationError, match="non-negative"):
        cayley_ball(pm, [Perm((1, 2, 3, 0))], -1)
    # with no generators the ball is the identity alone
    _assert_same_ball(cayley_ball(pm, [], 3), _bfs_ball(pm, [], 3))


def _assert_edges_sorted_by_first_column(ball):
    edges = ball.edges
    assert edges.dtype == np.int64 and edges.shape == (ball.edge_count, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    step = np.diff(edges, axis=0)
    # sorted rows, first column first: the contraction kernel's first
    # labelling reads its CSR rows straight off the opened edges
    assert np.all(step[:, 0] >= 0)
    assert np.all((step[:, 0] > 0) | (step[:, 1] > 0))


def test_every_ball_build_sorts_its_edges_by_their_first_column():
    builds = 0
    for d in (1, 2, 3):
        zd = ZdModel(d)
        for r in (0, 1, 2, 5):
            ball = _zd_ball(zd, _close_generators(zd, zd.basis_generators()), r)
            assert (ball.edge_count == 0) == (r == 0)
            _assert_edges_sorted_by_first_column(ball)
            builds += 1
    for k in (1, 2, 3):
        fm = FreeModel(k)
        for r in (0, 1, 3):
            _assert_edges_sorted_by_first_column(
                _free_ball(fm, _close_generators(fm, fm.letter_generators()), r, get_cap("ball"))
            )
            builds += 1
    for _, action in _oracle_actions():
        n = len(action.closure())
        whole = _closure_ball(action, n)
        _assert_edges_sorted_by_first_column(whole)
        for r in (0, 1, 2):
            _assert_edges_sorted_by_first_column(_closure_ball(action, r))
            _assert_edges_sorted_by_first_column(_ball_prefix(whole, r))
            builds += 2
    assert builds == 12 + 9 + 69 * 6


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
    assert percolate(z2_ball, 0.0, 1).open.sum() == 0
    assert percolate(z2_ball, 1.0, 1).open.sum() == z2_ball.edge_count


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


# -- cluster labels ----------------------------------------------------------------


def test_labels_are_min_members(z2_ball):
    cfg = percolate(z2_ball, 0.6, 5)
    labels = cluster_labels(cfg)
    for i, lab in enumerate(labels):
        assert lab <= i
        assert labels[lab] == lab


def test_forest_engine_rejects_cyclic_ball(z2_ball):
    with pytest.raises(ValidationError, match="not a tree"):
        z2_ball.forest_structure()


def test_free_forest_structure_reads_the_stored_parents():
    fm = FreeModel(2)
    ball = cayley_ball(fm, fm.letter_generators(), 4)
    parent, parent_edge, slices = ball.forest_structure()
    assert np.shares_memory(parent, ball._store.parent)
    # the checked build of the same ball through the breadth-first path
    plain = _bfs_ball(fm, fm.letter_generators(), 4)
    want = plain.forest_structure()
    assert np.array_equal(parent, want[0]) and parent.dtype == want[0].dtype
    assert np.array_equal(parent_edge, want[1]) and parent_edge.dtype == want[1].dtype
    assert slices == want[2]
    i, j = ball.edges.T
    assert np.array_equal(parent[j], i) and np.array_equal(parent_edge[j], np.arange(len(j)))


def test_percolation_callables_take_no_engine():
    # the sweep kernel follows from the ball's shape, and the labeller is
    # the one union-find: neither is a parameter
    params = {
        f.__name__: list(inspect.signature(f).parameters)
        for f in (sweep, cluster_stats, cluster_labels)
    }
    assert params == {
        "sweep": ["ball", "p_grid", "trials", "seed", "targets", "workers"],
        "cluster_stats": ["configs", "targets"],
        "cluster_labels": ["config"],
    }


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


def _reference_counters(ball, grid, trials, seed, targets):
    """Per grid point, [theta, boundary_total, tau...] from `cluster_stats`
    over the `percolate` configuration of each trial: trials 0..trials-1,
    or the trials of a range."""
    runs = range(trials) if isinstance(trials, int) else trials
    out = []
    for p in grid:
        st = cluster_stats((percolate(ball, p, seed, t) for t in runs), targets)
        out.append([st.theta_count, st.boundary_total, *st.tau_counts])
    return out


def _row_counters(rows):
    return [[row.theta_count, row.boundary_total, *row.tau_counts] for row in rows]


def _contraction_counters(ball, grid, trials, seed, targets):
    """The contraction kernel run directly, on tree balls too."""
    return _contract_chunk(ball, grid, 0, trials, seed, [ball.index_of(t) for t in targets])


def test_sweep_engine_invariance(f2_ball):
    grid = [0.25, 0.4]
    want = _reference_counters(f2_ball, grid, 12, 5, [(1,)])
    assert _row_counters(sweep(f2_ball, grid, trials=12, seed=5, targets=[(1,)]).rows) == want
    assert _contraction_counters(f2_ball, grid, 12, 5, [(1,)]) == want


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_sweep_forest_edge_cases(radius):
    # tiny balls (the root alone is the boundary at radius 0), an unsorted
    # grid with duplicates and both ends, and the identity as a target
    f2 = FreeModel(2)
    ball = cayley_ball(f2, f2.letter_generators(), radius)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3]
    targets = [()] + ([(1,), (-2,)] if radius else [])
    res = sweep(ball, grid, trials=25, seed=4, targets=targets)
    assert _row_counters(res.rows) == _reference_counters(ball, grid, 25, 4, targets)
    assert [row.p for row in res.rows] == grid


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
    # an unsorted grid with duplicates and both ends, and the identity as a
    # target; the public sweep runs the forest kernel on the tree balls, so
    # the contraction kernel is also run directly on every ball
    model, gens, radius, targets = KERNEL_BALLS[name]
    ball = cayley_ball(model, gens, radius)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3]
    want = _reference_counters(ball, grid, 25, 4, targets)
    res = sweep(ball, grid, trials=25, seed=4, targets=targets, workers=2)
    assert _row_counters(res.rows) == want
    assert [row.p for row in res.rows] == grid
    assert _contraction_counters(ball, grid, 25, 4, targets) == want


def _assert_boundary_is_the_outer_level(ball):
    assert isinstance(ball.boundary, range)
    assert list(ball.boundary) == np.flatnonzero(ball.distances == ball.radius).tolist()
    assert ball.boundary.stop == ball.vertex_count


@pytest.mark.parametrize("name", list(KERNEL_BALLS))
def test_boundary_is_the_tail_at_distance_radius(name):
    model, gens, radius, _ = KERNEL_BALLS[name]
    _assert_boundary_is_the_outer_level(cayley_ball(model, gens, radius))
    _assert_boundary_is_the_outer_level(_bfs_ball(model, gens, radius))


def test_sweep_engines_agree_when_uniforms_hit_grid_points(monkeypatch, z2_ball, f2_ball):
    # an edge is open at p iff its uniform is < p, so one drawn exactly at
    # a grid point opens only at the points above it
    # every kernel and `percolate` draw through `IndexDraw.fill`, so the
    # tied values are patched there, as a function of (seed, trial, index)
    real_fill = IndexDraw.fill
    callers = set()

    def on_grid(self, seed, trial, out):
        callers.add(sys._getframe(1).f_code.co_name)
        u = real_fill(self, seed, trial, np.empty(len(self.index)))
        out[:] = np.array([0.0, 0.3, 0.5, 0.7])[(u * 4).astype(np.int64)]
        return out

    monkeypatch.setattr(IndexDraw, "fill", on_grid)
    grid = [0.5, 0.0, 1.0, 0.5, 0.3, 0.7]
    for ball, targets in [
        (z2_ball, [(0, 0), (1, 0), (2, -1)]),
        (f2_ball, [(), (1,), (-2, 1)]),
    ]:
        want = _reference_counters(ball, grid, 15, 6, targets)
        res = sweep(ball, grid, trials=15, seed=6, targets=targets)
        assert _row_counters(res.rows) == want
        assert _contraction_counters(ball, grid, 15, 6, targets) == want
    assert {"_forest_chunk", "uniforms"} <= callers


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", list(KERNEL_BALLS))
def test_contraction_kernel_matches_unionfind_at_one_point(name, p):
    # a single-p run is a one-point sweep: no edge opens at 0, all at 1
    model, gens, radius, targets = KERNEL_BALLS[name]
    ball = cayley_ball(model, gens, radius)
    assert _contraction_counters(ball, [p], 25, 4, targets) == _reference_counters(
        ball, [p], 25, 4, targets
    )


@pytest.mark.parametrize("name", list(KERNEL_BALLS))
def test_contraction_chunk_counts_only_its_own_trials(name):
    model, gens, radius, targets = KERNEL_BALLS[name]
    ball = cayley_ball(model, gens, radius)
    tidx = [ball.index_of(t) for t in targets]
    grid = [0.5, 0.0, 1.0, 0.5, 0.3]
    late = _contract_chunk(ball, grid, 7, 19, 4, tidx)
    assert late == _reference_counters(ball, grid, range(7, 19), 4, targets)
    early = _contract_chunk(ball, grid, 0, 7, 4, tidx)
    both = _contract_chunk(ball, grid, 0, 19, 4, tidx)
    assert [[x + y for x, y in zip(a, b)] for a, b in zip(early, late)] == both


def test_contraction_kernel_labels_once_per_point_that_opens_edges(monkeypatch):
    # each call gets the edges that open at its point, on the components of
    # the edges opened before it: p = 0 and the sliver [0.2, 0.2 + 1e-9)
    # open nothing, so they cost no call
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), 6)
    grid = [0.5, 0.0, 0.2 + 1e-9, 0.2, 1.0, 0.5, 0.35]
    real = percolation.connected_components
    calls = []

    def spy(graph):
        calls.append((graph.shape[0], graph.nnz))
        return real(graph)

    monkeypatch.setattr(percolation, "connected_components", spy)
    _contract_chunk(ball, grid, 3, 11, 5, [])
    want = []
    for trial in range(3, 11):
        u = uniforms(5, trial, ball.edge_count)
        before = np.zeros(ball.edge_count, dtype=bool)
        for p in sorted(set(grid)):
            opening = np.count_nonzero((u < p) & ~before)
            if opening:
                clusters = len(np.unique(_unionfind_labels(ball, before)))
                want.append((clusters, opening))
            before = u < p
    assert calls == want
    assert len(want) == 8 * 4


LATTICE_GRID = [0.40, 0.44, 0.47, 0.50, 0.53, 0.56, 0.60]
# Peak traced allocations of `_contract_chunk` over 10 trials on the Z^2
# radius-64 ball (built beforehand), with three targets. The bounds are
# the peaks of the kernel before the int32 CSR build (one searchsorted
# bucket per trial, int64 CSR arrays): 1.26 MiB at one point and 0.89 MiB
# at seven, with numpy 2.4.6 and scipy 1.17.1. The kernel peaks at about
# 0.76 and 0.79 MiB, in the draw.
@pytest.mark.parametrize(
    "grid, bound_mib", [([0.5], 1.26), (LATTICE_GRID, 0.89)], ids=["one-point", "seven-points"]
)
def test_contraction_kernel_peak_allocation(grid, bound_mib):
    zd = ZdModel(2)
    ball = cayley_ball(zd, zd.basis_generators(), 64)
    tidx = [ball.index_of(t) for t in [(1, 0), (0, 1), (8, 8)]]
    # the warm call imports scipy and runs its first-call set-up, neither the kernel's
    _contract_chunk(ball, grid, 0, 1, 1, tidx)
    tracemalloc.start()
    try:
        _contract_chunk(ball, grid, 0, 10, 1, tidx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


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


def test_dictionary_refuses_identity_and_repeated_generators():
    g = Perm((1, 2, 3, 0))
    action = FinAction(
        FinSpace(4),
        [("g", g), ("g_inv", g.inverse()), ("e", Perm.identity(4))],
        {"g": "g_inv", "g_inv": "g", "e": "e"},
    )
    with pytest.raises(ValidationError, match="the identity cannot be a generator"):
        action_to_percolation(action, {"g": [], "g_inv": [], "e": []}, r=1)
    swap = Perm((1, 0))
    twice = FinAction(FinSpace(2), [("a", swap), ("b", swap)], {"a": "a", "b": "b"})
    with pytest.raises(ValidationError, match="generators 'a' and 'b' coincide"):
        action_to_percolation(twice, {"a": [], "b": []}, r=1)


def test_dictionary_requires_free_action():
    swap = Perm.from_cycles(3, [(0, 1)])
    action = FinAction(FinSpace(3), [("s", swap)], {"s": "s"})
    with pytest.raises(ValidationError, match="free"):
        action_to_percolation(action, {"s": [0, 1]}, r=1)


def test_dictionary_balls_keep_the_boundary_as_the_tail():
    action = six_point_action()
    a1 = [0, 1, 3, 4]
    a_sets = {"g": a1, "g_inv": [(x + 1) % 6 for x in a1]}
    for r in (0, 1, 2, 3, 6):
        rep = action_to_percolation(action, a_sets, r=r)
        _assert_boundary_is_the_outer_level(rep.sample_ball)
        _assert_boundary_is_the_outer_level(rep.full_ball)
    # the full ball saturates before its radius: no vertex is at distance radius
    assert len(rep.full_ball.boundary) == 0


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


def _regular_action(elements, mul, gens, inverses) -> FinAction:
    """The left regular action of a group given by its element list and
    product, on the indices of `elements`."""
    index = {e: i for i, e in enumerate(elements)}
    perms = [
        (lab, Perm(tuple(index[mul(g, h)] for h in elements))) for lab, g in gens
    ]
    return FinAction(FinSpace(len(elements)), perms, inverses)


def regular_s3() -> FinAction:
    # S_3 as image tuples of three points; (a * b)(i) = a(b(i))
    elements = sorted(itertools.permutations(range(3)))
    return _regular_action(
        elements,
        lambda a, b: tuple(a[b[i]] for i in range(3)),
        [("t", (1, 0, 2)), ("c", (1, 2, 0)), ("c_inv", (2, 0, 1))],
        {"t": "t", "c": "c_inv", "c_inv": "c"},
    )


def regular_klein() -> FinAction:
    # Z_2 x Z_2 as 2-bit integers under xor: two commuting involutions
    return _regular_action(
        [0, 1, 2, 3], lambda a, b: a ^ b, [("a", 1), ("b", 2)], {"a": "a", "b": "b"}
    )


def random_marked_sets(action: FinAction, rng: random.Random) -> dict:
    """A random compatible family: A_s at random and A_(s^-1) = s(A_s); a
    self-paired s gets a union of its 2-cycles."""
    sets: dict = {}
    for lab in action.labels:
        if lab in sets:
            continue
        g, inv = action.generator(lab), action.inverses[lab]
        if inv == lab:
            marked = set()
            for x in range(action.space.size):
                if x <= g(x) and rng.random() < 0.5:
                    marked |= {x, g(x)}
        else:
            marked = set(rng.sample(range(action.space.size), rng.randrange(action.space.size + 1)))
        sets[lab] = sorted(marked)
        sets[inv] = sorted(g(x) for x in marked)
    return sets


def brute_force_configs(ball, action: FinAction, a_sets: dict) -> list:
    """Per point x, the configuration on `ball` read edge by edge: find a
    label s with s * v == w (base v) or s * w == v (base w) by permutation
    products, and open the edge iff base(x) lies in A_s."""
    decomposition = []
    for i, j in ball.edges.tolist():
        v, w = ball.vertices[i], ball.vertices[j]
        found = None
        for lab in action.labels:
            s = action.generator(lab)
            if s * v == w:
                found = (v, lab)
            elif s * w == v:
                found = (w, lab)
            if found:
                break
        assert found is not None, "edge without a generator"
        decomposition.append(found)
    return [
        [base(x) in a_sets[lab] for base, lab in decomposition]
        for x in range(action.space.size)
    ]


@pytest.mark.parametrize("r", [0, 1, 2, 6])
@pytest.mark.parametrize("make", [regular_s3, regular_klein, six_point_action])
def test_dictionary_matches_the_brute_force_oracle(make, r):
    action = make()
    rng = random.Random(f"{make.__name__}-{r}")
    closure = action.closure()
    m = action.space.size
    for _ in range(12):
        a_sets = random_marked_sets(action, rng)
        rep = action_to_percolation(action, a_sets, r=r)
        oracle = brute_force_configs(rep.sample_ball, action, a_sets)
        assert [bits.tolist() for bits in rep.configs] == oracle
        assert rep.sample_ball.radius == min(r, rep.full_ball.radius)
        assert rep.cluster_probs == rep.phi_values
        assert rep.phi_values == {e.name: phi(rep.e_rel, e.perm) for e in closure}
        assert rep.equivariance_triples == len(closure) * m
    # the full ball is the whole closure graph, and the radius-r ball its prefix
    assert rep.full_ball.vertex_count == len(closure)
    sample = rep.sample_ball
    keep = rep.full_ball.edges[:, 1] < sample.vertex_count
    assert np.array_equal(rep.full_ball.edges[keep], sample.edges)
    assert np.array_equal(rep.full_ball.distances[: sample.vertex_count], sample.distances)


def test_dictionary_reports_a_wrong_capture_value(monkeypatch):
    action = regular_s3()
    a_sets = random_marked_sets(action, random.Random(3))
    monkeypatch.setattr(percolation, "phi", lambda rel, s: Fraction(-1))
    with pytest.raises(CheckFailed, match="capture value and cluster probability disagree at 1"):
        action_to_percolation(action, a_sets, r=1)


@pytest.mark.parametrize(
    "a_sets, r, message",
    [
        ({"g": [0.5], "g_inv": [1]}, 1, r"marked set of 'g' holds 0.5, not a point index"),
        ({"g": [True], "g_inv": [1]}, 1, r"marked set of 'g' holds True, not a point index"),
        ({"g": ["0"], "g_inv": [1]}, 1, r"marked set of 'g' holds '0', not a point index"),
        ({"g": [0], "g_inv": ["a"]}, 1, r"marked set of 'g_inv' holds 'a', not a point index"),
        ({"g": 0, "g_inv": [1]}, 1, r"marked set of 'g' is not a collection of points"),
        ({"g": [0], "g_inv": None}, 1, r"marked set of 'g_inv' is not a collection of points"),
        ({"g": [6], "g_inv": [1]}, 1, r"marked set of 'g' leaves the space"),
        ({"g": [0], "g_inv": [1]}, 1.5, r"radius must be an integer, not 1.5"),
        ({"g": [0], "g_inv": [1]}, True, r"radius must be an integer, not True"),
        ({"g": [0], "g_inv": [1]}, "1", r"radius must be an integer, not '1'"),
        ({"g": [0], "g_inv": [1]}, -1, r"radius must be non-negative"),
    ],
)
def test_dictionary_refuses_malformed_input(a_sets, r, message):
    with pytest.raises(ValidationError, match=message):
        action_to_percolation(six_point_action(), a_sets, r)


def test_dictionary_takes_numpy_points_and_radius():
    a_sets = {"g": np.array([0, 1]), "g_inv": np.array([1, 2])}
    rep = action_to_percolation(six_point_action(), a_sets, np.int64(1))
    assert rep.sample_ball.radius == 1
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
    # a PermGroupModel's word lengths are the breadth-first levels of its
    # closure ball, built once
    pm = PermGroupModel(6)
    shift = Perm(tuple((x + 1) % 6 for x in range(6)))
    ls = LengthSystem(pm, [shift])
    assert ls.wordlength(shift * shift) == 2
    ball = ls._ball
    assert ls.wordlength(shift**3) == 3
    assert ls.wordlength(Perm.identity(6)) == 0
    assert ls.wordlength(shift.inverse()) == 1
    assert ls._ball is ball
    # all of S_5 against the breadth-first oracle
    action = natural_s5()
    gens = [g for _, g in action.gens]
    ls = LengthSystem(PermGroupModel(5), gens)
    oracle = _bfs_ball(PermGroupModel(5), gens, 120)
    assert oracle.vertex_count == 120
    assert [ls.wordlength(v) for v in oracle.vertices] == oracle.distances.tolist()
    assert [ls.length(v) for v in oracle.vertices[:3]] == [0, 1, 1]


def test_bfs_wordlength_not_generated(monkeypatch):
    pm = PermGroupModel(3)
    swap = Perm.from_cycles(3, [(0, 1)])
    ls = LengthSystem(pm, [swap])
    for outside in (Perm.from_cycles(3, [(1, 2)]), Perm.identity(4)):
        with pytest.raises(ValidationError, match="not generated"):
            ls.wordlength(outside)
    # the closure ball counts against the ball cap
    monkeypatch.setenv("ERGLAB_CAPS", "ball=3")
    with pytest.raises(CapExceeded, match="'ball'"):
        LengthSystem(PermGroupModel(4), [Perm((1, 2, 3, 0))]).wordlength(Perm.identity(4))


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
    listed = [_bfs_ball(model, gens, r).vertices for r in radii]
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
        rows = sweep(ball, grid, 5, 11, targets, workers=2).rows
        counters = [
            _contraction_counters(ball, grid, 5, 11, targets),
            _reference_counters(ball, grid, 5, 11, targets),
        ]
        configs = [percolate(ball, 0.5, 11, t) for t in range(4)]
        return rows, counters, [c.open.tolist() for c in configs], ball.description()

    expected = run()
    _refuse_decoding(monkeypatch)
    assert run() == expected


_F2_R13_SWEEP = """
from erglab import FreeModel, cayley_ball, sweep
f2 = FreeModel(2)
ball = cayley_ball(f2, f2.letter_generators(), 13)
sweep(ball, [0.3, 0.4], 2, 1, [(1,), (1, 2)])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).split()[1])
"""
# Peak RSS in MB of a fresh process that builds the F_2 radius-13 ball
# (3,188,645 vertices) and sweeps it: about 287 MB with numpy 2.4 on
# Linux (a tree sweep never imports scipy). The child reads its own
# VmHWM in kilobytes, not ru_maxrss: exec keeps the maxrss of the
# process that started it, so under a pytest process that once held
# 525 MB ru_maxrss reads 525 MB whatever the sweep takes. The bound
# keeps 50% headroom; a kernel that holds a few more ball-sized arrays,
# a boundary tuple or a second parent array per sweep goes past it.
F2_R13_PEAK_MB = 430


def test_f2_radius_13_sweep_stays_under_its_memory_bound():
    src = str(Path(erglab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _F2_R13_SWEEP],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    peak_mb = int(done.stdout.split()[-1]) / 1024
    assert peak_mb < F2_R13_PEAK_MB
