"""Cayley-graph balls, Bernoulli bond percolation, cluster statistics,
the exact action-to-configuration dictionary, and word-length scales.

Group models give identity() / mul / inv / key / render plus a name.
Balls use the left Cayley graph (edges {v, sv} for generators s) so
that right translation acts on configurations; the dictionary checks
depend on that orientation.

Balls are built for the standard generators of Z^d (at any rank) and of
free groups level by level (mixed-radix point codes, int64 or Python
ints; free words as parent index and first letter), and for any
generators of a `PermGroupModel` off the closure tables of the
`FinAction` they generate; other generating sets are refused. Each build
keeps its vertices on arrays, decodes their tuples only when
`CayleyBall.vertices` is read, and gives the vertex order of a
breadth-first search, which the tests keep as their oracle.

Clusters have one reference labeller: `cluster_labels` reads min-member
labels off the union-find (`EqRel.from_pairs`), and `cluster_stats`
folds them over a stream of configurations. Sweeps fold the same
statistics without labels, with a kernel chosen by the ball's shape: on
tree balls the forest kernel reads every grid point off per-vertex
thresholds, and on other balls the contraction kernel merges components
grid point by grid point as edges open (Newman and Ziff's order). Both
give the counters that `cluster_stats` over `percolate` gives. One numpy
labeller, `connected_components` (hooking and pointer jumping), labels
both the contraction kernel's graphs and the dictionary's block graph.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, CheckFailed, ValidationError, get_cap
from .ergcore import EqRel, FinAction, FinSpace, Perm, phi
from .rng import IndexDraw, uniforms


# -- group models -------------------------------------------------------------


class ZdModel:
    """Free abelian group of rank d; elements are integer d-tuples."""

    def __init__(self, d: int):
        if d < 1:
            raise ValidationError("rank must be at least 1")
        self.d = d
        self.name = f"Z^{d}"

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.d

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a) -> tuple[int, ...]:
        return tuple(-x for x in a)

    def key(self, a):
        return tuple(a)

    def render(self, a) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    def basis_generators(self) -> list[tuple[int, ...]]:
        out = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            out.append(tuple(e))
            e2 = [0] * self.d
            e2[i] = -1
            out.append(tuple(e2))
        return out


class FreeModel:
    """Free group on k letters; elements are reduced words, a word being
    a tuple of nonzero ints with letter i encoded as +-(i+1)."""

    def __init__(self, k: int):
        if not 1 <= k <= 26:
            raise ValidationError("letter count must be between 1 and 26")
        self.k = k
        self.name = f"F_{k}"

    def identity(self) -> tuple[int, ...]:
        return ()

    def mul(self, a, b) -> tuple[int, ...]:
        out = list(a)
        for ch in b:
            if out and out[-1] == -ch:
                out.pop()
            else:
                out.append(ch)
        return tuple(out)

    def inv(self, a) -> tuple[int, ...]:
        return tuple(-ch for ch in reversed(a))

    def key(self, a):
        return tuple(a)

    def render(self, a) -> str:
        if not a:
            return "e"
        letters = []
        for ch in a:
            base = chr(ord("a") + abs(ch) - 1)
            letters.append(base if ch > 0 else base.upper())
        return "".join(letters)

    def letter_generators(self) -> list[tuple[int, ...]]:
        out = []
        for i in range(1, self.k + 1):
            out.append((i,))
            out.append((-i,))
        return out


class PermGroupModel:
    """Subgroups of the symmetric group on a fixed number of points."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValidationError("degree must be at least 1")
        self.degree = degree
        self.name = f"perm({degree})"

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def mul(self, a: Perm, b: Perm) -> Perm:
        return a * b

    def inv(self, a: Perm) -> Perm:
        return a.inverse()

    def key(self, a: Perm):
        return a.images

    def render(self, a: Perm) -> str:
        if a.is_identity():
            return "e"
        return "".join(
            "(" + " ".join(str(v) for v in c) + ")" for c in a.cycles()
        )


# -- Cayley balls --------------------------------------------------------------


@dataclass
class CayleyBall:
    """Word-length ball: vertices ordered by (distance, canonical key),
    undirected edges {v, sv} with both ends inside, boundary = the
    vertices at distance `radius`. Vertices are ordered by distance, so
    the boundary is the tail range(b, vertex_count) of the indices (empty
    when the ball stops growing before its radius), and kernels slice it.

    The ball keeps its vertices in a store (`_ZdCodes`, `_FreeWords` or
    `_ClosureRows`) that finds a vertex's index and decodes the vertex
    elements. `vertices` is the tuple of those elements, decoded on its
    first read; sweeps and configurations never read it. There is no
    lookup from a vertex pair to its edge: `edges` is sorted, so callers
    search it.
    """

    model: object
    q: tuple
    radius: int
    distances: np.ndarray
    # (E, 2) int64, each row (i, j) with i < j; rows sorted by their first
    # column
    edges: np.ndarray
    boundary: range
    _store: object = field(repr=False)
    _vertices: tuple | None = field(default=None, repr=False)
    _forest: tuple | None = field(default=None, repr=False)

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = self._store.decode()
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self.distances)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, element) -> int:
        return self._store.index(self.model.key(element))

    def description(self) -> dict:
        return {
            "model": self.model.name,
            "generators": [self.model.render(s) for s in self.q],
            "radius": self.radius,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
        }

    def is_tree(self) -> bool:
        return self.edge_count == self.vertex_count - 1

    def forest_structure(self):
        """(parent, parent_edge, level_slices) arrays for tree balls.

        parent_edge[v] is the index of the edge {parent[v], v}; entry 0,
        the root's, is 0 in both arrays. A free ball returns its store's
        own parent array, not a copy, and needs no check: it is a tree by
        construction. Other balls check that every edge steps one level
        down and that no vertex has two parents.
        """
        if self._forest is not None:
            return self._forest
        if not self.is_tree():
            raise ValidationError("ball is not a tree; the forest kernel does not apply")
        n = self.vertex_count
        i, j = self.edges.T
        if isinstance(self._store, _FreeWords):
            parent = self._store.parent
            starts = self._store.starts
        else:
            if not np.all(self.distances[i] + 1 == self.distances[j]) or np.any(
                np.bincount(j, minlength=n) > 1
            ):
                raise ValidationError("ball is not a tree; the forest kernel does not apply")
            parent = np.zeros(n, dtype=np.int64)
            parent[j] = i
            starts = np.searchsorted(self.distances, np.arange(self.radius + 2)).tolist()
        parent_edge = np.zeros(n, dtype=np.int64)
        parent_edge[j] = np.arange(len(j), dtype=np.int64)
        slices = tuple(
            (starts[d], starts[d + 1])
            for d in range(1, self.radius + 1)
            if starts[d] < starts[d + 1]
        )
        self._forest = (parent, parent_edge, slices)
        return self._forest


class _FreeWords:
    """Reduced words over the standard free letters, stored as arrays:
    word i is (first[i],) + word(parent[i]), and word 0 is the identity.

    Level d holds the indices starts[d]..starts[d+1]-1 and is sorted, so
    within it the words with one first letter are one block, ordered by
    parent.
    """

    def __init__(self, letters: tuple, parent: np.ndarray, first: np.ndarray, starts: list):
        self.letters = letters
        self.parent = parent
        self.first = first
        self.starts = starts

    def decode(self) -> tuple:
        words = [()]
        for c, p in zip(self.first[1:].tolist(), self.parent[1:].tolist()):
            words.append((c,) + words[p])
        return tuple(words)

    def index(self, key) -> int:
        """Walk the word from its last letter: at level d, the word ending
        in the d letters read so far is the child of the previous one with
        the next letter first, found by two searches within the level."""
        if len(key) > len(self.starts) - 2:
            raise ValidationError("target outside ball")
        i = 0
        for d, c in enumerate(reversed(key), 1):
            # a tuple compares by equality and needs no hash
            if c not in self.letters:
                raise ValidationError("target outside ball")
            lo, hi = self.starts[d], self.starts[d + 1]
            a, b = np.searchsorted(self.first[lo:hi], [c, c + 1]).tolist()
            j = lo + a + int(np.searchsorted(self.parent[lo + a : lo + b], i))
            if j == lo + b or self.parent[j] != i:  # the word does not reduce
                raise ValidationError("target outside ball")
            i = j
        return i


class _ZdCodes:
    """Points of a Z^d ball stored as mixed-radix codes: x in [-r, r]^d has
    the code sum_i (x_i + r) weight[i], with weight[i] = (2r+1)^(d-1-i),
    whose order is the lexicographic order of x. Codes and weights are
    int64 when (2r+1)^d fits, else Python ints in object arrays. Level k
    holds the indices starts[k]..starts[k+1]-1 and is sorted by code.
    """

    def __init__(self, codes: np.ndarray, weight: np.ndarray, r: int, starts: list):
        self.codes = codes
        self.weight = weight
        self.r = r
        self.starts = starts

    def decode(self) -> tuple:
        coords = self.codes[:, None] // self.weight % (2 * self.r + 1) - self.r
        return tuple(map(tuple, coords.tolist()))

    def index(self, key) -> int:
        try:
            x = [int(c) for c in key]
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("target outside ball") from None
        norm = sum(map(abs, x))
        # a norm of at most r also puts x in the box [-r, r]^d, where codes
        # are one to one; outside it a code can name an inside point
        if len(x) != len(self.weight) or x != list(key) or norm > self.r:
            raise ValidationError("target outside ball")
        code = sum((c + self.r) * w for c, w in zip(x, self.weight.tolist()))
        lo, hi = self.starts[norm], self.starts[norm + 1]
        j = lo + int(np.searchsorted(self.codes[lo:hi], code))
        if j == hi or self.codes[j] != code:
            raise ValidationError("target outside ball")
        return j


class _ClosureRows:
    """Elements of a `FinAction`'s closure in ball order: vertex v is
    closure element order[v], and element k is vertex pos[k], a vertex of
    this ball when pos[k] < len(order). A key is resolved through the
    closure's own image index (`FinAction.index_of`)."""

    def __init__(self, action: FinAction, order: np.ndarray, pos: np.ndarray):
        self.action = action
        self.order = order
        self.pos = pos

    def decode(self) -> tuple:
        closure = self.action.closure()
        return tuple(closure[k].perm for k in self.order.tolist())

    def index(self, key) -> int:
        try:
            v = int(self.pos[self.action.index_of(Perm(key))])
        except ValueError:  # not a permutation, or not in the closure
            raise ValidationError("target outside ball") from None
        if v >= len(self.order):
            raise ValidationError("target outside ball")
        return v


def _close_generators(model, q) -> list:
    idk = model.key(model.identity())
    seen: dict = {}
    for s in q:
        k = model.key(s)
        if k == idk:
            raise ValidationError("the identity cannot be a generator")
        if k not in seen:
            seen[k] = s
    for s in list(seen.values()):
        inv = model.inv(s)
        seen.setdefault(model.key(inv), inv)
    return [seen[k] for k in sorted(seen)]


def _ball_kind(model, qc: list) -> str:
    """"zd" or "free" when the closed generator set qc is the standard
    one of a Z^d or free-group model (the ±e_i, or the letters and their
    inverses), "perm" for a `PermGroupModel`; anything else is refused.
    Distinct keys are compared by equality, so 2d unit vectors (2k
    letters) are the whole standard set; no generator list is built."""
    if isinstance(model, PermGroupModel):
        return "perm"
    keys = {model.key(s) for s in qc}
    if isinstance(model, ZdModel) and len(keys) == 2 * model.d:
        if all(len(key) == model.d and [c for c in key if c != 0] in ([1], [-1]) for key in keys):
            return "zd"
    if isinstance(model, FreeModel) and len(keys) == 2 * model.k:
        letters = range(-model.k, model.k + 1)
        if all(len(key) == 1 and key[0] != 0 and key[0] in letters for key in keys):
            return "free"
    raise ValidationError(
        "balls are built for the standard generators of Z^d and F_k, and for a PermGroupModel"
    )


def _check_ball_cap(size: int, capn: int) -> None:
    """Raise as a breadth-first build does when a ball of `size` vertices
    outgrows the cap. That build counts the vertex it is about to add and
    never counts the identity, so the least count it reports is 2."""
    lim = max(capn, 1)
    if size > lim:
        raise CapExceeded("ball", lim + 1, capn)


def cayley_ball(model, q, r: int) -> CayleyBall:
    """Word-length ball of radius r for generators q.

    q is closed under inversion automatically; vertex order is
    (distance, canonical key), deterministic across runs. The standard
    generators of Z^d (at every rank) and of free groups take the level
    builds `_zd_ball` and `_free_ball`. Any generators of a
    `PermGroupModel` take `_closure_ball`, a prefix of the Cayley graph
    of the whole group they generate, which must fit the `closure` cap.
    Any other model or generating set raises ValidationError. Vertices
    are stored as arrays, and `vertices` is decoded on its first read.
    The ball is bounded by the `ball` cap.
    """
    if r < 0:
        raise ValidationError("radius must be non-negative")
    capn = get_cap("ball")
    qc = _close_generators(model, q)
    kind = _ball_kind(model, qc)
    if kind == "free":
        return _free_ball(model, qc, r, capn)
    if kind == "zd":
        # the size is known in closed form: check the cap before anything
        # grows with r
        _check_ball_cap(_zd_ball_size(model.d, r), capn)
        return _zd_ball(model, qc, r)
    # generators are labelled by position; qc is closed under inversion
    action = FinAction(
        FinSpace(model.degree),
        [(str(i), g) for i, g in enumerate(qc)],
        {str(i): str(qc.index(model.inv(g))) for i, g in enumerate(qc)},
    )
    ball = _closure_ball(action, r)
    _check_ball_cap(ball.vertex_count, capn)
    return ball


def _zd_ball_size(d: int, r: int) -> int:
    """Points of Z^d at L1 norm at most r: pick i nonzero coordinates,
    their signs, and the i distinct partial sums in 1..r of their absolute
    values, listed in coordinate order."""
    return sum(2**i * math.comb(d, i) * math.comb(r, i) for i in range(min(d, r) + 1))


def _zd_ball(model: ZdModel, qc: list, r: int) -> CayleyBall:
    """Array build for the standard generators of Z^d, level by level.

    Points are stored as their mixed-radix codes (`_ZdCodes`) and decoded
    to d-tuples only when `vertices` is read; the caller checks the cap.
    Level k is the set of outward steps from level k-1 (the steps that
    raise the L1 norm), deduplicated by sorting codes, so vertices come in
    (distance, key) order. Every edge joins norms k-1 and k and is the
    outward step from its lower end, so the steps are the edges. They are
    taken point by point and, per point, in increasing code, so the edge
    rows come out sorted.
    """
    d, base = model.d, 2 * r + 1
    dtype = np.int64 if base**d <= 2**63 else object
    weight = np.array([base ** (d - 1 - i) for i in range(d)], dtype=dtype)
    # the 2d steps -e_0, ..., -e_{d-1}, e_{d-1}, ..., e_0, in increasing code
    step_weight = np.concatenate([weight, weight[::-1]])
    signs = np.repeat([-1, 1], d)
    offsets = signs * step_weight
    levels = [np.array([(base**d - 1) // 2], dtype=dtype)]  # every digit r
    outward = [np.empty((0, 2 * d), dtype=bool)]
    highs = [np.empty(0, dtype=np.int64)]
    n = 1
    for _ in range(r):
        prev = levels[-1][:, None]
        # the step sign * e_i raises the norm where sign * x_i >= 0
        outward.append((prev // step_weight % base - r) * signs >= 0)
        steps = (prev + offsets)[outward[-1]]
        s = np.sort(steps)
        levels.append(s[np.concatenate(([True], s[1:] != s[:-1]))])
        highs.append(np.searchsorted(levels[-1], steps) + n)
        n += len(levels[-1])
    # row v of the stacked masks belongs to vertex v: each step's lower end
    lows = np.nonzero(np.concatenate(outward))[0]
    sizes = [len(level) for level in levels]
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        distances=np.repeat(np.arange(r + 1, dtype=np.int64), sizes),
        edges=np.stack([lows, np.concatenate(highs)], axis=1),
        boundary=range(n - sizes[-1], n),
        _store=_ZdCodes(np.concatenate(levels), weight, r, np.cumsum([0, *sizes]).tolist()),
    )


def _free_ball(model: FreeModel, qc: list, r: int, capn: int) -> CayleyBall:
    """Fast path for the standard letters: the ball is a tree.

    Words are stored as (parent index, first letter) arrays (`_FreeWords`)
    and decoded to tuples only when `vertices` is read. Level d is the
    concatenation, over the sorted letters c, of c·w for the level-(d-1)
    words w that do not start with -c. Level d-1 is sorted, so that
    concatenation is too, and the words starting with -c are one block of
    it. The edges join each word to its suffix w, its parent.
    """
    letters = sorted(s[0] for s in qc)
    sizes = [1]
    parents = [np.zeros(1, dtype=np.int64)]  # the identity's entry is never read
    firsts = [np.zeros(1, dtype=np.int8)]  # 0: the identity has no first letter
    n = 1
    for _ in range(1, r + 1):
        lo = n - sizes[-1]
        blocks = [np.searchsorted(firsts[-1], [-c, -c + 1]).tolist() for c in letters]
        counts = [sizes[-1] - (b - a) for a, b in blocks]
        _check_ball_cap(n + sum(counts), capn)
        for a, b in blocks:
            parents.append(np.arange(lo, lo + a, dtype=np.int64))
            parents.append(np.arange(lo + b, n, dtype=np.int64))
        firsts.append(np.repeat(np.array(letters, dtype=np.int8), counts))
        sizes.append(sum(counts))
        n += sizes[-1]
    parent = np.concatenate(parents)
    order = np.argsort(parent[1:], kind="stable")
    starts = np.cumsum([0, *sizes]).tolist()
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        distances=np.repeat(np.arange(r + 1, dtype=np.int64), sizes),
        edges=np.stack([parent[1:][order], order + 1], axis=1),
        boundary=range(n - sizes[-1], n),
        _store=_FreeWords(tuple(letters), parent, np.concatenate(firsts), starts),
    )


def _closure_ball(action: FinAction, r: int) -> CayleyBall:
    """The radius-r ball of the left Cayley graph of the action's closure:
    the whole graph is read off the closure tables, and the ball is its
    prefix.

    Distances are the breadth-first levels of the step table (a
    single-pair closure names its elements by powers, not shortest
    words). Vertices are sorted by (distance, image row), the public
    order, so closure element k is vertex pos[k]. The edges are the steps
    {pos[i], pos[steps[s, i]]}, sorted within each row and made unique;
    none is a loop, as the identity is refused as a generator.
    """
    model = PermGroupModel(action.space.size)
    qc = _close_generators(model, [g for _, g in action.gens])
    images, steps = action.closure_images(), action.step_table()
    n = len(images)
    dist, queue, rows = [0] + [-1] * (n - 1), [0], steps.T.tolist()
    for i in queue:  # the queue grows as it is read
        for j in rows[i]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    if len(queue) < n:
        raise CheckFailed("closure graph does not cover the closure")
    order = np.lexsort((*images.T[::-1], dist))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # each step's ends, the lower first, coded as lower * n + upper
    ends = np.sort(pos[np.stack(np.broadcast_arrays(np.arange(n), steps))], axis=0)
    edges = np.stack(np.divmod(np.unique(ends[0] * n + ends[1]), n), axis=1)
    whole = CayleyBall(
        model=model,
        q=tuple(qc),
        radius=n,  # no element lies that far out
        distances=np.array(dist, dtype=np.int64)[order],
        edges=edges,
        boundary=range(n, n),
        _store=_ClosureRows(action, order, pos),
    )
    return _ball_prefix(whole, r)


def _ball_prefix(ball: CayleyBall, r: int) -> CayleyBall:
    """The radius-r ball inside a closure ball. Distances are sorted, so
    its vertices are the first ones, up to distance r, and its edges are
    those whose larger end, the second of the row, lies among them."""
    n = int(np.searchsorted(ball.distances, r, "right"))
    return CayleyBall(
        model=ball.model,
        q=ball.q,
        radius=r,
        distances=ball.distances[:n],
        edges=ball.edges[ball.edges[:, 1] < n],
        boundary=range(int(np.searchsorted(ball.distances, r)), n),
        _store=_ClosureRows(ball._store.action, ball._store.order[:n], ball._store.pos),
    )


# -- percolation configurations -------------------------------------------------


@dataclass
class PercConfig:
    ball: CayleyBall
    p: float
    seed: int
    trial: int
    open: np.ndarray = field(repr=False)  # bool per edge


def percolate(ball: CayleyBall, p: float, seed: int, trial: int = 0) -> PercConfig:
    """Independent Bernoulli(p) bond configuration, keyed on
    (seed, trial, edge index): reproducible for any execution order."""
    if not 0 <= p <= 1:
        raise ValidationError("probability must lie in [0, 1]")
    u = uniforms(seed, trial, ball.edge_count)
    return PercConfig(ball=ball, p=float(p), seed=seed, trial=trial, open=u < p)


def cluster_labels(config: PercConfig) -> np.ndarray:
    """Cluster label per vertex, the least member index of its cluster,
    read off the union-find: the reference the sweep kernels match."""
    return _unionfind_labels(config.ball, config.open)


def _unionfind_labels(ball: CayleyBall, open_mask: np.ndarray) -> np.ndarray:
    rel = EqRel.from_pairs(ball.vertex_count, ball.edges[open_mask].tolist())
    return np.array([rel.class_of(v)[0] for v in range(ball.vertex_count)], dtype=np.int64)


# -- statistics ------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterStats:
    """Integer-counter summary of a stream of configurations."""

    n: int
    theta_count: int
    boundary_total: int
    target_labels: tuple[str, ...]
    tau_counts: tuple[int, ...]

    @property
    def theta_hat(self) -> float:
        return self.theta_count / self.n

    @property
    def theta_se(self) -> float:
        h = self.theta_hat
        return math.sqrt(h * (1.0 - h) / self.n)

    @property
    def boundary_clusters_mean(self) -> float:
        return self.boundary_total / self.n

    def tau_hat(self, t: int) -> float:
        return self.tau_counts[t] / self.n


def cluster_stats(configs: Iterable[PercConfig], targets: Sequence = ()) -> ClusterStats:
    """Fold the `cluster_labels` of a stream of configurations over one
    ball into counters: root-to-target connections, root-cluster
    boundary hits, and boundary-cluster counts. Over the `percolate`
    configurations of a grid point, these are the counters `sweep`
    reports there."""
    n = 0
    theta = 0
    btotal = 0
    tau = None
    tlabels: tuple[str, ...] = ()
    tidx: list[int] = []
    ball = None
    for cfg in configs:
        if ball is None:
            ball = cfg.ball
            tidx = [ball.index_of(t) for t in targets]
            tlabels = tuple(ball.model.render(t) for t in targets)
            tau = [0] * len(tidx)
        elif cfg.ball is not ball:
            raise ValidationError("all configurations must share one ball")
        labels = cluster_labels(cfg)
        root = labels[0]
        blabels = labels[ball.boundary.start :]
        if ball.boundary and bool(np.any(blabels == root)):
            theta += 1
        btotal += len(np.unique(blabels))
        for t, v in enumerate(tidx):
            if labels[v] == root:
                tau[t] += 1
        n += 1
    if n == 0:
        raise ValidationError("no configurations supplied")
    return ClusterStats(
        n=n,
        theta_count=theta,
        boundary_total=btotal,
        target_labels=tlabels,
        tau_counts=tuple(tau),
    )


# -- sweeps -------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    p: float
    trials: int
    theta_count: int
    boundary_total: int
    tau_counts: tuple[int, ...]

    @property
    def theta_hat(self) -> float:
        return self.theta_count / self.trials

    @property
    def theta_se(self) -> float:
        h = self.theta_hat
        return math.sqrt(h * (1.0 - h) / self.trials)

    @property
    def boundary_clusters_mean(self) -> float:
        return self.boundary_total / self.trials


@dataclass(frozen=True)
class SweepResult:
    ball_description: dict
    seed: int
    target_labels: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    monotone_exact: bool
    monotone_within_2se: bool

    def to_csv(self) -> str:
        header = ["p", "trials", "theta_hat", "theta_se", "boundary_clusters_mean"]
        # rendered labels may contain commas (vectors); keep the CSV clean
        header += [f"tau_hat:{lab.replace(',', ';')}" for lab in self.target_labels]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [
                repr(row.p),
                str(row.trials),
                f"{row.theta_hat:.6f}",
                f"{row.theta_se:.6f}",
                f"{row.boundary_clusters_mean:.6f}",
            ]
            cells += [f"{c / row.trials:.6f}" for c in row.tau_counts]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def _forest_chunk(
    ball: CayleyBall,
    p_list: list[float],
    lo: int,
    hi: int,
    seed: int,
    tidx: list[int],
) -> list[list[int]]:
    """Forest-kernel counters for trials [lo, hi), read off per-vertex
    thresholds computed once per trial. An edge is open iff its uniform
    is < p, so each statistic holds at p exactly when its threshold, a
    maximum or minimum of drawn uniforms, is < p.

    With u_pe[v] the uniform of v's parent edge:
    - tau_t: the largest u_pe on the root-to-t path;
    - D[w]: the least, over boundary vertices b below w, of the largest
      u_pe on the path from w down to b (-inf on the boundary, +inf where
      no boundary vertex lies below); theta is [D[root] < p];
    - a cluster meets the boundary iff its top vertex w (the root, or
      u_pe[w] >= p) has D[w] < p, so the boundary-cluster count is
      #{D < p} - #{non-root w : max(D[w], u_pe[w]) < p}.

    Each trial hashes its uniforms straight into u_pe at the parent-edge
    indices (`IndexDraw`), and every buffer is allocated once per chunk.
    """
    parent, parent_edge, slices = ball.forest_structure()
    n = ball.vertex_count
    grid = np.unique(np.array(p_list, dtype=np.float64))
    paths = []
    for v in tidx:
        path = []
        while v != 0:
            path.append(v)
            v = parent[v]
        paths.append(np.array(path, dtype=np.int64))
    draw = IndexDraw(parent_edge[1:])  # vertex 0 is the root; 1..n-1 all have parents
    u_pe = np.empty(n)
    d = np.empty(n)
    # the boundary is the last level, where no vertex is a parent, so no
    # trial writes its -inf
    inner = ball.boundary.start
    d[inner:] = -np.inf
    d_up = np.empty(n)  # max(D[w], u_pe[w]): D as seen from w's parent
    below = np.empty(n, dtype=bool)
    totals = np.zeros((len(grid), 2 + len(tidx)), dtype=np.int64)
    for trial in range(lo, hi):
        draw.fill(seed, trial, u_pe[1:])
        d[:inner] = np.inf
        for lo_v, hi_v in reversed(slices):
            np.maximum(d[lo_v:hi_v], u_pe[lo_v:hi_v], out=d_up[lo_v:hi_v])
            np.minimum.at(d, parent[lo_v:hi_v], d_up[lo_v:hi_v])
        totals[:, 0] += d[0] < grid
        for j, p in enumerate(grid):
            # D < p holds on the whole boundary, so only the rest is compared
            totals[j, 1] += (
                n - inner
                + np.count_nonzero(np.less(d[:inner], p, out=below[:inner]))
                - np.count_nonzero(np.less(d_up[1:], p, out=below[1:]))
            )
        for t, path in enumerate(paths):
            totals[:, 2 + t] += u_pe[path].max(initial=-np.inf) < grid
    pos = np.searchsorted(grid, p_list)
    return [[int(c) for c in totals[j]] for j in pos]


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-member label per vertex of the graph on n vertices with edges
    (a[i], b[i]), by hooking and pointer jumping (Shiloach and Vishkin).

    Each round drops the edges whose ends already share a root, hooks
    every remaining root onto the least root across its edges, and jumps
    pointers until each vertex points at its root. Parents only decrease
    and stay in the component, so each root is its component's least
    vertex. A root that a round leaves alone (it hooks nowhere and
    nothing hooks onto it) has a smaller root beside it in the next, so
    every two rounds at least halve the components that still have
    edges: O(log n) rounds.

    Round 1 starts on the identity, so the ends are their own roots and
    are read as given. A round returns as soon as no edge crosses, and
    filters the edges only if some do not: `cross.any()` comes first
    because `cross.all()` holds on an empty edge list, which would then
    loop forever. Before a round hooks, every vertex points at a root,
    and the hooking moves only the hooked roots `hi`. So when fewer than
    n/4 ends are hooked, the round jumps over `hi` alone until each
    points at a root, and then one jump over all n vertices carries every
    other vertex through its old root to the new one; with more, it jumps
    over all n until stable. Either way every vertex ends the round at
    its root, so the rounds and their O(log n) bound are those above.
    Gathers and scatters use `take` and `put`, which skip the general
    indexing path of `parent[idx]`; a scatter costs more per element
    than a gather, hence the margin of n/4 over n.

    Each branch wins on its own rounds. On the 500 calls of a seed-1
    Z^2 radius-64 sweep (2 cores, numpy 2.4.6), replayed in process,
    this choice takes 82 ms; jumping over `hi` in every round takes
    42 ms more, lost on the dense first rounds, and jumping over all n
    in every round 20 ms more, lost on the sparse later ones. Skipping
    the filter when every edge crosses, as in a dense round 1, saves
    8 ms there.
    """
    parent = np.arange(n)
    ra, rb = a, b
    while True:
        cross = ra != rb
        if not cross.any():
            return parent
        if not cross.all():
            keep = np.flatnonzero(cross)
            a, b, ra, rb = a.take(keep), b.take(keep), ra.take(keep), rb.take(keep)
        hi = np.maximum(ra, rb)
        np.minimum.at(parent, hi, np.minimum(ra, rb))
        if 4 * len(hi) < n:
            while True:
                up = parent.take(hi)
                jumped = parent.take(up)
                if np.array_equal(jumped, up):
                    break
                parent.put(hi, jumped)
            parent = parent.take(parent)
        else:
            while True:
                jumped = parent.take(parent)
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
        ra, rb = parent.take(a), parent.take(b)


def _contract_chunk(
    ball: CayleyBall,
    p_list: list[float],
    lo: int,
    hi: int,
    seed: int,
    tidx: list[int],
) -> list[list[int]]:
    """Contraction-kernel counters for trials [lo, hi), in one pass per trial
    over the sorted distinct grid points (Newman-Ziff order).

    An edge with uniform u is open at p iff u < p, so the edges that open
    at a grid point are those open there and not at the point before.
    `cur` holds each vertex's component id in the graph of the edges
    opened so far: the least member of its component. At each grid point
    that opens edges, one `connected_components` call, on the current
    component ids joined by those edges, contracts `cur` further; a
    component's new id is the least of the ids it joins, so it stays the
    least member. The statistics only compare ids, so each grid point
    gathers `cur` at the root, the targets and the boundary, with no
    relabelling, and a trial folds those rows into the counters at once.
    Every gather is a `take`.
    """
    n, m = ball.vertex_count, ball.edge_count
    grid = np.unique(np.array(p_list, dtype=np.float64))
    nt = len(tidx)
    # the vertices the statistics read: root, targets, then the boundary
    watch = np.concatenate(([0], tidx, ball.boundary)).astype(np.int64)
    ei, ej = ball.edges.T
    identity = np.arange(n)
    masks = (np.empty(m, dtype=bool), np.empty(m, dtype=bool))
    seen = np.empty((len(grid), len(watch)), dtype=np.int64)  # ids at watch, per point

    def read_trial(u: np.ndarray) -> None:
        # a function of its own, so that its arrays die before the next draw
        before, now = masks
        before[:] = False
        cur = identity
        for j, p in enumerate(grid):
            np.less(u, p, out=now)
            # `before`'s buffer takes the edges that open at p: open now, not before
            fresh = np.logical_and(now, np.logical_not(before, out=before), out=before)
            new = np.flatnonzero(fresh)
            before, now = now, fresh
            if len(new):
                cur = connected_components(n, cur.take(ei[new]), cur.take(ej[new])).take(cur)
            seen[j] = cur.take(watch)

    totals = np.zeros((len(grid), 2 + nt), dtype=np.int64)
    for trial in range(lo, hi):
        read_trial(uniforms(seed, trial, m))
        joined = seen == seen[:, :1]
        totals[:, 0] += joined[:, 1 + nt :].any(axis=1)
        # distinct boundary ids: the first, and each change along the sorted row
        bids = np.sort(seen[:, 1 + nt :], axis=1)
        totals[:, 1] += bool(ball.boundary) + np.count_nonzero(bids[:, 1:] != bids[:, :-1], axis=1)
        totals[:, 2:] += joined[:, 1 : 1 + nt]
    pos = np.searchsorted(grid, p_list)
    return [[int(c) for c in totals[j]] for j in pos]


def sweep(
    ball: CayleyBall,
    p_grid: Sequence[float],
    trials: int,
    seed: int,
    targets: Sequence = (),
    workers: int = 1,
) -> SweepResult:
    """Common-random-numbers sweep over a probability grid.

    Each trial draws one set of edge uniforms reused for every p, so
    open sets are nested along the grid and theta is monotone per
    sample path. The ball's shape picks the kernel: on tree balls the
    forest kernel (`_forest_chunk`) draws each trial's uniforms straight
    at the parent-edge indices into buffers it reuses, turns them into
    per-vertex thresholds and reads each grid point off them with two
    array comparisons; on other balls the contraction kernel
    (`_contract_chunk`) walks the sorted grid once per trial, masking
    the edges that open at each point (uniform below it, not below the
    point before) and merging the components they join with one
    `connected_components` call per point that opens any. Both read the
    boundary as the tail slice of the vertex indices, and count what
    `cluster_stats` over the `percolate` configuration of each grid
    point and trial counts. A one-point grid is a single-p run: `erglab
    percolate` is one, and costs one mask and at most one labelling per
    trial. Counters are integers merged by summation: the result is
    identical for any partitioning of trials across workers.
    """
    p_list = [float(p) for p in p_grid]
    if not p_list:
        raise ValidationError("the probability grid is empty")
    for p in p_list:
        if not 0 <= p <= 1:
            raise ValidationError("probability must lie in [0, 1]")
    if trials < 1:
        raise ValidationError("at least one trial is required")
    if workers < 1:
        raise ValidationError("worker count must be positive")
    # an outside target is refused before any trial runs
    tidx = [ball.index_of(t) for t in targets]
    tlabels = tuple(ball.model.render(t) for t in targets)
    chunk = _forest_chunk if ball.is_tree() else _contract_chunk
    totals = [[0, 0] + [0] * len(targets) for _ in p_list]
    for lo, hi in _chunk_ranges(trials, workers):
        part = chunk(ball, p_list, lo, hi, seed, tidx)
        for ip in range(len(p_list)):
            for c in range(len(totals[ip])):
                totals[ip][c] += part[ip][c]
    rows = tuple(
        SweepRow(
            p=p_list[ip],
            trials=trials,
            theta_count=totals[ip][0],
            boundary_total=totals[ip][1],
            tau_counts=tuple(totals[ip][2:]),
        )
        for ip in range(len(p_list))
    )
    by_p = sorted(rows, key=lambda r: r.p)
    monotone_exact = all(
        by_p[i].theta_count <= by_p[i + 1].theta_count for i in range(len(by_p) - 1)
    )
    monotone_2se = all(
        by_p[i].theta_hat
        <= by_p[i + 1].theta_hat + 2 * (by_p[i].theta_se + by_p[i + 1].theta_se)
        for i in range(len(by_p) - 1)
    )
    return SweepResult(
        ball_description=ball.description(),
        seed=seed,
        target_labels=tlabels,
        rows=rows,
        monotone_exact=monotone_exact,
        monotone_within_2se=monotone_2se,
    )


# -- the action/percolation dictionary ------------------------------------------------


@dataclass(frozen=True)
class PhiDictionary:
    """Exact translation of a free finite action with marked sets into
    bond configurations on the Cayley graph of its closure.

    `full_ball` is that whole graph and `sample_ball` its radius-r ball,
    the prefix of the full ball's vertices up to distance r. configs[x]
    is point x's full configuration restricted to the sample ball's
    edges, which keep the full ball's edge order.
    """

    sample_ball: CayleyBall
    full_ball: CayleyBall
    configs: tuple  # per point x: bool array over sample_ball edges
    e_rel: EqRel
    phi_values: dict
    cluster_probs: dict
    equivariance_triples: int


def action_to_percolation(
    action: FinAction, a_sets: Mapping[str, Sequence[int]], r: int
) -> PhiDictionary:
    """Translate (action, marked sets) into configurations and verify
    the exact dictionary.

    Each point x yields the configuration opening edge {d, s d} iff
    d(x) lies in the marked set of s. Requires a free closure and
    compatible marked sets (the set of a generator maps onto the set of
    its inverse). Verifies, on the full closure graph: equivariance of
    the translation under right multiplication, and equality of the
    capture value of every closure element with the probability that
    its vertex joins the identity cluster.

    The full ball, built once from the closure tables, fixes the vertex
    and edge order; the rest is read off the same tables. The sample
    ball is its radius-r prefix, and the sample configurations are the
    full ones restricted to it.
    """
    if isinstance(r, bool) or not isinstance(r, numbers.Integral):
        raise ValidationError(f"radius must be an integer, not {r!r}")
    if r < 0:
        raise ValidationError("radius must be non-negative")
    m = action.space.size
    labels = action.labels
    if set(a_sets) != set(labels):
        raise ValidationError("marked sets must be keyed by the generator labels")
    sets = {}
    for lab in labels:
        try:
            pts = list(a_sets[lab])
        except TypeError:
            raise ValidationError(f"marked set of {lab!r} is not a collection of points") from None
        for v in pts:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValidationError(f"marked set of {lab!r} holds {v!r}, not a point index")
        sets[lab] = {int(v) for v in pts}
        if not sets[lab] <= set(range(m)):
            raise ValidationError(f"marked set of {lab!r} leaves the space")
    for lab in labels:
        inv_lab = action.inverses[lab]
        g = action.generator(lab)
        if {g(x) for x in sets[lab]} != sets[inv_lab]:
            raise ValidationError(
                f"marked sets of {lab!r} and {inv_lab!r} are incompatible"
            )
    fixer = action.fixing_element()
    if fixer is not None:
        raise ValidationError(
            f"closure element {fixer.name} fixes a point; the dictionary needs a free action"
        )
    closure = action.closure()
    # generator s is closure element steps[s, 0], as element 0 is the identity
    gens = action.step_table()[:, 0].tolist()
    for j, k in enumerate(gens):
        first = gens.index(k)
        if first < j:
            raise ValidationError(f"generators {labels[first]!r} and {labels[j]!r} coincide")

    full_ball = _closure_ball(action, len(closure))
    sample_ball = full_ball if r >= full_ball.radius else _ball_prefix(full_ball, r)
    pairs = [(x, action.generator(lab)(x)) for lab in labels for x in sets[lab]]
    e_rel = EqRel.from_pairs(m, pairs)

    images, products = action.closure_images(), action.product_table()
    # closure element k is ball vertex pos[k], and vertex v is element at[v]
    pos, at = full_ball._store.pos, full_ball._store.order
    # edge (v, w) joins a = at[v] to b = s a for s = b a^-1, a generator
    ends = at[full_ball.edges]
    a, b = ends.T
    s = products[b, np.argmin(products, axis=1)[a]]
    if not np.isin(s, gens).all():
        raise CheckFailed("edge without a generator decomposition")
    marks = np.zeros((len(closure), m), dtype=bool)  # row s holds A_s
    for k, lab in zip(gens, labels):
        marks[k, sorted(sets[lab])] = True
    # bits[x, e] says a(x) lies in A_s; b(x) in A_(s^-1) is the same bit,
    # as the marked sets are compatible
    bits = marks[s, images[a].T]

    configs = tuple(bits[:, full_ball.edges[:, 1] < sample_ball.vertex_count])

    # equivariance under right translation: element k moves vertex v to
    # pos[products[at[v], k]]; the edges are sorted, so are their codes
    n = full_ball.vertex_count
    codes = full_ball.edges @ (n, 1)
    triples = 0
    for k, elem in enumerate(closure):
        moved_codes = np.sort(pos[products[ends, k]], axis=1) @ (n, 1)
        moved = np.searchsorted(codes, moved_codes)
        if not np.array_equal(codes.take(moved, mode="clip"), moved_codes):
            raise CheckFailed(f"translation by {elem.name} moves an edge off the closure graph")
        bad = np.flatnonzero((bits[images[k]] != bits[:, moved]).any(axis=1))
        if bad.size:
            raise CheckFailed(
                f"translation by {elem.name} breaks equivariance at point {bad[0]}"
            )
        triples += m

    # capture value = cluster probability, element by element, from one
    # labelling of the m configurations side by side: point x's copy of
    # vertex v is block vertex x * n + v
    point, edge = np.nonzero(bits)
    heads = full_ball.edges[edge, 0] + point * n
    tails = full_ball.edges[edge, 1] + point * n
    cluster = connected_components(m * n, heads, tails).reshape(m, n)[:, pos]
    counts = np.count_nonzero(cluster == cluster[:, :1], axis=0)  # element 0 is the identity
    phi_values = {e.name: phi(e_rel, e.perm) for e in closure}
    cluster_probs = {e.name: Fraction(c, m) for e, c in zip(closure, counts.tolist())}
    for e in closure:
        if phi_values[e.name] != cluster_probs[e.name]:
            raise CheckFailed(
                f"capture value and cluster probability disagree at {e.name}"
            )
    return PhiDictionary(
        sample_ball=sample_ball,
        full_ball=full_ball,
        configs=configs,
        e_rel=e_rel,
        phi_values=phi_values,
        cluster_probs=cluster_probs,
        equivariance_triples=triples,
    )


# -- word-length scales -----------------------------------------------------------------


# Largest scale level n that `LengthSystem.length` searches.
MAX_LENGTH_LEVEL = 64


@dataclass(frozen=True)
class LengthValue:
    n: int
    f: Fraction


class LengthSystem:
    """Scale |g| = min{n >= 1 : wordlength(g) <= n * a_n} with |e| = 0,
    for a strictly admissible sequence a_{n+1} > n * a_n; f = 1/(|g|+1).

    Word length is closed-form for the standard generators of Z^d and
    free groups. For a `PermGroupModel` it is read off the `cayley_ball`
    of the whole generated group, built once under the `ball` cap.
    Other generating sets are refused, as `cayley_ball` refuses them.
    """

    def __init__(
        self,
        model,
        q,
        a_seq: Sequence[int] | None = None,
    ):
        self.model = model
        self.q = tuple(_close_generators(model, q))
        if a_seq is not None:
            vals = [int(v) for v in a_seq]
            if not vals or vals[0] < 1:
                raise ValidationError("the scale sequence must start at a positive value")
            for n in range(1, len(vals)):
                if vals[n] <= n * vals[n - 1]:
                    raise ValidationError(
                        f"scale sequence is not admissible at position {n + 1}"
                    )
            self._a = vals
            self._default = False
        else:
            self._a = [1]
            self._default = True
        self._kind = _ball_kind(model, self.q)
        self._ball: CayleyBall | None = None

    def a(self, n: int) -> int:
        """1-based scale value a_n (default a_1 = 1, a_{n+1} = n*a_n + 1)."""
        if n < 1:
            raise ValidationError("scale positions start at 1")
        while len(self._a) < n:
            if not self._default:
                raise ValidationError("scale sequence exhausted")
            k = len(self._a)
            self._a.append(k * self._a[-1] + 1)
        return self._a[n - 1]

    def wordlength(self, gamma) -> int:
        if self._kind == "zd":
            return sum(abs(c) for c in gamma)
        if self._kind == "free":
            return len(gamma)
        if self._ball is None:
            # the group fits the closure cap, so no distance reaches it
            self._ball = cayley_ball(self.model, self.q, get_cap("closure"))
        try:
            return int(self._ball.distances[self._ball.index_of(gamma)])
        except ValidationError:
            raise ValidationError("element is not generated by the given set") from None

    def length(self, gamma) -> int:
        wl = self.wordlength(gamma)
        if wl == 0:
            return 0
        n = 1
        while n * self.a(n) < wl:
            n += 1
            if n > MAX_LENGTH_LEVEL:
                raise CapExceeded("length_level", n, MAX_LENGTH_LEVEL)
        return n

    def f(self, gamma) -> Fraction:
        return Fraction(1, self.length(gamma) + 1)


def length_function(ls: LengthSystem, gamma) -> LengthValue:
    n = ls.length(gamma)
    return LengthValue(n=n, f=Fraction(1, n + 1))
