"""Cayley-graph balls, Bernoulli bond percolation, cluster statistics,
the exact action-to-configuration dictionary, and word-length scales.

Group models are duck-typed: identity() / mul / inv / key / render plus
a name. Balls use the left Cayley graph (edges {v, sv} for generators
s) so that right translation acts on configurations; the dictionary
checks depend on that orientation.

Balls over the standard generators of Z^d and of free groups are built
on arrays (coordinate codes, free-word levels); other generating sets
use a generic breadth-first search. Both give the same vertex order.

Cluster engines: "unionfind" is the reference implementation (labels
read off `EqRel.from_pairs`), "scipy" routes through sparse connected
components, and "forest" is a vectorized fast path valid on tree balls.
All three produce identical min-member cluster labels. Sweeps on the
forest and scipy engines fold statistics without labels: the forest
engine reads every grid point off per-vertex thresholds, and the scipy
engine contracts components grid point by grid point as edges open
(Newman and Ziff's order). The union-find reference sweep is
`cluster_stats` over `percolate` configurations, one per (grid point,
trial). All three give identical counters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CapExceeded, CheckFailed, ValidationError, get_cap
from .ergcore import EqRel, FinAction, Perm, phi
from .rng import uniforms


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


class ProductModel:
    """Direct product of group models; elements are tuples of factors."""

    def __init__(self, factors: Sequence):
        if not factors:
            raise ValidationError("a product needs at least one factor")
        self.factors = tuple(factors)
        self.name = " x ".join(f.name for f in self.factors)

    def identity(self) -> tuple:
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b) -> tuple:
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a) -> tuple:
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def key(self, a):
        return tuple(f.key(x) for f, x in zip(self.factors, a))

    def render(self, a) -> str:
        return "(" + " | ".join(f.render(x) for f, x in zip(self.factors, a)) + ")"


# -- Cayley balls --------------------------------------------------------------


@dataclass
class CayleyBall:
    """Word-length ball: vertices ordered by (distance, canonical key),
    undirected edges {v, sv} with both ends inside, boundary = the
    outermost level."""

    model: object
    q: tuple
    radius: int
    vertices: tuple
    distances: np.ndarray
    edges: np.ndarray  # (E, 2) int64, each row (i, j) with i < j
    boundary: tuple[int, ...]
    _index: dict | None = field(default=None, repr=False)
    # True when vertices are the reduced words over the standard free
    # letters: a word's level is then its length, and each level is sorted
    _reduced_words: bool = field(default=False, repr=False)
    _forest: tuple | None = field(default=None, repr=False)
    _edge_table: dict | None = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, element) -> int:
        if self._reduced_words:
            return self._word_index(self.model.key(element))
        if self._index is None:
            self._index = {
                self.model.key(v): i for i, v in enumerate(self.vertices)
            }
        try:
            return self._index[self.model.key(element)]
        except KeyError:
            raise ValidationError("target outside ball") from None

    def _word_index(self, key) -> int:
        """Binary search of a word inside the level of its length."""
        d = len(key)
        if d <= self.radius:
            lo, hi = np.searchsorted(self.distances, [d, d + 1]).tolist()
            try:
                i = bisect_left(self.vertices, key, lo, hi, key=self.model.key)
            except TypeError:  # letters that do not compare with ints
                i = hi
            if i < hi and self.model.key(self.vertices[i]) == key:
                return i
        raise ValidationError("target outside ball")

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

    def edge_index(self, a: int, b: int) -> int:
        if self._edge_table is None:
            self._edge_table = {
                (int(i), int(j)): e for e, (i, j) in enumerate(self.edges)
            }
        try:
            return self._edge_table[(min(a, b), max(a, b))]
        except KeyError:
            raise ValidationError("no such edge in the ball") from None

    def forest_structure(self):
        """(parent, parent_edge, level_slices) arrays for tree balls."""
        if self._forest is not None:
            return self._forest
        if not self.is_tree():
            raise ValidationError("ball is not a tree; the forest engine does not apply")
        n = self.vertex_count
        i, j = self.edges.T
        # every edge steps one level down and no vertex has two parents
        if not np.all(self.distances[i] + 1 == self.distances[j]) or np.any(
            np.bincount(j, minlength=n) > 1
        ):
            raise ValidationError("ball is not a tree; the forest engine does not apply")
        parent = np.zeros(n, dtype=np.int64)
        parent_edge = np.zeros(n, dtype=np.int64)
        parent[j] = i
        parent_edge[j] = np.arange(len(j), dtype=np.int64)
        slices = []
        for d in range(1, self.radius + 1):
            lo = int(np.searchsorted(self.distances, d, side="left"))
            hi = int(np.searchsorted(self.distances, d, side="right"))
            if lo < hi:
                slices.append((lo, hi))
        self._forest = (parent, parent_edge, tuple(slices))
        return self._forest


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


def _check_ball_cap(size: int, capn: int) -> None:
    """Raise as the breadth-first build does when a ball of `size` vertices
    outgrows the cap. That build counts the vertex it is about to add and
    never counts the identity, so the least count it reports is 2."""
    lim = max(capn, 1)
    if size > lim:
        raise CapExceeded("ball", lim + 1, capn)


def cayley_ball(model, q, r: int, cap: int | None = None) -> CayleyBall:
    """Breadth-first word-length ball of radius r for generators q.

    q is closed under inversion automatically; vertex order is
    (distance, canonical key), deterministic across runs. The standard
    generators of Z^d and of free groups take array-built fast paths
    (`_zd_ball`, `_free_ball`) that give the same ball.
    """
    if r < 0:
        raise ValidationError("radius must be non-negative")
    capn = get_cap("ball", cap)
    qc = _close_generators(model, q)
    keys = {model.key(s) for s in qc}
    if isinstance(model, FreeModel) and keys == {
        model.key(s) for s in model.letter_generators()
    }:
        return _free_ball(model, qc, r, capn)
    if isinstance(model, ZdModel) and keys == {
        model.key(s) for s in model.basis_generators()
    }:
        # the size is known in closed form: check the cap before anything
        # grows with r, on either path
        _check_ball_cap(_zd_ball_size(model.d, r), capn)
        if (2 * r + 1) ** model.d <= 2**63:
            return _zd_ball(model, qc, r)
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
    boundary = tuple(int(i) for i in np.nonzero(dist_arr == r)[0])
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        vertices=tuple(vertices),
        distances=dist_arr,
        edges=edge_arr,
        boundary=boundary,
        _index=order,
    )


def _zd_ball_size(d: int, r: int) -> int:
    """Points of Z^d at L1 norm at most r: pick i nonzero coordinates,
    their signs, and the i distinct partial sums in 1..r of their absolute
    values, listed in coordinate order."""
    return sum(2**i * math.comb(d, i) * math.comb(r, i) for i in range(min(d, r) + 1))


def _zd_ball(model: ZdModel, qc: list, r: int) -> CayleyBall:
    """Fast path for the standard generators of Z^d, on coordinate arrays.

    A point x of the box [-r, r]^d has the mixed-radix code
    sum_i (x_i + r) (2r+1)^(d-1-i), whose order is the lexicographic order
    of x; the caller checks the cap and that (2r+1)^d fits in int64.
    Level k is the set of outward steps from level k-1, deduplicated by
    sorting codes, so vertices come in (distance, key) order. Edges are
    {v, v + e_i}, found by searching the code of v + e_i among the ball's
    codes.
    """
    d = model.d
    sizes = np.diff([0] + [_zd_ball_size(d, k) for k in range(r + 1)])
    base = 2 * r + 1
    weight = base ** np.arange(d - 1, -1, -1, dtype=np.int64)
    levels = [np.array([(base**d - 1) // 2], dtype=np.int64)]  # every digit r
    for _ in range(1, r + 1):
        prev = levels[-1]
        x = prev[:, None] // weight % base - r
        steps = [
            prev[sign * x[:, i] >= 0] + sign * weight[i]
            for i in range(d)
            for sign in (1, -1)
        ]
        levels.append(np.unique(np.concatenate(steps)))
    codes = np.concatenate(levels)
    coords = codes[:, None] // weight % base - r
    n = len(codes)
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    a, b = [], []
    for i in range(d):
        # where x_i = r the code carries into the next digit; the point it
        # then names has L1 norm r + 1, so the search never finds it
        nb = codes + weight[i]
        pos = np.minimum(np.searchsorted(sorted_codes, nb), n - 1)
        hit = sorted_codes[pos] == nb
        a.append(np.flatnonzero(hit))
        b.append(by_code[pos[hit]])
    a, b = np.concatenate(a), np.concatenate(b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        vertices=tuple(map(tuple, coords.tolist())),
        distances=np.repeat(np.arange(r + 1, dtype=np.int64), sizes),
        edges=np.stack([lo[order], hi[order]], axis=1),
        boundary=tuple(range(n - sizes[-1], n)),
    )


def _free_ball(model: FreeModel, qc: list, r: int, capn: int) -> CayleyBall:
    """Fast path for the standard letters: the ball is a tree.

    Level d is the concatenation, over the sorted letters c, of c·w for
    the level-(d-1) words w that do not start with -c. Level d-1 is
    sorted, so that concatenation is too, and the words starting with -c
    are one block of it. The edges join each word to its suffix w.
    """
    letters = sorted(s[0] for s in qc)
    vertices: list[tuple[int, ...]] = [()]
    sizes = [1]
    parents = []
    first = np.zeros(1, dtype=np.int64)  # first letter on the last level (0: the identity)
    for _ in range(1, r + 1):
        lo = len(vertices) - sizes[-1]
        level = vertices[lo:]
        blocks = [np.searchsorted(first, [-c, -c + 1]).tolist() for c in letters]
        counts = [len(level) - (b - a) for a, b in blocks]
        _check_ball_cap(len(vertices) + sum(counts), capn)
        for c, (a, b) in zip(letters, blocks):
            vertices.extend([(c,) + w for w in level[:a] + level[b:]])
            parents.append(np.arange(lo, lo + a, dtype=np.int64))
            parents.append(np.arange(lo + b, lo + len(level), dtype=np.int64))
        first = np.repeat(np.array(letters, dtype=np.int64), counts)
        sizes.append(sum(counts))
    parent = np.concatenate(parents) if parents else np.zeros(0, dtype=np.int64)
    order = np.argsort(parent, kind="stable")
    n = len(vertices)
    return CayleyBall(
        model=model,
        q=tuple(qc),
        radius=r,
        vertices=tuple(vertices),
        distances=np.repeat(np.arange(r + 1, dtype=np.int64), sizes),
        edges=np.stack([parent[order], order + 1], axis=1),
        boundary=tuple(range(n - sizes[-1], n)),
        _reduced_words=True,
    )


# -- percolation configurations -------------------------------------------------


@dataclass
class PercConfig:
    ball: CayleyBall
    p: float
    seed: int
    trial: int
    open: np.ndarray = field(repr=False)  # bool per edge

    def open_count(self) -> int:
        return int(self.open.sum())


def percolate(ball: CayleyBall, p: float, seed: int, trial: int = 0) -> PercConfig:
    """Independent Bernoulli(p) bond configuration, keyed on
    (seed, trial, edge index): reproducible for any execution order."""
    if not 0 <= p <= 1:
        raise ValidationError("probability must lie in [0, 1]")
    u = uniforms(seed, trial, ball.edge_count)
    return PercConfig(ball=ball, p=float(p), seed=seed, trial=trial, open=u < p)


def cluster_labels(config: PercConfig, engine: str = "auto") -> np.ndarray:
    """Cluster label per vertex; the label is the minimal member index."""
    ball = config.ball
    eng = _pick_engine(ball, engine)
    if eng == "forest":
        return _forest_labels(ball, config.open)
    if eng == "scipy":
        return _scipy_labels(ball, config.open)
    return _unionfind_labels(ball, config.open)


def _pick_engine(ball: CayleyBall, engine: str) -> str:
    if engine == "auto":
        return "forest" if ball.is_tree() else "scipy"
    if engine not in ("unionfind", "scipy", "forest"):
        raise ValidationError(f"unknown cluster engine {engine!r}")
    if engine == "forest":
        ball.forest_structure()
    return engine


def _unionfind_labels(ball: CayleyBall, open_mask: np.ndarray) -> np.ndarray:
    rel = EqRel.from_pairs(ball.vertex_count, ball.edges[open_mask].tolist())
    return np.array([rel.class_of(v)[0] for v in range(ball.vertex_count)], dtype=np.int64)


def _scipy_labels(ball: CayleyBall, open_mask: np.ndarray) -> np.ndarray:
    n = ball.vertex_count
    ei = ball.edges[open_mask, 0]
    ej = ball.edges[open_mask, 1]
    graph = coo_matrix(
        (np.ones(len(ei), dtype=np.int8), (ei, ej)), shape=(n, n)
    )
    _, raw = connected_components(graph, directed=False)
    first = np.full(int(raw.max()) + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(n, dtype=np.int64))
    return first[raw]


def _forest_labels(ball: CayleyBall, open_mask: np.ndarray) -> np.ndarray:
    parent, parent_edge, slices = ball.forest_structure()
    anc = np.arange(ball.vertex_count, dtype=np.int64)
    for lo, hi in slices:
        idx = np.arange(lo, hi, dtype=np.int64)
        anc[lo:hi] = np.where(open_mask[parent_edge[lo:hi]], anc[parent[lo:hi]], idx)
    return anc


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

    def tau_se(self, t: int) -> float:
        h = self.tau_hat(t)
        return math.sqrt(h * (1.0 - h) / self.n)


def cluster_stats(
    configs: Iterable[PercConfig],
    targets: Sequence = (),
    engine: str = "auto",
) -> ClusterStats:
    """Fold a stream of configurations over one ball into counters:
    root-to-target connections, root-cluster boundary hits, and
    boundary-cluster counts."""
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
        labels = cluster_labels(cfg, engine)
        root = labels[0]
        blabels = labels[list(ball.boundary)]
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
    """Forest-engine counters for trials [lo, hi), read off per-vertex
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
    """
    parent, parent_edge, slices = ball.forest_structure()
    n = ball.vertex_count
    grid = np.unique(np.array(p_list, dtype=np.float64))
    paths = []
    for v in tidx:
        path = []
        while v != 0:
            path.append(parent_edge[v])
            v = parent[v]
        paths.append(np.array(path, dtype=np.int64))
    d_init = np.full(n, np.inf)
    d_init[list(ball.boundary)] = -np.inf
    edge_of = parent_edge[1:]  # vertex 0 is the root; 1..n-1 all have parents
    u_pe = np.empty(n)
    d_up = np.empty(n)  # max(D[w], u_pe[w]): D as seen from w's parent
    totals = np.zeros((len(grid), 2 + len(tidx)), dtype=np.int64)
    for trial in range(lo, hi):
        u = uniforms(seed, trial, ball.edge_count)
        np.take(u, edge_of, out=u_pe[1:])
        d = d_init.copy()
        for lo_v, hi_v in reversed(slices):
            np.maximum(d[lo_v:hi_v], u_pe[lo_v:hi_v], out=d_up[lo_v:hi_v])
            np.minimum.at(d, parent[lo_v:hi_v], d_up[lo_v:hi_v])
        totals[:, 0] += d[0] < grid
        for j, p in enumerate(grid):
            totals[j, 1] += np.count_nonzero(d < p) - np.count_nonzero(d_up[1:] < p)
        for t, path in enumerate(paths):
            totals[:, 2 + t] += u[path].max(initial=-np.inf) < grid
    pos = np.searchsorted(grid, p_list)
    return [[int(c) for c in totals[j]] for j in pos]


def _contract_chunk(
    ball: CayleyBall,
    p_list: list[float],
    lo: int,
    hi: int,
    seed: int,
    tidx: list[int],
) -> list[list[int]]:
    """Scipy-engine counters for trials [lo, hi), in one pass per trial
    over the sorted distinct grid points (Newman-Ziff order, bucketed by
    grid point).

    An edge with uniform u opens at the grid points above u, so it joins
    the graph at bucket searchsorted(grid, u, side="right"). `cur` holds
    each vertex's component id in the graph of the edges opened so far.
    At each grid point one `connected_components` call, on the current
    components joined by that bucket's edges, contracts `cur` further.
    The statistics only compare ids, so they are read off `cur` at the
    root, the boundary and the targets, with no relabelling.
    """
    n = ball.vertex_count
    grid = np.unique(np.array(p_list, dtype=np.float64))
    bidx = np.array(ball.boundary, dtype=np.int64)
    tarr = np.array(tidx, dtype=np.int64)
    ei, ej = ball.edges.T
    totals = np.zeros((len(grid), 2 + len(tidx)), dtype=np.int64)
    for trial in range(lo, hi):
        u = uniforms(seed, trial, ball.edge_count)
        bucket = np.searchsorted(grid, u, side="right")
        cur = np.arange(n, dtype=np.int64)
        ncomp = n
        for j in range(len(grid)):
            new = np.flatnonzero(bucket == j)
            if len(new):
                # CSR built by hand: scipy's COO route costs more than the labelling
                a, b = cur[ei[new]], cur[ej[new]]
                indptr = np.zeros(ncomp + 1, dtype=np.int64)
                np.cumsum(np.bincount(a, minlength=ncomp), out=indptr[1:])
                graph = csr_matrix(
                    (np.ones(len(new)), b[np.argsort(a)], indptr), shape=(ncomp, ncomp)
                )
                ncomp, comp = connected_components(graph, directed=False)
                cur = comp[cur]
            root = cur[0]
            bids = cur[bidx]
            totals[j, 0] += np.any(bids == root)
            totals[j, 1] += len(np.unique(bids))
            totals[j, 2:] += cur[tarr] == root
    pos = np.searchsorted(grid, p_list)
    return [[int(c) for c in totals[j]] for j in pos]


def _sweep_chunk(
    ball: CayleyBall,
    p_list: list[float],
    lo: int,
    hi: int,
    seed: int,
    tidx: list[int],
    engine: str,
) -> list[list[int]]:
    """Counters for trials [lo, hi): per p, [theta, boundary_total, tau...].

    The uniforms depend on (seed, trial) alone, so every p of a trial sees
    the same draw. The forest engine turns them into per-vertex
    thresholds and reads every grid point off those (see `_forest_chunk`);
    the scipy engine contracts components grid point by grid point,
    adding only the edges that open between two points (see
    `_contract_chunk`); the union-find engine, the reference, is
    `cluster_stats` over the `percolate` configuration of each (p, trial).
    """
    if engine == "forest":
        return _forest_chunk(ball, p_list, lo, hi, seed, tidx)
    if engine == "scipy":
        return _contract_chunk(ball, p_list, lo, hi, seed, tidx)
    targets = [ball.vertices[v] for v in tidx]
    counters = []
    for p in p_list:
        configs = (percolate(ball, p, seed, trial) for trial in range(lo, hi))
        stats = cluster_stats(configs, targets, "unionfind")
        counters.append([stats.theta_count, stats.boundary_total, *stats.tau_counts])
    return counters


def sweep(
    ball: CayleyBall,
    p_grid: Sequence[float],
    trials: int,
    seed: int,
    targets: Sequence = (),
    engine: str = "auto",
    workers: int = 1,
) -> SweepResult:
    """Common-random-numbers sweep over a probability grid.

    Each trial draws one set of edge uniforms reused for every p, so
    open sets are nested along the grid and theta is monotone per
    sample path. On tree balls the forest engine turns those uniforms
    into per-vertex thresholds once per trial and reads each grid point
    off them with two array comparisons. On other balls the scipy engine
    walks the sorted grid once per trial, merging the components joined
    by the edges that open between consecutive points. The union-find
    engine, the reference, is `cluster_stats` over `percolate`
    configurations, one per grid point and trial. A one-point grid is a
    single-p run: `erglab percolate` is one. Counters are
    integers merged by summation: the result is identical for any
    partitioning of trials across workers.
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
    eng = _pick_engine(ball, engine)
    tidx = [ball.index_of(t) for t in targets]
    tlabels = tuple(ball.model.render(t) for t in targets)
    totals = [[0, 0] + [0] * len(tidx) for _ in p_list]
    for lo, hi in _chunk_ranges(trials, workers):
        part = _sweep_chunk(ball, p_list, lo, hi, seed, tidx, eng)
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
    bond configurations on the Cayley graph of its closure."""

    sample_ball: CayleyBall
    full_ball: CayleyBall
    configs: tuple  # per point x: bool array over sample_ball edges
    e_rel: EqRel
    phi_values: dict
    cluster_probs: dict
    equivariance_triples: int


def _edge_generators(ball: CayleyBall, q_labeled: Sequence[tuple[str, object]]):
    """For each edge (i, j), a (base_vertex, label) pair with
    label * vertices[base] == vertices[other]."""
    out = []
    for i, j in ball.edges:
        found = None
        for lab, s in q_labeled:
            if ball.model.key(ball.model.mul(s, ball.vertices[i])) == ball.model.key(
                ball.vertices[j]
            ):
                found = (int(i), lab)
                break
            if ball.model.key(ball.model.mul(s, ball.vertices[j])) == ball.model.key(
                ball.vertices[i]
            ):
                found = (int(j), lab)
                break
        if found is None:
            raise CheckFailed("edge without a generator decomposition")
        out.append(found)
    return out


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
    """
    m = action.space.size
    labels = action.labels
    if set(a_sets) != set(labels):
        raise ValidationError("marked sets must be keyed by the generator labels")
    sets = {}
    for lab in labels:
        pts = set(int(v) for v in a_sets[lab])
        if not pts <= set(range(m)):
            raise ValidationError(f"marked set of {lab!r} leaves the space")
        sets[lab] = pts
    for lab in labels:
        inv_lab = action.inverses[lab]
        g = action.generator(lab)
        if {g(x) for x in sets[lab]} != sets[inv_lab]:
            raise ValidationError(
                f"marked sets of {lab!r} and {inv_lab!r} are incompatible"
            )
    closure = action.closure()
    for e in closure:
        if not e.perm.is_identity() and e.perm.fixed_points():
            raise ValidationError(
                f"closure element {e.name} fixes a point; the dictionary needs a free action"
            )
    seen_perms = {}
    q_labeled = []
    for lab in labels:
        g = action.generator(lab)
        if g.images in seen_perms:
            raise ValidationError(
                f"generators {seen_perms[g.images]!r} and {lab!r} coincide"
            )
        seen_perms[g.images] = lab
        q_labeled.append((lab, g))

    model = PermGroupModel(m)
    qs = [g for _, g in q_labeled]
    full_ball = cayley_ball(model, qs, len(closure))
    if full_ball.vertex_count != len(closure):
        raise CheckFailed("closure graph does not cover the closure")
    sample_ball = full_ball if r >= full_ball.radius else cayley_ball(model, qs, r)

    pairs = []
    for lab in labels:
        g = action.generator(lab)
        pairs.extend((x, g(x)) for x in sets[lab])
    e_rel = EqRel.from_pairs(m, pairs)

    full_dec = _edge_generators(full_ball, q_labeled)

    def config_on(ball, dec, x):
        bits = np.zeros(len(dec), dtype=bool)
        for e, (base, lab) in enumerate(dec):
            if ball.vertices[base](x) in sets[lab]:
                bits[e] = True
        return bits

    full_configs = tuple(config_on(full_ball, full_dec, x) for x in range(m))
    if sample_ball is full_ball:
        configs = full_configs
    else:
        sample_dec = _edge_generators(sample_ball, q_labeled)
        configs = tuple(config_on(sample_ball, sample_dec, x) for x in range(m))

    # equivariance under right translation on the full graph
    triples = 0
    for elem in closure:
        g = elem.perm
        moved = np.array(
            [
                full_ball.edge_index(
                    full_ball.index_of(full_ball.vertices[i] * g),
                    full_ball.index_of(full_ball.vertices[j] * g),
                )
                for i, j in full_ball.edges
            ],
            dtype=np.int64,
        ).reshape(-1)
        for x in range(m):
            if not np.array_equal(full_configs[g(x)], full_configs[x][moved]):
                raise CheckFailed(
                    f"translation by {elem.name} breaks equivariance at point {x}"
                )
            triples += 1

    # capture value = cluster probability, element by element
    ident_idx = full_ball.index_of(Perm.identity(m))
    phi_values = {}
    cluster_probs = {}
    counts = {e.name: 0 for e in closure}
    for x in range(m):
        cluster = _unionfind_labels(full_ball, full_configs[x])
        root = cluster[ident_idx]
        for e in closure:
            if cluster[full_ball.index_of(e.perm)] == root:
                counts[e.name] += 1
    for e in closure:
        phi_values[e.name] = phi(e_rel, e.perm)
        cluster_probs[e.name] = Fraction(counts[e.name], m)
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


@dataclass(frozen=True)
class LengthValue:
    n: int
    f: Fraction


class LengthSystem:
    """Scale |g| = min{n >= 1 : wordlength(g) <= n * a_n} with |e| = 0,
    for a strictly admissible sequence a_{n+1} > n * a_n; f = 1/(|g|+1).

    Word length is closed-form for the standard generators of Z^d and
    free groups, and breadth-first otherwise.
    """

    def __init__(
        self,
        model,
        q,
        a_seq: Sequence[int] | None = None,
        max_level: int = 64,
        wl_budget: int = 4096,
        cap: int | None = None,
    ):
        self.model = model
        self.q = tuple(_close_generators(model, q))
        self.max_level = max_level
        self.wl_budget = wl_budget
        self._cap = cap
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
        qkeys = {model.key(s) for s in self.q}
        self._closed_form = None
        if isinstance(model, ZdModel) and qkeys == {
            model.key(s) for s in model.basis_generators()
        }:
            self._closed_form = "zd"
        elif isinstance(model, FreeModel) and qkeys == {
            model.key(s) for s in model.letter_generators()
        }:
            self._closed_form = "free"
        self._wl_cache: dict = {}

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
        if self._closed_form == "zd":
            return sum(abs(c) for c in gamma)
        if self._closed_form == "free":
            return len(gamma)
        k = self.model.key(gamma)
        if k == self.model.key(self.model.identity()):
            return 0
        if k in self._wl_cache:
            return self._wl_cache[k]
        r = 1
        prev_size = 1
        while True:
            ball = cayley_ball(self.model, self.q, r, cap=self._cap)
            try:
                d = int(ball.distances[ball.index_of(gamma)])
            except ValidationError:
                d = None
            if d is not None:
                self._wl_cache[k] = d
                return d
            if ball.vertex_count == prev_size:
                raise ValidationError("element is not generated by the given set")
            prev_size = ball.vertex_count
            if r >= self.wl_budget:
                raise CapExceeded("wordlength", 2 * r, self.wl_budget)
            r = min(self.wl_budget, 2 * r)

    def length(self, gamma) -> int:
        wl = self.wordlength(gamma)
        if wl == 0:
            return 0
        n = 1
        while n * self.a(n) < wl:
            n += 1
            if n > self.max_level:
                raise CapExceeded("length_level", n, self.max_level)
        return n

    def f(self, gamma) -> Fraction:
        return Fraction(1, self.length(gamma) + 1)


def length_function(ls: LengthSystem, gamma) -> LengthValue:
    n = ls.length(gamma)
    return LengthValue(n=n, f=Fraction(1, n + 1))
