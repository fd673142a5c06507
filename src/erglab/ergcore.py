"""Exact primitives on finite uniform probability spaces.

Everything here is rational arithmetic on a space of m points, each of
mass 1/m: permutations, equivalence relations, partial isomorphisms,
generated group actions, the capture functionals delta_u / phi / psi /
theta, nearest-point projection onto a full group, Gram certification
of positive and negative definite kernels, the weak metric, and cost.

The hot exact kernels count in integers and build one `Fraction` per
reported value. A full group or an action's closure is an (N, m) numpy
image table (`full_group_table`, `FinAction.closure_images`), the
closure's multiplication table is an N x N index array gathered from
the closure search's generator steps (`FinAction.product_table`), and
`hit_counts` gives phi or the agreement with a fixed permutation for
every row at once, as a count over m. `gram_check` runs its LDL^T
fraction-free (Bareiss) on the matrix scaled to integers, with one
`Fraction` per pivot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, CheckFailed, ValidationError, get_cap

Rat = Fraction


@dataclass(frozen=True)
class FinSpace:
    """A finite set {0, ..., size-1} with the uniform probability measure."""

    size: int

    def __post_init__(self):
        if self.size <= 0:
            raise ValidationError(f"space size must be positive, got {self.size}")

    @property
    def points(self) -> range:
        return range(self.size)

    def measure(self, points: Iterable[int]) -> Fraction:
        seen = set(points)
        if not seen <= set(range(self.size)):
            raise ValidationError("points outside the space")
        return Fraction(len(seen), self.size)


class Perm:
    """A permutation of {0, ..., m-1}, stored as its tuple of images.

    Composition is function composition: (s * t)(x) = s(t(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(v) for v in images)
        m = len(imgs)
        if sorted(imgs) != list(range(m)):
            raise ValidationError(f"not a permutation of 0..{m - 1}: {imgs}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap images known to form a permutation (an identity, or a
        product or inverse of valid perms) without re-checking them."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(m: int) -> "Perm":
        return Perm._trusted(tuple(range(m)))

    @staticmethod
    def from_cycles(m: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(m))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValidationError(f"point {x} repeated across cycles")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return Perm(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.size != other.size:
            raise ValidationError("permutation sizes differ")
        imgs = self.images
        return Perm._trusted(tuple([imgs[v] for v in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm._trusted(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.size)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles(trivial=False)
        if not cycs:
            return f"Perm.identity({self.size})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Perm[{self.size}]{body}"

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images))

    def fixed_points(self) -> list[int]:
        return [x for x, v in enumerate(self.images) if v == x]

    def cycles(self, trivial: bool = True) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle rotated to start at its minimum."""
        seen = [False] * self.size
        out: list[tuple[int, ...]] = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if trivial or len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


class EqRel:
    """An equivalence relation on {0, ..., size-1}.

    Classes are stored canonically: each class as a sorted tuple, classes
    ordered by their minimum element.
    """

    __slots__ = ("size", "_classes", "_class_id")

    def __init__(self, size: int, classes: Sequence[Sequence[int]]):
        size = int(size)
        canon = tuple(tuple(sorted(int(x) for x in c)) for c in classes)
        canon = tuple(sorted(canon, key=lambda c: c[0] if c else -1))
        cover: list[int] = []
        for c in canon:
            cover.extend(c)
        if sorted(cover) != list(range(size)):
            raise ValidationError("classes do not partition the space")
        cid = [0] * size
        for i, c in enumerate(canon):
            for x in c:
                cid[x] = i
        self.size = size
        self._classes = canon
        self._class_id = cid

    @staticmethod
    def equality(m: int) -> "EqRel":
        return EqRel(m, [(x,) for x in range(m)])

    @staticmethod
    def full(m: int) -> "EqRel":
        return EqRel(m, [tuple(range(m))])

    @staticmethod
    def from_pairs(m: int, pairs: Iterable[tuple[int, int]]) -> "EqRel":
        """The smallest equivalence relation containing the given pairs:
        the one union-find behind every orbit and cluster partition."""
        uf = _UnionFind(m)
        for x, y in pairs:
            if not (0 <= x < m and 0 <= y < m):
                raise ValidationError(f"pair ({x}, {y}) outside the space")
            uf.union(x, y)
        groups: dict[int, list[int]] = {}
        for x in range(m):
            groups.setdefault(uf.find(x), []).append(x)
        return EqRel(m, list(groups.values()))

    @staticmethod
    def from_perms(m: int, perms: Iterable[Perm]) -> "EqRel":
        """Orbit relation of the group generated by the given permutations."""

        def pairs() -> Iterator[tuple[int, int]]:
            for p in perms:
                if p.size != m:
                    raise ValidationError("permutation size differs from space size")
                yield from enumerate(p.images)

        return EqRel.from_pairs(m, pairs())

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return self._classes

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    def class_id(self, x: int) -> int:
        return self._class_id[x]

    def class_ids(self) -> np.ndarray:
        """The class index of every point, as an array."""
        return np.array(self._class_id, dtype=np.intp)

    def class_of(self, x: int) -> tuple[int, ...]:
        return self._classes[self._class_id[x]]

    def same(self, x: int, y: int) -> bool:
        return self._class_id[x] == self._class_id[y]

    def refines(self, other: "EqRel") -> bool:
        """True when every class of self sits inside a class of other."""
        if self.size != other.size:
            raise ValidationError("relation sizes differ")
        return all(
            other.same(c[0], x) for c in self._classes for x in c[1:]
        )

    def meet(self, other: "EqRel") -> "EqRel":
        """Common refinement: x ~ y iff both relations agree they are related."""
        if self.size != other.size:
            raise ValidationError("relation sizes differ")
        groups: dict[tuple[int, int], list[int]] = {}
        for x in range(self.size):
            groups.setdefault((self._class_id[x], other._class_id[x]), []).append(x)
        return EqRel(self.size, list(groups.values()))

    def _spanning_pairs(self) -> Iterator[tuple[int, int]]:
        """Pairs (least member, member) that generate the relation."""
        return ((c[0], x) for c in self._classes for x in c[1:])

    def join(self, other: "EqRel") -> "EqRel":
        """Smallest common coarsening."""
        if self.size != other.size:
            raise ValidationError("relation sizes differ")
        return EqRel.from_pairs(
            self.size, itertools.chain(self._spanning_pairs(), other._spanning_pairs())
        )

    def join_links(self, links: Iterable["PartialIso"]) -> "EqRel":
        """Join with the graphs of the given partial isomorphisms."""
        graphs = (pair for iso in links for pair in iso.pairs)
        return EqRel.from_pairs(self.size, itertools.chain(self._spanning_pairs(), graphs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EqRel)
            and self.size == other.size
            and self._classes == other._classes
        )

    def __hash__(self) -> int:
        return hash((self.size, self._classes))

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, c)) + "}" for c in self._classes)
        return f"EqRel[{self.size}]({body})"


@dataclass(frozen=True)
class PartialIso:
    """An injective map between two subsets, given by (domain point, image) pairs.

    The domain is kept sorted; the map must be injective.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        norm = tuple(sorted((int(x), int(y)) for x, y in pairs))
        doms = [x for x, _ in norm]
        imgs = [y for _, y in norm]
        if len(set(doms)) != len(doms):
            raise ValidationError("repeated domain point in partial map")
        if len(set(imgs)) != len(imgs):
            raise ValidationError("partial map is not injective")
        object.__setattr__(self, "pairs", norm)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(y for _, y in self.pairs))

    def __call__(self, x: int) -> int:
        for d, y in self.pairs:
            if d == x:
                return y
        raise KeyError(f"{x} not in domain")

    def graph_inside(self, rel: EqRel) -> bool:
        return all(rel.same(x, y) for x, y in self.pairs)


@dataclass(frozen=True)
class GroupElement:
    """A closure element: a display name, the permutation, and one word
    over the generator labels realizing it (shortest, found first)."""

    name: str
    perm: Perm
    word: tuple[str, ...]


class FinAction:
    """A group acting on a finite space through named generator permutations.

    Generators come in inverse pairs: `inverses` maps each label to the
    label of its inverse (self-paired labels are allowed for involutions).

    The action owns the one lookup table over its closure: `closure()`
    indexes each element by name and by permutation, and `element`,
    `index_of`, `element_of`, `resolve` and `fixing_element` read that
    table, so no other module keeps its own map from a name or a
    permutation to an element.
    """

    def __init__(
        self,
        space: FinSpace,
        gens: Sequence[tuple[str, Perm]],
        inverses: Mapping[str, str],
    ):
        labels = [lab for lab, _ in gens]
        if len(set(labels)) != len(labels):
            raise ValidationError("generator labels must be unique")
        by_label = dict(gens)
        for lab, g in gens:
            if g.size != space.size:
                raise ValidationError(f"generator {lab!r} acts on the wrong space")
            if lab not in inverses:
                raise ValidationError(f"no inverse pairing for generator {lab!r}")
            other = inverses[lab]
            if other not in by_label:
                raise ValidationError(f"inverse label {other!r} is not a generator")
            if inverses.get(other) != lab:
                raise ValidationError(f"pairing of {lab!r}/{other!r} is not involutive")
            if not (g * by_label[other]).is_identity():
                raise ValidationError(f"generators {lab!r} and {other!r} are not inverse")
        self.space = space
        self.gens = tuple(gens)
        self.inverses = dict(inverses)
        self._by_label = by_label
        self._closure: tuple[GroupElement, ...] | None = None
        self._by_name: dict[str, GroupElement] = {}
        self._by_images: dict[tuple[int, ...], int] = {}
        self._images: np.ndarray | None = None
        self._steps: np.ndarray | None = None
        self._products: np.ndarray | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.gens)

    def generator(self, label: str) -> Perm:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValidationError(f"unknown generator {label!r}") from None

    def _is_single_pair(self) -> bool:
        # One generator up to inversion: {g, g^-1} or a single involution.
        roots = {frozenset((lab, self.inverses[lab])) for lab in self.labels}
        return len(roots) == 1

    def closure(self) -> tuple[GroupElement, ...]:
        """All permutations generated by the action, BFS order from the identity.

        Element 0 is the identity. For a single generator pair the names
        are powers g^0, g^1, ...; otherwise shortest words over the labels
        (identity named "1"). The search is bounded by the `closure` cap,
        read when the closure is first built.
        """
        if self._closure is not None:
            return self._closure
        capn = get_cap("closure")
        ident = Perm.identity(self.space.size)
        index = {ident.images: 0}
        queue, words = [ident], [()]
        steps: list[list[int]] = [[] for _ in self.gens]  # steps[s][i]: index of g_s * e_i
        for head, cur in enumerate(queue):  # the queue grows as it is read
            for (lab, g), row in zip(self.gens, steps):
                nxt = g * cur
                k = index.get(nxt.images)
                if k is None:
                    if len(queue) + 1 > capn:
                        raise CapExceeded("closure", len(queue) + 1, capn)
                    k = index[nxt.images] = len(queue)
                    queue.append(nxt)
                    words.append(words[head] + (lab,))
                row.append(k)
        if self._is_single_pair():
            lab = self.labels[0]
            # the search index of each power: g^(k+1) is g_0 * g^k
            bfs = [0]
            for _ in queue[1:]:
                bfs.append(steps[0][bfs[-1]])
            power = {i: k for k, i in enumerate(bfs)}
            if len(power) != len(bfs):
                raise CheckFailed("single-pair closure is not cyclic")
            elems = [GroupElement(f"{lab}^{k}", queue[i], (lab,) * k) for k, i in enumerate(bfs)]
            steps = [[power[row[i]] for i in bfs] for row in steps]  # in power order
        else:
            elems = [GroupElement(_word_name(w), p, w) for p, w in zip(queue, words)]
        self._by_images = {e.perm.images: k for k, e in enumerate(elems)}
        self._steps = np.array(steps, dtype=np.intp).reshape(len(steps), len(elems))
        self._steps.setflags(write=False)
        self._by_name = {e.name: e for e in elems}
        self._closure = tuple(elems)
        return self._closure

    def element(self, name: str) -> GroupElement:
        """The closure element with this name."""
        self.closure()
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"no closure element named {name!r}") from None

    def index_of(self, perm: Perm) -> int:
        """The closure index of the element acting by this permutation."""
        self.closure()
        try:
            return self._by_images[perm.images]
        except KeyError:
            raise ValidationError("permutation is not an element of the closure") from None

    def element_of(self, perm: Perm) -> GroupElement:
        """The closure element acting by this permutation."""
        return self._closure[self.index_of(perm)]

    def resolve(self, gamma) -> Perm:
        """A generator label or closure name as its permutation; a
        permutation is returned as it is."""
        if isinstance(gamma, str):
            if gamma in self._by_label:
                return self._by_label[gamma]
            return self.element(gamma).perm
        if isinstance(gamma, Perm):
            return gamma
        raise ValidationError("group element must be a name or a permutation")

    def closure_images(self) -> np.ndarray:
        """The closure as an (N, m) image table: row i is the permutation
        of closure element i."""
        if self._images is None:
            self._images = np.array([e.perm.images for e in self.closure()], dtype=np.intp)
            self._images.setflags(write=False)
        return self._images

    def step_table(self) -> np.ndarray:
        """The closure search's (generators x N) step table, read-only:
        entry (s, i) is the index of g_s * e_i, in closure order."""
        self.closure()
        return self._steps

    def product_table(self) -> np.ndarray:
        """The closure's multiplication table: entry (i, j) is the index of
        element i times element j, (e_i * e_j)(x) = e_i(e_j(x)).

        Composed once per action from the step table: row 0 is 0..N-1,
        and when e_k = g_s * e_i, row k is steps[s] at row i, since
        e_k * e_j = g_s * (e_i * e_j): N row gathers and no search.
        """
        if self._products is None:
            n = len(self.closure())
            steps = self.step_table()
            products = np.empty((n, n), dtype=np.intp)
            products[0] = np.arange(n)
            # e_k = g_s * e_i at the first (i, s) with steps[s][i] = k; for
            # k > 0 that i comes before k, since an earlier element reaches
            # e_k (its breadth-first parent, or g^(k-1) for the power g^k),
            # so rows fill in element order
            ks, first = np.unique(steps.T, return_index=True)
            for k, pos in zip(ks.tolist(), first.tolist()):
                if k:
                    i, s = divmod(pos, len(steps))
                    products[k] = steps[s, products[i]]
            products.setflags(write=False)
            self._products = products
        return self._products

    def first_broken_step(self, rows: np.ndarray) -> tuple[int, int] | None:
        """The first closure index pair (generator g, element e) where rows,
        an integer table in closure order, has rows[g * e] != rows[g][rows[e]],
        or None: (0, 0) if row 0 is not 0, 1, ..., then generators in name
        order, elements in closure order, one gather per step-table row.
        By induction on word length, that makes rows a homomorphism."""
        if not np.array_equal(rows[0], np.arange(rows.shape[1])):
            return 0, 0
        closure = self.closure()
        # entry (s, 0) of the step table is the index of g_s * e_0 = g_s
        for steps in sorted(self.step_table(), key=lambda steps: closure[steps[0]].name):
            bad = np.flatnonzero((rows[steps] != rows[steps[0]][rows]).any(axis=1))
            if bad.size:
                return int(steps[0]), int(bad[0])
        return None

    def fixing_element(self) -> GroupElement | None:
        """The first non-identity closure element that fixes a point, or
        None when the action is free: the first image row past the
        identity's with some row[x] == x."""
        images = self.closure_images()
        fixes = np.flatnonzero((images[1:] == np.arange(images.shape[1])).any(axis=1))
        return self._closure[fixes[0] + 1] if fixes.size else None

    def image_orbits(self, rows: Sequence[Sequence[int]]) -> EqRel:
        """The orbits of a homomorphic image of the closure, given as its
        image rows in closure order (a table, or N tuples): the orbits of
        the generators' rows, since the generators generate the image."""
        # entry (s, 0) of the step table is the index of g_s * e_0 = g_s
        gens = np.asarray([rows[k] for k in self.step_table()[:, 0].tolist()]).tolist()
        return EqRel.from_pairs(len(rows[0]), (xy for row in gens for xy in enumerate(row)))


def _word_name(word: tuple[str, ...]) -> str:
    if not word:
        return "1"
    parts: list[str] = []
    for lab, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(lab if n == 1 else f"{lab}^{n}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Capture functionals.


def _require_same_size(*objs) -> int:
    sizes = set()
    for o in objs:
        sizes.add(o.size)
    if len(sizes) != 1:
        raise ValidationError(f"mixed sizes: {sorted(sizes)}")
    return sizes.pop()


def delta_u(s: Perm, t: Perm) -> Fraction:
    """Uniform metric: the mass of {x : s(x) != t(x)}."""
    m = _require_same_size(s, t)
    bad = sum(1 for x in range(m) if s(x) != t(x))
    return Fraction(bad, m)


def phi(rel: EqRel, s: Perm) -> Fraction:
    """Capture number: the mass of {x : s(x) ~ x}."""
    m = _require_same_size(rel, s)
    hit = sum(1 for x in range(m) if rel.same(s(x), x))
    return Fraction(hit, m)


def psi(rel: EqRel, s: Perm, t: Perm) -> Fraction:
    """Pair capture: the mass of {x : s^-1(x) ~ t^-1(x)}."""
    m = _require_same_size(rel, s, t)
    si, ti = s.inverse(), t.inverse()
    hit = sum(1 for x in range(m) if rel.same(si(x), ti(x)))
    return Fraction(hit, m)


def theta(rel: EqRel, s: Perm) -> Fraction:
    """Distance from s to the full group of rel in the uniform metric.

    Equals 1 - phi(rel, s); the minimum is attained by
    project_to_full_group(rel, s).
    """
    _require_same_size(rel, s)
    return 1 - phi(rel, s)


def in_full_group(rel: EqRel, s: Perm) -> bool:
    m = _require_same_size(rel, s)
    return all(rel.same(x, s(x)) for x in range(m))


def project_to_full_group(rel: EqRel, s: Perm) -> Perm:
    """A nearest element of the full group of rel to s in the uniform metric.

    On A = {x : s(x) ~ x} the graph of s splits into cycles (copied) and
    chains (copied except the last step, which is closed back to the
    chain's start). Off A union s(A) the result is the identity. The
    construction realizes delta_u(s, t) = theta(rel, s) exactly.
    """
    m = _require_same_size(rel, s)
    in_a = [rel.same(s(x), x) for x in range(m)]
    a_pts = [x for x in range(m) if in_a[x]]
    b_set = {s(x) for x in a_pts}
    t_imgs = list(range(m))
    visited = [False] * m
    # Chains start at points of A with no predecessor inside A.
    for start in a_pts:
        if start in b_set:
            continue
        x = start
        while in_a[x]:
            visited[x] = True
            t_imgs[x] = s(x)
            x = s(x)
        # x is the chain's endpoint in B \ A; close the loop.
        t_imgs[x] = start
        visited[x] = True
    # What remains of A are pure cycles.
    for start in a_pts:
        if visited[start]:
            continue
        x = start
        while not visited[x]:
            visited[x] = True
            t_imgs[x] = s(x)
            x = s(x)
    t = Perm(t_imgs)
    if not in_full_group(rel, t):
        raise CheckFailed("projection left the full group")
    if delta_u(s, t) != theta(rel, s):
        raise CheckFailed("projection is not distance-minimizing")
    return t


def full_group_size(rel: EqRel) -> int:
    n = 1
    for c in rel.classes:
        n *= math.factorial(len(c))
    return n


def full_group_table(rel: EqRel, cap: int | None = None) -> np.ndarray:
    """The full group of rel as an (N, m) image table, one permutation per
    row, in `full_group` order: the per-class permutation blocks of
    `itertools.permutations`, combined in `itertools.product` order.

    Raises CapExceeded when the group is too large.
    """
    capn = get_cap("full_group", cap)
    total = full_group_size(rel)
    if total > capn:
        raise CapExceeded("full_group", total, capn)
    table = np.empty((total, rel.size), dtype=np.intp)
    after = total
    for cls in rel.classes:
        block = np.array(list(itertools.permutations(cls)), dtype=np.intp)
        after //= len(block)
        # the first class varies slowest: each block row repeats `after`
        # times, and the repeated block is tiled over the earlier classes
        col = np.repeat(block, after, axis=0)
        table[:, cls] = np.tile(col, (total // len(col), 1))
    return table


def full_group(rel: EqRel, cap: int | None = None) -> Iterator[Perm]:
    """Enumerate the full group of rel (all s with s(x) ~ x everywhere).

    Deterministic order (the rows of `full_group_table`); raises
    CapExceeded when the group is too large.
    """
    for row in full_group_table(rel, cap).tolist():
        yield Perm._trusted(tuple(row))


def hit_counts(rows: np.ndarray, target, labels=None) -> np.ndarray:
    """Per row of an (N, m) image table, #{x : labels[row[x]] == target[x]};
    labels default to the points themselves.

    With labels = target = `rel.class_ids()` a row's count is m times
    phi(rel, row); with a fixed permutation's images t as the target and
    no labels it is the number of points where the row agrees with t,
    m times 1 - delta_u(row, t).
    """
    images = rows if labels is None else np.asarray(labels)[rows]
    return np.count_nonzero(images == np.asarray(target), axis=1)


def sample_full_group(rel: EqRel, rng) -> Perm:
    """One uniform element of the full group, using rng.sample per class."""
    images = [0] * rel.size
    for c in rel.classes:
        shuffled = rng.sample(c, len(c))
        for x, y in zip(c, shuffled):
            images[x] = y
    return Perm(images)


# ---------------------------------------------------------------------------
# Gram certification.


@dataclass(frozen=True)
class GramCertificate:
    """Outcome of an exact definiteness check.

    ok=True: the required semidefiniteness holds; `pivots` are the
    factorization pivots found along the way.
    ok=False: `witness` is a rational vector violating it and `value`
    is the witnessed quadratic-form value (negative in positive mode,
    positive in negative mode; in negative mode the witness sums to zero).
    """

    ok: bool
    mode: str
    size: int
    pivots: tuple[Fraction, ...] = ()
    witness: tuple[Fraction, ...] | None = None
    value: Fraction | None = None


def _integer_matrix(values: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(scale * values, scale) for a square symmetric rational matrix,
    with scale the lcm of the entries' denominators."""
    n = len(values)
    mat = []
    for row in values:
        if len(row) != n:
            raise ValidationError("matrix is not square")
        mat.append([v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row])
    scale = math.lcm(1, *(v.denominator for row in mat for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in mat]
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValidationError(f"matrix not symmetric at ({i}, {j})")
    return a, scale


def _quad_form(a: Sequence[Sequence[int]], scale: int, vec: Sequence[Fraction]) -> Fraction:
    """vec^T (a / scale) vec."""
    n = len(vec)
    total = Fraction(0)
    for i in range(n):
        if vec[i] == 0:
            continue
        row = a[i]
        total += vec[i] * sum(row[j] * vec[j] for j in range(n) if vec[j] != 0)
    return total / scale


def _psd_factor(a: list[list[int]], scale: int):
    """LDL^T with symmetric diagonal pivoting of the rational matrix
    a / scale, run fraction-free on the integer matrix a (Bareiss).

    After k positive pivots each remaining entry of `a` is the Schur
    complement entry times the leading k x k minor M_k > 0, so every sign
    test and the diagonal maximum (ties to the first index) are those of
    the rational elimination, and pivot k is M_{k+1} / (M_k * scale).
    Returns (True, pivots, None) when the matrix is positive
    semidefinite, else (False, pivots_so_far, witness) with an exact
    rational witness vector whose quadratic form is negative.
    """
    n = len(a)
    a = [row[:] for row in a]
    perm = list(range(n))
    # low[i][c] = a[i][c] when column c was eliminated: L[i][c] * minors[c + 1].
    low: list[list[int]] = [[] for _ in range(n)]
    minors = [1]
    pivots: list[Fraction] = []

    def swap(k: int, j: int) -> None:
        if k == j:
            return
        a[k], a[j] = a[j], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        perm[k], perm[j] = perm[j], perm[k]
        low[k], low[j] = low[j], low[k]

    def back_substitute(k: int, coeffs: dict[int, int]) -> tuple[Fraction, ...]:
        # Solve L^T x = y for y supported on indices >= k (columns >= k
        # of L are those of the identity), then undo the pivoting.
        x = [Fraction(coeffs.get(i, 0)) for i in range(n)]
        for c in range(k - 1, -1, -1):
            x[c] -= sum(low[t][c] * x[t] for t in range(c + 1, n)) / minors[c + 1]
        out = [Fraction(0)] * n
        for i in range(n):
            out[perm[i]] = x[i]
        return tuple(out)

    for k in range(n):
        j = max(range(k, n), key=lambda t: a[t][t])
        if a[j][j] > 0:
            swap(k, j)
            p, prev = a[k][k], minors[k]
            pivots.append(Fraction(p, prev * scale))
            col = [a[i][k] for i in range(n)]
            for i in range(k + 1, n):
                low[i].append(col[i])
                row = a[i]
                cik = col[i]
                for jj in range(k + 1, i + 1):
                    v = (p * row[jj] - cik * col[jj]) // prev
                    row[jj] = v
                    a[jj][i] = v
            minors.append(p)
            continue
        neg = next((i for i in range(k, n) if a[i][i] < 0), None)
        if neg is not None:
            return False, tuple(pivots), back_substitute(k, {neg: 1})
        # All remaining diagonal entries are exactly zero: semidefinite
        # only if the whole remaining block vanishes.
        pair = next(
            ((i, jj) for i in range(k, n) for jj in range(i + 1, n) if a[i][jj] != 0), None
        )
        if pair is None:
            pivots.extend([Fraction(0)] * (n - k))
            return True, tuple(pivots), None
        i, jj = pair
        return False, tuple(pivots), back_substitute(k, {i: -1 if a[i][jj] > 0 else 1, jj: 1})
    return True, tuple(pivots), None


def gram_check(values: Sequence[Sequence], mode: str) -> GramCertificate:
    """Certify a symmetric rational matrix exactly.

    mode="positive": is the matrix positive semidefinite? A failure
    witness is a rational vector with negative quadratic form.

    mode="negative": is the matrix conditionally negative definite
    (quadratic form <= 0 on all zero-sum vectors)? Checked by double
    centering; a failure witness is a zero-sum rational vector with
    positive quadratic form.

    The matrix is scaled to integers by the lcm of its denominators and
    factored by fraction-free (Bareiss) elimination on Python ints, so
    each pivot is one `Fraction` and the witness, built only on a
    violation, is the one the rational elimination would give.
    """
    if mode not in ("positive", "negative"):
        raise ValidationError(f"unknown gram mode {mode!r}")
    a, scale = _integer_matrix(values)
    n = len(a)
    if mode == "positive":
        ok, pivots, witness = _psd_factor(a, scale)
        if ok:
            return GramCertificate(True, mode, n, pivots)
        val = _quad_form(a, scale, witness)
        if val >= 0:
            raise CheckFailed("positive-mode witness is not a violation")
        return GramCertificate(False, mode, n, pivots, witness, val)
    # negative mode: rho is conditionally negative definite iff
    # B = -(I - J/n) rho (I - J/n) is positive semidefinite; factor the
    # integer matrix n^2 * scale * B = -(n^2 a - n r_i - n r_j + T).
    row_sums = [sum(row) for row in a]
    total = sum(row_sums)
    nn = n * n
    b = [
        [-(nn * a[i][j] - n * row_sums[i] - n * row_sums[j] + total) for j in range(n)]
        for i in range(n)
    ]
    ok, pivots, witness = _psd_factor(b, nn * scale)
    if ok:
        return GramCertificate(True, mode, n, pivots)
    mean = Fraction(sum(witness), n)
    alpha = tuple(w - mean for w in witness)
    if sum(alpha) != 0:
        raise CheckFailed("negative-mode witness does not sum to zero")
    val = _quad_form(a, scale, alpha)
    if val <= 0:
        raise CheckFailed("negative-mode witness is not a violation")
    return GramCertificate(False, mode, n, pivots, alpha, val)


# ---------------------------------------------------------------------------
# Weak metric and cost.


def weak_metric(
    s: Perm, t: Perm, sets: Sequence[Sequence[int]]
) -> Fraction:
    """Weighted symmetric-difference metric over a finite list of sets.

    Term n (0-based) contributes 2^-(n+1) times the mass of
    s(A_n) symmetric-difference t(A_n).
    """
    m = _require_same_size(s, t)
    total = Fraction(0)
    for n, raw in enumerate(sets):
        a = set(int(x) for x in raw)
        if not a <= set(range(m)):
            raise ValidationError(f"set {n} leaves the space")
        sa = {s(x) for x in a}
        ta = {t(x) for x in a}
        total += Fraction(len(sa ^ ta), m) / (2 ** (n + 1))
    return total


def cost(rel: EqRel) -> Fraction:
    """Graphing cost of the relation: 1 - (number of classes) / size."""
    return 1 - Fraction(rel.num_classes, rel.size)


def orbit_relation(action: FinAction) -> EqRel:
    """The orbit equivalence relation of the action."""
    return EqRel.from_perms(action.space.size, [g for _, g in action.gens])
