"""Exact primitives on finite uniform probability spaces.

Everything here is rational arithmetic on a space of m points, each of
mass 1/m: permutations, equivalence relations, partial isomorphisms,
generated group actions, the capture functionals delta_u / phi / psi /
theta, nearest-point projection onto a full group, Gram certification
of positive and negative definite kernels, the weak metric, and cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

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
    `element_of`, `resolve` and `fixing_element` read that table, so no
    other module keeps its own map from a name or a permutation to an
    element.
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
        self._by_images: dict[tuple[int, ...], GroupElement] = {}

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

    def closure(self, cap: int | None = None) -> tuple[GroupElement, ...]:
        """All permutations generated by the action, BFS order from the identity.

        Element 0 is the identity. For a single generator pair the names
        are powers g^0, g^1, ...; otherwise shortest words over the labels
        (identity named "1").
        """
        if self._closure is not None:
            return self._closure
        capn = get_cap("closure", cap)
        m = self.space.size
        ident = Perm.identity(m)
        seen: dict[tuple[int, ...], tuple[Perm, tuple[str, ...]]] = {
            ident.images: (ident, ())
        }
        queue: list[Perm] = [ident]
        head = 0
        while head < len(queue):
            cur = queue[head]
            head += 1
            cur_word = seen[cur.images][1]
            for lab, g in self.gens:
                nxt = g * cur
                if nxt.images in seen:
                    continue
                if len(seen) + 1 > capn:
                    raise CapExceeded("closure", len(seen) + 1, capn)
                seen[nxt.images] = (nxt, cur_word + (lab,))
                queue.append(nxt)
        if self._is_single_pair():
            base_lab = self.labels[0]
            g = self._by_label[base_lab]
            elems = []
            p = ident
            for k in range(len(seen)):
                elems.append(GroupElement(f"{base_lab}^{k}", p, (base_lab,) * k))
                p = g * p
        else:
            elems = []
            for p in queue:
                word = seen[p.images][1]
                elems.append(GroupElement(_word_name(word), p, word))
        self._by_images = {e.perm.images: e for e in elems}
        if len(self._by_images) != len(seen):  # only powers of one pair can repeat
            raise CheckFailed("single-pair closure is not cyclic")
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

    def element_of(self, perm: Perm) -> GroupElement:
        """The closure element acting by this permutation."""
        self.closure()
        try:
            return self._by_images[perm.images]
        except KeyError:
            raise ValidationError("permutation is not an element of the closure") from None

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

    def fixing_element(self) -> GroupElement | None:
        """The first non-identity closure element that fixes a point, or
        None when the action is free."""
        return next((e for e in self.closure()[1:] if e.perm.fixed_points()), None)


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


def full_group(rel: EqRel, cap: int | None = None) -> Iterator[Perm]:
    """Enumerate the full group of rel (all s with s(x) ~ x everywhere).

    Deterministic order; raises CapExceeded when the group is too large.
    """
    capn = get_cap("full_group", cap)
    total = full_group_size(rel)
    if total > capn:
        raise CapExceeded("full_group", total, capn)
    per_class = [
        list(itertools.permutations(c)) for c in rel.classes
    ]
    for combo in itertools.product(*per_class):
        images = [0] * rel.size
        for cls, img in zip(rel.classes, combo):
            for x, y in zip(cls, img):
                images[x] = y
        yield Perm(images)


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


def _as_rational_matrix(values: Sequence[Sequence]) -> list[list[Fraction]]:
    n = len(values)
    mat = []
    for row in values:
        if len(row) != n:
            raise ValidationError("matrix is not square")
        mat.append([Fraction(v) for v in row])
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise ValidationError(f"matrix not symmetric at ({i}, {j})")
    return mat


def _quad_form(mat: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Fraction:
    n = len(vec)
    total = Fraction(0)
    for i in range(n):
        if vec[i] == 0:
            continue
        row = mat[i]
        total += vec[i] * sum(row[j] * vec[j] for j in range(n) if vec[j] != 0)
    return total


def _psd_factor(mat: list[list[Fraction]]):
    """Exact LDL^T with symmetric diagonal pivoting.

    Returns (True, pivots, None) when the matrix is positive
    semidefinite, else (False, pivots_so_far, witness) with an exact
    rational witness vector whose quadratic form is negative.
    """
    n = len(mat)
    a = [row[:] for row in mat]
    lower = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(1)
    perm = list(range(n))
    pivots: list[Fraction] = []

    def swap(k: int, j: int) -> None:
        if k == j:
            return
        a[k], a[j] = a[j], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        perm[k], perm[j] = perm[j], perm[k]
        for col in range(k):
            lower[k][col], lower[j][col] = lower[j][col], lower[k][col]

    def back_substitute(k: int, coeffs: dict[int, Fraction]) -> tuple[Fraction, ...]:
        # Solve lower^T x = y where y is supported on indices >= k,
        # then undo the pivoting permutation.
        y = [Fraction(0)] * n
        for idx, c in coeffs.items():
            y[idx] = c
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            x[i] = y[i] - sum(lower[t][i] * x[t] for t in range(i + 1, n))
        out = [Fraction(0)] * n
        for i in range(n):
            out[perm[i]] = x[i]
        return tuple(out)

    for k in range(n):
        j = max(range(k, n), key=lambda t: a[t][t])
        dmax = a[j][j]
        if dmax > 0:
            swap(k, j)
            d = a[k][k]
            pivots.append(d)
            for i in range(k + 1, n):
                lower[i][k] = a[i][k] / d
            for i in range(k + 1, n):
                li = lower[i][k]
                for jj in range(k + 1, i + 1):
                    a[i][jj] -= li * d * lower[jj][k]
                    a[jj][i] = a[i][jj]
            continue
        neg = next((i for i in range(k, n) if a[i][i] < 0), None)
        if neg is not None:
            witness = back_substitute(k, {neg: Fraction(1)})
            return False, tuple(pivots), witness
        # All remaining diagonal entries are exactly zero: semidefinite
        # only if the whole remaining block vanishes.
        pair = None
        for i in range(k, n):
            for jj in range(i + 1, n):
                if a[i][jj] != 0:
                    pair = (i, jj, a[i][jj])
                    break
            if pair:
                break
        if pair is None:
            pivots.extend([Fraction(0)] * (n - k))
            return True, tuple(pivots), None
        i, jj, b = pair
        t = Fraction(-1) if b > 0 else Fraction(1)
        witness = back_substitute(k, {i: t, jj: Fraction(1)})
        return False, tuple(pivots), witness
    return True, tuple(pivots), None


def gram_check(values: Sequence[Sequence], mode: str) -> GramCertificate:
    """Certify a symmetric rational matrix exactly.

    mode="positive": is the matrix positive semidefinite? A failure
    witness is a rational vector with negative quadratic form.

    mode="negative": is the matrix conditionally negative definite
    (quadratic form <= 0 on all zero-sum vectors)? Checked by double
    centering; a failure witness is a zero-sum rational vector with
    positive quadratic form.
    """
    if mode not in ("positive", "negative"):
        raise ValidationError(f"unknown gram mode {mode!r}")
    mat = _as_rational_matrix(values)
    n = len(mat)
    if mode == "positive":
        ok, pivots, witness = _psd_factor(mat)
        if ok:
            return GramCertificate(True, mode, n, pivots)
        val = _quad_form(mat, witness)
        if val >= 0:
            raise CheckFailed("positive-mode witness is not a violation")
        return GramCertificate(False, mode, n, pivots, witness, val)
    # negative mode: rho is conditionally negative definite iff
    # B = -(I - J/n) rho (I - J/n) is positive semidefinite.
    row_sums = [sum(row) for row in mat]
    total = sum(row_sums)
    b = [
        [
            -(mat[i][j] - Fraction(row_sums[i], n) - Fraction(row_sums[j], n)
              + Fraction(total, n * n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    ok, pivots, witness = _psd_factor(b)
    if ok:
        return GramCertificate(True, mode, n, pivots)
    mean = Fraction(sum(witness), n)
    alpha = tuple(w - mean for w in witness)
    if sum(alpha) != 0:
        raise CheckFailed("negative-mode witness does not sum to zero")
    val = _quad_form(mat, alpha)
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
