"""Co-induction on finite models.

A free action of a small group Delta on X induces E; a larger group
Gamma acting on X induces an ambient F with constant index N. The
transport data (slot permutation, Delta-element vector) turns any
ambient-class-preserving map of X into a skew-product map of
X x Y^N for any Delta-action on Y, and the exact measure identities
of that construction are checked by independent counting routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import CapExceeded, CheckFailed, ValidationError, get_cap
from .ergcore import EqRel, FinAction, FinSpace, GroupElement, Perm, in_full_group, orbit_relation
from .subrel import ChoiceSystem, choice_functions, index_cocycle


class FreeGroupAction:
    """A generated action, closed into its full element group, with the
    certificate that no non-identity element fixes a point.

    Freeness makes the element carrying one point to another unique,
    which is what the transport vectors below rely on. It also makes each
    orbit a copy of the group, so an element is known by where it sends
    point 0. The group arithmetic is three integer arrays over closure
    indices, built once from the base action's `closure_images`:

    - `by_image0[y]`: the element sending 0 to y (-1 off the orbit of 0);
    - `at0[h]`: h^-1(0), the point that element h sends to 0;
    - `carrier[x]`: the element carrying the least point of x's orbit to x.

    `mult_indices` and `transporter_indices` apply them to arrays of
    element indices and points; `mult`, `inverse_name` and `transporter`
    are the same rules on one name or point pair. None of them reads the
    base action's N x N `product_table`, which would take N^2 entries
    (3.2 GB at the default closure cap of 20000) where these keep O(m).
    The closure is bounded by the `closure` cap.
    """

    def __init__(self, base: FinAction):
        self.base = base
        self.elements: tuple[GroupElement, ...] = base.closure()
        fixer = base.fixing_element()
        if fixer is not None:
            raise ValidationError(
                f"element {fixer.name} fixes {fixer.perm.fixed_points()[0]}; the action is not free"
            )
        self.identity_name = self.elements[0].name
        images = base.closure_images()
        n, m = images.shape
        everyone = np.arange(n)
        self.by_image0 = np.full(m, -1, dtype=np.intp)
        self.by_image0[images[:, 0]] = everyone
        self.at0 = np.argmax(images == 0, axis=1)
        # column x of the image table is the orbit of x, element by element
        least = np.flatnonzero(images.min(axis=0) == np.arange(m))
        self.carrier = np.empty(m, dtype=np.intp)
        self.carrier[images[:, least]] = everyone[:, None]
        for table in (self.by_image0, self.at0, self.carrier):
            table.setflags(write=False)
        self._orbits: EqRel | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def perm_of(self, name: str) -> Perm:
        return self.base.element(name).perm

    def mult_indices(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Element indices of the products left * right, elementwise: the
        element sending 0 where left sends right's image of 0."""
        images = self.base.closure_images()
        return self.by_image0[images[left, images[right, 0]]]

    def transporter_indices(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Element indices of h_dst h_src^-1, elementwise, with h_x the
        carrier of x: it sends 0 to h_dst(h_src^-1(0)). For points that
        share an orbit this is the unique element carrying src to dst."""
        images = self.base.closure_images()
        return self.by_image0[images[self.carrier[dst], self.at0[self.carrier[src]]]]

    def index(self, name: str) -> int:
        """The closure index of the element with this name."""
        return self.base.index_of(self.perm_of(name))

    def mult(self, left: str, right: str) -> str:
        return self.elements[self.mult_indices(self.index(left), self.index(right))].name

    def inverse_name(self, name: str) -> str:
        return self.elements[self.by_image0[self.at0[self.index(name)]]].name

    def transporter(self, src: int, dst: int) -> str:
        """The unique element carrying src to dst. h_dst h_src^-1 sends src
        to h_dst of the least point of src's orbit, which is dst exactly
        when the two points share an orbit."""
        m = len(self.carrier)
        if 0 <= src < m and 0 <= dst < m:
            k = self.transporter_indices(src, dst)
            if self.base.closure_images()[k, src] == dst:
                return self.elements[k].name
        raise ValidationError(
            f"no element carries {src} to {dst}; the points are in different orbits"
        )

    def orbit_relation(self) -> EqRel:
        """The orbits of the group, computed once per action."""
        if self._orbits is None:
            self._orbits = orbit_relation(self.base)
        return self._orbits


class TargetAction:
    """An action of the closed group on a second space.

    The images are one read-only (G0, Y) integer table `rows` in the
    group's closure order: row i is the permutation of element i, and
    `perm` reads a row by element name. The table is validated as a
    homomorphism by the base action's `first_broken_step`, which names
    the first failing pair, generators by name, then elements in closure
    order.
    """

    def __init__(
        self,
        group: FreeGroupAction,
        space: FinSpace,
        images: Mapping[str, Perm],
    ):
        names = {e.name for e in group.elements}
        if set(images) != names:
            missing = sorted(names - set(images))
            extra = sorted(set(images) - names)
            raise ValidationError(
                f"image table must cover the group exactly (missing {missing}, extra {extra})"
            )
        for name, p in images.items():
            if p.size != space.size:
                raise ValidationError(f"image of {name} acts on the wrong space")
        elements = group.elements
        rows = np.array([images[e.name].images for e in elements], dtype=np.intp)
        rows = rows.reshape(len(elements), space.size)
        broken = group.base.first_broken_step(rows)
        if broken is not None:
            g, e = (elements[i].name for i in broken)
            raise ValidationError(f"images break multiplicativity at ({g}, {e})")
        rows.setflags(write=False)
        self.group = group
        self.space = space
        self.rows = rows

    @staticmethod
    def trivial(group: FreeGroupAction, space: FinSpace) -> "TargetAction":
        ident = Perm.identity(space.size)
        return TargetAction(group, space, {e.name: ident for e in group.elements})

    def perm(self, name: str) -> Perm:
        return Perm(self.rows[self.group.index(name)].tolist())


def _target_orbits(a0: FreeGroupAction, a: TargetAction) -> tuple[tuple[int, ...], ...]:
    """The target orbits, ordered by their least member: the orbits of the
    generators' images, since the images form a homomorphism."""
    return a0.base.image_orbits(a.rows).classes


def _orbit_unions(blocks: Sequence[Sequence[int]]):
    """Unions of the blocks in order of `bits`: union number `bits` is
    the union of the blocks whose bit is set."""
    for bits in range(1 << len(blocks)):
        s: set[int] = set()
        for b, block in enumerate(blocks):
            if bits >> b & 1:
                s.update(block)
        yield frozenset(s)


def target_orbit_sets(a0: FreeGroupAction, a: TargetAction) -> list[frozenset[int]]:
    """All invariant subsets of the target: unions of target orbits.

    Subset number `bits` is the union of the orbits whose bit is set,
    with the orbits ordered by their least member. The 2^k unions of k
    orbits are counted against the `orbit_unions` cap before any is built.
    """
    blocks = _target_orbits(a0, a)
    capn = get_cap("orbit_unions")
    if 1 << len(blocks) > capn:
        raise CapExceeded("orbit_unions", 1 << len(blocks), capn)
    return list(_orbit_unions(blocks))


def invariant_observables(a0: FreeGroupAction, a: TargetAction) -> list[list[Fraction]]:
    """Zero-mean target observables constant on each target orbit: one for
    each of the first four proper orbit unions in `target_orbit_sets`
    order, read without building the other unions."""
    y = a.space.size
    proper = (s for s in _orbit_unions(_target_orbits(a0, a)) if 0 < len(s) < y)
    obs = []
    for s in itertools.islice(proper, 4):
        mass = Fraction(len(s), y)
        obs.append([Fraction(1) - mass if v in s else -mass for v in range(y)])
    return obs


def delta_bar(
    cs: ChoiceSystem, a0: FreeGroupAction, x: int, y: int
) -> tuple[str, ...]:
    """Transport vector between the choice slots of two related points.

    Entry n is the unique group element carrying choice(x, pi^-1(n)) to
    choice(y, n), where pi is the slot permutation of (x, y). Requires
    the E-classes of cs to be exactly the orbits of a0.
    """
    if cs.E != a0.orbit_relation():
        raise ValidationError("choice-system classes differ from the group orbits")
    pi = index_cocycle(cs, x, y)
    pinv = pi.inverse()
    return tuple(
        a0.transporter(cs.choice(x, pinv(n)), cs.choice(y, n))
        for n in range(cs.strata[x])
    )


def semidirect_mul(
    a0: FreeGroupAction,
    first: tuple[Perm, tuple[str, ...]],
    second: tuple[Perm, tuple[str, ...]],
) -> tuple[Perm, tuple[str, ...]]:
    """Product in the wreath-style group of (slot permutation, transport
    vector) pairs: (p1, d1)(p2, d2) = (p1 p2, n -> d1[n] * d2[p1^-1(n)])."""
    p1, d1 = first
    p2, d2 = second
    p1inv = p1.inverse().images
    mult = a0.mult
    return (p1 * p2, tuple([mult(d1[n], d2[p1inv[n]]) for n in range(len(d1))]))


@dataclass(frozen=True)
class MixingIdentityReport:
    p: Fraction
    phi_value: Fraction
    lhs_factorized: Fraction
    lhs_materialized: Fraction | None
    rhs: Fraction
    verdict: str


@dataclass(frozen=True)
class PairingReport:
    norm_sq: Fraction
    phi_kn_value: Fraction
    lhs_factorized: Fraction
    lhs_materialized: Fraction | None
    rhs: Fraction
    verdict: str


class CoinducedSystem:
    """The skew-product data of a co-induction instance.

    Holds the base free action (a0), the ambient action (b0), the
    target action (a), the choice system, and accessors for the product
    maps. The product space X x Y^N is materialized only under the
    `product` cap, read when the system is built; identities fall back
    to factorized counting above it.

    The point (x, ybar) of the product has the code
    x * Y^N + sum_n ybar[n] * Y^(N-1-n). The materialized routes never
    decode points one by one: `base_column` and `digit_column` give a
    coordinate of every code as an integer array, and the checks
    compare, count and fold on those arrays.

    The transport of an ambient-class-preserving g is held as two
    integer (m, N) rows, built in numpy from the choice table and a0's
    closure image rows and cached per g: `slots[x, k]` is the slot
    permutation of rho(x, g(x)) and `deltas[x, n]` the a0 element index
    (closure order) of its n-th transport entry. Stacked over b0's
    closure they form the (G, m, N) `transport_table`, which the checks
    and `product_images` read for all points at once; the product map
    is kept as an int array and wrapped in a `Perm` only by
    `product_perm`. The deltas index the target action's `rows` table
    directly, as both share a0's closure order. The
    scalar `rho`, `point_map`, `index_cocycle`, `delta_bar` and
    `semidirect_mul` stay as the per-point definition that the tables
    are tested against.
    """

    def __init__(
        self,
        a0: FreeGroupAction,
        b0: FinAction,
        a: TargetAction,
        cs: ChoiceSystem,
    ):
        self.a0 = a0
        self.b0 = b0
        self.a = a
        self.cs = cs
        strata = set(cs.strata)
        if len(strata) != 1:
            per_class = sorted(
                (cls[0], cs.strata[cls[0]]) for cls in cs.F.classes
            )
            raise ValidationError(f"index not constant across ambient classes: {per_class}")
        self.N = strata.pop()
        self.x_size = cs.size
        self.y_size = a.space.size
        self.product_size = self.x_size * self.y_size**self.N
        self._cap = get_cap("product")
        self.materialized = self.product_size <= self._cap
        self._slot_lookup: tuple[np.ndarray, ...] | None = None
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._rows: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._products: dict[tuple[int, ...], np.ndarray] = {}
        self._digits: dict[int, np.ndarray] = {}

    # -- product coordinates ------------------------------------------------

    def encode(self, x: int, ybar: Sequence[int]) -> int:
        idx = x
        for v in ybar:
            idx = idx * self.y_size + v
        return idx

    def decode(self, idx: int) -> tuple[int, tuple[int, ...]]:
        digits = []
        for _ in range(self.N):
            idx, d = divmod(idx, self.y_size)
            digits.append(d)
        return idx, tuple(reversed(digits))

    def base_column(self) -> np.ndarray:
        """The base point x of every product code, indexed by code."""
        return np.arange(self.product_size, dtype=np.int64) // self.y_size**self.N

    def digit_column(self, n: int) -> np.ndarray:
        """The coordinate ybar[n] of every product code, indexed by code."""
        col = self._digits.get(n)
        if col is None:
            codes = np.arange(self.product_size, dtype=np.int64)
            col = self._digits[n] = (codes // self.y_size ** (self.N - 1 - n)) % self.y_size
        return col

    # -- transport ------------------------------------------------------------

    def rho(self, x: int, y: int) -> tuple[Perm, tuple[str, ...]]:
        """Pair transport: slot permutation and element vector from x to y."""
        return index_cocycle(self.cs, x, y), delta_bar(self.cs, self.a0, x, y)

    def apply_transport(
        self, pi: Perm, dbar: tuple[str, ...], ybar: Sequence[int]
    ) -> tuple[int, ...]:
        pinv = pi.inverse()
        return tuple(
            self.a.perm(dbar[n])(ybar[pinv(n)]) for n in range(self.N)
        )

    def point_map(self, g: Perm, x: int, ybar: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """One step of the skew product for any ambient-class-preserving g."""
        pi, dbar = self.rho(x, g(x))
        return g(x), self.apply_transport(pi, dbar, ybar)

    def _transport(self, moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slots, deltas) of the maps with image rows `moved`, (G, m) in,
        two (G, m, N) tables out. The maps must preserve the ambient classes."""
        cs = self.cs
        if cs.E != self.a0.orbit_relation():
            raise ValidationError("choice-system classes differ from the group orbits")
        if self._slot_lookup is None:
            choices = np.array([cs.choices_at(x) for x in range(self.x_size)], dtype=np.intp)
            classes = cs.E.class_ids()[choices]
            # one key y * (number of E-classes) + class of choice(y, n) per
            # slot n of every point y, sorted, with the slot it names
            keys = (np.arange(self.x_size)[:, None] * cs.E.num_classes + classes).ravel()
            order = np.argsort(keys)
            self._slot_lookup = choices, classes, keys[order], order % self.N
        choices, classes, keys, slot_of_key = self._slot_lookup
        # slot k of x goes to the slot n of g(x) whose choice shares the
        # E-class of choice(x, k)
        wanted = moved[:, :, None] * cs.E.num_classes + classes
        slots = slot_of_key[np.searchsorted(keys, wanted)]
        # entry n = slots[k] carries choice(x, k) to choice(g(x), n)
        ends = np.take_along_axis(choices[moved], slots, axis=2)
        deltas = np.empty_like(slots)
        np.put_along_axis(deltas, slots, self.a0.transporter_indices(choices, ends), axis=2)
        return slots, deltas

    def _first_class_break(self) -> tuple[int, int] | None:
        """The first (closure index, point) where a b0 element leaves the
        ambient class of the point, or None."""
        fid = self.cs.F.class_ids()
        off = np.argwhere(fid[self.b0.closure_images()] != fid)
        return (int(off[0, 0]), int(off[0, 1])) if len(off) else None

    def transport_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, deltas) of every b0 closure element, each (G, m, N) in
        closure order; built once, and its rows serve `transport_rows`."""
        if self._table is None:
            broken = self._first_class_break()
            if broken is not None:
                i, x = broken
                y = self.b0.closure()[i].perm(x)
                raise ValidationError(f"{x} and {y} are in different ambient classes")
            slots, deltas = self._transport(self.b0.closure_images())
            slots.setflags(write=False)
            deltas.setflags(write=False)
            self._table = slots, deltas
            for i, g in enumerate(self.b0.closure()):
                self._rows[g.perm.images] = slots[i], deltas[i]
        return self._table

    def transport_rows(self, g: Perm) -> tuple[np.ndarray, np.ndarray]:
        """(slots, deltas) of an ambient-class-preserving g, each (m, N).

        Any such g is accepted, in b0's closure or not: a b0 element is
        read off `transport_table`, and any other g gets rows of its own.
        """
        rows = self._rows.get(g.images)
        if rows is None:
            if not in_full_group(self.cs.F, g):
                raise ValidationError("the map must preserve each ambient class")
            if self._table is None and self._first_class_break() is None:
                self.transport_table()
                rows = self._rows.get(g.images)
            if rows is None:
                slots, deltas = self._transport(np.array([g.images], dtype=np.intp))
                rows = self._rows[g.images] = slots[0], deltas[0]
        return rows

    def product_images(self, g: Perm) -> np.ndarray:
        """The materialized product map of g as an int64 array indexed by
        code (requires the cap), checked to be a permutation.

        The block of x holds the codes of (x, ybar) for every ybar; it
        goes to the block of g(x), where digit n = slots[x, k] is the
        image of digit k under the target image of element deltas[x, n].
        One gather per slot k builds the blocks of every x at once.
        """
        if not self.materialized:
            raise ValidationError(
                f"product space of size {self.product_size} exceeds the cap {self._cap}"
            )
        images = self._products.get(g.images)
        if images is not None:
            return images
        slots, deltas = self.transport_rows(g)
        block = self.y_size**self.N
        local = np.arange(block, dtype=np.int64)
        places = self.y_size ** np.arange(self.N - 1, -1, -1, dtype=np.int64)
        targets = self.a.rows
        rows = np.arange(self.x_size)[:, None]
        out = np.repeat(np.array(g.images, dtype=np.int64) * block, block).reshape(-1, block)
        for k in range(self.N):
            n = slots[:, k : k + 1]
            digit = (local // places[k]) % self.y_size
            out += places[n] * targets[deltas[rows, n], digit]
        images = out.ravel()
        size = self.product_size
        if images.min() < 0 or images.max() >= size or np.bincount(images).max() > 1:
            raise ValidationError(f"not a permutation of 0..{size - 1}: {tuple(images.tolist())}")
        images.setflags(write=False)
        self._products[g.images] = images
        return images

    def product_perm(self, g: Perm) -> Perm:
        """The product map of g as a Perm (requires the cap)."""
        return Perm(self.product_images(g).tolist())


def coinduced_action(
    a0: FreeGroupAction,
    b0: FinAction,
    a: TargetAction,
) -> CoinducedSystem:
    """Build and validate the skew-product system of (a0, b0, a).

    Checks: orbits of a0 refine orbits of b0 with constant index; the
    product maps of the b0 closure are permutations forming an action;
    freeness of the ambient action passes to the product action;
    the small-group product action is free; and the three factor maps
    (onto b0, onto a, onto a0) are equivariant. Structural checks that
    need the product space run only when it fits under the `product` cap.
    """
    e_rel = a0.orbit_relation()
    f_rel = orbit_relation(b0)
    if e_rel.size != f_rel.size:
        raise ValidationError("the two base actions live on different spaces")
    if not e_rel.refines(f_rel):
        raise ValidationError("orbits of the small group must refine the ambient orbits")
    if a.group is not a0:
        raise ValidationError("target action is keyed to a different group")
    cs = choice_functions(e_rel, f_rel)
    sys = CoinducedSystem(a0, b0, a, cs)
    if not sys.materialized:
        return sys

    gammas = b0.closure()
    b_maps = np.stack([sys.product_images(g.perm) for g in gammas])
    codes = np.arange(sys.product_size, dtype=np.int64)
    # action law: the product map of a composite is the composite of maps
    if b0.first_broken_step(b_maps) is not None:
        raise CheckFailed("product maps do not compose as an action")
    if b0.fixing_element() is None:
        for b_map in b_maps[1:]:  # element 0 is the identity
            if np.any(b_map == codes):
                raise CheckFailed("freeness of the ambient action was lost in the product")
    for d in a0.elements[1:]:
        if np.any(sys.product_images(d.perm) == codes):
            raise CheckFailed("the small-group product action is not free")
    # factor equivariance
    base = sys.base_column()
    first = sys.digit_column(0)
    for g, b_map in zip(gammas, b_maps):
        if not np.array_equal(base[b_map], np.array(g.perm.images)[base]):
            raise CheckFailed("projection to the base space is not equivariant")
    for d, target in zip(a0.elements, a.rows):
        ap = sys.product_images(d.perm)
        base_ok = base[ap] == np.array(d.perm.images)[base]
        first_ok = first[ap] == target[first]
        bad = np.flatnonzero(~(base_ok & first_ok))
        if bad.size and not base_ok[bad[0]]:
            raise CheckFailed("projection of the small action to the base is not equivariant")
        if bad.size:
            raise CheckFailed("first-coordinate projection onto the target action failed")
    return sys


def check_rho_cocycle(sys: CoinducedSystem) -> int:
    """Exhaustively verify the transport cocycle identity over the closure.

    For all closure elements g1, g2 and every point x, the transport of
    g1*g2 at x must equal the product of the transport of g1 at g2(x)
    with the transport of g2 at x, (p1, d1)(p2, d2) = (p1 p2, n ->
    d1[n] * d2[p1^-1(n)]). Each g1 is checked against every (g2, x) at
    once on the transport table. Returns the number of verified
    triples; raises at the first violation, g1 outermost, then g2, then x.
    """
    gammas = sys.b0.closure()
    slots, deltas = sys.transport_table()
    inverses = np.argsort(slots, axis=2)  # p^-1 of every slot permutation
    moved = sys.b0.closure_images()  # moved[g2, x] = g2(x)
    for i, (g1, composite) in enumerate(zip(gammas, sys.b0.product_table())):
        p1, d1 = slots[i][moved], deltas[i][moved]  # transport of g1 at g2(x)
        p12 = np.take_along_axis(p1, slots, axis=2)
        d12 = sys.a0.mult_indices(d1, np.take_along_axis(deltas, inverses[i][moved], axis=2))
        bad = (slots[composite] != p12).any(axis=2) | (deltas[composite] != d12).any(axis=2)
        if bad.any():
            j, x = np.argwhere(bad)[0]
            raise CheckFailed(
                f"transport cocycle identity fails at ({g1.name}, {gammas[j].name}, {x})"
            )
    return len(gammas) ** 2 * sys.x_size


def phi_kn(
    cs: ChoiceSystem, action: FinAction, k: int, n: int, gamma
) -> Fraction:
    """Exact measure of {x : the slot permutation of (x, gamma(x)) sends k to n}.

    Requires a constant index; reduces to phi(E, gamma) at k = n = 0.
    """
    strata = set(cs.strata)
    if len(strata) != 1:
        raise ValidationError("slot statistics need a constant index")
    n_slots = strata.pop()
    if not (0 <= k < n_slots and 0 <= n < n_slots):
        raise ValidationError(f"slot indices must lie below {n_slots}")
    g = action.resolve(gamma)
    if not in_full_group(cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    hits = sum(
        1 for x in range(cs.size) if index_cocycle(cs, x, g(x))(k) == n
    )
    return Fraction(hits, cs.size)


def _fold_dtype(bound: int):
    """The dtype of an exact integer fold whose partial sums stay within
    `bound` in absolute value: int64 when that fits, else Python ints."""
    return np.int64 if bound < 2**63 else object


def check_thm33_identity(
    sys: CoinducedSystem, b_set: Sequence[int], gamma
) -> MixingIdentityReport:
    """Exact overlap identity for cylinder sets over the first coordinate.

    With B an invariant subset of the target space of mass p and
    B0 = {(x, ybar) : ybar_0 in B}, the product-measure overlap of
    g.B0 with B0 equals p*phi(E, g) + p^2*(1 - phi(E, g)). Computed by
    factorized counting and, when the product is materialized, by
    direct enumeration; both must agree with the closed form exactly.

    The factorized route counts the points by their slot-0 element
    (a bincount of a deltas column) and folds the counts in Python ints
    into the overlap times X * Y^2. Both comparisons are cross-multiplied
    in integers; Fractions are built only for the report, whose three
    sides, proven equal, are one value.
    """
    g = sys.b0.resolve(gamma)
    if not in_full_group(sys.cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    b_pts = sorted(set(int(v) for v in b_set))
    if not set(b_pts) <= set(range(sys.y_size)):
        raise ValidationError("subset leaves the target space")
    x_size, y_size, b = sys.x_size, sys.y_size, len(b_pts)
    in_b = np.zeros(y_size, dtype=bool)
    in_b[np.array(b_pts, dtype=np.intp)] = True
    lands = in_b[sys.a.rows]  # lands[j, y]: element j sends y into B
    kept = lands[:, in_b]
    if not kept.all():
        name = sys.a0.elements[np.argmin(kept.all(axis=1))].name
        raise ValidationError(f"subset is not invariant under element {name}")

    # A point whose slot permutation fixes 0 pairs B with its image under
    # its slot-0 element; otherwise the two coordinates are independent.
    # Count the points by slot-0 element j: cell j for those moving slot
    # 0, cell n_el + j for those fixing it.
    slots, deltas = sys.transport_rows(g)
    n_el = len(lands)
    cells = np.bincount((slots[:, 0] == 0) * n_el + deltas[:, 0], minlength=2 * n_el).tolist()
    stay = kept.sum(axis=1).tolist()  # y in B sent into B
    land = lands.sum(axis=1).tolist()  # y sent into B
    total = sum(  # the overlap times X * Y^2
        cells[n_el + j] * y_size * stay[j] + cells[j] * b * land[j] for j in range(n_el)
    )
    scale = x_size * y_size * y_size

    count = None
    if sys.materialized:
        starts_in_b = in_b[sys.digit_column(0)]
        count = int(np.count_nonzero(starts_in_b & starts_in_b[sys.product_images(g)]))
        if count * scale != total * sys.product_size:
            raise CheckFailed("factorized and materialized overlap counts disagree")
    ids = sys.cs.E.class_ids()
    h = int(np.count_nonzero(ids[list(g.images)] == ids))  # X * phi(E, g)
    # the closed form p*phi + p^2*(1 - phi) times X * Y^2, with p = b / Y
    if total != b * (h * y_size + b * (x_size - h)):
        raise CheckFailed("overlap identity violated")
    lhs = Fraction(total, scale)
    return MixingIdentityReport(
        p=Fraction(b, y_size),
        phi_value=Fraction(h, x_size),
        lhs_factorized=lhs,
        lhs_materialized=None if count is None else lhs,
        rhs=lhs,
        verdict="pass",
    )


def check_prop34_pairings(
    sys: CoinducedSystem, f: Sequence, gamma, pairs: Sequence[tuple[int, int]] | None = None
) -> dict[tuple[int, int], PairingReport]:
    """Exact pairing identity for mean-zero invariant observables, for
    every slot pair (k, n) of one (gamma, f) (or only the given pairs).

    For f on the target space with zero mean, invariant under the small
    action, the pairing of the n-th coordinate copy of f moved by g
    against the k-th copy equals (slot statistic at (k, n)) * ||f||^2.
    Factorized and materialized routes must both match exactly. Reports
    come keyed by (k, n) in row-major order, and the first failing pair
    in that order raises, the route check before the identity.

    Every slot pair is folded at once, in integers: f is scaled to
    integer numerators over the least common denominator D, once per
    call with its invariance check and norm. The factorized route counts
    the points sending k to n by their element deltas[x, n] (one
    bincount) and weighs each element by sum_y f(d(y)) f(y) (one matrix
    product). The materialized route is one more matrix product, the
    numerators of the P x N digit columns against those of their images.
    The products run in int64 while max|num|^2 times their number of
    terms fits, else in Python ints, so they stay exact at any size.
    Both comparisons are cross-multiplied in Python ints; Fractions are
    built only for the reports, one per distinct slot statistic, whose
    three sides, proven equal, are one value.
    """
    g = sys.b0.resolve(gamma)
    if not in_full_group(sys.cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    n_slots = sys.N
    if pairs is None:
        pairs = list(itertools.product(range(n_slots), repeat=2))
    for k, n in pairs:
        if not (0 <= k < n_slots and 0 <= n < n_slots):
            raise ValidationError(f"slot indices must lie below {n_slots}")
    vals = [Fraction(v) for v in f]
    if len(vals) != sys.y_size:
        raise ValidationError("observable length differs from the target space")
    den = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]  # f = nums / den
    if sum(nums) != 0:
        raise ValidationError("observable must have zero mean")
    targets = sys.a.rows
    levels = {v: i for i, v in enumerate(set(nums))}
    level = np.array([levels[v] for v in nums], dtype=np.intp)
    moves = level[targets] != level
    if moves.any():
        name = sys.a0.elements[np.argmax(moves.any(axis=1))].name
        raise ValidationError(f"observable is not invariant under element {name}")
    x_size, y_size = sys.x_size, sys.y_size
    norm_num = sum(v * v for v in nums)
    norm_sq = Fraction(norm_num, den * den * y_size)

    # A point whose slot permutation sends k elsewhere pairs two
    # independent coordinates, so it adds the product of two means of f:
    # zero, since f has zero mean. Only the points sending k to n count,
    # each with sum_y f(d(y)) f(y) for its element d = deltas[x, n].
    slots, deltas = sys.transport_rows(g)
    n_el = len(targets)
    elements = deltas[np.arange(x_size)[:, None], slots]  # deltas[x, slots[x, k]]
    cells = (np.arange(n_slots) * n_slots + slots) * n_el + elements
    counts = np.bincount(cells.ravel(), minlength=n_slots * n_slots * n_el)
    counts = counts.reshape(n_slots, n_slots, n_el)
    images = sys.product_images(g) if sys.materialized else None
    terms = max(x_size * y_size, 0 if images is None else sys.product_size)
    fnum = np.array(nums, dtype=_fold_dtype(max((v * v for v in nums), default=0) * terms))
    element_sums = (fnum[targets] * fnum).sum(axis=1)
    hits = counts.sum(axis=2).tolist()  # points whose slot permutation sends k to n
    totals = (counts @ element_sums).tolist()  # the pairings times X * Y * D^2
    paired = None
    if images is not None:
        digits = fnum[np.stack([sys.digit_column(n) for n in range(n_slots)], axis=1)]
        paired = (digits.T @ digits[images]).tolist()  # the pairings times P * D^2

    scale, size = x_size * y_size, sys.product_size
    shared: dict[int, PairingReport] = {}
    reports = {}
    for k, n in pairs:
        total, hit = totals[k][n], hits[k][n]
        if paired is not None and paired[k][n] * scale != total * size:
            raise CheckFailed("factorized and materialized pairings disagree")
        if total != hit * norm_num:
            raise CheckFailed("pairing identity violated")
        report = shared.get(hit)
        if report is None:
            phi_val = Fraction(hit, x_size)  # phi_kn(cs, b0, k, n, g) off the transport rows
            rhs = phi_val * norm_sq
            report = shared[hit] = PairingReport(
                norm_sq=norm_sq,
                phi_kn_value=phi_val,
                lhs_factorized=rhs,
                lhs_materialized=None if paired is None else rhs,
                rhs=rhs,
                verdict="pass",
            )
        reports[(k, n)] = report
    return reports


def check_prop34_pairing(
    sys: CoinducedSystem, f: Sequence, k: int, n: int, gamma
) -> PairingReport:
    """The pairing identity of `check_prop34_pairings` at one slot pair (k, n)."""
    return check_prop34_pairings(sys, f, gamma, [(k, n)])[(k, n)]


def choice_perm(cs: ChoiceSystem, n: int) -> Perm | None:
    """The map x -> choice(x, n) as a permutation, when it is one."""
    strata = set(cs.strata)
    if len(strata) != 1 or n >= strata.pop():
        return None
    images = [cs.choice(x, n) for x in range(cs.size)]
    if sorted(images) != list(range(cs.size)):
        return None
    return Perm(images)
