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

from .errors import CheckFailed, ValidationError, get_cap
from .ergcore import EqRel, FinAction, FinSpace, GroupElement, Perm, in_full_group, orbit_relation, phi
from .subrel import ChoiceSystem, choice_functions, index_cocycle


class FreeGroupAction:
    """A generated action, closed into its full element group, with the
    certificate that no non-identity element fixes a point.

    Freeness makes the element carrying one point to another unique,
    which is what the transport vectors below rely on.
    """

    def __init__(self, base: FinAction, cap: int | None = None):
        self.base = base
        self.elements: tuple[GroupElement, ...] = base.closure(cap)
        self._by_name = {e.name: e for e in self.elements}
        self._by_images = {e.perm.images: e for e in self.elements}
        ident = None
        for e in self.elements:
            if e.perm.is_identity():
                ident = e.name
            elif e.perm.fixed_points():
                raise ValidationError(
                    f"element {e.name} fixes {e.perm.fixed_points()[0]}; the action is not free"
                )
        if ident is None:
            raise CheckFailed("closure lost the identity")
        self.identity_name = ident
        self._transport: dict[tuple[int, int], str] = {}
        for e in self.elements:
            for x in range(base.space.size):
                self._transport[(x, e.perm(x))] = e.name
        self._orbits: EqRel | None = None
        self._products: dict[tuple[str, str], str] = {}

    @property
    def size(self) -> int:
        return len(self.elements)

    def element(self, name: str) -> GroupElement:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"no element named {name!r}") from None

    def perm_of(self, name: str) -> Perm:
        return self.element(name).perm

    def name_of(self, p: Perm) -> str:
        try:
            return self._by_images[p.images].name
        except KeyError:
            raise ValidationError("permutation is not an element of the group") from None

    # Freeness means an element is known by where it sends point 0, so
    # products and inverses are read off the transport table and no Perm
    # is composed. Products fill a multiplication table as they are asked.

    def mult(self, left: str, right: str) -> str:
        name = self._products.get((left, right))
        if name is None:
            lhs = self.perm_of(left).images
            name = self._transport[(0, lhs[self.perm_of(right).images[0]])]
            self._products[(left, right)] = name
        return name

    def inverse_name(self, name: str) -> str:
        return self._transport[(self.perm_of(name).images[0], 0)]

    def transporter(self, src: int, dst: int) -> str:
        """The unique element carrying src to dst."""
        try:
            return self._transport[(src, dst)]
        except KeyError:
            raise ValidationError(
                f"no element carries {src} to {dst}; the points are in different orbits"
            ) from None

    def orbit_relation(self) -> EqRel:
        """The orbits of the group, computed once per action."""
        if self._orbits is None:
            self._orbits = orbit_relation(self.base)
        return self._orbits


class TargetAction:
    """An action of the closed group on a second space, keyed by element
    name, validated as a homomorphism on the identity and the generators."""

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
        # images[g h] = images[g] images[h] for all g follows, by induction on
        # the word length of g, from the identity and the generators alone
        ident = group.identity_name
        if not images[ident].is_identity():
            raise ValidationError(f"images break multiplicativity at ({ident}, {ident})")
        gens = {group.name_of(group.base.generator(lab)) for lab in group.base.labels}
        for n1 in sorted(gens):
            for n2 in names:
                if images[group.mult(n1, n2)] != images[n1] * images[n2]:
                    raise ValidationError(
                        f"images break multiplicativity at ({n1}, {n2})"
                    )
        self.group = group
        self.space = space
        self._images = dict(images)

    @staticmethod
    def trivial(group: FreeGroupAction, space: FinSpace) -> "TargetAction":
        ident = Perm.identity(space.size)
        return TargetAction(group, space, {e.name: ident for e in group.elements})

    def perm(self, name: str) -> Perm:
        try:
            return self._images[name]
        except KeyError:
            raise ValidationError(f"no image for element {name!r}") from None


def _orbit_unions(a0: FreeGroupAction, a: TargetAction):
    """Unions of target orbits in order of `bits`: union number `bits` is
    the union of the orbits whose bit is set, with the orbits ordered by
    their least member."""
    blocks = EqRel.from_perms(a.space.size, (a.perm(e.name) for e in a0.elements)).classes
    for bits in range(1 << len(blocks)):
        s: set[int] = set()
        for b, block in enumerate(blocks):
            if bits >> b & 1:
                s.update(block)
        yield frozenset(s)


def target_orbit_sets(a0: FreeGroupAction, a: TargetAction) -> list[frozenset[int]]:
    """All invariant subsets of the target: unions of target orbits.

    Subset number `bits` is the union of the orbits whose bit is set,
    with the orbits ordered by their least member.
    """
    return list(_orbit_unions(a0, a))


def invariant_observables(a0: FreeGroupAction, a: TargetAction) -> list[list[Fraction]]:
    """Zero-mean target observables constant on each target orbit: one for
    each of the first four proper orbit unions in `target_orbit_sets`
    order, read without building the other unions."""
    y = a.space.size
    proper = (s for s in _orbit_unions(a0, a) if 0 < len(s) < y)
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
    maps. The product space X x Y^N is materialized only under a cap;
    identities fall back to factorized counting above it.

    The point (x, ybar) of the product has the code
    x * Y^N + sum_n ybar[n] * Y^(N-1-n). The materialized routes never
    decode points one by one: `base_column` and `digit_column` give a
    coordinate of every code as an integer array, `product_perm` builds
    its images one x-block of Y^N codes at a time by array gathers, and
    the checks compare, count and fold on those arrays. Transports
    rho(x, y), product maps and target images are cached on the system.
    """

    def __init__(
        self,
        a0: FreeGroupAction,
        b0: FinAction,
        a: TargetAction,
        cs: ChoiceSystem,
        cap: int | None = None,
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
        self._cap = get_cap("product", cap)
        self.materialized = self.product_size <= self._cap
        self._perm_cache: dict[tuple[int, ...], tuple[Perm, np.ndarray]] = {}
        self._rho: dict[tuple[int, int], tuple[Perm, tuple[str, ...]]] = {}
        self._target_images: dict[str, np.ndarray] = {}

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
        codes = np.arange(self.product_size, dtype=np.int64)
        return (codes // self.y_size ** (self.N - 1 - n)) % self.y_size

    # -- transport ------------------------------------------------------------

    def rho(self, x: int, y: int) -> tuple[Perm, tuple[str, ...]]:
        """Pair transport: slot permutation and element vector from x to y."""
        hit = self._rho.get((x, y))
        if hit is None:
            hit = index_cocycle(self.cs, x, y), delta_bar(self.cs, self.a0, x, y)
            self._rho[(x, y)] = hit
        return hit

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

    def _target_array(self, name: str) -> np.ndarray:
        """The target permutation of a small-group element as an array."""
        arr = self._target_images.get(name)
        if arr is None:
            arr = np.array(self.a.perm(name).images, dtype=np.int64)
            self._target_images[name] = arr
        return arr

    def product_perm(self, g: Perm) -> Perm:
        """The materialized product permutation of g (requires the cap).

        The block of x holds the codes of (x, ybar) for every ybar; it
        goes to the block of g(x), where digit n is the image of digit
        pi^-1(n) under the target image of dbar[n], for (pi, dbar) =
        rho(x, g(x)).
        """
        if not self.materialized:
            raise ValidationError(
                f"product space of size {self.product_size} exceeds the cap {self._cap}"
            )
        if g.images in self._perm_cache:
            return self._perm_cache[g.images][0]
        if not in_full_group(self.cs.F, g):
            raise ValidationError("the map must preserve each ambient class")
        block = self.y_size**self.N
        local = np.arange(block, dtype=np.int64)
        places = [self.y_size ** (self.N - 1 - n) for n in range(self.N)]
        digits = [(local // w) % self.y_size for w in places]
        images = np.empty(self.product_size, dtype=np.int64)
        for x in range(self.x_size):
            gx = g(x)
            pi, dbar = self.rho(x, gx)
            out = np.full(block, gx * block, dtype=np.int64)
            for n, src in enumerate(pi.inverse().images):
                out += places[n] * self._target_array(dbar[n])[digits[src]]
            images[x * block : (x + 1) * block] = out
        perm = Perm(images.tolist())
        self._perm_cache[g.images] = (perm, images)
        return perm

    def product_images(self, g: Perm) -> np.ndarray:
        """product_perm(g) as an int64 array indexed by code."""
        self.product_perm(g)
        return self._perm_cache[g.images][1]

    def a_prime_perm(self, delta_name: str) -> Perm:
        return self.product_perm(self.a0.perm_of(delta_name))

    def resolve_gamma(self, gamma) -> Perm:
        """Accept a generator label or closure name of b0, or a raw permutation."""
        if isinstance(gamma, str):
            if gamma in self.b0.labels:
                return self.b0.generator(gamma)
            return self.b0.element(gamma).perm
        if isinstance(gamma, Perm):
            return gamma
        raise ValidationError("group element must be a name or a permutation")


def coinduced_action(
    a0: FreeGroupAction,
    b0: FinAction,
    a: TargetAction,
    cap: int | None = None,
) -> CoinducedSystem:
    """Build and validate the skew-product system of (a0, b0, a).

    Checks: orbits of a0 refine orbits of b0 with constant index; the
    product maps of the b0 closure are permutations forming an action;
    freeness of the ambient action passes to the product action;
    the small-group product action is free; and the three factor maps
    (onto b0, onto a, onto a0) are equivariant. Structural checks that
    need the product space run only when it fits under the cap.
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
    sys = CoinducedSystem(a0, b0, a, cs, cap)
    if not sys.materialized:
        return sys

    gammas = b0.closure()
    b_maps = {g.name: sys.product_images(g.perm) for g in gammas}
    # action law: the product map of a composite is the composite of maps
    name_of = {g.perm.images: g.name for g in gammas}
    for g1 in gammas:
        for g2 in gammas:
            composite = name_of[(g1.perm * g2.perm).images]
            if not np.array_equal(b_maps[composite], b_maps[g1.name][b_maps[g2.name]]):
                raise CheckFailed("product maps do not compose as an action")
    codes = np.arange(sys.product_size, dtype=np.int64)
    b0_free = all(
        not g.perm.fixed_points() for g in gammas if not g.perm.is_identity()
    )
    if b0_free:
        for g in gammas:
            if not g.perm.is_identity() and np.any(b_maps[g.name] == codes):
                raise CheckFailed("freeness of the ambient action was lost in the product")
    for d in a0.elements:
        if not d.perm.is_identity() and np.any(sys.product_images(d.perm) == codes):
            raise CheckFailed("the small-group product action is not free")
    # factor equivariance
    base = sys.base_column()
    first = sys.digit_column(0)
    for g in gammas:
        if not np.array_equal(base[b_maps[g.name]], np.array(g.perm.images)[base]):
            raise CheckFailed("projection to the base space is not equivariant")
    for d in a0.elements:
        ap = sys.product_images(d.perm)
        base_ok = base[ap] == np.array(d.perm.images)[base]
        first_ok = first[ap] == sys._target_array(d.name)[first]
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
    with the transport of g2 at x. Returns the number of verified
    triples; raises on any violation.
    """
    gammas = sys.b0.closure()
    count = 0
    for g1 in gammas:
        for g2 in gammas:
            composite = g1.perm * g2.perm
            for x in range(sys.x_size):
                lhs = sys.rho(x, composite(x))
                rhs = semidirect_mul(
                    sys.a0,
                    sys.rho(g2.perm(x), g1.perm(g2.perm(x))),
                    sys.rho(x, g2.perm(x)),
                )
                if lhs != rhs:
                    raise CheckFailed(
                        f"transport cocycle identity fails at ({g1.name}, {g2.name}, {x})"
                    )
                count += 1
    return count


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
    if isinstance(gamma, str):
        if gamma in action.labels:
            g = action.generator(gamma)
        else:
            g = action.element(gamma).perm
    else:
        g = gamma
    if not in_full_group(cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    hits = sum(
        1 for x in range(cs.size) if index_cocycle(cs, x, g(x))(k) == n
    )
    return Fraction(hits, cs.size)


def _pair_counts(a: np.ndarray, b: np.ndarray, base: int):
    """(a * base + b, count) for each value pair (a[i], b[i]) that occurs."""
    cells = a * base + b
    if base * base <= len(cells):
        counts = np.bincount(cells, minlength=base * base)
        present = np.flatnonzero(counts)
        return zip(present.tolist(), counts[present].tolist())
    # sparse: base^2 cells would outnumber the points (one slot, large target)
    present, counts = np.unique(cells, return_counts=True)
    return zip(present.tolist(), counts.tolist())


def check_thm33_identity(
    sys: CoinducedSystem, b_set: Sequence[int], gamma
) -> MixingIdentityReport:
    """Exact overlap identity for cylinder sets over the first coordinate.

    With B an invariant subset of the target space of mass p and
    B0 = {(x, ybar) : ybar_0 in B}, the product-measure overlap of
    g.B0 with B0 equals p*phi(E, g) + p^2*(1 - phi(E, g)). Computed by
    factorized counting and, when the product is materialized, by
    direct enumeration; both must agree with the closed form exactly.
    """
    g = sys.resolve_gamma(gamma)
    if not in_full_group(sys.cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    b_pts = sorted(set(int(v) for v in b_set))
    if not set(b_pts) <= set(range(sys.y_size)):
        raise ValidationError("subset leaves the target space")
    for d in sys.a0.elements:
        if {sys.a.perm(d.name)(y) for y in b_pts} != set(b_pts):
            raise ValidationError(f"subset is not invariant under element {d.name}")
    p = Fraction(len(b_pts), sys.y_size)
    phi_val = phi(sys.cs.E, g)
    rhs = p * phi_val + p * p * (1 - phi_val)

    y_size = sys.y_size
    b_lookup = set(b_pts)
    total = 0  # the overlap times X * Y^2
    for x in range(sys.x_size):
        pi, dbar = sys.rho(x, g(x))
        dperm = sys.a.perm(dbar[0])
        if pi(0) == 0:
            total += y_size * sum(1 for y in b_pts if dperm(y) in b_lookup)
        else:
            total += len(b_pts) * sum(1 for y in range(y_size) if dperm(y) in b_lookup)
    lhs_fact = Fraction(total, sys.x_size * y_size * y_size)

    lhs_mat = None
    if sys.materialized:
        in_b = np.zeros(y_size, dtype=bool)
        in_b[np.array(b_pts, dtype=np.int64)] = True
        starts_in_b = in_b[sys.digit_column(0)]
        count = np.count_nonzero(starts_in_b & starts_in_b[sys.product_images(g)])
        lhs_mat = Fraction(int(count), sys.product_size)
        if lhs_mat != lhs_fact:
            raise CheckFailed("factorized and materialized overlap counts disagree")
    if lhs_fact != rhs:
        raise CheckFailed("overlap identity violated")
    return MixingIdentityReport(
        p=p,
        phi_value=phi_val,
        lhs_factorized=lhs_fact,
        lhs_materialized=lhs_mat,
        rhs=rhs,
        verdict="pass",
    )


def check_prop34_pairing(
    sys: CoinducedSystem, f: Sequence, k: int, n: int, gamma
) -> PairingReport:
    """Exact pairing identity for mean-zero invariant observables.

    For f on the target space with zero mean, invariant under the small
    action, the pairing of the n-th coordinate copy of f moved by g
    against the k-th copy equals (slot statistic at (k, n)) * ||f||^2.
    Factorized and materialized routes must both match exactly.

    Both routes fold in integers: f is scaled to integer numerators over
    the least common denominator D. The materialized route counts the
    (ybar_k, g.ybar_n) value pairs over all product codes, from the
    digit columns and the product images, and folds the Y^2 cells with
    Python ints; each route builds one Fraction at the end.
    """
    g = sys.resolve_gamma(gamma)
    if not in_full_group(sys.cs.F, g):
        raise ValidationError("the map must preserve each ambient class")
    if not (0 <= k < sys.N and 0 <= n < sys.N):
        raise ValidationError(f"slot indices must lie below {sys.N}")
    vals = [Fraction(v) for v in f]
    if len(vals) != sys.y_size:
        raise ValidationError("observable length differs from the target space")
    den = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]  # f = nums / den
    if sum(nums) != 0:
        raise ValidationError("observable must have zero mean")
    for d in sys.a0.elements:
        dp = sys.a.perm(d.name)
        if any(nums[dp(y)] != nums[y] for y in range(sys.y_size)):
            raise ValidationError(f"observable is not invariant under element {d.name}")
    y_size = sys.y_size
    norm_sq = Fraction(sum(v * v for v in nums), den * den * y_size)

    mean = 0  # numerator of the mean over D: zero by the precondition, kept explicit
    hits = 0  # points whose slot permutation sends k to n
    total = 0  # the pairing times X * Y * D^2
    for x in range(sys.x_size):
        pi, dbar = sys.rho(x, g(x))
        dperm = sys.a.perm(dbar[n])
        if pi(k) == n:
            hits += 1
            total += sum(nums[dperm(y)] * nums[y] for y in range(y_size))
        else:
            total += sum(nums[dperm(y)] for y in range(y_size)) * mean
    lhs_fact = Fraction(total, sys.x_size * y_size * den * den)
    phi_val = Fraction(hits, sys.x_size)  # phi_kn(cs, b0, k, n, g) off the cached transports
    rhs = phi_val * norm_sq

    lhs_mat = None
    if sys.materialized:
        moved = sys.digit_column(n)[sys.product_images(g)]
        pairs = _pair_counts(sys.digit_column(k), moved, y_size)
        total = sum(c * nums[cell // y_size] * nums[cell % y_size] for cell, c in pairs)
        lhs_mat = Fraction(total, sys.product_size * den * den)
        if lhs_mat != lhs_fact:
            raise CheckFailed("factorized and materialized pairings disagree")
    if lhs_fact != rhs:
        raise CheckFailed("pairing identity violated")
    return PairingReport(
        norm_sq=norm_sq,
        phi_kn_value=phi_val,
        lhs_factorized=lhs_fact,
        lhs_materialized=lhs_mat,
        rhs=rhs,
        verdict="pass",
    )


def choice_perm(cs: ChoiceSystem, n: int) -> Perm | None:
    """The map x -> choice(x, n) as a permutation, when it is one."""
    strata = set(cs.strata)
    if len(strata) != 1 or n >= strata.pop():
        return None
    images = [cs.choice(x, n) for x in range(cs.size)]
    if sorted(images) != list(range(cs.size)):
        return None
    return Perm(images)
