"""Analysis of a relation inside an ambient one: choice functions, the
index cocycle, the associated coordinate representation, invariant
vectors, index witnesses, separating families, merge links, and
evading maps.

Throughout, E and F are equivalence relations on the same finite
uniform space with E refining F ("E inside F"). The index of an
F-class is the number of E-classes it contains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CheckFailed, ValidationError, get_cap
from .ergcore import (
    EqRel,
    FinAction,
    PartialIso,
    Perm,
    cost,
    full_group_size,
    full_group_table,
    hit_counts,
    in_full_group,
    orbit_relation,
    phi,
    sample_full_group,
)


# ---------------------------------------------------------------------------
# Choice systems.


class ChoiceSystem:
    """Per-point transversals of the E-classes inside each F-class.

    For every x, choice(x, 0) = x and choice(x, n) for n < strata[x]
    walks the remaining E-classes of [x]_F in a fixed rotation, so the
    values meet each E-class inside [x]_F exactly once.
    """

    def __init__(
        self,
        e_rel: EqRel,
        f_rel: EqRel,
        convention: str,
        choices: tuple[tuple[int, ...], ...],
    ):
        m = e_rel.size
        self.E = e_rel
        self.F = f_rel
        self.convention = convention
        self._choices = choices
        strata = []
        slots: list[dict[int, int]] = []
        wants = [{e_rel.class_id(y) for y in c} for c in f_rel.classes]
        for x in range(m):
            row = choices[x]
            if row[0] != x:
                raise ValidationError(f"choice 0 at {x} must be {x}, got {row[0]}")
            hit = {e_rel.class_id(y) for y in row}
            if len(hit) != len(row) or hit != wants[f_rel.class_id(x)]:
                raise ValidationError(
                    f"choices at {x} do not traverse the classes of its ambient class"
                )
            strata.append(len(row))
            slots.append({e_rel.class_id(y): n for n, y in enumerate(row)})
        for c in f_rel.classes:
            if len({strata[x] for x in c}) != 1:
                raise ValidationError("stratum not constant on an ambient class")
        self.strata = tuple(strata)
        self._slots = slots

    @property
    def size(self) -> int:
        return self.E.size

    def choice(self, x: int, n: int) -> int:
        return self._choices[x][n]

    def choices_at(self, x: int) -> tuple[int, ...]:
        return self._choices[x]

    def slot_of(self, x: int, z: int) -> int:
        """The index n with choice(x, n) in the same E-class as z."""
        try:
            return self._slots[x][self.E.class_id(z)]
        except KeyError:
            raise ValidationError(
                f"{z} is not in the ambient class of {x}"
            ) from None

    @property
    def carrier(self) -> tuple[tuple[int, int], ...]:
        """All pairs (x, n) with n < strata[x], enumerated point-major."""
        return tuple(
            (x, n) for x in range(self.size) for n in range(self.strata[x])
        )

    def carrier_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.carrier)}


def choice_functions(
    e_rel: EqRel, f_rel: EqRel, convention: str = "min_up"
) -> ChoiceSystem:
    """Build the canonical choice system for E inside F.

    convention="min_up": E-classes of each ambient class are ordered by
    minimal element and rotated so the class of x comes first;
    representatives are class minima. convention="max_down" reverses
    the rotation and uses class maxima; it exists so tests can confirm
    that downstream constructions do not leak the convention.
    """
    if e_rel.size != f_rel.size:
        raise ValidationError("relation sizes differ")
    if not e_rel.refines(f_rel):
        raise ValidationError("every class of the finer relation must sit inside one ambient class")
    if convention not in ("min_up", "max_down"):
        raise ValidationError(f"unknown convention {convention!r}")
    pick, step = (min, 1) if convention == "min_up" else (max, -1)
    choices: list = [None] * e_rel.size
    for c in f_rel.classes:
        ids = sorted({e_rel.class_id(y) for y in c})
        reps = [pick(e_rel.classes[i]) for i in ids]
        pos = {i: k for k, i in enumerate(ids)}
        n_cls = len(ids)
        for x in c:
            k = pos[e_rel.class_id(x)]
            choices[x] = (x, *(reps[(k + step * t) % n_cls] for t in range(1, n_cls)))
    return ChoiceSystem(e_rel, f_rel, convention, tuple(choices))


def index_cocycle(cs: ChoiceSystem, x: int, y: int) -> Perm:
    """The permutation matching choice slots of x to those of y by E-class.

    Defined for x, y in the same ambient class: slot k of x maps to the
    slot n of y with choice(y, n) E-equivalent to choice(x, k).
    """
    if not cs.F.same(x, y):
        raise ValidationError(f"{x} and {y} are in different ambient classes")
    n_slots = cs.strata[x]
    return Perm([cs.slot_of(y, cs.choice(x, k)) for k in range(n_slots)])


def sigma(cs: ChoiceSystem, s: Perm, x: int) -> Perm:
    """Slot cocycle of a full-group element: index_cocycle(cs, x, s(x))."""
    return index_cocycle(cs, x, s(x))


def tau_representation(cs: ChoiceSystem, s: Perm) -> Perm:
    """The carrier permutation (x, n) -> (s(x), sigma(s, x)(n)).

    s must preserve every ambient class. The resulting coordinate
    permutation is unitary for the inner product (1/m) * sum, is
    multiplicative in s, and pairs the base indicator with itself to
    phi(E, s) exactly.
    """
    if s.size != cs.size:
        raise ValidationError("permutation acts on the wrong space")
    if not in_full_group(cs.F, s):
        raise ValidationError("the map must preserve each ambient class")
    carrier = cs.carrier
    index = cs.carrier_index()
    images = [0] * len(carrier)
    for i, (y, k) in enumerate(carrier):
        sy = s(y)
        images[i] = index[(sy, cs.slot_of(sy, cs.choice(y, k)))]
    return Perm(images)


def tau_inner(cs: ChoiceSystem, f: Sequence, g: Sequence) -> Fraction:
    """Inner product on carrier vectors: (1/m) * sum of coordinatewise products."""
    carrier = cs.carrier
    if len(f) != len(carrier) or len(g) != len(carrier):
        raise ValidationError("vector length differs from carrier size")
    total = sum((Fraction(a) * Fraction(b) for a, b in zip(f, g)), Fraction(0))
    return total / cs.size


def xi0(cs: ChoiceSystem) -> tuple[int, ...]:
    """Indicator of the slot-0 copy of the space inside the carrier."""
    return tuple(1 if n == 0 else 0 for _, n in cs.carrier)


def tau_character(cs: ChoiceSystem, s: Perm) -> Fraction:
    """<tau(s) xi0, xi0>: computed from the carrier permutation directly."""
    t = tau_representation(cs, s)
    carrier = cs.carrier
    hits = sum(
        1
        for i, (_, n) in enumerate(carrier)
        if n == 0 and carrier[t(i)][1] == 0
    )
    return Fraction(hits, cs.size)


# ---------------------------------------------------------------------------
# Invariant vectors on the carrier.


@dataclass(frozen=True)
class ExtractionRow:
    """An invariant-vector extraction: an E-invariant set and the constant
    number of E-classes its trace leaves in each ambient class it meets."""

    label: str
    a_set: tuple[int, ...]
    multiplicity: int
    measure: Fraction


@dataclass(frozen=True)
class InvariantReport:
    carrier_size: int
    components: tuple[tuple[tuple[int, int], ...], ...]
    basis_extractions: tuple[ExtractionRow, ...]
    ones_extraction: ExtractionRow
    average_vector: tuple[Fraction, ...]
    average_inner: Fraction
    min_phi: Fraction
    average_nonzero: bool
    average_extraction: ExtractionRow
    full_group_samples: int
    full_group_invariance: bool


def _extract(cs: ChoiceSystem, vec: Sequence[Fraction], label: str) -> ExtractionRow:
    """Extraction from a nonzero invariant vector: take the carrier points
    where |vec| peaks, collect the E-classes they point at, and keep the
    ambient classes where the per-point count is minimal. The result is
    E-invariant and leaves the same number of E-classes in every ambient
    class it meets."""
    carrier = cs.carrier
    peak = max(abs(v) for v in vec)
    if peak == 0:
        raise ValidationError("cannot extract from the zero vector")
    chosen = [i for i, v in enumerate(vec) if abs(v) == peak]
    per_class_count: dict[int, int] = {}
    per_class_eids: dict[int, set[int]] = {}
    per_point_count: dict[int, int] = {}
    for i in chosen:
        x, n = carrier[i]
        fid = cs.F.class_id(x)
        eid = cs.E.class_id(cs.choice(x, n))
        per_class_eids.setdefault(fid, set()).add(eid)
        per_point_count[x] = per_point_count.get(x, 0) + 1
    for fid, eids in per_class_eids.items():
        counts = {per_point_count.get(x, 0) for x in cs.F.classes[fid]}
        pointed = len(eids)
        if counts != {pointed}:
            raise CheckFailed("invariant vector has non-constant slot count on an ambient class")
        per_class_count[fid] = pointed
    m_val = min(per_class_count.values())
    pts: list[int] = []
    for fid, cnt in per_class_count.items():
        if cnt != m_val:
            continue
        for eid in per_class_eids[fid]:
            pts.extend(cs.E.classes[eid])
    a_set = tuple(sorted(pts))
    return ExtractionRow(label, a_set, m_val, Fraction(len(a_set), cs.size))


def invariant_analysis(cs: ChoiceSystem, action: FinAction) -> InvariantReport:
    """Invariant vectors of the carrier representation of an action.

    Requires the action's orbit relation to equal the ambient relation.
    The invariant subspace has a canonical basis: indicators of the
    connected components of the carrier under the generator maps. Each
    component is verified against its closed form (all carrier points
    over one ambient class pointing at one E-class), invariance is
    re-checked against sampled full-group elements, and each basis
    vector, the all-ones vector, and the exact group average of the
    base indicator are run through the extraction that produces an
    E-invariant set with constant class multiplicity.
    """
    if orbit_relation(action) != cs.F:
        raise ValidationError("action orbits differ from the ambient relation")
    carrier = cs.carrier
    comp_rel = EqRel.from_perms(
        len(carrier), (tau_representation(cs, g) for _, g in action.gens)
    )
    comps = comp_rel.classes
    # Closed form: the component of (x, n) is all (y, k) over [x]_F
    # pointing at the E-class of choice(x, n).
    for comp in comps:
        x0, n0 = carrier[comp[0]]
        eid = cs.E.class_id(cs.choice(x0, n0))
        expected = {
            i
            for i, (y, k) in enumerate(carrier)
            if cs.F.same(y, x0) and cs.E.class_id(cs.choice(y, k)) == eid
        }
        if set(comp) != expected:
            raise CheckFailed("carrier component differs from its closed form")

    rng = random.Random(2)
    samples = 20
    invariance_ok = True
    for _ in range(samples):
        t = tau_representation(cs, sample_full_group(cs.F, rng))
        if any(not comp_rel.same(t(i), i) for i in range(len(carrier))):
            invariance_ok = False

    basis_rows = []
    for ci, comp in enumerate(comps):
        members = set(comp)
        vec = [Fraction(1) if i in members else Fraction(0) for i in range(len(carrier))]
        basis_rows.append(_extract(cs, vec, f"component_{ci}"))
    ones = [Fraction(1)] * len(carrier)
    ones_row = _extract(cs, ones, "ones")

    closure = action.closure()
    counts = [Fraction(0)] * len(carrier)
    index = cs.carrier_index()
    phis = []
    for elem in closure:
        t = tau_representation(cs, elem.perm)
        for i, (_, n) in enumerate(carrier):
            if n == 0:
                counts[t(i)] += 1
        phis.append(phi(cs.E, elem.perm))
    avg = tuple(c / len(closure) for c in counts)
    base = xi0(cs)
    inner = tau_inner(cs, avg, base)
    mean_phi = sum(phis, Fraction(0)) / len(phis)
    if inner != mean_phi:
        raise CheckFailed("group average pairs with the base vector incorrectly")
    min_phi = min(phis)
    if inner < min_phi:
        raise CheckFailed("average pairing fell below the minimum capture value")
    avg_row = _extract(cs, avg, "average")
    return InvariantReport(
        carrier_size=len(carrier),
        components=tuple(
            tuple(sorted(carrier[i] for i in comp)) for comp in comps
        ),
        basis_extractions=tuple(basis_rows),
        ones_extraction=ones_row,
        average_vector=avg,
        average_inner=inner,
        min_phi=min_phi,
        average_nonzero=any(v != 0 for v in avg),
        average_extraction=avg_row,
        full_group_samples=samples,
        full_group_invariance=invariance_ok,
    )


# ---------------------------------------------------------------------------
# Minimum-index witnesses.


@dataclass(frozen=True)
class MinIndexReport:
    c: Fraction
    argmin_gamma: str
    m_star: int
    a_set: tuple[int, ...]
    a1_set: tuple[int, ...]
    a1_measure: Fraction
    per_class_index: tuple[tuple[int, int], ...]
    verdict: str
    a1_bound_ok: bool | None
    refined_set: tuple[int, ...] | None


def min_index_set(
    e_rel: EqRel, f_rel: EqRel, s: Perm, sp: Perm, action: FinAction
) -> MinIndexReport:
    """Index bound from a uniform lower capture bound.

    Computes c = min over closure elements g of phi(E, s*g*sp), the
    per-ambient-class index, the minimum index m*, and A = union of
    ambient classes attaining m*. Verdicts: "vacuous" when c = 0;
    "pass" when c > 0 and m* <= 1/c (then c > 1/2 forces m* = 1);
    "refined" when the ambient-class witness misses the bound, in which
    case refined_set is an E-invariant set meeting every ambient class
    in exactly one E-class (index 1 <= 1/c always). A1 is the union of
    index-1 ambient classes; when c > 3/4 its measure is checked
    against 4c - 3.
    """
    if orbit_relation(action) != f_rel:
        raise ValidationError("action orbits differ from the ambient relation")
    if not e_rel.refines(f_rel):
        raise ValidationError("every class of the finer relation must sit inside one ambient class")
    for name, p in (("first", s), ("second", sp)):
        if not in_full_group(f_rel, p):
            raise ValidationError(f"the {name} conjugating map must preserve each ambient class")
    # row g is the image table of s * g * sp; phi(E, row) is its count / m
    composed = np.asarray(s.images)[action.closure_images()[:, sp.images]]
    cid = e_rel.class_ids()
    counts = hit_counts(composed, cid, cid)
    best = int(np.argmin(counts))
    c = Fraction(int(counts[best]), e_rel.size)
    argmin = action.closure()[best].name

    per_class = []
    for cls in f_rel.classes:
        idx = len({e_rel.class_id(x) for x in cls})
        per_class.append((cls[0], idx))
    m_star = min(idx for _, idx in per_class)
    a_pts = []
    a1_pts = []
    for cls, (_, idx) in zip(f_rel.classes, per_class):
        if idx == m_star:
            a_pts.extend(cls)
        if idx == 1:
            a1_pts.extend(cls)
    a_set = tuple(sorted(a_pts))
    a1_set = tuple(sorted(a1_pts))
    a1_measure = Fraction(len(a1_set), f_rel.size)

    refined = None
    if c == 0:
        verdict = "vacuous"
        a1_ok = None
    else:
        bound_ok = m_star * c <= 1
        a1_ok = None
        if c > Fraction(3, 4):
            a1_ok = a1_measure >= 4 * c - 3
        if bound_ok and a1_ok is not False:
            verdict = "pass"
            if c > Fraction(1, 2) and m_star != 1:
                raise CheckFailed("capture above one half must force index one")
        else:
            verdict = "refined"
            pts: list[int] = []
            for cls in f_rel.classes:
                # largest E-class in the ambient class, ties to smallest minimum
                best = max(
                    sorted({e_rel.class_id(x) for x in cls}),
                    key=lambda eid: (len(e_rel.classes[eid]), -min(e_rel.classes[eid])),
                )
                pts.extend(e_rel.classes[best])
            refined = tuple(sorted(pts))
    return MinIndexReport(
        c=c,
        argmin_gamma=argmin,
        m_star=m_star,
        a_set=a_set,
        a1_set=a1_set,
        a1_measure=a1_measure,
        per_class_index=tuple(per_class),
        verdict=verdict,
        a1_bound_ok=a1_ok,
        refined_set=refined,
    )


# ---------------------------------------------------------------------------
# Separating families.


@dataclass(frozen=True)
class SeparationResult:
    kind: str  # "class_bound" | "maps" | "infeasible"
    a_set: tuple[int, ...] | None = None
    maps: tuple[Perm, ...] | None = None
    witness_class: tuple[int, ...] | None = None


def _slot_assignment(
    points: Sequence[int],
    cls_of: dict[int, int],
    sizes: Sequence[int],
    n: int,
) -> list[dict[int, int]] | None:
    """Assign each point n distinct target classes (none its own), one per
    slot, with each slot hitting class d exactly sizes[d] times."""
    n_cls = len(sizes)
    rem = [list(sizes) for _ in range(n)]
    assign: list[dict[int, int]] = [{} for _ in range(n)]
    pts = list(points)
    suffix_counts: list[dict[int, int]] = [dict() for _ in range(len(pts) + 1)]
    for i in range(len(pts) - 1, -1, -1):
        cnt = dict(suffix_counts[i + 1])
        cnt[cls_of[pts[i]]] = cnt.get(cls_of[pts[i]], 0) + 1
        suffix_counts[i] = cnt

    def slot_feasible(slot: int, start: int) -> bool:
        remaining = len(pts) - start
        if sum(rem[slot]) != remaining:
            return False
        cnt = suffix_counts[start]
        return all(
            rem[slot][d] <= remaining - cnt.get(d, 0) for d in range(n_cls)
        )

    def backtrack(idx: int) -> bool:
        if idx == len(pts):
            return True
        x = pts[idx]
        own = cls_of[x]

        def choose(slot: int, used: frozenset[int]) -> bool:
            if slot == n:
                return backtrack(idx + 1)
            for d in range(n_cls):
                if d == own or d in used or rem[slot][d] == 0:
                    continue
                rem[slot][d] -= 1
                assign[slot][x] = d
                if slot_feasible(slot, idx + 1) and choose(slot + 1, used | {d}):
                    return True
                rem[slot][d] += 1
                del assign[slot][x]
            return False

        return choose(0, frozenset())

    return assign if backtrack(0) else None


def separating_maps(e_rel: EqRel, f_rel: EqRel, n: int) -> SeparationResult:
    """Either a small-index set or a family of n+1 class-separating maps.

    First alternative: if some ambient class contains at most n
    E-classes, return the union of all such classes. Otherwise build
    maps T_0 = id, T_1, ..., T_n preserving every ambient class with
    T_i(x) and T_j(x) E-inequivalent for i != j: by index shift when
    the E-classes of an ambient class all have one size, by exact
    search otherwise. When no family exists the violating ambient
    class is returned as a certificate.
    """
    if n < 0:
        raise ValidationError("the family size must be nonnegative")
    if not e_rel.refines(f_rel):
        raise ValidationError("every class of the finer relation must sit inside one ambient class")
    m = e_rel.size
    low = [
        cls
        for cls in f_rel.classes
        if len({e_rel.class_id(x) for x in cls}) <= n
    ]
    if low:
        pts = tuple(sorted(x for cls in low for x in cls))
        return SeparationResult(kind="class_bound", a_set=pts)

    images = [list(range(m)) for _ in range(n + 1)]
    for cls in f_rel.classes:
        eids = sorted({e_rel.class_id(x) for x in cls})
        blocks = [e_rel.classes[eid] for eid in eids]
        sizes = [len(b) for b in blocks]
        total = len(cls)
        if len(set(sizes)) == 1:
            # index shift on the rotation order
            for i in range(1, n + 1):
                for k, block in enumerate(blocks):
                    target = blocks[(k + i) % len(blocks)]
                    for x, y in zip(block, target):
                        images[i][x] = y
            continue
        if any(n * sz > total - sz for sz in sizes):
            return SeparationResult(kind="infeasible", witness_class=cls)
        cls_of = {x: k for k, block in enumerate(blocks) for x in block}
        assign = _slot_assignment(sorted(cls), cls_of, sizes, n)
        if assign is None:
            return SeparationResult(kind="infeasible", witness_class=cls)
        for i in range(1, n + 1):
            taken: dict[int, int] = {}
            for x in sorted(cls):
                d = assign[i - 1][x]
                pos = taken.get(d, 0)
                images[i][x] = blocks[d][pos]
                taken[d] = pos + 1
    maps = tuple(Perm(img) for img in images)
    for t in maps:
        if not in_full_group(f_rel, t):
            raise CheckFailed("separating map left an ambient class")
    for x in range(m):
        hits = [e_rel.class_id(t(x)) for t in maps]
        if len(set(hits)) != len(hits):
            raise CheckFailed("separating maps collided on an E-class")
    return SeparationResult(kind="maps", maps=maps)


# ---------------------------------------------------------------------------
# Capture lower bound over a full group.


@dataclass(frozen=True)
class CaptureBoundReport:
    eps: Fraction
    bound: Fraction
    mode: str
    tested: int
    min_phi: Fraction
    argmin: tuple[int, ...]
    margin: Fraction
    verdict: str


def check_thm27(e_rel: EqRel, action: FinAction, cap: int | None = None) -> CaptureBoundReport:
    """Uniform capture lower bound over the ambient full group.

    With F the orbit relation of the action and E replaced by its meet
    with F, set eps = max over closure elements g of 1 - phi(E, g).
    Every ambient-class-preserving map S must then satisfy
    phi(E, S) >= 1 - 4*eps. The full group is enumerated when its size
    fits under the cap, otherwise sampled deterministically.
    """
    f_rel = orbit_relation(action)
    if e_rel.size != f_rel.size:
        raise ValidationError("relation size differs from the action space")
    e_meet = e_rel.meet(f_rel)
    m = e_rel.size
    cid = e_meet.class_ids()
    eps = 1 - Fraction(int(hit_counts(action.closure_images(), cid, cid).min()), m)
    bound = 1 - 4 * eps
    capn = get_cap("full_group", cap)
    if full_group_size(f_rel) <= capn:
        mode = "exhaustive"
        rows = full_group_table(f_rel, cap=capn)
    else:
        mode = "sampled"
        rng = random.Random(0)
        rows = np.array([sample_full_group(f_rel, rng).images for _ in range(500)], dtype=np.intp)
    counts = hit_counts(rows, cid, cid)
    k = int(np.argmin(counts))  # the first minimum
    best = Fraction(int(counts[k]), m)
    margin = best - bound
    return CaptureBoundReport(
        eps=eps,
        bound=bound,
        mode=mode,
        tested=len(rows),
        min_phi=best,
        argmin=tuple(rows[k].tolist()),
        margin=margin,
        verdict="pass" if margin >= 0 else "fail",
    )


# ---------------------------------------------------------------------------
# Merge links and evading maps.


def merge_links(e_rel: EqRel, f_rel: EqRel) -> list[PartialIso]:
    """Singleton partial maps that merge E to F, one less than the index
    per ambient class, linking consecutive E-class minima.

    The join of E with the returned links equals F, and the link mass
    accounts exactly for the cost difference of the two relations.
    """
    if not e_rel.refines(f_rel):
        raise ValidationError("every class of the finer relation must sit inside one ambient class")
    links: list[PartialIso] = []
    for cls in f_rel.classes:
        reps = sorted({min(e_rel.class_of(x)) for x in cls})
        for a, b in zip(reps, reps[1:]):
            links.append(PartialIso([(a, b)]))
    joined = e_rel.join_links(links)
    if joined != f_rel:
        raise CheckFailed("links do not merge the relation to its ambient")
    mass = Fraction(len(links), e_rel.size)
    if cost(f_rel) != cost(e_rel) + mass:
        raise CheckFailed("link mass does not account for the cost difference")
    for iso in links:
        if not iso.graph_inside(f_rel):
            raise CheckFailed("link leaves its ambient class")
    return links


@dataclass(frozen=True)
class Infeasible:
    witness_class: tuple[int, ...]


def evading_map(e_rel: EqRel, f_rel: EqRel) -> Perm | Infeasible:
    """An ambient-class-preserving map never landing in its argument's E-class.

    Exists per ambient class exactly when the largest E-class is no
    bigger than the rest combined; built by a block-cyclic shift. When
    that fails the violating class is returned. Ambient classes with a
    single E-class make the request impossible and raise instead.
    """
    if not e_rel.refines(f_rel):
        raise ValidationError("every class of the finer relation must sit inside one ambient class")
    images = list(range(e_rel.size))
    for cls in f_rel.classes:
        eids = sorted({e_rel.class_id(x) for x in cls})
        if len(eids) < 2:
            raise ValidationError(
                f"ambient class {cls} contains a single E-class; nothing can evade it"
            )
        blocks = sorted(
            (e_rel.classes[eid] for eid in eids),
            key=lambda b: (-len(b), b[0]),
        )
        s_max = len(blocks[0])
        if 2 * s_max > len(cls):
            return Infeasible(witness_class=cls)
        line = [x for b in blocks for x in b]
        for t, x in enumerate(line):
            images[x] = line[(t + s_max) % len(line)]
    result = Perm(images)
    if not in_full_group(f_rel, result):
        raise CheckFailed("evading map left an ambient class")
    if phi(e_rel, result) != 0:
        raise CheckFailed("evading map failed to vanish on capture")
    return result
