"""Spectral-gap arithmetic and certificates from finite representations.

Closed-form calculators stay in binary64 unless every input is rational
and the formula is rational, in which case they compute exactly.
Representation-level quantities (averaging operator norm, invariant
subspace) come from finite linear algebra with stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CheckFailed, ValidationError
from .ergcore import FinAction, GramCertificate, Perm, gram_check, hit_counts
from .coinduce import FreeGroupAction

_SQRT2 = math.sqrt(2.0)
_ORTHO_TOL = 1e-12


def _is_rational(v) -> bool:
    return isinstance(v, (int, Fraction))


def _check_eps(eps, positive: bool) -> None:
    if _is_rational(eps):
        ok = (eps > 0 if positive else eps >= 0) and Fraction(eps) ** 2 <= 2
    else:
        e = float(eps)
        ok = (e > 0 if positive else e >= 0) and e <= _SQRT2
    if not ok:
        hi = "sqrt(2)"
        lo = "(0," if positive else "[0,"
        raise ValidationError(f"constant must lie in {lo} {hi}]")


@dataclass(frozen=True)
class KazhdanPair:
    """Generator count and gap constant, with 0 < eps <= sqrt(2)."""

    k: int
    eps: float

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("generator count must be positive")
        _check_eps(self.eps, positive=True)


def amplify(pair: KazhdanPair, n: int) -> float:
    """Gap constant for the n-fold generator power:
    sqrt(2*(1 - ((k - eps^2/2)/k)^n)). Non-decreasing in n, limit sqrt(2)."""
    if n < 1:
        raise ValidationError("power must be at least 1")
    k = pair.k
    e = float(pair.eps)
    ratio = (k - e * e / 2.0) / k
    return math.sqrt(2.0 * (1.0 - ratio**n))


_SELECTORS = ("eps_n", "pu", "cost_a", "cost_b", "cost_c")


def bounds(selector: str, n: int, eps):
    """Closed-form bound value for the chosen selector.

    eps_n ignores eps and is always a float; the other selectors are
    rational in eps^2 and return a Fraction when eps is rational.
    cost selectors are upper bounds read against the trivial band
    [1, n) from cost_band.
    """
    if selector not in _SELECTORS:
        raise ValidationError(f"unknown selector {selector!r}")
    if n < 1:
        raise ValidationError("the parameter n must be at least 1")
    if selector == "eps_n":
        return _SQRT2 * math.sqrt((2 * n - 1) / (2 * n + 1))
    _check_eps(eps, positive=False)
    rational = _is_rational(eps)
    e2 = Fraction(eps) ** 2 if rational else float(eps) ** 2
    if selector == "pu":
        val = 1 - e2 / 2
    elif selector == "cost_a":
        gap = Fraction(n - 1, 2 * n - 1) if rational else (n - 1) / (2 * n - 1)
        val = n * (1 - e2 / 2) + gap
    elif selector == "cost_b":
        val = n - (n - 1) * e2 / 8
    else:  # cost_c
        val = n - e2 / 2
    return val


def cost_band(n: int) -> tuple[int, int]:
    """The trivial cost band [1, n) accompanying every cost selector."""
    if n < 1:
        raise ValidationError("the parameter n must be at least 1")
    return (1, n)


def cor54_thresholds(eps):
    """The capture thresholds 1 - eps^2/2**j for j = 1..4.

    Listed from weakest to strictest; they are strictly increasing for
    every admissible eps, so the guarantees they select are nested.
    """
    _check_eps(eps, positive=True)
    e2 = Fraction(eps) ** 2 if _is_rational(eps) else float(eps) ** 2
    return tuple(1 - e2 / d for d in (2, 4, 8, 16))


def cor54_tier(c, eps) -> int:
    """How many capture thresholds the value c clears (0 to 4).

    Tier j means c > 1 - eps^2/2**j; since the thresholds increase in
    j, the count is the strongest guarantee tier that applies: 1 gives
    a finite-index invariant set, 2 bounds the index by 1/c, 3 forces
    index one, 4 adds the mass bound 4c - 3 on the index-one part.
    """
    tier = 0
    for j, t in enumerate(cor54_thresholds(eps), start=1):
        if c > t:
            tier = j
    return tier


# -- positive-definite table check ------------------------------------------------


@dataclass(frozen=True)
class Prop53Report:
    verdict: str  # PASS | VACUOUS | COUNTEREXAMPLE
    hypothesis_threshold: float
    conclusion_threshold: float
    min_over_q: float
    min_over_all: float
    witness: str | None


def prop53_check(
    phi_table: Mapping[str, complex],
    q: Iterable[str],
    eps,
    delta,
    identity: str = "1",
) -> Prop53Report:
    """Near-invariance propagation for a positive-definite table.

    If the real part of the table is at least 1 - delta^2*eps^2/2 on q,
    it must be at least 1 - 2*delta^2 everywhere. A table that meets
    the hypothesis but breaks the conclusion cannot come from a group
    with gap constant eps over q, so it is flagged COUNTEREXAMPLE as a
    diagnostic rather than rejected.
    """
    _check_eps(eps, positive=True)
    if not float(delta) > 0:
        raise ValidationError("delta must be positive")
    if identity not in phi_table:
        raise ValidationError(f"table has no identity entry {identity!r}")
    if complex(phi_table[identity]) != 1:
        raise ValidationError("the table value at the identity must be 1")
    q = tuple(q)
    missing = [name for name in q if name not in phi_table]
    if missing:
        raise ValidationError(f"names outside the table: {missing}")
    if not q:
        raise ValidationError("the generator set is empty")
    e = float(eps)
    d = float(delta)
    hyp = 1.0 - d * d * e * e / 2.0
    conc = 1.0 - 2.0 * d * d
    min_q = min(complex(phi_table[name]).real for name in q)
    min_all = min(complex(v).real for v in phi_table.values())
    if min_q < hyp:
        return Prop53Report("VACUOUS", hyp, conc, min_q, min_all, None)
    if min_all >= conc:
        return Prop53Report("PASS", hyp, conc, min_q, min_all, None)
    witness = min(
        (name for name, v in phi_table.items() if complex(v).real < conc),
        key=lambda name: complex(phi_table[name]).real,
    )
    return Prop53Report("COUNTEREXAMPLE", hyp, conc, min_q, min_all, witness)


# -- finite representations ---------------------------------------------------------


class FiniteRep:
    """A representation of the closure of a FinAction, either by
    permutations (exact) or by orthogonal matrices (tolerance 1e-12).

    The images are kept in closure order, permutations as N image rows
    and matrices as one (N, d, d) stack; `apply`, `matrix` and
    `invariant_basis` read a name's row by its closure index. Images
    passed in are validated as a homomorphism: permutations on the step
    table (`FinAction.first_broken_step`), matrices over every pair of
    closure elements, as a per-pair tolerance does not compose along
    words. `natural` wraps the closure's own image tuples and `regular`
    the N x N product table: both are homomorphisms by construction,
    skip that check and copy no image.
    """

    def __init__(self, action: FinAction, images: Mapping):
        closure = action.closure()
        if set(images) != {e.name for e in closure}:
            raise ValidationError("images must cover the closure exactly")
        kinds = {isinstance(v, Perm) for v in images.values()}
        if len(kinds) != 1:
            raise ValidationError("images must be all permutations or all matrices")
        if kinds.pop():
            if len({v.size for v in images.values()}) != 1:
                raise ValidationError("images act on different dimensions")
            self._adopt(action, "perm", np.array([images[e.name].images for e in closure]))
            broken = action.first_broken_step(self._images)
            if broken is not None:
                g, e = (closure[i].name for i in broken)
                raise ValidationError(f"images break multiplicativity at ({g}, {e})")
            return
        mats = []
        for name, v in images.items():
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError(f"image of {name!r} is not square")
            if mats and arr.shape != mats[0].shape:
                raise ValidationError("images act on different dimensions")
            if np.abs(arr.T @ arr - np.eye(len(arr))).max() > _ORTHO_TOL:
                raise ValidationError(f"image of {name!r} is not orthogonal")
            mats.append(arr)
        order = [action.index_of(action.element(name).perm) for name in images]
        self._adopt(action, "matrix", np.array(mats)[np.argsort(order)])
        self._sum_order = order  # the group average adds the images as given
        # raise at the first pair (e_i, e_j), in closure order, where the
        # image of e_i * e_j is not the product of their images
        products, imgs = action.product_table(), self._images
        for i, e1 in enumerate(closure):
            broken = np.abs(imgs[i] @ imgs - imgs[products[i]]).max(axis=(1, 2)) > _ORTHO_TOL
            bad = np.flatnonzero(broken)
            if bad.size:
                raise ValidationError(
                    f"images break multiplicativity at ({e1.name}, {closure[bad[0]].name})"
                )

    def _adopt(self, action: FinAction, kind: str, images: Sequence) -> None:
        """Take images[i] as the image of closure element i."""
        self.action = action
        self.kind = kind
        self.dimension = len(images[0])
        self._images = images
        self._sum_order: Sequence[int] = range(len(images))
        self._inv_basis: np.ndarray | None = None

    @classmethod
    def _homomorphism(cls, action: FinAction, rows: Sequence) -> "FiniteRep":
        """A permutation representation whose rows form a homomorphism by
        how they were built, so the N^2 pair check is skipped."""
        rep = cls.__new__(cls)
        rep._adopt(action, "perm", rows)
        return rep

    @staticmethod
    def natural(action: FinAction) -> "FiniteRep":
        """Each element acts by its own permutation of the space."""
        return FiniteRep._homomorphism(action, [e.perm.images for e in action.closure()])

    @staticmethod
    def regular(action: FinAction) -> "FiniteRep":
        """Left translation on the closure itself: element i acts by row i
        of the product table, and e_i e_j acts by the composite since the
        product is associative."""
        return FiniteRep._homomorphism(action, action.product_table())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.action.closure())

    @property
    def identity_name(self) -> str:
        return self.action.closure()[0].name

    def inverse_name(self, name: str) -> str:
        return self.action.element_of(self.action.element(name).perm.inverse()).name

    def _image(self, name: str):
        return self._images[self.action.index_of(self.action.element(name).perm)]

    def apply(self, name: str, vec: np.ndarray) -> np.ndarray:
        img = self._image(name)
        if self.kind == "perm":
            out = np.empty_like(vec)
            out[np.asarray(img)] = vec
            return out
        return img @ vec

    def matrix(self, name: str) -> np.ndarray:
        img = self._image(name)
        if self.kind == "matrix":
            return img
        mat = np.zeros((self.dimension, self.dimension))
        mat[np.asarray(img), np.arange(self.dimension)] = 1.0
        return mat

    def invariant_basis(self) -> np.ndarray:
        """Orthonormal basis of the fixed subspace, (dimension, r).

        For permutation images this is exact: normalized indicators of
        the orbits of the image, which the action reads off the
        generators' rows. For matrices it is read from the spectrum of
        the group average.
        """
        if self._inv_basis is not None:
            return self._inv_basis
        d = self.dimension
        if self.kind == "perm":
            comps = self.action.image_orbits(self._images).classes
            basis = np.zeros((d, len(comps)))
            for c, members in enumerate(comps):
                basis[members, c] = 1.0 / math.sqrt(len(members))
        else:
            avg = np.zeros((d, d))
            for k in self._sum_order:
                avg += self._images[k]
            avg /= len(self._images)
            vals, vecs = np.linalg.eigh(avg)
            keep = vals > 0.5  # spectrum is {0, 1} up to tolerance
            basis = vecs[:, keep]
            if keep.any() and np.abs(avg @ basis - basis).max() > 1e-8:
                raise CheckFailed("group average is not a clean projection")
        self._inv_basis = basis
        return basis


@dataclass(frozen=True)
class AveragingReport:
    norm: float
    eps_cap: float
    k: int
    invariant_dimension: int
    iterations: int  # always 0: the norm comes from an eigensolve, not an iteration


def averaging_norm(rep: FiniteRep, q: Sequence[str]) -> AveragingReport:
    """Operator norm of the generator average T = (1/k) sum over q of the
    images on the complement of the fixed subspace, and the
    per-representation cap min(sqrt(2), sqrt(2k(1 - norm))) on any gap
    constant valid for q against this representation.

    q is symmetric and the images are orthogonal, so T is symmetric: the
    norm is the largest |eigenvalue| of T compressed to an orthonormal
    basis of the complement, from a dense symmetric eigensolve. No
    iteration runs, so `iterations` is 0.
    """
    q = list(q)
    names = set(rep.names)
    for name in q:
        if name not in names:
            raise ValidationError(f"generator {name!r} is outside the group")
    if len(set(q)) != len(q):
        raise ValidationError("generator list has repeats")
    if rep.identity_name not in q:
        raise ValidationError("the generator set must contain the identity")
    for name in q:
        if rep.inverse_name(name) not in q:
            raise ValidationError(f"generator set is not symmetric at {name!r}")
    k = len(q)
    basis = rep.invariant_basis()
    d = rep.dimension
    inv_dim = basis.shape[1]
    if inv_dim >= d:
        return AveragingReport(0.0, _SQRT2, k, inv_dim, 0)
    t_mat = sum(rep.matrix(name) for name in q) / k
    if inv_dim:
        # the basis is orthonormal, so the right singular vectors past its
        # rank are an orthonormal basis of the complement
        comp = np.linalg.svd(basis.T)[2][inv_dim:].T
        t_mat = comp.T @ t_mat @ comp
    # matrix images are orthogonal only to within _ORTHO_TOL
    norm = float(np.abs(np.linalg.eigvalsh((t_mat + t_mat.T) / 2)).max())
    eps_cap = min(_SQRT2, math.sqrt(max(0.0, 2.0 * k * (1.0 - norm))))
    return AveragingReport(norm, eps_cap, k, inv_dim, 0)


# -- transfer of positive-definite functions ------------------------------------------


@dataclass(frozen=True)
class TransferredForm:
    values: dict
    certificate: GramCertificate


def _inverse_gram(action: FinAction, values: Sequence) -> list[list]:
    """The Gram matrix [values[e_i^-1 * e_j]] of a table listed in closure
    order, read off the product table (the identity is element 0)."""
    products = action.product_table()
    inverse = np.argmin(products, axis=1).tolist()
    return [[values[k] for k in products[i].tolist()] for i in inverse]


def pd_transfer(
    psi: Mapping[str, object],
    a0: FreeGroupAction,
    action: FinAction,
    certify_input: bool = False,
) -> TransferredForm:
    """Push a positive-definite table on the small group to the large
    one: phi(g) = sum over d of psi(d) * measure{x : g x = d x}.

    Both actions must move the same space. A positive-definite table
    has psi(g^-1) = psi(g), so a table that breaks this is refused,
    naming g, before any Gram check. The output table is certified
    positive by an exact Gram check over the closure of the large action.
    """
    if a0.base.space.size != action.space.size:
        raise ValidationError("the two actions live on different spaces")
    names = {e.name for e in a0.elements}
    if set(psi) != names:
        raise ValidationError("table must be keyed by the small group exactly")
    m = action.space.size
    weights = {e.name: Fraction(psi[e.name]) for e in a0.elements}
    for name, w in weights.items():
        inv = a0.inverse_name(name)
        if weights[inv] != w:
            raise ValidationError(
                f"table is not symmetric: psi({name}) != psi({inv}), the value at its inverse"
            )
    if certify_input:
        cert = gram_check(_inverse_gram(a0.base, list(weights.values())), "positive")
        if not cert.ok:
            raise ValidationError("input table is not positive-definite")
    # phi(g) = sum over d of psi(d) * #{x : g x = d x} / m, summed over
    # psi's common denominator: one Fraction per closure element
    scale = math.lcm(1, *(w.denominator for w in weights.values()))
    numerators = np.array(
        [w.numerator * (scale // w.denominator) for w in weights.values()], dtype=object
    )
    images = action.closure_images()
    agree = np.array([hit_counts(images, row) for row in a0.base.closure_images()], dtype=object)
    closure = action.closure()
    phis = [Fraction(int(v), scale * m) for v in numerators @ agree]
    values = {e.name: v for e, v in zip(closure, phis)}
    cert = gram_check(_inverse_gram(action, phis), "positive")
    if not cert.ok:
        raise CheckFailed("transferred table failed the positivity certificate")
    return TransferredForm(values=values, certificate=cert)
