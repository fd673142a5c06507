"""Instance files: a JSON schema for finite spaces, permutations,
relations, and actions, plus seeded generators for standard families.

Documents are plain dicts; `load_instance` validates one into live
objects and stamps it with a canonical content hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .coinduce import FreeGroupAction, TargetAction
from .errors import ValidationError
from .ergcore import EqRel, FinAction, FinSpace, Perm, orbit_relation

KNOWN_CHECKS = ("rho_cocycle", "thm33_identity", "prop34_pairing")
GENERATE_KINDS = ("random_pair", "cyclic", "product", "coinduce_ready")


@dataclass(frozen=True)
class CoinduceSpec:
    a0: FreeGroupAction
    b0: FinAction
    a: TargetAction
    checks: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    doc: dict
    hash: str
    space: FinSpace
    perms: dict[str, Perm] = field(repr=False)
    relations: dict[str, EqRel] = field(repr=False)
    actions: dict[str, FinAction] = field(repr=False)
    coinduce: CoinduceSpec | None = None

    def perm(self, name: str) -> Perm:
        if name not in self.perms:
            raise ValidationError(f"instance has no permutation {name!r}")
        return self.perms[name]

    def relation(self, name: str) -> EqRel:
        if name not in self.relations:
            raise ValidationError(f"instance has no relation {name!r}")
        return self.relations[name]

    def action(self, name: str) -> FinAction:
        if name not in self.actions:
            raise ValidationError(f"instance has no action {name!r}")
        return self.actions[name]

    def ambient(self, action_name: str = "main") -> EqRel:
        """The declared ambient relation F, or the action's orbits."""
        if "F" in self.relations:
            return self.relations["F"]
        return orbit_relation(self.action(action_name))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    _require(
        isinstance(value, (list, tuple)) and all(_is_int(v) for v in value),
        f"{what} must be an array of integers",
    )
    return tuple(value)


def _name(value, what: str) -> None:
    _require(isinstance(value, str), f"{what} must be a name")


def load_instance(source) -> Instance:
    """Build live objects from a document (dict, JSON text, or a str or
    os.PathLike path).

    Any other source, and any malformed document, raises ValidationError.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        raise ValidationError(f"cannot load an instance from {type(source).__name__}")
    _require(isinstance(doc, dict), "instance document must be an object")
    _require("space" in doc, "instance is missing the space block")
    space_blk = doc["space"]
    _require(
        isinstance(space_blk, dict) and _is_int(space_blk.get("size")),
        "space.size must be an integer",
    )
    space = FinSpace(space_blk["size"])
    m = space.size

    perms: dict[str, Perm] = {}
    for name, images in _object(doc.get("perms", {}), "perms").items():
        perms[name] = Perm(_ints(images, f"perm {name!r}"))
        _require(perms[name].size == m, f"perm {name!r} acts on the wrong space")

    relations: dict[str, EqRel] = {}
    for name, classes in _object(doc.get("relations", {}), "relations").items():
        _require(isinstance(classes, list), f"relation {name!r} must be a class list")
        relations[name] = EqRel(m, [_ints(c, f"a class of relation {name!r}") for c in classes])

    actions: dict[str, FinAction] = {}
    for name, blk in _object(doc.get("actions", {}), "actions").items():
        _require(isinstance(blk, dict), f"action {name!r} must be an object")
        gen_names = blk.get("generators")
        inverses = blk.get("inverses")
        _require(isinstance(gen_names, list) and gen_names, f"action {name!r} needs generators")
        _require(isinstance(inverses, dict), f"action {name!r} needs an inverse pairing")
        for label in inverses.values():
            _name(label, f"an inverse label of action {name!r}")
        gens = []
        for g in gen_names:
            _name(g, f"a generator of action {name!r}")
            _require(g in perms, f"action {name!r} references unknown perm {g!r}")
            gens.append((g, perms[g]))
        actions[name] = FinAction(space, gens, dict(inverses))

    coinduce = None
    if "a0" in doc or "b0" in doc or "a" in doc:
        for key in ("a0", "b0", "a"):
            _require(key in doc, f"co-induction block is missing {key!r}")
        a0_blk = _object(doc["a0"], "a0")
        b0_blk = _object(doc["b0"], "b0")
        a_blk = _object(doc["a"], "a")
        for key, blk in (("a0", a0_blk), ("b0", b0_blk)):
            action = blk.get("action")
            _require(
                isinstance(action, str) and action in actions,
                f"{key} references an unknown action",
            )
        a0 = FreeGroupAction(actions[a0_blk["action"]])
        if a0_blk.get("free") is False:
            raise ValidationError("a0 must be declared free")
        b0 = actions[b0_blk["action"]]
        _require(_is_int(a_blk.get("target_size")), "a.target_size must be an integer")
        images = {
            name: Perm(_ints(arr, f"image of {name!r}"))
            for name, arr in _object(a_blk.get("images", {}), "a.images").items()
        }
        target = TargetAction(a0, FinSpace(a_blk["target_size"]), images)
        checks = doc.get("checks", list(KNOWN_CHECKS))
        _require(isinstance(checks, (list, tuple)), "checks must be a list")
        for c in checks:
            _require(c in KNOWN_CHECKS, f"unknown check {c!r}")
        coinduce = CoinduceSpec(a0=a0, b0=b0, a=target, checks=tuple(checks))

    return Instance(
        doc=doc,
        hash=instance_hash(doc),
        space=space,
        perms=perms,
        relations=relations,
        actions=actions,
        coinduce=coinduce,
    )


# -- generators ----------------------------------------------------------------


def _shift_images(m: int, step: int) -> list[int]:
    return [(x + step) % m for x in range(m)]


def _pair_action_block(label: str, inv_label: str | None) -> dict:
    if inv_label is None:
        return {"generators": [label], "inverses": {label: label}}
    return {
        "generators": [label, inv_label],
        "inverses": {label: inv_label, inv_label: label},
    }


def make_cyclic(size: int) -> dict:
    """Rotation action of Z/size with the parity relation (size even)."""
    if size < 2 or size % 2 != 0:
        raise ValidationError("cyclic instances need an even size of at least 2")
    doc = {
        "space": {"size": size},
        "perms": {
            "g": _shift_images(size, 1),
            "g_inv": _shift_images(size, -1),
        },
        "relations": {
            "E": [
                sorted(range(0, size, 2)),
                sorted(range(1, size, 2)),
            ],
            "F": [list(range(size))],
        },
        "actions": {"main": _pair_action_block("g", "g_inv")},
    }
    if size == 2:
        doc["perms"] = {"g": _shift_images(2, 1)}
        doc["actions"] = {"main": _pair_action_block("g", None)}
    return doc


def make_random_pair(size: int, seed: int) -> dict:
    """A random nested pair E inside F with homogeneous class sizes.

    F splits the space into equal classes; E splits every F-class into
    the same number of equal parts. The action is an independent cycle
    on each F-class, so its orbits are exactly F.
    """
    if size < 2:
        raise ValidationError("random pairs need at least two points")
    rng = random.Random(seed)
    class_sizes = [s for s in range(2, size + 1) if size % s == 0]
    f_size = rng.choice(class_sizes)
    splits = [d for d in range(1, f_size + 1) if f_size % d == 0]
    e_parts = rng.choice(splits)
    points = list(range(size))
    rng.shuffle(points)
    f_classes = [points[i : i + f_size] for i in range(0, size, f_size)]
    e_classes = []
    part = f_size // e_parts
    for cls in f_classes:
        for j in range(0, f_size, part):
            e_classes.append(sorted(cls[j : j + part]))
    images = [0] * size
    for cls in f_classes:
        for i, x in enumerate(cls):
            images[x] = cls[(i + 1) % f_size]
    perm = Perm(tuple(images))
    doc = {
        "space": {"size": size},
        "perms": {"g": list(perm.images)},
        "relations": {
            "E": sorted(e_classes),
            "F": sorted(sorted(c) for c in f_classes),
        },
        "actions": {},
    }
    if perm == perm.inverse():
        doc["actions"]["main"] = _pair_action_block("g", None)
    else:
        doc["perms"]["g_inv"] = list(perm.inverse().images)
        doc["actions"]["main"] = _pair_action_block("g", "g_inv")
    return doc


def make_product(size_a: int, size_b: int) -> dict:
    """Commuting rotations on Z/a x Z/b; E fixes the first coordinate."""
    if size_a < 2 or size_b < 2:
        raise ValidationError("product factors need at least two points each")
    m = size_a * size_b

    def enc(x: int, y: int) -> int:
        return x * size_b + y

    ga = [enc((x + 1) % size_a, y) for x in range(size_a) for y in range(size_b)]
    gb = [enc(x, (y + 1) % size_b) for x in range(size_a) for y in range(size_b)]
    doc = {
        "space": {"size": m},
        "perms": {"ga": ga, "gb": gb},
        "relations": {
            "E": [
                [enc(x, y) for y in range(size_b)] for x in range(size_a)
            ],
            "F": [list(range(m))],
        },
        "actions": {},
    }
    perms = doc["perms"]
    gens = []
    inverses = {}
    for label in ("ga", "gb"):
        p = Perm(tuple(perms[label]))
        if p == p.inverse():
            gens.append(label)
            inverses[label] = label
        else:
            inv_label = label + "_inv"
            perms[inv_label] = list(p.inverse().images)
            gens.extend([label, inv_label])
            inverses[label] = inv_label
            inverses[inv_label] = label
    order = [g for g in ("ga", "ga_inv", "gb", "gb_inv") if g in set(gens)]
    doc["actions"]["main"] = {"generators": order, "inverses": inverses}
    return doc


def make_coinduce_ready(size: int, index: int) -> dict:
    """Rotation of Z/size over the subgroup generated by +index.

    The subaction is free with constant index by construction, and the
    target is the quotient rotation on Z/(size//index).
    """
    if size < 2 or index < 1 or size % index != 0:
        raise ValidationError("co-induction instances need index dividing the size")
    q = size // index
    doc = {
        "space": {"size": size},
        "perms": {"g": _shift_images(size, 1), "d": _shift_images(size, index)},
        "relations": {},
        "actions": {
            "main": _pair_action_block("g", None if size == 2 else "g_inv"),
            "sub": _pair_action_block("d", None if q == 2 or q == 1 else "d_inv"),
        },
        "a0": {"action": "sub", "free": True},
        "b0": {"action": "main"},
        "a": {
            "target_size": q,
            "images": {f"d^{t}": _shift_images(q, t) for t in range(q)},
        },
        "checks": list(KNOWN_CHECKS),
    }
    if size != 2:
        doc["perms"]["g_inv"] = _shift_images(size, -1)
    if q not in (1, 2):
        doc["perms"]["d_inv"] = _shift_images(size, -index)
    return doc


def _size_parts(kind: str, size, n: int) -> list[int]:
    """`size` as n integers: an int, or a tuple, list or 'a,b' string of n parts."""
    parts = list(size) if isinstance(size, (tuple, list)) else str(size).split(",")
    if len(parts) == n:
        try:
            return [int(v) for v in parts]
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{kind} size must be {n} integer(s), not {size!r}")


def generate(kind: str, size, seed: int = 0) -> dict:
    """Build one instance document of the named family, reproducibly."""
    if kind == "cyclic":
        (n,) = _size_parts(kind, size, 1)
        return make_cyclic(n)
    if kind == "random_pair":
        (n,) = _size_parts(kind, size, 1)
        return make_random_pair(n, seed)
    if kind == "product":
        return make_product(*_size_parts(kind, size, 2))
    if kind == "coinduce_ready":
        return make_coinduce_ready(*_size_parts(kind, size, 2))
    raise ValidationError(f"unknown instance kind {kind!r}")


def rational_str(value) -> str:
    """Serialize exact numbers as 'p' or 'p/q'."""
    return str(Fraction(value))


def rational_map(values: Mapping) -> dict:
    return {k: rational_str(v) for k, v in values.items()}
