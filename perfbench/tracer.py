"""Span recorder that wraps erglab callables from outside the package.

Nothing under src/ knows about tracing. `Tracer.install` replaces each
traced callable in every erglab namespace that binds it (the CLI imports
`cayley_ball` and `sweep` by name, so patching only the defining module
would miss its calls) and `Tracer.restore` puts the originals back.

Spans live in flat arrays (name id, start, end, parent, op id) so that a
few hundred thousand of them cost a few megabytes; they are written out
once, at the end, by `Tracer.save`.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = (
    "percolation",
    "rng",
    "coinduce",
    "subrel",
    "ergcore",
    "kazhdan",
    "instances",
    "verify",
    "cli",
)

# Public module-level functions of the layer modules get a span each.
# These run too often per op for a span apiece; they only count calls.
COUNT_ONLY_FUNCTIONS = frozenset({"ergcore.in_full_group"})

# Methods are not found by scanning: only these are wrapped. The value is
# the counter key for count-only methods and None for spanned ones.
METHODS = {
    ("percolation", "CayleyBall", "forest_structure"): None,
    ("coinduce", "CoinducedSystem", "product_perm"): None,
    ("coinduce", "CoinducedSystem", "rho"): None,
    ("coinduce", "CoinducedSystem", "decode"): "coinduce.CoinducedSystem.decode.calls",
    ("coinduce", "FreeGroupAction", "orbit_relation"): "coinduce.FreeGroupAction.orbit_relation.calls",
    ("kazhdan", "FiniteRep", "invariant_basis"): None,
    ("ergcore", "Perm", "__init__"): "ergcore.Perm.constructions",
}

# Callables defined outside erglab that a layer calls through its own
# namespace: scipy's labeller is the percolation layer's cluster engine.
FOREIGN = (("percolation", "connected_components"),)

AVERAGING_CEILING = 100_000  # kazhdan.averaging_norm's iteration limit


def _observe_ball(counts, ball) -> None:
    counts["percolation.cayley_ball.vertices"] += ball.vertex_count


def _observe_uniforms(counts, draws) -> None:
    counts["rng.uniforms.draws"] += len(draws)


def _observe_averaging(counts, report) -> None:
    counts["kazhdan.averaging_norm.iterations"] += report.iterations
    if report.iterations >= AVERAGING_CEILING:
        counts["kazhdan.averaging_norm.unconverged"] += 1


def _observe_coinduced(counts, system) -> None:
    counts["coinduce.systems"] += 1
    counts["coinduce.materialized"] += bool(system.materialized)
    counts["coinduce.product_points"] += system.product_size


OBSERVERS = {
    "percolation.cayley_ball": _observe_ball,
    "rng.uniforms": _observe_uniforms,
    "kazhdan.averaging_norm": _observe_averaging,
    "coinduce.coinduced_action": _observe_coinduced,
}


def erglab_modules() -> dict:
    """Every imported erglab module by name, the package itself included."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "erglab" or name.startswith("erglab.")
    }


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: collections.Counter = collections.Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self._clock()
        self._stack.pop()

    def span_wrapper(self, fn, name: str):
        nid = self._name(name)
        calls = name + ".calls"
        counts = self.counts
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            elements = name + ".elements"

            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    counts[elements] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def count_wrapper(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced callables wherever an erglab namespace binds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = erglab_modules()
        wrappers: dict[int, object] = {}
        for short in LAYER_MODULES:
            mod = mods["erglab." + short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY_FUNCTIONS:
                    wrappers[id(obj)] = self.count_wrapper(obj, name + ".calls")
                else:
                    wrappers[id(obj)] = self.span_wrapper(obj, name)
        for short, attr in FOREIGN:
            obj = getattr(mods["erglab." + short], attr)
            wrappers[id(obj)] = self.span_wrapper(obj, f"{short}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for (short, cls_name, meth), key in METHODS.items():
            cls = getattr(mods["erglab." + short], cls_name)
            orig = cls.__dict__[meth]
            if key is None:
                wrapped = self.span_wrapper(orig, f"{short}.{cls_name}.{meth}")
            else:
                wrapped = self.count_wrapper(orig, key)
            self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original the last install replaced."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        totals = np.bincount(a["name_id"], weights=own, minlength=len(self.names))
        return {name: float(totals[i]) / 1e9 for i, name in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans nested, at any depth, inside an `ancestor` span."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        a = self.arrays()
        inside = descendants_of(a["parent"], a["name_id"] == self._ids[ancestor])
        return int(np.count_nonzero(inside & (a["name_id"] == self._ids[name])))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so children of a span never overlap and
    lie inside it; their durations add up to the covered time.
    """
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def descendants_of(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Mask of spans with an ancestor in `roots` (the roots themselves excluded)."""
    inside = np.zeros(len(parent), dtype=bool)
    nested = parent >= 0
    while True:
        nxt = np.zeros_like(inside)
        nxt[nested] = roots[parent[nested]] | inside[parent[nested]]
        if np.array_equal(nxt, inside):
            return inside
        inside = nxt
