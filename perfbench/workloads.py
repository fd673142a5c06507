"""The four workloads: inputs drawn from the workload seed, and op lists.

An op is one `erglab` command line. Every input the program sees is a
file written here with the public `erglab.instances` generators or an
argv value drawn from the seed; NOTES.md says why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TREE_GRID = "0.25,0.28,0.31,0.34,0.37,0.40,0.45"
LATTICE_GRID = "0.40,0.44,0.47,0.50,0.53,0.56,0.60"
LATTICE_TARGETS = "1,0;0,1;8,8"

# Every timed op takes under a second, so a run repeats each op many times
# and the calibration loop around each repetition can follow the host's
# speed phases (NOTES.md).
TREE_RADIUS = 10  # 118,097 vertices
TREE_TRIALS = 4
LATTICE_TRIALS = 50
PERCOLATE_OPS = 3
PERCOLATE_TRIALS = 50

# Materialized co-induction pairs (m, idx), grouped into tiers of similar
# cost on the parent commit, with how many pairs to draw from each. The
# tiers make every seed run nearly the same mix of small and large
# products, so the pass time does not follow the seed. (8, 8) and (12, 2)
# have no peers of similar cost and run on every seed.
COINDUCE_TIERS = (
    (2, ((8, 2), (6, 6), (10, 1))),
    (3, ((10, 2), (8, 4), (12, 1), (9, 3))),
    (2, ((8, 8), (12, 2))),
)
# The factorized pair (m, m/2): its cost doubles with each step in m, so
# it is fixed rather than drawn.
FACTORIZED_PAIRS = ((12, 6),)
FACTORIZED_CAPS = "product=1"  # the documented override: never build the product

# suite -> (count, size). A suite's instance sizes are drawn from 2..size,
# and its cost grows steeply with size, so a few large draws would decide
# the pass time. Small sizes with large counts keep the time of each suite
# nearly the same from seed to seed.
VERIFY_SUITES = {
    "definiteness": (100, 5),
    "prop11": (500, 5),
    "cocycle": (4, 6),  # half its instances are co-inductions of any size
    "thm25": (400, 8),
    "thm27": (300, 5),
    "coinduce_identities": (40, 4),
    "phi_correspondence": (150, 10),
    "length": (6000, 8),
    "kazhdan_forms": (600, 5),
}

WORKLOADS = ("sweep_tree", "sweep_lattice", "coinduce_batch", "verify_suites")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the report file it writes."""

    label: str
    argv: tuple[str, ...]
    out: Path
    caps: str | None = None  # ERGLAB_CAPS while the op runs


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _write_instance(instances, path: Path, m: int, idx: int) -> Path:
    doc = instances.generate("coinduce_ready", (m, idx))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def build(workload: str, seed: int, workdir: Path, instances) -> tuple[Op, list[Op]]:
    """Write the inputs of `workload` under `workdir`; return (warm-up op, timed ops).

    `instances` is the `erglab.instances` module of the checkout under test.
    """
    rng = random.Random(seed)
    out = workdir / "out"
    inp = workdir / "in"
    out.mkdir(parents=True, exist_ok=True)
    inp.mkdir(parents=True, exist_ok=True)
    if workload == "sweep_tree":
        s = _seed(rng)
        warm = Op("warmup", ("sweep", "--model", "f2", "--radius", "6", "--grid", TREE_GRID,
                             "--trials", "2", "--seed", s, "--out", str(out / "warmup.csv")),
                  out / "warmup.csv")
        ops = [Op("sweep", ("sweep", "--model", "f2", "--radius", str(TREE_RADIUS),
                            "--grid", TREE_GRID,
                            "--trials", str(TREE_TRIALS), "--seed", s,
                            "--out", str(out / "sweep.csv")), out / "sweep.csv")]
        return warm, ops
    if workload == "sweep_lattice":
        s = _seed(rng)
        warm = Op("warmup", ("sweep", "--model", "z2", "--radius", "16", "--grid", LATTICE_GRID,
                             "--targets", LATTICE_TARGETS, "--trials", "2", "--seed", s,
                             "--out", str(out / "warmup.csv")), out / "warmup.csv")
        ops = [Op("sweep", ("sweep", "--model", "z2", "--radius", "64", "--grid", LATTICE_GRID,
                            "--targets", LATTICE_TARGETS, "--trials", str(LATTICE_TRIALS),
                            "--seed", s, "--out", str(out / "sweep.csv")), out / "sweep.csv")]
        grid = LATTICE_GRID.split(",")
        for i in range(PERCOLATE_OPS):
            path = out / f"percolate-{i}.json"
            ops.append(Op(f"percolate-{i}", (
                "percolate", "--model", "z2", "--radius", "64", "--p", rng.choice(grid),
                "--targets", LATTICE_TARGETS, "--trials", str(PERCOLATE_TRIALS),
                "--seed", _seed(rng), "--out", str(path)), path))
        return warm, ops
    if workload == "coinduce_batch":
        warm_in = _write_instance(instances, inp / "warmup.json", 4, 2)
        warm = Op("warmup", ("coinduce", "--instance", str(warm_in),
                             "--out", str(out / "warmup.json")), out / "warmup.json")
        pairs = [pair for k, tier in COINDUCE_TIERS for pair in rng.sample(tier, k)]
        rng.shuffle(pairs)
        ops = []
        for m, idx in pairs:
            label = f"materialized-{m}-{idx}"
            path = _write_instance(instances, inp / f"{label}.json", m, idx)
            ops.append(Op(label, ("coinduce", "--instance", str(path),
                                  "--out", str(out / f"{label}.json")), out / f"{label}.json"))
        for m, idx in FACTORIZED_PAIRS:
            label = f"factorized-{m}-{idx}"
            path = _write_instance(instances, inp / f"{label}.json", m, idx)
            ops.append(Op(label, ("coinduce", "--instance", str(path),
                                  "--out", str(out / f"{label}.json")), out / f"{label}.json",
                          caps=FACTORIZED_CAPS))
        return warm, ops
    if workload == "verify_suites":
        warm = Op("warmup", ("verify", "--suite", "thm25", "--count", "5", "--seed", _seed(rng),
                             "--out", str(out / "warmup.json")), out / "warmup.json")
        ops = []
        for suite, (count, size) in VERIFY_SUITES.items():
            path = out / f"{suite}.json"
            ops.append(Op(suite, ("verify", "--suite", suite, "--count", str(count),
                                  "--size", str(size), "--seed", _seed(rng),
                                  "--out", str(path)), path))
        return warm, ops
    raise ValueError(f"unknown workload {workload!r}")
