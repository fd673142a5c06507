"""Batch command-line front end.

One process per invocation: read an instance or parameters, run one
command, write one deterministic report. Exit status separates user
errors from mathematics: 0 success, 1 malformed input or cap, 2 a
violated exact identity (a bug signal, never a user error).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .coinduce import (
    check_prop34_pairings,
    check_rho_cocycle,
    check_thm33_identity,
    coinduced_action,
    invariant_observables,
    target_orbit_sets,
)
from .ergcore import Perm, phi
from .errors import CapExceeded, CheckFailed, ValidationError, get_cap
from .instances import GENERATE_KINDS, generate, load_instance, rational_str
from .kazhdan import FiniteRep, KazhdanPair, amplify, averaging_norm, bounds
from .percolation import (
    FreeModel,
    ZdModel,
    cayley_ball,
    sweep,
)
from .subrel import min_index_set
from .verify import SUITE_NAMES, run_suite


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures, not check failures."""

    def error(self, message):
        raise ValidationError(message)


# -- flag values ------------------------------------------------------------------
# Each parses one flag on its own; argparse reports a failure through
# _Parser.error, so a malformed value exits 1 before any command runs.


def _scalar(text: str) -> tuple[str, int | Fraction | float]:
    """Rational-or-float ('2', '1/3', '0.25'), with the text given: reports echo it."""
    s = text.strip()
    try:
        if "/" in s or s.lstrip("+-").isdigit():
            f = Fraction(s)
            return text, int(f) if f.denominator == 1 else f
        return text, float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational or a float") from None


def _model(text: str):
    """'z2' | 'f2' | 'zd:<d>' | 'free:<k>', as (model, generators)."""
    name = text.strip().lower()
    name = {"z2": "zd:2", "f2": "free:2"}.get(name, name)
    kind, _, arg = name.partition(":")
    try:
        if kind == "zd":
            model = ZdModel(int(arg))
            # any ball past radius 0 holds the 2d + 1 points of radius 1,
            # and every report renders the 2d generators of length d;
            # refuse a rank past the ball cap on either count before the
            # generators are built
            capn = get_cap("ball")
            need = max(2 * model.d + 1, 2 * model.d * model.d)
            if need > capn:
                raise CapExceeded("ball", need, capn)
            return model, model.basis_generators()
        if kind == "free":
            model = FreeModel(int(arg))
            return model, model.letter_generators()
    except ValueError as exc:  # a non-integer argument, or the model's ValidationError
        raise argparse.ArgumentTypeError(f"model {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown model {text!r}")


def _grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid {text!r} is not comma-separated numbers") from None


def _size(text: str) -> int | tuple[int, ...]:
    """An integer, or 'a,b' / '(a,b)' for two-part kinds."""
    try:
        if "," in text or text.startswith("("):
            return tuple(int(v) for v in text.strip("() ").split(","))
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size {text!r} is not an integer or 'a,b'") from None


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process, for in-process callers of `main`: parsing
    keeps no state on the parser, and the flag types read the caps at
    parse time."""
    out = _Parser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    instance = _Parser(add_help=False)
    instance.add_argument("--instance", required=True, help="instance JSON file")
    # percolate and sweep: one ball, optional targets, seeded trials
    ball = _Parser(add_help=False, parents=[out])
    ball.add_argument("--model", required=True, type=_model, help="z2 | f2 | zd:<d> | free:<k>")
    ball.add_argument("--radius", type=int, required=True)
    ball.add_argument("--trials", type=int, default=200)
    ball.add_argument("--targets", default="", help="elements, ';'-separated integer vectors")
    ball.add_argument("--seed", type=int, default=0)

    parser = _Parser(prog="erglab")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "phi", parents=[instance, out], description="capture values over an action closure"
    )
    p.add_argument("--relation", default="E")
    p.add_argument("--action", default="main")

    p = subs.add_parser(
        "subrel", parents=[instance, out], description="minimal index set of a relation pair"
    )
    p.add_argument("--e", default="E", help="inner relation name")
    p.add_argument("--f", default="F", help="ambient relation name")
    p.add_argument("--action", default="main")
    p.add_argument("--s", help="permutation name (default identity)")
    p.add_argument("--sp", help="permutation name (default identity)")

    subs.add_parser(
        "coinduce", parents=[instance, out], description="run the checks of a co-induction instance"
    )

    p = subs.add_parser(
        "percolate", parents=[ball], description="bond percolation statistics on one ball"
    )
    p.add_argument("--p", type=float, required=True)

    p = subs.add_parser(
        "sweep", parents=[ball], description="percolation sweep over a probability grid"
    )
    p.add_argument("--grid", required=True, type=_grid, help="comma-separated probabilities")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = subs.add_parser("kazhdan", description="spectral-gap arithmetic")
    ksubs = p.add_subparsers(dest="kcommand", required=True)
    kp = ksubs.add_parser("amplify", parents=[out])
    kp.add_argument("--k", type=int, required=True)
    kp.add_argument("--eps", required=True, type=_scalar)
    kp.add_argument("--n", type=int, required=True)
    kp = ksubs.add_parser("bounds", parents=[out])
    kp.add_argument("--selector", required=True)
    kp.add_argument("--n", type=int, required=True)
    kp.add_argument("--eps", required=True, type=_scalar)
    kp = ksubs.add_parser("avgnorm", parents=[instance, out])
    kp.add_argument("--rep", choices=("natural", "regular"), default="regular")
    kp.add_argument("--action", default="main")
    kp.add_argument("--q", required=True, help="comma-separated element names")

    p = subs.add_parser("verify", parents=[out], description="seeded identity suites")
    p.add_argument("--suite", choices=SUITE_NAMES, help="default: all suites")
    p.add_argument("--count", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("generate", parents=[out], description="emit a generated instance file")
    p.add_argument("--kind", required=True, choices=GENERATE_KINDS)
    p.add_argument("--size", required=True, type=_size, help="integer, or 'a,b' for two-part kinds")
    p.add_argument("--seed", type=int, default=0)
    return parser


# -- shared helpers -------------------------------------------------------------


def _parse_targets(text: str, model) -> list:
    targets = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            vec = tuple(int(v) for v in part.split(","))
        except ValueError:
            raise ValidationError(f"target {part!r} is not an integer vector") from None
        if isinstance(model, ZdModel):
            if len(vec) != model.d:
                raise ValidationError(f"target {part!r} has the wrong rank")
        else:
            if any(v == 0 or abs(v) > model.k for v in vec):
                raise ValidationError(f"target {part!r} uses letters outside the group")
            vec = model.mul((), vec)  # reduce the word
        targets.append(vec)
    return targets


def _ball_and_targets(args):
    """The Cayley ball and target elements of a percolate or sweep command line."""
    model, gens = args.model
    targets = _parse_targets(args.targets, model)  # before the ball: a typo costs no build
    return cayley_ball(model, gens, args.radius), targets


def _emit(args, payload: dict, instance_hash: str | None) -> None:
    report = {
        "tool_version": __version__,
        "seed": getattr(args, "seed", 0),  # commands without --seed report seed 0
        "instance_hash": instance_hash,
        "command": args.command,
    }
    report.update(payload)
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_text(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands -------------------------------------------------------------------


def _cmd_phi(args) -> int:
    inst = load_instance(args.instance)
    rel = inst.relation(args.relation)
    action = inst.action(args.action)
    values = {e.name: rational_str(phi(rel, e.perm)) for e in action.closure()}
    _emit(args, {"phi": values}, inst.hash)
    return 0


def _cmd_subrel(args) -> int:
    inst = load_instance(args.instance)
    e_rel = inst.relation(args.e)
    f_rel = inst.relation(args.f)
    action = inst.action(args.action)
    ident = Perm.identity(f_rel.size)
    s = inst.perm(args.s) if args.s else ident
    sp = inst.perm(args.sp) if args.sp else ident
    report = min_index_set(e_rel, f_rel, s, sp, action)
    _emit(
        args,
        {
            "c": rational_str(report.c),
            "m_star": report.m_star,
            "a": sorted(report.a_set),
            "a1_measure": rational_str(report.a1_measure),
            "verdict": report.verdict,
            "witness": report.argmin_gamma,
        },
        inst.hash,
    )
    return 0


def _cmd_coinduce(args) -> int:
    inst = load_instance(args.instance)
    if inst.coinduce is None:
        raise ValidationError("the instance has no co-induction block")
    spec = inst.coinduce
    sys_ = coinduced_action(spec.a0, spec.b0, spec.a)
    gammas = [e.name for e in spec.b0.closure()]
    results: dict = {}
    for check in spec.checks:
        if check == "rho_cocycle":
            results[check] = {"verified_triples": check_rho_cocycle(sys_)}
            continue
        cases = 0
        if check == "thm33_identity":
            b_sets = target_orbit_sets(spec.a0, spec.a)
            for gamma in gammas:
                for b_set in b_sets:
                    check_thm33_identity(sys_, sorted(b_set), gamma)
                    cases += 1
        else:
            # a transitive target admits only the zero observable
            zero = [Fraction(0)] * spec.a.space.size
            observables = invariant_observables(spec.a0, spec.a) or [zero]
            for gamma in gammas:
                for f in observables:
                    cases += len(check_prop34_pairings(sys_, f, gamma))  # every slot pair (k, n)
        # Both checks raise CheckFailed on any violation, so every case here passed.
        results[check] = {"cases": cases, "verdict": "pass"}
    _emit(
        args,
        {
            "checks": results,
            "slots": sys_.N,
            "product_size": sys_.product_size,
            "materialized": sys_.materialized,
        },
        inst.hash,
    )
    return 0


def _row_report(row, target_labels) -> dict:
    """One sweep row as its JSON report block."""
    return {
        "p": row.p,
        "trials": row.trials,
        "theta_hat": row.theta_hat,
        "theta_se": row.theta_se,
        "boundary_clusters_mean": row.boundary_clusters_mean,
        "tau_hat": {lab: row.tau_counts[t] / row.trials for t, lab in enumerate(target_labels)},
    }


def _cmd_percolate(args) -> int:
    ball, targets = _ball_and_targets(args)
    result = sweep(ball, [args.p], args.trials, args.seed, targets)
    _emit(
        args,
        {"ball": result.ball_description, **_row_report(result.rows[0], result.target_labels)},
        None,
    )
    return 0


def _cmd_sweep(args) -> int:
    ball, targets = _ball_and_targets(args)
    result = sweep(ball, args.grid, args.trials, args.seed, targets, workers=args.workers)
    if args.format == "csv":
        _write_text(args.out, result.to_csv())
        return 0
    _emit(
        args,
        {
            "ball": result.ball_description,
            "rows": [_row_report(row, result.target_labels) for row in result.rows],
            "monotone_exact": result.monotone_exact,
            "monotone_within_2se": result.monotone_within_2se,
        },
        None,
    )
    return 0


def _cmd_kazhdan(args) -> int:
    if args.kcommand == "amplify":
        eps_text, eps = args.eps
        value = amplify(KazhdanPair(args.k, eps), args.n)
        _emit(
            args,
            {"k": args.k, "eps": eps_text, "n": args.n, "value": value},
            None,
        )
        return 0
    if args.kcommand == "bounds":
        eps_text, eps = args.eps
        value = bounds(args.selector, args.n, eps)
        out = rational_str(value) if isinstance(value, (Fraction, int)) else value
        _emit(
            args,
            {"selector": args.selector, "n": args.n, "eps": eps_text, "value": out},
            None,
        )
        return 0
    inst = load_instance(args.instance)
    action = inst.action(args.action)
    rep = FiniteRep.natural(action) if args.rep == "natural" else FiniteRep.regular(action)
    q = [v.strip() for v in args.q.split(",") if v.strip()]
    report = averaging_norm(rep, q)
    _emit(
        args,
        {
            "rep": args.rep,
            "q": q,
            "norm": report.norm,
            "eps_cap": report.eps_cap,
            "k": report.k,
            "invariant_dimension": report.invariant_dimension,
            "iterations": report.iterations,
        },
        inst.hash,
    )
    return 0


def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITE_NAMES)
    results = [run_suite(n, count=args.count, size=args.size, seed=args.seed) for n in names]
    for r in results:
        print(r.summary())
    payload = {
        "suites": [
            {
                "suite": r.suite,
                "checked": r.checked,
                "failures": list(r.failures),
                "ok": r.ok,
            }
            for r in results
        ]
    }
    if args.out:
        _emit(args, payload, None)
    return 0 if all(r.ok for r in results) else 2


def _cmd_generate(args) -> int:
    doc = generate(args.kind, args.size, args.seed)
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "phi": _cmd_phi,
    "subrel": _cmd_subrel,
    "coinduce": _cmd_coinduce,
    "percolate": _cmd_percolate,
    "sweep": _cmd_sweep,
    "kazhdan": _cmd_kazhdan,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
