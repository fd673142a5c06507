"""Command-line front end: reports, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import erglab
from erglab import (
    SUITE_NAMES,
    CapExceeded,
    FreeModel,
    SuiteResult,
    ValidationError,
    ZdModel,
    cayley_ball,
    cluster_stats,
    instance_hash,
    load_instance,
    make_coinduce_ready,
    make_cyclic,
    percolate,
)
from erglab import cli
from erglab.cli import _build_parser, main


def run(tmp_path, *argv, name="out"):
    """Invoke main with --out and return (exit code, parsed or raw text)."""
    out = tmp_path / f"{name}.txt"
    code = main([*argv, "--out", str(out)])
    if not out.exists():
        return code, None
    text = out.read_text()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


@pytest.fixture
def six(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(make_cyclic(6)))
    return str(path)


# -- report envelope ---------------------------------------------------------------


def test_phi_matches_the_six_point_table(tmp_path, six):
    code, report = run(tmp_path, "phi", "--instance", six)
    assert code == 0
    assert report["phi"] == {
        "g^0": "1",
        "g^1": "0",
        "g^2": "1",
        "g^3": "0",
        "g^4": "1",
        "g^5": "0",
    }
    assert report["tool_version"]
    assert report["seed"] == 0
    assert report["instance_hash"] == instance_hash(make_cyclic(6))


def test_reports_carry_the_envelope(tmp_path, six):
    code, report = run(tmp_path, "subrel", "--instance", six)
    assert code == 0
    for key in ("tool_version", "seed", "instance_hash", "command"):
        assert key in report
    assert report["seed"] == 0  # subrel takes no --seed
    code, report = run(
        tmp_path, "percolate", "--model", "z2", "--radius", "2", "--p", "0.5",
        "--trials", "3", "--seed", "4",
    )
    assert code == 0
    assert report["seed"] == 4


def test_stdout_is_the_default_sink(capsys, six):
    assert main(["phi", "--instance", six]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "phi"


# -- subrel and coinduce -----------------------------------------------------------


def test_subrel_report_fields(tmp_path, six):
    code, report = run(tmp_path, "subrel", "--instance", six)
    assert code == 0
    assert report["c"] == "0"
    assert report["verdict"] == "vacuous"
    assert report["a"] == [0, 1, 2, 3, 4, 5]
    assert isinstance(report["m_star"], int)
    assert report["witness"].startswith("g^")


def test_subrel_with_named_permutations(tmp_path):
    doc = make_cyclic(6)
    doc["perms"]["t"] = [1, 0, 2, 3, 4, 5]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, "subrel", "--instance", str(path), "--s", "t")
    assert code == 0
    # products t * g^j leave the rotation subgroup: the capture minimum moves
    assert report["c"] == "1/3"
    assert report["m_star"] == 2
    assert report["verdict"] == "pass"


def test_coinduce_runs_declared_checks(tmp_path):
    path = tmp_path / "c.json"
    code, _ = run(tmp_path, "generate", "--kind", "coinduce_ready", "--size", "4,2")
    assert code == 0
    main(["generate", "--kind", "coinduce_ready", "--size", "4,2", "--out", str(path)])
    code, report = run(tmp_path, "coinduce", "--instance", str(path))
    assert code == 0
    assert report["slots"] == 2
    assert report["materialized"] is True
    assert report["checks"]["rho_cocycle"]["verified_triples"] == 64
    assert report["checks"]["thm33_identity"]["verdict"] == "pass"
    assert report["checks"]["prop34_pairing"]["verdict"] == "pass"


def test_coinduce_requires_the_block(tmp_path, six):
    code, _ = run(tmp_path, "coinduce", "--instance", six)
    assert code == 1


# -- generate ------------------------------------------------------------------------


def test_generate_writes_a_loadable_identical_file(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main([
            "generate", "--kind", "random_pair", "--size", "10",
            "--seed", "7", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["space"]["size"] == 10


def test_generate_parenthesized_pair_size(tmp_path):
    code, doc = run(tmp_path, "generate", "--kind", "product", "--size", "(3,2)")
    assert code == 0
    assert doc["space"]["size"] == 6


def test_generate_infeasible_size(tmp_path):
    code, _ = run(tmp_path, "generate", "--kind", "cyclic", "--size", "5")
    assert code == 1


# -- percolation commands -------------------------------------------------------------


def test_percolate_report_and_determinism(tmp_path):
    args = [
        "percolate", "--model", "z2", "--radius", "6", "--p", "0.5",
        "--trials", "40", "--seed", "3", "--targets", "1,0",
    ]
    code, first = run(tmp_path, *args, name="p1")
    assert code == 0
    assert first["ball"]["model"] == "Z^2"
    assert first["trials"] == 40
    assert 0.0 <= first["theta_hat"] <= 1.0
    assert "(1,0)" in first["tau_hat"]
    _, second = run(tmp_path, *args, name="p2")
    assert first == second


@pytest.mark.parametrize(
    "name, model, targets, elements",
    [
        ("z2", ZdModel(2), "1,0;0,0;2,-1", [(1, 0), (0, 0), (2, -1)]),
        ("f2", FreeModel(2), "1;1,-1;-2,1", [(1,), (), (-2, 1)]),
    ],
    ids=["z2", "f2"],
)
def test_percolate_matches_the_cluster_stats_route(tmp_path, name, model, targets, elements):
    # percolate runs as a one-point sweep; its report must equal the
    # configuration-by-configuration fold
    code, report = run(
        tmp_path, "percolate", "--model", name, "--radius", "5", "--p", "0.45",
        "--trials", "30", "--seed", "8", "--targets", targets,
    )
    assert code == 0
    gens = model.basis_generators() if isinstance(model, ZdModel) else model.letter_generators()
    ball = cayley_ball(model, gens, 5)
    stats = cluster_stats((percolate(ball, 0.45, 8, t) for t in range(30)), elements)
    assert report["trials"] == stats.n
    assert report["theta_hat"] == stats.theta_hat
    assert report["theta_se"] == stats.theta_se
    assert report["boundary_clusters_mean"] == stats.boundary_clusters_mean
    assert report["tau_hat"] == {
        lab: stats.tau_hat(t) for t, lab in enumerate(stats.target_labels)
    }


def test_sweep_csv_contract(tmp_path):
    code, text = run(
        tmp_path, "sweep", "--model", "z2", "--radius", "6",
        "--grid", "0.3,0.6", "--trials", "30", "--seed", "2",
    )
    assert code == 0
    header = text.splitlines()[0]
    assert header == "p,trials,theta_hat,theta_se,boundary_clusters_mean"
    assert len(text.splitlines()) == 3


def test_sweep_worker_count_does_not_change_bytes(tmp_path):
    base = [
        "sweep", "--model", "f2", "--radius", "4", "--grid", "0.2,0.4",
        "--trials", "36", "--seed", "9",
    ]
    _, one = run(tmp_path, *base, "--workers", "1", name="w1")
    _, four = run(tmp_path, *base, "--workers", "4", name="w4")
    assert one == four


def test_sweep_json_format(tmp_path):
    code, report = run(
        tmp_path, "sweep", "--model", "z2", "--radius", "5",
        "--grid", "0.4,0.6", "--trials", "20", "--format", "json",
    )
    assert code == 0
    assert [row["p"] for row in report["rows"]] == [0.4, 0.6]
    assert report["monotone_exact"] in (True, False)


def test_free_targets_are_reduced_words(tmp_path):
    code, report = run(
        tmp_path, "percolate", "--model", "free:2", "--radius", "3",
        "--p", "0.7", "--trials", "10", "--targets", "1,-2;2",
    )
    assert code == 0
    assert set(report["tau_hat"]) == {"aB", "b"}


# -- kazhdan commands ------------------------------------------------------------------


def test_kazhdan_amplify(tmp_path):
    code, report = run(tmp_path, "kazhdan", "amplify", "--k", "3", "--eps", "0.1", "--n", "2")
    assert code == 0
    assert abs(report["value"] - 0.0816156303113) < 1e-10


def test_kazhdan_bounds_rational(tmp_path):
    code, report = run(
        tmp_path, "kazhdan", "bounds", "--selector", "cost_a", "--n", "2", "--eps", "1"
    )
    assert code == 0
    assert report["value"] == "4/3"


def test_kazhdan_bounds_float(tmp_path):
    code, report = run(
        tmp_path, "kazhdan", "bounds", "--selector", "eps_n", "--n", "3", "--eps", "0"
    )
    assert code == 0
    assert isinstance(report["value"], float)


def test_kazhdan_avgnorm(tmp_path, six):
    code, report = run(
        tmp_path, "kazhdan", "avgnorm", "--instance", six,
        "--rep", "regular", "--q", "g^0,g^1,g^5",
    )
    assert code == 0
    assert abs(report["norm"] - 2 / 3) < 1e-9
    assert report["k"] == 3
    assert report["invariant_dimension"] == 1


def test_kazhdan_eps_validation(tmp_path):
    code, _ = run(tmp_path, "kazhdan", "amplify", "--k", "3", "--eps", "3/2", "--n", "1")
    assert code == 1


# -- verify command ---------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "prop11", "--count", "10", "--size", "5"])
    assert code == 0
    assert capsys.readouterr().out == "prop11: PASS, 10/10\n"


def test_verify_all_suites_with_report(tmp_path, capsys):
    code, report = run(tmp_path, "verify", "--count", "4", "--size", "5")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all(": PASS, " in line for line in lines)
    assert all(s["ok"] for s in report["suites"])


def test_verify_failures_exit_two(monkeypatch, capsys):
    from erglab import cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "run_suite",
        lambda name, count=None, size=None, seed=0: SuiteResult(name, 3, ("boom",)),
    )
    code = main(["verify", "--suite", "thm25"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_generate_verify_round_trip_never_exits_two(tmp_path):
    for seed in (0, 1, 2):
        code = main(["verify", "--suite", "thm25", "--count", "6", "--seed", str(seed)])
        assert code == 0


@pytest.mark.parametrize("flags", ["--size 0", "--size 1", "--size 2", "--count 0", "--count -3"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_refuses_counts_and_sizes_below_the_suite(capsys, suite, flags):
    # words may have length 0; a shift needs 3 points for a non-zero step;
    # every other suite draws instances of 2 points or more
    least = {"length": 0, "phi_correspondence": 3}.get(suite, 2)
    flag, value = flags.split()
    argv = ["verify", "--suite", suite, "--count", "2", flag, value]
    code = main(argv)
    err = capsys.readouterr().err
    if flag == "--count" or int(value) < least:
        assert code == 1
        assert err.startswith("error:")
    else:
        assert code == 0


# -- exit discipline ----------------------------------------------------------------------


def test_missing_instance_flag(tmp_path):
    code, _ = run(tmp_path, "phi")
    assert code == 1


def test_unreadable_file(tmp_path):
    code, _ = run(tmp_path, "phi", "--instance", str(tmp_path / "nope.json"))
    assert code == 1


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(tmp_path, "phi", "--instance", str(path))
    assert code == 1


MALFORMED_BASES = {
    "bare": lambda: {"space": {"size": 1}},
    "cyclic": lambda: make_cyclic(6),
    "coinduce": lambda: make_coinduce_ready(4, 2),
}


@pytest.mark.parametrize(
    "base, path, value",
    [
        ("cyclic", ["perms"], [1, 2]),
        ("cyclic", ["perms", "g"], [1, 2, 3, 4, 5, "x"]),
        ("cyclic", ["perms", "g"], [1.0, 2, 3, 4, 5, 0]),
        ("bare", ["space", "size"], True),
        ("cyclic", ["actions", "main", "generators"], [["g"], "g_inv"]),
        ("cyclic", ["actions", "main", "inverses", "g"], ["g_inv"]),
        ("cyclic", ["relations", "E"], [0, [1, 2, 3, 4, 5]]),
        ("cyclic", ["actions"], ["main"]),
        ("coinduce", ["a0"], []),
        ("coinduce", ["a0", "action"], ["sub"]),
        ("coinduce", ["a", "images", "d^1"], ["x", 0]),
        ("coinduce", ["a", "target_size"], False),
        ("coinduce", ["checks"], 3),
    ],
)
def test_malformed_documents_are_validation_exits(tmp_path, capsys, base, path, value):
    doc = MALFORMED_BASES[base]()
    blk = doc
    for key in path[:-1]:
        blk = blk[key]
    blk[path[-1]] = value
    with pytest.raises(ValidationError):
        load_instance(doc)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    code, _ = run(tmp_path, "phi", "--instance", str(inst))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_inverse_pairing_of_a_non_generator_exits_one(tmp_path):
    doc = make_cyclic(6)
    doc["actions"]["main"]["inverses"]["h"] = "zz"
    inst = tmp_path / "stray.json"
    inst.write_text(json.dumps(doc))
    done, _ = _run_cli_process(["phi", "--instance", str(inst)])
    assert done.returncode == 1
    assert done.stderr == "error: inverse pairing for 'h', which is not a generator\n"
    assert done.stdout == ""


def test_argparse_errors_are_validation_failures(capsys):
    assert main(["phi", "--bogus-flag"]) == 1
    assert main(["kazhdan"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        "generate --kind cyclic --size abc",
        "generate --kind coinduce_ready --size 4,x",
        "generate --kind cyclic --size 3,2",
        "generate --kind coinduce_ready --size 4,2,1",
        "percolate --model z2 --radius 2 --p 0.5 --targets a,b",
        "percolate --model free:2 --radius 2 --p 0.5 --targets 1,,2",
        "percolate --model zd:x --radius 2 --p 0.5",
        "sweep --model z2 --radius 2 --grid a,b",
        "kazhdan amplify --k 3 --eps abc --n 2",
        "kazhdan bounds --selector cost_a --n 2 --eps 1/0",
    ],
)
def test_malformed_flag_values_are_validation_exits(capsys, argv):
    assert main(argv.split()) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("rank", ["1415", "100000", "1999999", "3000000", "99999999"])
def test_huge_zd_rank_exits_on_the_ball_cap(capsys, rank):
    # refused before the 2d generators of length d are built: their 2d^2
    # coordinates count against the ball cap, so rank 1415 is the first
    # refused at the default
    start = time.perf_counter()
    assert main(["percolate", "--model", f"zd:{rank}", "--radius", "1", "--p", "0.5"]) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("error: cap 'ball' exceeded")


# Each command's flags, and a valid command line for it ({six}: a cyclic instance).
CLI_SURFACE = {
    "phi": ({"--instance", "--relation", "--action", "--out"}, "phi --instance {six}"),
    "subrel": (
        {"--instance", "--e", "--f", "--action", "--s", "--sp", "--out"},
        "subrel --instance {six}",
    ),
    "coinduce": ({"--instance", "--out"}, "coinduce --instance {ci}"),
    "percolate": (
        {"--model", "--radius", "--p", "--trials", "--targets", "--seed", "--out"},
        "percolate --model z2 --radius 2 --p 0.5 --trials 3",
    ),
    "sweep": (
        {
            "--model", "--radius", "--grid", "--trials", "--workers", "--targets",
            "--seed", "--format", "--out",
        },
        "sweep --model z2 --radius 2 --grid 0.5 --trials 3",
    ),
    "kazhdan amplify": (
        {"--k", "--eps", "--n", "--out"}, "kazhdan amplify --k 3 --eps 0.1 --n 2"
    ),
    "kazhdan bounds": (
        {"--selector", "--n", "--eps", "--out"}, "kazhdan bounds --selector cost_a --n 2 --eps 1"
    ),
    "kazhdan avgnorm": (
        {"--instance", "--rep", "--action", "--q", "--out"},
        "kazhdan avgnorm --instance {six} --q g^0,g^1,g^5",
    ),
    "verify": (
        {"--suite", "--count", "--size", "--seed", "--out"},
        "verify --suite prop11 --count 2 --size 3",
    ),
    "generate": ({"--kind", "--size", "--seed", "--out"}, "generate --kind cyclic --size 4"),
}


def _leaf_options(parser, prefix=()):
    """command name -> option strings of every parser that runs a command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {
            " ".join(prefix): {
                opt for a in parser._actions for opt in a.option_strings
                if not isinstance(a, argparse._HelpAction)
            }
        }
    found = {}
    for name, sub in subs[0].choices.items():
        found.update(_leaf_options(sub, (*prefix, name)))
    return found


def test_each_command_declares_only_the_flags_it_reads():
    surface = _leaf_options(_build_parser())
    assert surface == {cmd: flags for cmd, (flags, _) in CLI_SURFACE.items()}
    assert sum(len(flags) for flags in surface.values()) == 51


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_stray_flags_are_rejected(tmp_path, capsys, six, command):
    flags, line = CLI_SURFACE[command]
    ci = tmp_path / "ci.json"
    ci.write_text(json.dumps(make_coinduce_ready(4, 2)))
    argv = line.format(six=six, ci=ci).split()
    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    out.unlink()
    for stray in (["--instance", "/nonexistent"], ["--seed", "1"], ["--format", "csv"]):
        if stray[0] in flags:
            continue
        assert main([*argv, *stray, "--out", str(out)]) == 1
        assert not out.exists()
    capsys.readouterr()


def test_csv_limited_to_sweep(tmp_path, six):
    code, _ = run(tmp_path, "phi", "--instance", six, "--format", "csv")
    assert code == 1


def test_cap_exceeded_is_a_validation_exit(tmp_path, monkeypatch):
    monkeypatch.setenv("ERGLAB_CAPS", "ball=10")
    code, _ = run(tmp_path, "percolate", "--model", "z2", "--radius", "8", "--p", "0.5")
    assert code == 1


def test_the_cached_parser_reads_caps_at_parse_time(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; the --model flag still reads the
    # ball cap on every parse, so each call sees the caps set just before it
    assert _build_parser() is _build_parser()
    argv = ["percolate", "--model", "zd:3", "--radius", "1", "--p", "0.5", "--trials", "3"]
    steps = [("", argv), ("ball=10", argv), ("", argv), ("ball=17", argv),
             ("ball=18", argv), ("ball=18", [*argv, "--grid", "0.5"]), ("", argv)]

    def outcomes(tag):
        seen = []
        for i, (caps, line) in enumerate(steps):
            monkeypatch.setenv("ERGLAB_CAPS", caps)
            out = tmp_path / f"{tag}-{i}.json"
            code = main([*line, "--out", str(out)])
            seen.append((code, out.read_bytes() if out.exists() else None, capsys.readouterr()))
        return seen

    cached = outcomes("cached")
    assert [code for code, _, _ in cached] == [0, 1, 0, 1, 0, 1, 0]
    assert cached[1][2].err == "error: cap 'ball' exceeded: need 18, cap is 10\n"
    assert cached[0][1] == cached[2][1] == cached[4][1] == cached[6][1]
    # a fresh parser per call, as a one-shot process builds it
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes("fresh") == cached


def test_orbit_unions_cap_bounds_the_thm33_sets(tmp_path, monkeypatch, capsys):
    doc = make_coinduce_ready(4, 2)  # a transitive two-point target: 2 orbit unions
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("ERGLAB_CAPS", "orbit_unions=1")
    code, _ = run(tmp_path, "coinduce", "--instance", str(path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cap 'orbit_unions' exceeded: need 2, cap is 1")
    monkeypatch.setenv("ERGLAB_CAPS", "orbit_unions=2")
    code, report = run(tmp_path, "coinduce", "--instance", str(path))
    assert code == 0 and report["checks"]["thm33_identity"]["verdict"] == "pass"
    # a trivial 16-point target has 2^16 orbit unions: refused by the default cap at once
    monkeypatch.delenv("ERGLAB_CAPS")
    doc["a"] = {"target_size": 16, "images": {name: list(range(16)) for name in doc["a"]["images"]}}
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _ = run(tmp_path, "coinduce", "--instance", str(path))
    assert code == 1
    assert time.perf_counter() - start < 5
    assert "cap 'orbit_unions' exceeded: need 65536, cap is 4096" in capsys.readouterr().err


@pytest.mark.parametrize("caps, entry, why", [
    ("prodcut=1", "prodcut=1", "names no cap"),
    ("product=-5", "product=-5", "is not a non-negative integer"),
    ("product=1.5", "product=1.5", "is not a non-negative integer"),
    ("product=1, prodcut=1", "prodcut=1", "names no cap"),
    ("ball=10,product", "product", "is not a non-negative integer"),
])
def test_malformed_caps_are_validation_exits(tmp_path, monkeypatch, capsys, caps, entry, why):
    # the whole of ERGLAB_CAPS is checked on every read, whichever cap the
    # command reads: a mistyped entry must not leave the bound unset
    path = tmp_path / "c.json"
    path.write_text(json.dumps(make_coinduce_ready(4, 2)))
    message = f"ERGLAB_CAPS entry {entry!r} {why}"
    monkeypatch.setenv("ERGLAB_CAPS", caps)
    code, report = run(tmp_path, "coinduce", "--instance", str(path))
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"error: {message}\n"
    code, report = run(tmp_path, "percolate", "--model", "z2", "--radius", "2", "--p", "0.5")
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")


# Each of these must trip a cap before the work grows: exit 1 within
# CAP_EXIT_SECONDS, interpreter start included.
CAP_TRIPPING_ARGV = {
    "f2_radius_40": ("percolate", "--model", "f2", "--radius", "40", "--p", "0.5"),
    "z2_radius_100000": ("sweep", "--model", "z2", "--radius", "100000", "--grid", "0.5"),
    "zd3_radius_100000": ("percolate", "--model", "zd:3", "--radius", "100000", "--p", "0.5"),
    "prop11_size_100000": ("verify", "--suite", "prop11", "--count", "1", "--size", "100000"),
}
CAP_EXIT_SECONDS = 10

# Each of these sits just under a cap or at a rank where Z^d codes leave
# int64: exit 0 within CAP_EXIT_SECONDS, interpreter start included.
MUST_FINISH_ARGV = {
    "zd500_radius_1": ("percolate", "--model", "zd:500", "--radius", "1", "--p", "0.5"),
    "zd1414_radius_1": ("percolate", "--model", "zd:1414", "--radius", "1", "--p", "0.5"),
    "zd40_radius_2": ("sweep", "--model", "zd:40", "--radius", "2", "--grid", "0.5"),
}


def _run_python_process(args) -> tuple[subprocess.CompletedProcess, float]:
    """Run a fresh interpreter on `args` with the default caps."""
    src = str(Path(erglab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("ERGLAB_CAPS", None)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CAP_EXIT_SECONDS,
    )
    return done, time.perf_counter() - start


def _run_cli_process(argv) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a fresh interpreter with the default caps."""
    return _run_python_process(["-m", "erglab.cli", *argv])


@pytest.mark.parametrize("name", list(CAP_TRIPPING_ARGV))
def test_cap_tripping_inputs_exit_fast(name):
    done, elapsed = _run_cli_process(CAP_TRIPPING_ARGV[name])
    assert done.returncode == 1
    assert done.stderr.startswith("error: cap '")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert elapsed < CAP_EXIT_SECONDS


@pytest.mark.parametrize("name", list(MUST_FINISH_ARGV))
def test_high_rank_lattices_finish_fast(name):
    done, elapsed = _run_cli_process(MUST_FINISH_ARGV[name])
    assert done.returncode == 0
    assert done.stderr == ""
    assert elapsed < CAP_EXIT_SECONDS


def test_a_count_too_long_to_print_still_exits_one():
    # the full group of a 100000-point relation has more than 4300 digits
    done, _ = _run_cli_process(CAP_TRIPPING_ARGV["prop11_size_100000"])
    assert done.returncode == 1
    assert done.stderr.startswith("error: cap 'full_group' exceeded: need at least 2^")
    assert "Traceback" not in done.stderr


def _run_importtime_process(args) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run a fresh interpreter on `args` under `-X importtime`: the process,
    its stderr without the import lines, and the modules it imported."""
    done, _ = _run_python_process(["-X", "importtime", *args])
    lines = done.stderr.splitlines(keepends=True)
    timed = [line for line in lines if line.startswith("import time:")]
    done.stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return done, {line.rsplit("|", 1)[1].strip() for line in timed[1:]}  # [0] is the header


def _loads_scipy(modules: set[str]) -> bool:
    return any(name == "scipy" or name.startswith("scipy.") for name in modules)


def test_importing_erglab_leaves_scipy_out():
    done, modules = _run_importtime_process(
        ["-c", "import erglab, erglab.cli, erglab.instances"]
    )
    assert done.returncode == 0 and done.stderr == ""
    assert "erglab.cli" in modules
    assert not _loads_scipy(modules)


# erglab's one cluster labeller is numpy's, so no command loads scipy: not
# the contraction kernel's sweeps and percolation on balls that are not
# trees, and not the action-to-percolation dictionary that verify runs
SCIPY_ARGV = {
    "version": ("--version",),
    "generate": ("generate", "--kind", "coinduce_ready", "--size", "4,2"),
    "coinduce": ("coinduce", "--instance", "{ci}"),
    "verify_thm25": ("verify", "--suite", "thm25", "--count", "4"),
    "verify_kazhdan_forms": ("verify", "--suite", "kazhdan_forms", "--count", "4"),
    "kazhdan_amplify": ("kazhdan", "amplify", "--k", "3", "--eps", "0.1", "--n", "2"),
    "sweep_f2": ("sweep", "--model", "f2", "--radius", "5", "--grid", "0.3,0.6", "--trials", "6"),
    "percolate_f2": ("percolate", "--model", "f2", "--radius", "5", "--p", "0.5", "--trials", "6"),
    "sweep_z2": ("sweep", "--model", "z2", "--radius", "5", "--grid", "0.3,0.6", "--trials", "6"),
    "verify_phi_correspondence": ("verify", "--suite", "phi_correspondence", "--count", "4"),
    "verify_all_suites": ("verify", "--count", "2"),
}


@pytest.mark.parametrize("name", list(SCIPY_ARGV))
def test_scipy_loads_only_for_sparse_labellings(tmp_path, capsys, monkeypatch, name):
    ci = tmp_path / "ci.json"
    ci.write_text(json.dumps(make_coinduce_ready(4, 2)))
    argv = [arg.format(ci=ci) for arg in SCIPY_ARGV[name]]
    done, modules = _run_importtime_process(["-m", "erglab.cli", *argv])
    assert done.returncode == 0 and done.stderr == ""
    assert not _loads_scipy(modules)
    monkeypatch.delenv("ERGLAB_CAPS", raising=False)
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    assert code == 0
    assert done.stdout == capsys.readouterr().out


def test_cap_message_keeps_the_count_exact():
    needed = math.factorial(2000)  # 5736 digits
    exc = CapExceeded("full_group", needed, 20000)
    assert exc.needed == needed and exc.cap == 20000
    k = needed.bit_length() - 1
    assert str(exc) == f"cap 'full_group' exceeded: need at least 2^{k}, cap is 20000"
    short = 2**100 - 1
    assert str(CapExceeded("ball", short, 7)) == f"cap 'ball' exceeded: need {short}, cap is 7"
    assert str(CapExceeded("ball", 2**100, 7)) == "cap 'ball' exceeded: need at least 2^100, cap is 7"


def test_check_failures_exit_two(tmp_path, six, monkeypatch):
    from erglab import cli as cli_mod
    from erglab.errors import CheckFailed

    def explode(*args, **kwargs):
        raise CheckFailed("identity violated")

    monkeypatch.setattr(cli_mod, "min_index_set", explode)
    code, _ = run(tmp_path, "subrel", "--instance", six)
    assert code == 2
