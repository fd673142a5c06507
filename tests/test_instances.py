"""Instance schema, loaders, and the seeded generators."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erglab import (
    GENERATE_KINDS,
    KNOWN_CHECKS,
    ValidationError,
    canonical_json,
    choice_functions,
    coinduced_action,
    generate,
    instance_hash,
    load_instance,
    make_coinduce_ready,
    make_cyclic,
    make_product,
    make_random_pair,
    orbit_relation,
    phi,
    rational_map,
    rational_str,
)
from erglab.cli import main


# -- canonical serialization ---------------------------------------------------


def test_canonical_json_is_key_order_invariant():
    a = {"space": {"size": 2}, "perms": {"g": [1, 0]}}
    b = {"perms": {"g": [1, 0]}, "space": {"size": 2}}
    assert canonical_json(a) == canonical_json(b)
    assert instance_hash(a) == instance_hash(b)


def test_hash_changes_with_content():
    doc = make_cyclic(6)
    other = make_cyclic(8)
    assert instance_hash(doc) != instance_hash(other)


# -- loader ----------------------------------------------------------------------


def test_load_from_dict_text_and_path(tmp_path):
    doc = make_cyclic(6)
    from_dict = load_instance(doc)
    from_text = load_instance(json.dumps(doc))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    from_path = load_instance(str(path))
    assert from_dict.hash == from_text.hash == from_path.hash
    assert from_dict.relation("E") == from_path.relation("E")


def test_loaded_objects_are_live():
    inst = load_instance(make_cyclic(6))
    assert inst.space.size == 6
    assert inst.perm("g")(0) == 1
    assert inst.relation("E").num_classes == 2
    assert inst.action("main").labels == ("g", "g_inv")
    assert inst.coinduce is None


def test_ambient_falls_back_to_orbits():
    doc = make_cyclic(6)
    del doc["relations"]["F"]
    inst = load_instance(doc)
    assert inst.ambient() == orbit_relation(inst.action("main"))


def test_accessor_errors():
    inst = load_instance(make_cyclic(6))
    with pytest.raises(ValidationError):
        inst.perm("h")
    with pytest.raises(ValidationError):
        inst.relation("G")
    with pytest.raises(ValidationError):
        inst.action("aux")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("space"),
        lambda d: d["space"].update(size="six"),
        lambda d: d["perms"].update(g=[0, 0, 1, 2, 3, 4]),
        lambda d: d["perms"].update(g=[1, 0]),
        lambda d: d["relations"].update(E=[[0, 1], [1, 2, 3, 4, 5]]),
        lambda d: d["actions"]["main"].update(generators=["h"]),
        lambda d: d["actions"]["main"].update(inverses={"g": "g", "g_inv": "g_inv"}),
    ],
)
def test_loader_rejects_malformed_documents(mutate):
    doc = make_cyclic(6)
    mutate(doc)
    with pytest.raises(ValidationError):
        load_instance(doc)


@pytest.mark.parametrize("source", [[1, 2], 3, True, None, b"{}"])
def test_loader_rejects_sources_that_are_not_documents(source):
    with pytest.raises(ValidationError, match="cannot load an instance"):
        load_instance(source)


def test_loader_rejects_unknown_check():
    doc = make_coinduce_ready(4, 2)
    doc["checks"] = ["rho_cocycle", "mystery"]
    with pytest.raises(ValidationError, match="mystery"):
        load_instance(doc)


def test_loader_requires_whole_coinduce_block():
    doc = make_coinduce_ready(4, 2)
    del doc["b0"]
    with pytest.raises(ValidationError, match="b0"):
        load_instance(doc)


def test_loader_rejects_non_free_subaction():
    doc = make_coinduce_ready(4, 2)
    # a transposition fixes two of the four points
    doc["perms"]["d"] = [1, 0, 2, 3]
    with pytest.raises(ValidationError):
        load_instance(doc)


# -- cyclic family ----------------------------------------------------------------


def test_cyclic_six_point_capture_values():
    inst = load_instance(make_cyclic(6))
    e_rel = inst.relation("E")
    values = {
        e.name: phi(e_rel, e.perm) for e in inst.action("main").closure()
    }
    assert values == {
        "g^0": 1,
        "g^1": 0,
        "g^2": 1,
        "g^3": 0,
        "g^4": 1,
        "g^5": 0,
    }


def test_cyclic_smallest_size():
    inst = load_instance(make_cyclic(2))
    assert inst.action("main").labels == ("g",)
    assert inst.relation("E").num_classes == 2


@pytest.mark.parametrize("size", [0, 1, 3, 5])
def test_cyclic_rejects_odd_or_tiny_sizes(size):
    with pytest.raises(ValidationError):
        make_cyclic(size)


# -- random pair family -----------------------------------------------------------


def test_random_pair_is_deterministic():
    assert make_random_pair(10, 7) == make_random_pair(10, 7)
    assert make_random_pair(10, 7) != make_random_pair(10, 8)


@pytest.mark.parametrize("size,seed", [(4, 0), (6, 3), (8, 11), (9, 2), (12, 5)])
def test_random_pair_structure(size, seed):
    inst = load_instance(make_random_pair(size, seed))
    e_rel = inst.relation("E")
    f_rel = inst.relation("F")
    assert e_rel.refines(f_rel)
    # constant index: the choice system accepts the pair
    cs = choice_functions(e_rel, f_rel)
    assert len(set(cs.strata)) == 1
    # the action's orbits realize the ambient relation
    assert orbit_relation(inst.action("main")) == f_rel


def test_random_pair_rejects_singletons():
    with pytest.raises(ValidationError):
        make_random_pair(1, 0)


# -- product family ---------------------------------------------------------------


def test_product_fibers_and_commutation():
    inst = load_instance(make_product(3, 4))
    action = inst.action("main")
    ga = inst.perm("ga")
    gb = inst.perm("gb")
    assert ga * gb == gb * ga
    e_rel = inst.relation("E")
    assert e_rel.num_classes == 3
    assert all(len(c) == 4 for c in e_rel.classes)
    assert orbit_relation(action) == inst.relation("F")


def test_product_involutive_factor_collapses_inverse():
    inst = load_instance(make_product(2, 3))
    assert "ga_inv" not in inst.perms
    assert "gb_inv" in inst.perms


def test_product_rejects_degenerate_factors():
    with pytest.raises(ValidationError):
        make_product(1, 5)


# -- co-induction family ----------------------------------------------------------


def test_coinduce_ready_four_over_two():
    inst = load_instance(make_coinduce_ready(4, 2))
    spec = inst.coinduce
    assert spec is not None
    assert spec.checks == KNOWN_CHECKS
    assert [e.name for e in spec.a0.elements] == ["d^0", "d^1"]
    sys = coinduced_action(spec.a0, spec.b0, spec.a)
    assert sys.N == 2
    assert sys.y_size == 2
    assert sys.product_size == 16


@pytest.mark.parametrize("size,index", [(2, 1), (2, 2), (6, 2), (6, 3), (8, 4), (9, 3)])
def test_coinduce_ready_builds_for_any_divisor(size, index):
    inst = load_instance(make_coinduce_ready(size, index))
    sys = coinduced_action(inst.coinduce.a0, inst.coinduce.b0, inst.coinduce.a)
    assert sys.N == index
    assert sys.y_size == size // index


def test_coinduce_ready_rejects_non_divisor():
    with pytest.raises(ValidationError):
        make_coinduce_ready(6, 4)


# -- dispatcher and serialization helpers -----------------------------------------


def test_generate_kinds_cover_dispatcher():
    for kind in GENERATE_KINDS:
        size = "4,2" if kind in ("product", "coinduce_ready") else 6
        doc = generate(kind, size, seed=1)
        load_instance(doc)


def test_generate_accepts_tuples_and_strings():
    assert generate("product", (4, 2)) == generate("product", "4,2")
    assert generate("coinduce_ready", [4, 2]) == generate("coinduce_ready", "4,2")


def test_generate_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(ValidationError):
        generate("spiral", 6)
    with pytest.raises(ValidationError):
        generate("product", "4")
    with pytest.raises(ValidationError):
        generate("coinduce_ready", "4,2,1")


def test_rational_serialization():
    assert rational_str(Fraction(2, 3)) == "2/3"
    assert rational_str(Fraction(4, 2)) == "2"
    assert rational_str(1) == "1"
    assert rational_map({"a": Fraction(1, 2)}) == {"a": "1/2"}


# -- the input contract is total ----------------------------------------------------

# Integers stay small so that a drawn size never asks for a large allocation.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=6),
    max_leaves=24,
)

VALID_DOCS = (
    lambda: make_cyclic(6),
    lambda: make_product(4, 2),
    lambda: make_random_pair(5, seed=2),
    lambda: make_coinduce_ready(4, 2),
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


def _loads_or_rejects(path, doc) -> None:
    # through a file, as the CLI reads it: the document may be any JSON value
    path.write_text(json.dumps(doc))
    try:
        load_instance(path)
    except ValidationError:
        pass


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from(VALID_DOCS), data=st.data())
def test_any_json_value_inside_a_valid_document_loads_or_is_rejected(doc_path, make, data):
    doc = make()
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        doc = value
    else:
        blk = doc
        for key in path[:-1]:
            blk = blk[key]
        blk[path[-1]] = value
    _loads_or_rejects(doc_path, doc)


CLI_DOCS = tuple(make for make in VALID_DOCS if make()["space"]["size"] <= 6)


@settings(max_examples=100, deadline=None)
@given(make=st.sampled_from(CLI_DOCS), data=st.data())
def test_cli_exits_0_1_or_2_on_any_document(doc_path, make, data):
    doc = make()
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        doc = value
    else:
        blk = doc
        for key in path[:-1]:
            blk = blk[key]
        blk[path[-1]] = value
    # small spaces keep closures and index sets small
    space = doc.get("space") if isinstance(doc, dict) else None
    size = space.get("size") if isinstance(space, dict) else None
    assume(not (isinstance(size, int) and size > 6))
    doc_path.write_text(json.dumps(doc))
    out = doc_path.with_name("report.json")
    for command in ("phi", "subrel", "coinduce"):
        assert main([command, "--instance", str(doc_path), "--out", str(out)]) in (0, 1, 2)
