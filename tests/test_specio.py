from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

import oracles
from treeorder.actions import alternating_line_tree, named_tree
from treeorder.catalog import dihedral_standard
from treeorder.groups import GroupError, TableGroup
from treeorder.orbitorder import ConePipeline
from treeorder.ordertree import TreeError, denjoy_blowup
from treeorder.poset import from_pairs
from treeorder.specio import (
    SpecError,
    build_group,
    canonical_json,
    cone_from_document,
    parse_document,
    poset_from_document,
    poset_to_document,
    tree_from_document,
    tree_to_document,
    tree_to_dot,
)

DIHEDRAL_CONES = {
    "positive": {
        "op": "all",
        "args": [
            {"op": "parity", "component": 1, "value": 0},
            {"op": "cmp", "component": 0, "rel": ">", "value": 0},
        ],
    },
    "upper": {
        "op": "all",
        "args": [
            {"op": "parity", "component": 1, "value": 1},
            {"op": "cmp", "component": 0, "rel": ">", "value": 0},
        ],
    },
    "lower": {
        "op": "all",
        "args": [
            {"op": "parity", "component": 1, "value": 1},
            {"op": "cmp", "component": 0, "rel": "<=", "value": 0},
        ],
    },
}


def doc(kind, body):
    return {"version": "1", "kind": kind, "body": body}


def test_document_header_is_strict():
    with pytest.raises(SpecError, match="version"):
        parse_document(doc("poset", {}) | {"version": "2"})
    with pytest.raises(SpecError, match="kind"):
        parse_document(doc("sculpture", {}))
    with pytest.raises(SpecError, match="unknown"):
        parse_document(doc("scenario", {"name": "z-line"}) | {"extra": 1})


def test_expression_trees_are_validated():
    base = {"group": {"family": "z"}, "cones": {"positive": None}}
    base["cones"]["positive"] = {"op": "sqrt", "value": 2}
    with pytest.raises(SpecError, match="op"):
        parse_document(doc("group-order", base))
    base["cones"]["positive"] = {"op": "cmp", "component": 0, "rel": "~", "value": 0}
    with pytest.raises(SpecError):
        parse_document(doc("group-order", base))
    base["cones"]["positive"] = {"op": "cmp", "component": 0, "rel": ">", "value": 0, "bonus": 1}
    with pytest.raises(SpecError, match="unknown"):
        parse_document(doc("group-order", base))


def test_expression_cone_matches_the_frozen_dihedral_predicates():
    d = parse_document(doc("group-order", {
        "name": "dihedral-by-expression",
        "group": {"family": "dihedral"},
        "cones": DIHEDRAL_CONES,
    }))
    cone = cone_from_document(d)
    frozen = dihedral_standard()
    for g in frozen.group.ball(6):
        assert cone.side(g) == frozen.side(g)


def test_builtin_document_form():
    d = parse_document(doc("group-order", {"builtin": "z-standard"}))
    cone = cone_from_document(d)
    assert cone.name == "z-standard"


def test_documents_compare_and_print_by_kind_version_and_body():
    first, second = (parse_document(doc("group-order", {"builtin": "z-standard"})) for _ in range(2))
    assert first.built is not second.built
    assert first == second
    assert repr(first) == "SpecDocument(kind='group-order', version='1', body={'builtin': 'z-standard'})"


def test_an_unknown_builtin_cone_is_a_spec_error():
    with pytest.raises(SpecError) as err:
        parse_document(doc("group-order", {"builtin": "banana"}))
    assert str(err.value).startswith("unknown cone 'banana'; known: dihedral-standard, free2-standard, ")
    assert not isinstance(err.value, KeyError)


def test_lex_positive_and_builtin_predicates():
    from treeorder.groups import FreeGroup

    plane, free2 = {"family": "zk", "k": 2}, {"family": "free", "k": 2}
    lex = oracles.build_predicate({"op": "lex-positive"}, plane)
    assert lex((0, 3)) and lex((1, -9)) and not lex((0, 0)) and not lex((-1, 5))
    free = FreeGroup(2)
    series = oracles.build_predicate({"op": "builtin", "name": "series-positive"}, free2)
    for w in free.ball(2):
        if w != ():
            assert series(w) != series(free.inv(w))
    with pytest.raises(SpecError, match="coin-flip"):
        oracles.build_predicate({"op": "builtin", "name": "coin-flip"}, free2)
    # The series sign needs a group that carries one.
    with pytest.raises(SpecError, match="series"):
        oracles.build_predicate({"op": "builtin", "name": "series-positive"}, plane)


def test_component_out_of_range_is_reported():
    with pytest.raises(SpecError, match="component"):
        oracles.build_predicate({"op": "cmp", "component": 5, "rel": ">", "value": 0}, {"family": "zk", "k": 2})


TRIANGLE = {"table": {"elements": [0, 1, 2], "identity": 0, "products": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}


@pytest.mark.parametrize("group, expr", [
    ({"family": "z"}, {"op": "cmp", "component": 1, "rel": ">", "value": 0}),
    ({"family": "zk", "k": 3}, {"op": "parity", "component": 3, "value": 0}),
    ({"family": "dihedral"}, {"op": "lex-positive", "components": [0, 2]}),
    (TRIANGLE, {"op": "cmp", "component": 1, "rel": "==", "value": 1}),
    ({"family": "free"}, {"op": "parity", "component": 0, "value": 1}),
    ({"family": "free"}, {"op": "lex-positive"}),
    # a short-circuit that would never read the component still fails
    ({"family": "zk", "k": 2}, {"op": "any", "args": [{"op": "const", "value": True},
                                                      {"op": "cmp", "component": 2, "rel": ">", "value": 0}]}),
], ids=["z-cmp", "z3-parity", "dihedral-lex", "table-cmp", "free-parity", "free-lex", "behind-any"])
def test_a_component_past_the_group_fails_at_parse_time(group, expr):
    with pytest.raises(SpecError, match="component"):
        parse_document(doc("group-order", {"group": group, "cones": {"positive": expr}}))


def test_the_last_component_parses():
    last = {"op": "all", "args": [{"op": "parity", "component": 2, "value": 0},
                                  {"op": "lex-positive", "components": [2, 0]}]}
    cone = cone_from_document(parse_document(doc("group-order", {
        "group": {"family": "zk", "k": 3}, "cones": {"positive": last}})))
    assert cone.in_positive((1, 0, 2)) and not cone.in_positive((1, 0, 1)) and not cone.in_positive((1, 0, -2))


def test_an_unknown_scenario_fails_at_parse_time():
    with pytest.raises(SpecError, match=re.escape("unknown scenario 'banana'; known: dihedral-line, z-line")):
        parse_document(doc("scenario", {"name": "banana"}))
    assert parse_document(doc("scenario", {"name": "z-line"})).body == {"name": "z-line"}


def test_table_group_document():
    table = {
        "elements": [0, 1, 2],
        "identity": 0,
        "products": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }
    g = build_group({"table": table})
    assert isinstance(g, TableGroup)
    assert g.mult(1, 2) == 0
    bad = dict(table, products=[[0, 1], [1, 2]])
    with pytest.raises(GroupError):
        build_group({"table": bad})


def test_poset_document_roundtrip():
    p = from_pairs("abc", [("a", "lt", "b"), ("a", "lt", "c"), ("b", "siml", "c")])
    emitted = poset_to_document(p)
    reparsed = parse_document(json.loads(canonical_json(emitted)))
    q = poset_from_document(reparsed)
    assert q.relations_table() == p.relations_table()


def test_poset_document_rejects_eq_relation():
    with pytest.raises(SpecError):
        parse_document(doc("poset", {
            "elements": ["a", "b"],
            "relations": [["a", "eq", "b"]],
        }))


def test_tree_document_roundtrip_both_forms():
    terse = parse_document(doc("tree", {
        "nodes": ["a", "b", "c"],
        "arcs": [["e1", "a", "b"], ["e2", "b", "c"]],
        "boundary": ["a", "c"],
    }))
    t1 = tree_from_document(terse)
    assert {t1.names[n] for n in t1.boundary} == {"a", "c"}
    emitted = tree_to_document(t1)
    t2 = tree_from_document(parse_document(json.loads(canonical_json(emitted))))
    assert sorted(t2.names[n] for n in t2.nodes) == sorted(t1.names[n] for n in t1.nodes)
    e1 = t2.arcs[t2.names.index("e1")]
    assert (t2.names[e1.tail], t2.names[e1.head]) == ("a", "b")
    assert {t2.names[n] for n in t2.boundary} == {"a", "c"}


@pytest.mark.parametrize("tree", [
    lambda: alternating_line_tree(2),
    lambda: alternating_line_tree(6),
    lambda: ConePipeline.of(dihedral_standard(), 4).layout(None).tree,
], ids=["line-2", "line-6", "dihedral-r4-layout"])
def test_an_emitted_blowup_reads_back_with_its_adjacencies(tree):
    # ids read back as JSON gives them (a layout's fractions as strings), so
    # the tree read back emits the same document, adjacencies included
    m = denjoy_blowup(tree())
    emitted = tree_to_document(m)
    back = tree_from_document(parse_document(json.loads(canonical_json(emitted))))
    assert len(back.adjacencies) == len(m.adjacencies) > 0
    assert tree_to_document(back) == emitted


@pytest.mark.parametrize("emit", [tree_to_document, tree_to_dot], ids=["json", "dot"])
def test_a_blowup_that_derives_an_id_its_base_has_is_not_emitted(emit):
    # splitting b derives the open end ("openend", "b"), a node the base has
    # already; the blow-up keeps both, and no document may name both alike
    tree = named_tree(["a", "b", "c", ("openend", "b")], [("ab", "a", "b"), ("cb", "c", "b"),
                                                          ("xb", ("openend", "b"), "b")])
    m = denjoy_blowup(tree)
    with pytest.raises(TreeError, match=re.escape("duplicate node ('openend', 'b')")):
        emit(m)


def test_tree_document_rejects_unknown_arc_fields():
    with pytest.raises(SpecError, match="unknown"):
        parse_document(doc("tree", {
            "nodes": ["a", "b"],
            "arcs": [{"id": "e", "tail": "a", "head": "b", "weight": 3}],
        }))


def test_dot_output_is_deterministic_and_marked():
    tree = alternating_line_tree(2)
    from treeorder.ordertree import denjoy_blowup

    m = denjoy_blowup(tree)
    out1 = tree_to_dot(m)
    out2 = tree_to_dot(m)
    assert out1 == out2
    assert out1.startswith("digraph")
    assert "style=dashed" in out1
    assert "style=bold" in out1


def test_dot_strings_escape_backslashes_and_quotes():
    tree = named_tree(["a\\", 'b"q'], [("e", "a\\", 'b"q')], boundary=["a\\"])
    b, e = tree.names.index('b"q'), tree.names.index("e")  # the labels are keyed by node and arc id
    text = tree_to_dot(tree, node_labels={b: ["x\\y"]}, arc_labels={e: [('"', Fraction(1, 2))]})
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for line in text.splitlines()[2:-1]:
        assert '"' not in quoted.sub("", line), line
    assert '  "b\\"q" [label="b\\"q\\nx\\\\y", shape=ellipse];' in text.splitlines()


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, 1]}
