"""Spec-document fuzzing: mutated documents never escape the exit-code contract.

Each example takes one of the golden fixture documents, applies a few
random edits (replace a value, drop a key or an entry, add a key), writes
it to a file and runs one CLI command on it in-process.  Whatever the
document says, ``main`` must return 0, 1 or 2 without raising, and exit 2
must come with exactly one ``error:`` line on stderr.

A second property parses the mutated documents directly: parsing either
raises a spec error or yields a document whose cone or tree is already
built, whose cone predicates evaluate, whose scenario exists, and whose
poset can fail only the relation laws.

A third property writes random tree documents and blows each one up: a
tree document either blows up into a manifold that passes its checks, or
fails the blow-up's input axioms, or is malformed.

Radii stay small: the command radius is 0 or 1 and integers inside the
documents (scenario radii, group ranks) lie in -3..3, because tree
verification grows fast: ``build-tree z3-lex --radius 3`` takes over a
minute.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from test_golden_cli import FIXTURES
from treeorder.cli import SPEC_ERRORS, main
from treeorder.actions import TreeReader
from treeorder.ordertree import denjoy_blowup
from treeorder.poset import PosetError
from treeorder.specio import (
    cone_from_document, parse_document, poset_from_document, tree_from_document, tree_to_document,
)
from treeorder.suites import get_action_scenario

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# words the documents use, so that edits often land on meaningful values
VOCAB = ["version", "kind", "body", "1", "group-order", "poset", "tree", "scenario", "builtin",
         "name", "group", "cones", "family", "k", "table", "elements", "products", "identity",
         "z", "zk", "free", "dihedral", "positive", "upper", "lower", "op", "cmp", "parity",
         "lex-positive", "components", "component", "all", "any", "not", "arg", "args", "const",
         "series-positive", "rel", "value", ">", "<=", "==", "relations", "lt", "gt", "simu",
         "siml", "eq", "nodes", "arcs", "boundary", "id", "tail", "head", "core", "labels",
         "point", "open", "openray", "radius", "dihedral-line", "z-line", "z-standard", "a", "b"]

COMMANDS = [
    ["check-cones"], ["check-poset"], ["build-tree"], ["blowup"], ["orbit-order"], ["roundtrip"],
    ["quotient", "--subgroup", "even"], ["quotient", "--subgroup", "second-factor"],
]

leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(VOCAB)
          | st.text(max_size=3) | st.floats(-3, 3, allow_nan=False))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(VOCAB) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (container path, key or index) in a JSON tree, root first."""
    out = [path]
    if isinstance(node, dict):
        for key, value in node.items():
            out.extend(_slots(value, path + (key,)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.extend(_slots(value, path + (i,)))
    return out


def _mutate(doc, data):
    path = data.draw(st.sampled_from(_slots(doc)))
    if not path:
        return data.draw(json_values)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = data.draw(json_values)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(VOCAB) | st.text(max_size=3))] = data.draw(json_values)
    else:
        parent.insert(key, data.draw(json_values))
    return doc


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def _mutated_fixture(data):
    doc = copy.deepcopy(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    return doc


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(data, spec_path):
    spec_path.write_text(json.dumps(_mutated_fixture(data)))
    argv = data.draw(st.sampled_from(COMMANDS)) + [str(spec_path)]
    if argv[0] != "check-poset":
        argv += ["--radius", str(data.draw(st.integers(0, 1)))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_a_document_that_parses_builds(data):
    """Parsing raises every spec error a document can cause; building after
    it fails only the poset relation laws, which are a check."""
    try:
        doc = parse_document(_mutated_fixture(data))
    except SPEC_ERRORS:
        return
    if doc.kind == "group-order":
        cone = cone_from_document(doc)
        for w in cone.group.ball(1):  # component indices were checked against the group
            cone.in_positive(w), cone.in_upper(w), cone.in_lower(w)
    elif doc.kind == "scenario":
        get_action_scenario(doc.body["name"], 0)
    elif doc.kind == "tree":
        tree_from_document(doc)
    elif doc.kind == "poset":
        try:
            poset_from_document(doc)
        except PosetError:
            pass


# -- random tree documents ------------------------------------------------------


@st.composite
def raw_tree_bodies(draw):
    """Nodes of all three kinds, arcs between any two nodes, adjacencies
    from any node to either end of any arc, and any boundary."""
    kinds = draw(st.lists(st.sampled_from(["point", "point", "open", "openray"]), min_size=1, max_size=6))
    nodes = [n if kind == "point" else {"id": n, "kind": kind} for n, kind in enumerate(kinds)]
    node = st.integers(0, len(kinds) - 1)
    arcs = [[["e", k], tail, head] for k, (tail, head) in enumerate(draw(st.lists(st.tuples(node, node), max_size=6)))]
    arc = st.builds(lambda k: ["e", k], st.integers(0, len(arcs)))  # the last names no arc
    adjacencies = draw(st.lists(st.tuples(node, arc, st.sampled_from(["tail", "head"])).map(list), max_size=3))
    return {"nodes": nodes, "arcs": arcs, "adjacencies": adjacencies, "boundary": draw(st.lists(node, max_size=2))}


@st.composite
def blown_up_tree_bodies(draw):
    """The blow-up of a random oriented tree, some boundary leaves kept,
    with up to three of its caps or boundary leaves given an extra arc in or
    out, so that the blow-up's moves run on points that carry adjacencies."""
    n = draw(st.integers(1, 8))
    reader = TreeReader()
    for v in range(n):
        reader.node(v)
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        reader.arc(("e", v), *((parent, v) if draw(st.booleans()) else (v, parent)))
    rays = reader.tree.node_incidences()
    reader.set_boundary(v for v in range(n) if sum(map(len, rays[reader.node_ids[v]])) == 1 and draw(st.booleans()))
    m = denjoy_blowup(reader.tree)
    ends = sorted({cap for cap, _arc, _side in m.adjacencies} | m.boundary, key=lambda nid: repr(m.names[nid]))
    for k, end in enumerate(draw(st.lists(st.sampled_from(ends), max_size=3)) if ends else ()):
        x = m.add_node(("x", k))
        m.add_arc(("extra", k), *((end, x) if draw(st.booleans()) else (x, end)))
    return tree_to_document(m)["body"]


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(body=blown_up_tree_bodies() | raw_tree_bodies(), repeat=st.sampled_from([False] * 3 + [True]))
def test_a_tree_document_blows_up_or_is_refused(body, repeat, spec_path):
    if repeat and body.get("adjacencies"):
        body["adjacencies"].append(body["adjacencies"][0])
    spec_path.write_text(json.dumps({"version": "1", "kind": "tree", "body": body}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["blowup", str(spec_path)])
    lines = err.getvalue().splitlines(keepends=True)
    if code == 0:
        assert out.getvalue().endswith("result: PASS\n") and not lines
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("check failed: blow-up needs a well-formed tree: "), lines
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)
