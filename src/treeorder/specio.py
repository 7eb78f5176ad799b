"""Versioned JSON documents for orders, posets, trees, and scenarios.

One document format drives every checker command: a JSON object with
``version``, ``kind``, and ``body``.  Parsing reads a body by building it
(a group-order body into its cone, a tree body into its tree, both kept on
the document), so unknown kinds, unknown fields, and malformed bodies are
rejected up front and a typo never silently changes what gets checked.  A
poset body is read for shape only: breaking the relation laws fails a check.
Emission uses the same schemas, so an emitted poset or tree reads back in.

Document kinds and bodies:

* ``group-order``: ``{"builtin": name}`` or ``{"name", "group", "cones"}``.
  ``group`` is ``{"family": "z"|"zk"|"free"|"dihedral", "k"?}`` or
  ``{"table": {"elements", "products", "identity"}}``.  ``cones`` holds
  ``positive`` and optional ``upper``/``lower`` predicate expressions.
* ``poset``: ``{"elements": [...], "relations": [[a, rel, b], ...]}`` with
  one relation per unordered pair of distinct listed elements.
* ``tree``: ``{"nodes": [...], "arcs": [[id, tail, head], ...],
  "boundary": [...], "adjacencies"?: [[cap, arc, side], ...]}``; ids may be
  strings, integers, or nested lists (loaded as tuples).  An arc object's
  ``kind`` is arc, blowup or stub and its ``core`` a boolean; every boundary
  entry is a node, and a leaf for the blow-up.  An adjacency joins the point
  node ``cap`` to the ``side`` ("tail" or "head") end of ``arc``, as a
  blow-up's doubled endpoints do; adjacencies must be distinct, and emission
  writes them only when the tree has any.
* ``scenario``: ``{"name": ...}`` naming a catalog action scenario.

Predicate expressions are small trees over normal-form components:
``{"op": "cmp", "component": i, "rel": ">", "value": 0}``,
``{"op": "parity", "component": i, "value": 0|1}``,
``{"op": "lex-positive", "components"?: [...]}``,
``{"op": "all"|"any", "args": [...]}``, ``{"op": "not", "arg": ...}``,
``{"op": "const", "value": bool}``, and ``{"op": "builtin", "name":
"series-positive"}`` for the reduced-word sign, which has no coordinate
form.  A component index must name a component of the group's elements,
so none fits the free group.
"""

from __future__ import annotations

import json
import operator
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import CatalogError, GroupError, SpecError, TreeError, jsonable
from .relations import REL_CODES, REL_NAMES

# The group, tree and poset layers are imported by the readers that build
# them, so reading a poset or tree document loads no group code.
if TYPE_CHECKING:
    from .grouporder import ConeStructure
    from .ordertree import OrderTree
    from .poset import ExtendedPoset

SPEC_VERSION = "1"

KINDS = ("group-order", "poset", "tree", "scenario")


class _SpecFields(NamedTuple):
    kind: str
    version: str
    body: dict


class SpecDocument(_SpecFields):
    """A parsed document.  ``built`` is what parsing read the body into (a
    cone, a tree, or poset (elements, triples)); it is held outside the
    tuple, so ``==`` and repr read kind, version and body alone."""

    def __new__(cls, kind: str, version: str, body: dict, built: object = None):
        doc = super().__new__(cls, kind, version, body)
        doc.built = built
        return doc


def _require_fields(obj: dict, where: str, required: set, optional: set = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be an object")
    missing = required - obj.keys()
    if missing:
        raise SpecError(f"{where} misses fields: {', '.join(sorted(missing))}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SpecError(f"{where} has unknown fields: {', '.join(map(repr, sorted(unknown)))}")


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return _is_integer(x) and x >= 0


def _freeze(x):
    """JSON arrays become tuples so ids stay hashable; objects are no ids."""
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        raise SpecError(f"an object cannot name an element or a tree id: {json.dumps(x)}")
    return x


def parse_document(obj) -> SpecDocument:
    try:
        _require_fields(obj, "document", {"version", "kind", "body"})
        if obj["version"] != SPEC_VERSION:
            raise SpecError(f"unsupported version {obj['version']!r}; this build reads {SPEC_VERSION!r}")
        kind = obj["kind"]
        if kind not in KINDS:
            raise SpecError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        return SpecDocument(kind, obj["version"], obj["body"], built=_BODY_READERS[kind](obj["body"]))
    except RecursionError:
        raise SpecError("document nests too deeply") from None


def _built(doc: SpecDocument, kind: str):
    if doc.kind != kind:
        raise SpecError(f"expected a {kind} document, got {doc.kind!r}")
    return doc.built


def load_document(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"cannot read {path}: no such file") from None
    except OSError as err:
        raise SpecError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise SpecError(f"{path} nests too deeply") from None
    return parse_document(obj)


# -- group-order documents ---------------------------------------------------


_CMP = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le,
        "==": operator.eq, "!=": operator.ne}

_BUILTIN_PREDICATES = ("series-positive",)


def _require_components(group, indices, where: str) -> None:
    """Each index names a component of the group's elements; the free
    group's elements have none."""
    try:
        count = len(group.components(group.identity))
    except GroupError:
        count = 0
    stray = [i for i in indices if i >= count]
    if stray:
        raise SpecError(f"{where}: component {stray[0]} out of range; the group's elements have {count}")


def _read_expr(expr, group, where: str) -> Callable:
    """The predicate an expression names over ``group``, checked as it is built."""
    if not isinstance(expr, dict) or "op" not in expr:
        raise SpecError(f"{where} must be an object with an 'op' field")
    op = expr["op"]
    if op == "cmp":
        _require_fields(expr, where, {"op", "component", "rel", "value"})
        i, rel, value = expr["component"], expr["rel"], expr["value"]
        if not isinstance(rel, str) or rel not in _CMP:
            raise SpecError(f"{where}: unknown comparison {rel!r}")
        if not _is_index(i) or not _is_integer(value):
            raise SpecError(f"{where}: component must be a non-negative integer, value an integer")
        _require_components(group, [i], where)
        compare = _CMP[rel]
        return lambda w: compare(group.components(w)[i], value)
    if op == "parity":
        _require_fields(expr, where, {"op", "component", "value"})
        i, value = expr["component"], expr["value"]
        if not _is_index(i):
            raise SpecError(f"{where}: component must be a non-negative integer")
        if not _is_integer(value) or value not in (0, 1):
            raise SpecError(f"{where}: parity value must be 0 or 1")
        _require_components(group, [i], where)
        return lambda w: group.components(w)[i] % 2 == value
    if op == "lex-positive":
        _require_fields(expr, where, {"op"}, {"components"})
        wanted = expr.get("components", [0])
        if not (isinstance(wanted, list) and all(_is_index(i) for i in wanted)):
            raise SpecError(f"{where}: components must be an array of non-negative integers")
        _require_components(group, wanted, where)
        if "components" not in expr:  # every component, once the first exists
            wanted = range(len(group.components(group.identity)))

        def run(w):
            comps = group.components(w)
            for i in wanted:
                if comps[i]:
                    return comps[i] > 0
            return False

        return run
    if op in ("all", "any"):
        _require_fields(expr, where, {"op", "args"})
        if not isinstance(expr["args"], list):
            raise SpecError(f"{where}: args must be an array")
        subs = [_read_expr(sub, group, f"{where}.args[{i}]") for i, sub in enumerate(expr["args"])]
        join = all if op == "all" else any
        return lambda w: join(s(w) for s in subs)
    if op == "not":
        _require_fields(expr, where, {"op", "arg"})
        sub = _read_expr(expr["arg"], group, f"{where}.arg")
        return lambda w: not sub(w)
    if op == "const":
        _require_fields(expr, where, {"op", "value"})
        value = expr["value"]
        if not isinstance(value, bool):
            raise SpecError(f"{where}: const value must be a boolean")
        return lambda w: value
    if op == "builtin":
        _require_fields(expr, where, {"op", "name"})
        if expr["name"] not in _BUILTIN_PREDICATES:
            raise SpecError(f"{where}: unknown builtin {expr['name']!r}")
        if not hasattr(group, "order_sign"):
            raise SpecError("series-positive needs a group with a series sign")
        return lambda w: group.order_sign(w) > 0
    raise SpecError(f"{where}: unknown op {op!r}")


def build_group(spec: dict):
    from .groups import TableGroup, make_group

    if isinstance(spec, dict) and "table" in spec:
        _require_fields(spec, "group", {"table"})
        t = spec["table"]
        _require_fields(t, "group.table", {"elements", "products", "identity"})
        rows = t["products"]
        if not (isinstance(t["elements"], list) and isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise SpecError("group.table needs an element array and an array of product rows")
        return TableGroup(
            [_freeze(e) for e in t["elements"]],
            [[_freeze(c) for c in row] for row in rows],
            _freeze(t["identity"]),
        )
    _require_fields(spec, "group", {"family"}, {"k"})
    if not _is_integer(spec.get("k", 0)):
        raise SpecError("group.k must be an integer")
    try:
        return make_group(spec["family"], spec.get("k"))
    except GroupError as err:
        raise SpecError(str(err)) from None


def _read_group_order(body) -> ConeStructure:
    if isinstance(body, dict) and "builtin" in body:
        _require_fields(body, "group-order body", {"builtin"})
        if not isinstance(body["builtin"], str):
            raise SpecError("group-order builtin must be a cone name")
        from .catalog import get_cone

        try:
            return get_cone(body["builtin"])
        except CatalogError as err:
            raise SpecError(str(err)) from None
    _require_fields(body, "group-order body", {"group", "cones"}, {"name"})
    if not isinstance(body.get("name", ""), str):
        raise SpecError("group-order name must be a string")
    from .grouporder import ConeStructure

    group = build_group(body["group"])
    cones = body["cones"]
    _require_fields(cones, "cones", {"positive"}, {"upper", "lower"})
    pieces = [_read_expr(cones[key], group, f"cones.{key}") if key in cones else (lambda w: False)
              for key in ("positive", "upper", "lower")]
    return ConeStructure(body.get("name", "spec-cone"), group, *pieces)


def cone_from_document(doc: SpecDocument) -> ConeStructure:
    return _built(doc, "group-order")


# -- poset documents ----------------------------------------------------------


def _read_poset(body) -> tuple:
    """The frozen elements and relation triples; the relation laws are left
    to ``from_pairs``, since a poset that breaks them fails a check."""
    _require_fields(body, "poset body", {"elements", "relations"})
    if not isinstance(body["elements"], list) or not isinstance(body["relations"], list):
        raise SpecError("poset body needs element and relation arrays")
    elements = [_freeze(e) for e in body["elements"]]
    known = set(elements)
    pairs = []
    for i, entry in enumerate(body["relations"]):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SpecError(f"relations[{i}] must be [a, relation, b]")
        a, rel, b = _freeze(entry[0]), entry[1], _freeze(entry[2])
        if not isinstance(rel, str) or rel not in REL_CODES or rel == "eq":
            raise SpecError(f"relations[{i}]: unknown relation {rel!r}")
        for x in (a, b):
            if x not in known:
                raise SpecError(f"relations[{i}] names {x!r}, which is not among the elements")
        if a == b:
            raise SpecError(f"relations[{i}] relates {a!r} to itself")
        pairs.append((a, rel, b))
    return elements, pairs


def poset_from_document(doc: SpecDocument) -> ExtendedPoset:
    from .poset import from_pairs

    return from_pairs(*_built(doc, "poset"))


def poset_to_document(p: ExtendedPoset, fmt: Optional[Callable] = None) -> dict:
    label = fmt if fmt is not None else jsonable
    elements = [label(e) for e in p.elements]
    relations = [[label(a), REL_NAMES[p.rel(a, b)], label(b)] for a, b in p.iter_pairs()]
    return {
        "version": SPEC_VERSION,
        "kind": "poset",
        "body": {"elements": elements, "relations": relations},
    }


# -- tree documents -----------------------------------------------------------


def _read_tree(body) -> OrderTree:
    """Both the terse hand-written form and the richer emitted form load."""
    _require_fields(body, "tree body", {"nodes", "arcs"}, {"boundary", "adjacencies"})
    if not all(isinstance(body.get(key, []), list) for key in ("nodes", "arcs", "boundary", "adjacencies")):
        raise SpecError("tree body needs node, arc, boundary, and adjacency arrays")
    from .actions import TreeReader

    reader = TreeReader()
    try:
        for i, entry in enumerate(body["nodes"]):
            if isinstance(entry, dict):
                _require_fields(entry, f"nodes[{i}]", {"id"}, {"kind", "labels"})
                reader.node(_freeze(entry["id"]), kind=entry.get("kind", "point"))
            else:
                reader.node(_freeze(entry))
        for i, entry in enumerate(body["arcs"]):
            if isinstance(entry, dict):
                _require_fields(entry, f"arcs[{i}]", {"id", "tail", "head"}, {"kind", "core", "labels"})
                ids = (_freeze(entry[key]) for key in ("id", "tail", "head"))
                reader.arc(*ids, kind=entry.get("kind", "arc"), core=entry.get("core", True))
            elif isinstance(entry, list) and len(entry) == 3:
                reader.arc(*map(_freeze, entry))
            else:
                raise SpecError(f"arcs[{i}] must be [id, tail, head] or an object")
        for i, entry in enumerate(body.get("adjacencies", [])):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise SpecError(f"adjacencies[{i}] must be [cap, arc, side]")
            reader.adjacency(*map(_freeze, entry))
    except TreeError as err:
        raise SpecError(f"tree body: {err}") from None
    try:
        reader.set_boundary(map(_freeze, body.get("boundary", [])))
    except TreeError as err:
        raise SpecError(str(err)) from None
    return reader.tree


def tree_from_document(doc: SpecDocument) -> OrderTree:
    return _built(doc, "tree")


def _display_order(tree: OrderTree) -> tuple:
    """The nodes and the arcs in the repr order of their display ids, each
    displayed apart: a document or a drawing names them by display id, and a
    blow-up can derive an id a base node already has."""
    names = tree.names
    nodes = sorted(tree.nodes, key=lambda nid: repr(names[nid]))
    arcs = tree.sorted_arc_ids()
    for kind, ids in (("node", nodes), ("arc", arcs)):
        for a, b in zip(ids, ids[1:]):
            if names[a] == names[b]:
                raise TreeError(f"duplicate {kind} {names[a]!r}")
    return nodes, arcs


def tree_to_document(tree: OrderTree, node_labels: Optional[dict] = None,
                     arc_labels: Optional[dict] = None) -> dict:
    """The tree's document under its display ids; ``node_labels`` and
    ``arc_labels`` are keyed by node and arc id."""
    names = tree.names
    node_order, arc_order = _display_order(tree)
    nodes = []
    for nid in node_order:
        rec = {"id": jsonable(names[nid]), "kind": tree.nodes[nid]}
        if node_labels and nid in node_labels:
            rec["labels"] = sorted(node_labels[nid])
        nodes.append(rec)
    arcs = []
    for aid in arc_order:
        arc = tree.arcs[aid]
        rec = {
            "id": jsonable(names[aid]),
            "tail": jsonable(names[arc.tail]),
            "head": jsonable(names[arc.head]),
            "kind": arc.kind,
            "core": arc.core,
        }
        if arc_labels and aid in arc_labels:
            rec["labels"] = [[name, str(t)] for name, t in arc_labels[aid]]
        arcs.append(rec)
    boundary = sorted((names[n] for n in tree.boundary), key=repr)
    body = {"nodes": nodes, "arcs": arcs, "boundary": [jsonable(n) for n in boundary]}
    if tree.adjacencies:
        adjacencies = sorted(((names[cap], names[aid], side) for cap, aid, side in tree.adjacencies), key=repr)
        body["adjacencies"] = [jsonable(a) for a in adjacencies]
    return {"version": SPEC_VERSION, "kind": "tree", "body": body}


def _dot_quote(*lines: str) -> str:
    """A DOT string of the lines, each escaped, joined by DOT's "\\n" break."""
    return '"' + "\\n".join(s.replace("\\", "\\\\").replace('"', '\\"') for s in lines) + '"'


def tree_to_dot(tree: OrderTree, node_labels: Optional[dict] = None,
                arc_labels: Optional[dict] = None) -> str:
    """Render: arcs as directed edges, ray pieces dashed, labels attached."""
    names = tree.names
    node_order, arc_order = _display_order(tree)
    shapes = {"point": "ellipse", "open": "circle", "openray": "diamond"}
    lines = ["digraph ordertree {", "  rankdir=LR;"]
    for nid in node_order:
        name = _dot_quote(str(names[nid]))
        text = [str(names[nid])]
        if node_labels and nid in node_labels:
            text.append(",".join(sorted(node_labels[nid])))
        attrs = [f"label={_dot_quote(*text)}", f"shape={shapes.get(tree.nodes[nid], 'box')}"]
        if nid in tree.boundary:
            attrs.append("style=bold")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for aid in arc_order:
        arc = tree.arcs[aid]
        attrs = [f"label={_dot_quote(str(names[aid]))}"]
        if not arc.core:
            attrs.append("style=dashed")
        if arc_labels and aid in arc_labels:
            marks = ",".join(f"{name}@{t}" for name, t in arc_labels[aid])
            attrs = [f"label={_dot_quote(str(names[aid]) + ' ' + marks)}"] + attrs[1:]
        lines.append(f"  {_dot_quote(str(names[arc.tail]))} -> {_dot_quote(str(names[arc.head]))} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- scenario documents ---------------------------------------------------------


def _read_scenario(body) -> None:
    _require_fields(body, "scenario body", {"name"}, {"radius"})
    if not isinstance(body["name"], str):
        raise SpecError("scenario name must be a string")
    from .suites import ACTION_SCENARIOS

    if body["name"] not in ACTION_SCENARIOS:
        raise SpecError(f"unknown scenario {body['name']!r}; known: {', '.join(sorted(ACTION_SCENARIOS))}")
    radius = body.get("radius", 0)
    if not _is_index(radius):
        raise SpecError(f"scenario radius must be a non-negative integer, got {json.dumps(radius)}")


_BODY_READERS = {
    "group-order": _read_group_order,
    "poset": _read_poset,
    "tree": _read_tree,
    "scenario": _read_scenario,
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
