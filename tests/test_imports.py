"""Which treeorder modules a process loads, and the lazily resolved namespace.

Module footprints are measured in a fresh interpreter, since this test
process has long since imported every layer.  The interpreter runs with
PYTHONDONTWRITEBYTECODE=1, as the benchmark jobs may, so each module it
loads is compiled from source.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeorder
from treeorder import errors, poset, relations

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the catalog compiles no group code until a cone, subgroup or scenario is built
CATALOG = {"cli", "errors", "catalog"}
# the cone layer reads relation codes from the leaf ``relations``, not ``poset``
CONE_LAYERS = CATALOG | {"relations", "groups", "grouporder"}
# what a cone command loads beyond CONE_LAYERS: a free group's sweep compiles
# the rank-block code, a quotient compiles the cold half of grouporder (which
# holds the subgroup registry), and one that passes the convexity check
# builds the coset poset
CONE_EXTRAS = {"free2-standard": {"freesweep"}, "quotient": {"quotient"}, "second-factor": {"poset"}}
# the ten layers of a tree job, and the siblings that hold the cold half of a layer
TREE_LAYERS = CONE_LAYERS | {"poset", "treebuild", "ordertree", "orbitorder"}
SIBLINGS = {"quotient", "gplus", "suites", "actions"}
# the relation codes and betweenness, defined in relations and re-exported by poset
RELATION_NAMES = ("EQ", "LT", "GT", "SIMU", "SIML", "REL_NAMES", "REL_CODES", "SWAP", "between_by_codes")

# the public names of the package, in the order __all__ has always listed them
PUBLIC = (
    "BuildError", "ConeError", "ConeStructure", "EQ", "EXAMPLES", "ExtendedPoset", "FreeGroup", "GT",
    "GroupError", "InfiniteDihedral", "LT", "OneManifold", "OrbitError", "OrderTree", "PosetError",
    "SIML", "SIMU", "TableGroup", "TreeAction", "TreeError", "Z", "Zk", "all_extended_posets",
    "between_by_codes", "build_from_cones", "check_action", "check_blowup", "check_completely_convex",
    "denjoy_blowup", "alternating_line_tree", "get_cone", "get_example", "induced_ball_poset",
    "make_group", "manifold_order", "orbit_poset", "orient_segments", "quotient_order",
    "roundtrip_orbit", "run_corpus_suite", "stabilizer_extension_order", "verify_cone_axioms",
    "verify_stage_properties",
)

# each contract error class and the module that raises it
ERROR_HOMES = {
    "GroupError": "groups", "PosetError": "poset", "ConeError": "grouporder", "BuildError": "treebuild",
    "TreeError": "ordertree", "OrbitError": "orbitorder", "SpecError": "specio", "CatalogError": "catalog",
}

# run SETUP in a fresh interpreter, then print the treeorder submodules it loaded
FOOTPRINT = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{setup}
print(json.dumps(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("treeorder."))))
"""


def fresh_env() -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def loaded_by(*setup: str) -> set:
    code = FOOTPRINT.format(setup="".join(f"    {line}\n" for line in setup))
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return set(json.loads(done.stdout))


def test_importing_the_package_loads_no_submodule():
    assert loaded_by("import treeorder") == set()


def test_importing_an_error_class_loads_only_the_errors_module():
    assert loaded_by("from treeorder import BuildError, PosetError, TreeError") == {"errors"}


@pytest.mark.parametrize("argv", [
    ["check-cones", "z3-lex", "--radius", "3"],
    ["check-cones", "free2-standard", "--radius", "3"],
    ["quotient", "z2-lex", "--subgroup", "second-factor", "--radius", "3"],
    ["quotient", "z-standard", "--subgroup", "even", "--radius", "3"],  # fails the convexity check
    ["examples", "run", "cones-z2-lex", "--radius", "3"],
], ids=" ".join)
def test_cone_commands_load_no_tree_layer(argv):
    run = f"from treeorder.cli import main; main({argv!r})"
    assert loaded_by(run) == CONE_LAYERS.union(*(extra for word, extra in CONE_EXTRAS.items() if word in argv))


def test_a_cone_check_of_a_spec_file_adds_only_specio(tmp_path):
    spec = tmp_path / "cone.json"
    spec.write_text(json.dumps({"version": "1", "kind": "group-order", "body": {
        "group": {"family": "zk", "k": 2},
        "cones": {"positive": {"op": "lex-positive"}},
    }}))
    run = f"from treeorder.cli import main; assert main(['check-cones', {str(spec)!r}, '--radius', '3']) == 0"
    assert loaded_by(run) == CONE_LAYERS | {"specio"}


def test_a_json_cone_report_adds_only_specio():
    run = "from treeorder.cli import main; main(['check-cones', 'z-standard', '--radius', '3', '--json'])"
    assert loaded_by(run) == CONE_LAYERS | {"specio"}


POSET_DOC = {"version": "1", "kind": "poset", "body": {"elements": ["a", "b"], "relations": [["a", "lt", "b"]]}}
TREE_DOC = {"version": "1", "kind": "tree", "body": {
    "nodes": ["a", "b", "c"], "arcs": [["e1", "a", "b"], ["e2", "c", "b"]], "boundary": ["a", "c"]}}


# argv and exactly what it loads; TREE and POSET stand for document files
NO_GROUP_FOOTPRINTS = [
    (["examples", "list"], CATALOG),
    (["examples", "list", "--json"], CATALOG | {"specio", "relations"}),
    (["blowup", "alternating-line", "--radius", "2"], CATALOG | {"suites", "actions", "ordertree", "poset", "relations"}),
    (["blowup", "TREE"], {"cli", "errors", "specio", "relations", "ordertree", "actions", "poset"}),
    (["check-poset", "POSET"], {"cli", "errors", "specio", "relations", "corpus", "poset"}),
]


@pytest.mark.parametrize("argv, layers", NO_GROUP_FOOTPRINTS, ids=[" ".join(a) for a, _ in NO_GROUP_FOOTPRINTS])
def test_commands_that_build_no_group_load_no_group_layer(argv, layers, tmp_path):
    for name, doc in (("TREE", TREE_DOC), ("POSET", POSET_DOC)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a}.json") if a in ("TREE", "POSET") else a for a in argv]
    assert loaded_by(f"from treeorder.cli import main; assert main({argv!r}) == 0") == layers


def test_the_example_list_loads_only_the_catalog():
    assert loaded_by("from treeorder import EXAMPLES", "assert len(EXAMPLES) == 17") == {"catalog", "errors"}


def test_orbit_order_loads_specio_only_for_json():
    run = "from treeorder.cli import main; main(['orbit-order', 'dihedral-line', '--radius', '3'{}])"
    assert "specio" not in loaded_by(run.format(""))
    assert "specio" in loaded_by(run.format(", '--json'"))


def test_enumerating_small_posets_loads_only_poset():
    assert loaded_by("from treeorder.corpus import all_extended_posets",
                     "assert len(all_extended_posets(3)) == 32") == {"corpus", "errors", "poset", "relations"}


@pytest.mark.parametrize("argv", [
    ["roundtrip", "dihedral-standard", "--radius", "6"],
    ["build-tree", "dihedral-standard", "--radius", "6", "--stages", "99"],
    ["examples", "run", "dihedral", "--radius", "6"],
], ids=" ".join)
def test_a_tree_job_loads_its_ten_layers_and_no_sibling(argv):
    # the cold half of each layer sits in a sibling that no tree job touches
    run = f"from treeorder.cli import main; assert main({argv!r}) == 0"
    assert loaded_by(run) == TREE_LAYERS and len(TREE_LAYERS) == 10
    assert not TREE_LAYERS & SIBLINGS


def test_a_tree_built_from_a_bare_poset_loads_no_cone_layer():
    # the element doubling lives in treebuild: the build, its checks and the
    # round trip through the blow-up never load the groups or the cones
    tests = str(Path(__file__).resolve().parent)
    loaded = loaded_by(f"sys.path.insert(0, {tests!r})",
                       "import oracles",
                       "from treeorder.corpus import all_extended_posets",
                       "from treeorder.treebuild import build_tree, verify_stage_properties",
                       "for p in all_extended_posets(3):",
                       "    assert verify_stage_properties(build_tree(p))['ok']",
                       "    q = oracles.tree_roundtrip(p)",
                       "    assert (q.elements, q.rows) == (p.elements, p.rows)")
    assert not {"grouporder", "groups"} & loaded
    assert {"treebuild", "ordertree"} <= loaded


def test_a_tree_corpus_loads_no_group_layer():
    # the manifold order lives in ordertree, so sampling tree posets compiles
    # neither the groups nor the construction
    assert loaded_by("from treeorder.corpus import tree_corpus",
                     "assert len(tree_corpus(3)) == 3") == {"corpus", "errors", "ordertree", "poset", "relations"}


@pytest.mark.parametrize("argv", [
    ["check-cones", "z2-lex", "--radius", "3"],
    ["check-cones", "z-standard", "--radius", "3", "--json"],
    ["check-cones", "SPEC", "--radius", "3"],
    ["quotient", "z-standard", "--subgroup", "even", "--radius", "3"],  # fails the convexity check
    ["examples", "list"],
], ids=" ".join)
def test_cone_commands_load_neither_poset_nor_fractions(argv, tmp_path):
    spec = tmp_path / "cone.json"
    spec.write_text(json.dumps({"version": "1", "kind": "group-order", "body": {"builtin": "z2-lex"}}))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    # measured against what the interpreter holds before treeorder is imported
    code = f"""
import contextlib, io, sys
before = set(sys.modules)
from treeorder.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
print(sorted({{"treeorder.poset", "fractions", "decimal"}} & (set(sys.modules) - before)))
"""
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("name", RELATION_NAMES)
def test_poset_reexports_the_relation_codes_as_the_same_objects(name):
    assert getattr(poset, name) is getattr(relations, name)


@pytest.mark.parametrize("setup", [
    "from treeorder.cli import main; main(['roundtrip', 'z-standard', '--radius', '3'])",
    "from treeorder.corpus import tree_corpus",
], ids=["roundtrip", "tree-corpus"])
def test_a_tree_job_loads_no_dataclasses(setup):
    # dataclasses pulls in inspect, ast, dis and tokenize: about 12 ms a job
    code = f"""
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    {setup}
print(sorted({{"dataclasses", "inspect"}} & set(sys.modules)))
"""
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


# In a fresh interpreter: each benchmark tracer target resolves as Tracer.install
# resolves it, each name a layer serves lazily is its sibling's own object and
# was not bound before its first use, and an unknown name is an AttributeError
# naming the module.  tracing.py is loaded by path and only read.
TRACER_TARGETS = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
out = {{"unresolved": [], "served": 0, "not_own": [], "unknown": []}}
homes = {{}}
for layer in tracing.LAYERS:
    mod = importlib.import_module("treeorder." + layer)
    table = vars(mod).get("_HOME", {{}})
    homes[layer] = table
    out["not_own"] += [name for name in table if name in vars(mod)]  # bound before first use
for layer, paths in tracing.TARGETS.items():
    mod = sys.modules["treeorder." + layer]
    for path in paths:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        value = owner.__dict__.get(attr) if owner_name else getattr(mod, attr, None)
        if not callable(value):
            out["unresolved"].append(layer + "." + path)
for layer, table in homes.items():
    mod = sys.modules["treeorder." + layer]
    for name, sibling in table.items():
        out["served"] += 1
        if getattr(mod, name) is not getattr(importlib.import_module("treeorder." + sibling), name):
            out["not_own"].append(layer + "." + name)
    try:
        getattr(mod, "no_such_name")
    except AttributeError as err:
        if str(err) != f"module 'treeorder.{{layer}}' has no attribute 'no_such_name'":
            out["unknown"].append(str(err))
    else:
        out["unknown"].append(layer)
print(json.dumps(out))
"""


def test_tracer_targets_resolve_and_lazily_served_names_are_the_siblings_own():
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    done = subprocess.run([sys.executable, "-c", TRACER_TARGETS.format(tracing=str(tracing))], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)
    assert out.pop("served") >= 30
    assert out == {"unresolved": [], "not_own": [], "unknown": []}


def test_public_names_are_unchanged_and_resolve_to_their_home_objects():
    assert tuple(treeorder.__all__) == PUBLIC
    listed = dir(treeorder)
    for name in PUBLIC:
        home = importlib.import_module(f"treeorder.{treeorder._HOME[name]}")
        assert getattr(treeorder, name) is getattr(home, name), name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from treeorder import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(treeorder, name), name


def test_an_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'banana'"):
        treeorder.banana  # noqa: B018
    with pytest.raises(ImportError):
        exec("from treeorder import banana", {})
    namespace: dict = {}
    exec("from treeorder import corpus, specio", namespace)
    assert namespace["specio"] is importlib.import_module("treeorder.specio")


@pytest.mark.parametrize("name, home", sorted(ERROR_HOMES.items()))
def test_each_error_class_is_defined_once_and_reexported(name, home):
    cls = getattr(errors, name)
    assert getattr(importlib.import_module(f"treeorder.{home}"), name) is cls
    assert cls.__module__ == "treeorder.errors"


def test_the_error_tuples_cover_the_contract():
    from treeorder.cli import CHECK_ERRORS, SPEC_ERRORS

    assert set(CHECK_ERRORS) | set(SPEC_ERRORS) == {getattr(errors, name) for name in ERROR_HOMES}
    assert not set(CHECK_ERRORS) & set(SPEC_ERRORS)
    assert {c.__name__ for c in SPEC_ERRORS} == {"SpecError", "CatalogError", "GroupError"}
