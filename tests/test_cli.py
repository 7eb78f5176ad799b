from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from treeorder import cli, errors, orbitorder
from treeorder.catalog import EXAMPLES, get_example
from treeorder.cli import main
from treeorder.orbitorder import orbit_poset
from treeorder.relations import REL_NAMES
from treeorder.specio import canonical_json, jsonable
from treeorder.suites import get_action_scenario

VALID_POSET = {
    "version": "1",
    "kind": "poset",
    "body": {
        "elements": ["a", "b", "c"],
        "relations": [
            ["a", "lt", "b"],
            ["a", "lt", "c"],
            ["b", "siml", "c"],
        ],
    },
}

BROKEN_CONE = {
    "version": "1",
    "kind": "group-order",
    "body": {
        "name": "broken-z",
        "group": {"family": "z"},
        "cones": {
            "positive": {"op": "cmp", "component": 0, "rel": "==", "value": 1},
            "upper": {"op": "const", "value": False},
            "lower": {"op": "const", "value": False},
        },
    },
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_builtin_cone_passes(capsys):
    assert main(["check-cones", "z-standard", "--radius", "6"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "condition 6" in out


def test_broken_cone_fails_with_witness(tmp_path, capsys):
    spec = write(tmp_path, "broken.json", BROKEN_CONE)
    assert main(["check-cones", spec, "--radius", "8"]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "witness: 1, 1, 2" in out


def test_unknown_name_is_a_spec_error(capsys):
    assert main(["check-cones", "nonesuch"]) == 2
    err = capsys.readouterr().err
    assert "neither a spec file nor a builtin cone" in err


def test_malformed_file_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-cones", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["check-cones"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_json_reports_are_canonical_and_stable(capsys):
    assert main(["check-cones", "dihedral-standard", "--radius", "6", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check-cones", "dihedral-standard", "--radius", "6", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["ok"] is True and data["cone"] == "dihedral-standard"


def test_check_poset_paths(tmp_path, capsys):
    spec = write(tmp_path, "poset.json", VALID_POSET)
    assert main(["check-poset", spec]) == 0
    assert "result: PASS" in capsys.readouterr().out
    sick = dict(VALID_POSET, body={
        "elements": ["a", "b", "c"],
        "relations": [
            ["a", "lt", "b"],
            ["a", "lt", "c"],
            ["b", "simu", "c"],
        ],
    })
    spec = write(tmp_path, "sick.json", sick)
    assert main(["check-poset", spec]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "lower bound" in out


def test_build_tree_report_and_artifacts(capsys):
    assert main(["build-tree", "z-standard", "--radius", "4", "--stages", "4"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out and "undetermined" in out
    assert main(["build-tree", "z-standard", "--radius", "4", "--stages", "4", "--emit", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert main(["build-tree", "z-standard", "--radius", "4", "--stages", "4", "--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree"
    assert doc["body"]["arcs"]


def test_blowup_builtin_and_file(tmp_path, capsys):
    assert main(["blowup", "alternating-line", "--radius", "2"]) == 0
    assert "branchless: pass" in capsys.readouterr().out
    tree_doc = {
        "version": "1",
        "kind": "tree",
        "body": {
            "nodes": ["a", "b", "c"],
            "arcs": [["e1", "a", "b"], ["e2", "c", "b"]],
            "boundary": ["a", "c"],
        },
    }
    spec = write(tmp_path, "tree.json", tree_doc)
    assert main(["blowup", spec, "--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree"
    assert main(["blowup", "baobab"]) == 2


def test_orbit_order_scenarios(tmp_path, capsys):
    assert main(["orbit-order", "z-line", "--radius", "4"]) == 0
    out = capsys.readouterr().out
    assert "pairs lt" in out
    scen = {"version": "1", "kind": "scenario", "body": {"name": "dihedral-line", "radius": 3}}
    spec = write(tmp_path, "scen.json", scen)
    assert main(["orbit-order", spec, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["radius"] == 3
    assert data["poset"]["kind"] == "poset"


def test_quotient_both_ways(capsys):
    assert main(["quotient", "z2-lex", "--subgroup", "second-factor", "--radius", "4"]) == 0
    assert "complete convexity: pass" in capsys.readouterr().out
    assert main(["quotient", "z-standard", "--subgroup", "even", "--radius", "4"]) == 1
    out = capsys.readouterr().out
    assert "witness: 1 lies between" in out


def test_roundtrip_command(capsys):
    assert main(["roundtrip", "dihedral-standard", "--radius", "4"]) == 0
    out = capsys.readouterr().out
    assert "order agreement on determined pairs: pass" in out
    assert "undetermined elements: none" in out


def test_a_round_trip_below_nine_tenths_pair_coverage_fails_everywhere(monkeypatch, capsys):
    # the last ball element escapes: 8 of 9 realized, 56 of 72 pairs, below 9/10
    real_orbit_points = orbitorder.orbit_points

    def one_escapes(action, x0, radius):
        points, escaped = real_orbit_points(action, x0, radius)
        last = list(points)[-1]
        return {g: p for g, p in points.items() if g != last}, (*escaped, last)

    monkeypatch.setattr(orbitorder, "orbit_points", one_escapes)
    assert main(["roundtrip", "z-standard", "--radius", "4"]) == 1
    out = capsys.readouterr().out
    assert "determined pair coverage: 7/9" in out
    assert "order agreement on determined pairs: pass" in out and "result: FAIL" in out
    verdicts = {}
    for argv in (["roundtrip", "z-standard"], ["examples", "run", "roundtrip-z"], ["examples", "run", "z"]):
        status = main([*argv, "--radius", "4", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["pair_coverage"] == "7/9" and not report.get("mismatches")
        verdicts[argv[-1]] = (status, report["ok"])
    assert verdicts == dict.fromkeys(["z-standard", "roundtrip-z", "z"], (1, False))


def test_examples_list_and_run(capsys):
    assert main(["examples", "list"]) == 0
    listing = capsys.readouterr().out
    assert "dihedral" in listing and "detect-broken-cone" in listing
    assert main(["examples", "run", "dihedral", "--radius", "4"]) == 0
    out = capsys.readouterr().out
    assert "cone_axioms: True" in out
    assert "roundtrip: True" in out
    assert "result: PASS" in out
    assert main(["examples", "run"]) == 2
    assert main(["examples", "run", "zeppelin"]) == 2


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("name", [entry.name for entry in EXAMPLES])
def test_examples_run_prints_the_suite_report_as_it_is(name, radius, capsys):
    rep = get_example(name).run(radius)
    assert main(["examples", "run", name, "--radius", str(radius), "--json"]) == (0 if rep["ok"] else 1)
    assert capsys.readouterr().out == canonical_json(jsonable(rep))


@pytest.mark.parametrize("scenario", ["z-line", "dihedral-line"])
def test_orbit_order_pair_counts_are_the_per_pair_relation_counts(scenario, capsys):
    for radius in range(9):
        assert main(["orbit-order", scenario, "--radius", str(radius), "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)["pair_counts"]
        poset = orbit_poset(*get_action_scenario(scenario, radius), radius).poset
        assert counts == Counter(REL_NAMES[poset.rel(a, b)] for a, b in poset.iter_pairs()), radius


def _doc(kind, body):
    return {"version": "1", "kind": kind, "body": body}


def _z2(positive):
    return _doc("group-order", {"group": {"family": "zk", "k": 2}, "cones": {"positive": positive}})


def _group(group):
    return _doc("group-order", {"group": group, "cones": {"positive": {"op": "const", "value": False}}})


MALFORMED = {
    "table-products-not-rows": ("check-cones", _doc("group-order", {
        "group": {"table": {"elements": [0, 1], "products": 5, "identity": 0}},
        "cones": {"positive": {"op": "const", "value": False}},
    })),
    "parity-component-out-of-range": ("check-cones", _doc("group-order", {
        "group": {"family": "z"},
        "cones": {"positive": {"op": "parity", "component": 3, "value": 0}},
    })),
    "lex-components-out-of-range": ("check-cones", _doc("group-order", {
        "group": {"family": "z"},
        "cones": {"positive": {"op": "lex-positive", "components": [4]}},
    })),
    "cmp-component-past-the-rank": ("check-cones", _z2({"op": "cmp", "component": 2, "rel": ">", "value": 0})),
    "cmp-component-behind-a-short-circuit": ("check-cones", _z2({"op": "any", "args": [
        {"op": "const", "value": True}, {"op": "cmp", "component": 5, "rel": ">", "value": 0}]})),
    "free-group-parity-component": ("check-cones", _doc("group-order", {
        "group": {"family": "free"}, "cones": {"positive": {"op": "parity", "component": 0, "value": 1}},
    })),
    "free-group-lex-positive": ("check-cones", _doc("group-order", {
        "group": {"family": "free"}, "cones": {"positive": {"op": "lex-positive"}},
    })),
    "cmp-component-negative": ("check-cones", _z2({"op": "cmp", "component": -1, "rel": ">", "value": 0})),
    "cmp-component-boolean": ("check-cones", _z2({"op": "cmp", "component": True, "rel": ">", "value": 0})),
    "cmp-value-boolean": ("check-cones", _z2({"op": "cmp", "component": 0, "rel": ">", "value": True})),
    "parity-component-negative": ("check-cones", _z2({"op": "parity", "component": -1, "value": 0})),
    "parity-value-boolean": ("check-cones", _z2({"op": "parity", "component": 0, "value": True})),
    "lex-components-negative": ("check-cones", _z2({"op": "lex-positive", "components": [-1]})),
    "lex-components-boolean": ("check-cones", _z2({"op": "lex-positive", "components": [True, 0]})),
    "group-zk-rank-zero": ("check-cones", _group({"family": "zk", "k": 0})),
    "group-free-rank-zero": ("check-cones", _group({"family": "free", "k": 0})),
    "group-z-with-rank": ("check-cones", _group({"family": "z", "k": 2})),
    "group-dihedral-with-rank": ("check-cones", _group({"family": "dihedral", "k": 1})),
    "group-order-builtin-unknown": ("check-cones", _doc("group-order", {"builtin": "banana"})),
    "group-order-name-not-a-string": ("check-cones", _doc("group-order", {
        "name": ["x", 5], "group": {"family": "z"}, "cones": {"positive": {"op": "const", "value": False}},
    })),
    "tree-duplicate-node": ("blowup", _doc("tree", {
        "nodes": ["a", "a", "b"], "arcs": [["e", "a", "b"]],
    })),
    "tree-arc-to-missing-node": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "c"]],
    })),
    "poset-relation-names-unlisted-element": ("check-poset", _doc("poset", {
        "elements": [1, 2], "relations": [[1, "lt", 3]],
    })),
    "poset-object-as-element": ("check-poset", _doc("poset", {
        "elements": [{"a": 1}, 2], "relations": [],
    })),
    # every listed pair is present, so only the stray relation is wrong
    "poset-extra-relation-names-unlisted-element": ("check-poset", _doc("poset", {
        "elements": [1, 2], "relations": [[1, "lt", 2], [1, "lt", 3]],
    })),
    "tree-boundary-not-a-node": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "b"]], "boundary": ["a", "z"],
    })),
    "tree-arc-kind-unknown": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [{"id": "e", "tail": "a", "head": "b", "kind": "banana"}],
    })),
    "tree-arc-core-not-boolean": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [{"id": "e", "tail": "a", "head": "b", "core": "yes"}],
    })),
    "tree-adjacency-cap-missing": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "b"]], "adjacencies": [["z", "e", "head"]],
    })),
    "tree-adjacency-arc-missing": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "b"]], "adjacencies": [["a", "f", "head"]],
    })),
    "tree-adjacency-side-unknown": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "b"]], "adjacencies": [["a", "e", "middle"]],
    })),
    "tree-adjacency-not-a-triple": ("blowup", _doc("tree", {
        "nodes": ["a", "b"], "arcs": [["e", "a", "b"]], "adjacencies": [["a", "e"]],
    })),
    "tree-adjacency-repeated": ("blowup", _doc("tree", {
        "nodes": ["a", "b", {"id": "o", "kind": "open"}], "arcs": [["e", "o", "b"]],
        "adjacencies": [["a", "e", "tail"], ["a", "e", "tail"]],
    })),
    "poset-relation-to-itself": ("check-poset", _doc("poset", {
        "elements": [1, 2], "relations": [[1, "lt", 1]],
    })),
    "scenario-name-unknown": ("orbit-order", _doc("scenario", {"name": "banana"})),
    "scenario-radius-string": ("orbit-order", _doc("scenario", {"name": "z-line", "radius": "x"})),
    "scenario-radius-fraction": ("orbit-order", _doc("scenario", {"name": "z-line", "radius": 1.5})),
    "scenario-radius-boolean": ("orbit-order", _doc("scenario", {"name": "z-line", "radius": True})),
    "scenario-radius-negative": ("orbit-order", _doc("scenario", {"name": "z-line", "radius": -1})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_two_with_one_line(name, tmp_path, capsys):
    command, payload = MALFORMED[name]
    spec = write(tmp_path, f"{name}.json", payload)
    assert main([command, spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _nested_node_tree(depth: int) -> dict:
    nid = "a"
    for _ in range(depth):
        nid = [nid]
    return _doc("tree", {"nodes": [nid, "b"], "arcs": [["e", nid, "b"]]})


@pytest.mark.parametrize("command, text", [
    ("check-cones", "[" * 100_000 + "]" * 100_000),
    ("blowup", json.dumps(_nested_node_tree(600))),
], ids=["brackets", "tree-node-id"])
def test_a_document_nested_too_deeply_exits_two_with_one_line(command, text, tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text(text)
    assert main([command, str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(" nests too deeply\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "blowup alternating-line --radius 2",
    "blowup alternating-line --radius 6",
    "build-tree dihedral-standard --radius 3 --stages 99",
    "build-tree dihedral-standard --radius 4 --stages 99",
])
def test_an_emitted_blowup_reads_back_as_its_own_blowup(argv, tmp_path, capsys):
    # a layout is blown up once first; a blow-up has no branch point left,
    # so blowing it up again prints its input back, byte for byte
    def emit(command: list) -> str:
        assert main(command + ["--emit", "json"]) == 0
        return capsys.readouterr().out

    spec = tmp_path / "tree.json"
    spec.write_text(emit(argv.split()))
    if argv.startswith("build-tree"):
        spec.write_text(emit(["blowup", str(spec)]))
    assert emit(["blowup", str(spec)]) == spec.read_text()


@pytest.mark.parametrize("command", [
    "check-cones", "check-poset", "build-tree", "blowup", "orbit-order", "roundtrip",
    "quotient --subgroup even",
])
def test_a_missing_spec_file_has_one_message(command, tmp_path, capsys):
    spec = str(tmp_path / "missing.json")
    assert main(command.split() + [spec]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {spec}: no such file\n")


@pytest.mark.parametrize("argv", [
    "roundtrip z-standard --radius 0",
    "build-tree z-standard --radius 0",
    "examples run z --radius 0",
    "examples run dihedral --radius 0",
])
def test_a_one_element_ball_passes(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("command", ["build-tree", "roundtrip"])
def test_a_one_element_table_group_passes(command, tmp_path, capsys):
    spec = write(tmp_path, "trivial.json", _group({"table": {"elements": [0], "products": [[0]], "identity": 0}}))
    assert main([command, spec]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


S3 = ["".join(p) for p in permutations("012")]  # the identity "012" first, as component 0 == 0
S3_LOWER = _doc("group-order", {
    "group": {"table": {"elements": S3, "products": [["".join(a[int(i)] for i in b) for b in S3] for a in S3],
                        "identity": "012"}},
    "cones": {"positive": {"op": "const", "value": False},
              "lower": {"op": "not", "arg": {"op": "cmp", "component": 0, "rel": "==", "value": 0}}},
})


@pytest.mark.parametrize("argv", [["build-tree", "--stages", "99"], ["roundtrip"]], ids=["build-tree", "roundtrip"])
def test_a_table_groups_cone_builds_and_round_trips(argv, tmp_path, capsys):
    spec = write(tmp_path, "s3.json", S3_LOWER)
    assert main([argv[0], spec, *argv[1:]]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("arcs, problem", [
    ([["e1", "a", "b"], ["e2", "b", "c"], ["e3", "c", "a"]], "has a cycle"),
    ([["e1", "a", "b"], ["e2", "c", "d"]], "is not connected"),
], ids=["cycle", "two-components"])
def test_blowup_of_a_graph_that_is_not_a_tree_fails_the_check(arcs, problem, tmp_path, capsys):
    nodes = sorted({node for _arc, *ends in arcs for node in ends})
    spec = write(tmp_path, "tree.json", _doc("tree", {"nodes": nodes, "arcs": arcs}))
    assert main(["blowup", spec]) == 1
    assert capsys.readouterr().err == (
        f"check failed: blow-up needs a well-formed tree: identified arc graph {problem}\n")


def test_blowup_of_a_branching_boundary_node_fails_the_check(tmp_path, capsys):
    # the blow-up leaves a boundary node alone, so one with two out-arcs
    # would stay a branch point
    spec = write(tmp_path, "tree.json", _doc("tree", {
        "nodes": [0, 1, 2, 3, {"id": 4, "kind": "open"}],
        "arcs": [[["e", 0], 0, 3], [["e", 1], 4, 3], [["e", 2], 2, 1], [["e", 3], 2, 3]], "boundary": [2],
    }))
    assert main(["blowup", spec]) == 1
    assert capsys.readouterr().err == "check failed: blow-up needs a well-formed tree: boundary node 2 is not a leaf\n"


@pytest.mark.parametrize("argv", [
    "quotient dihedral-standard --subgroup even",
    "quotient z-standard --subgroup second-factor",
    "quotient free2-standard --subgroup even",
    "quotient free2-standard --subgroup second-factor",
])
def test_subgroup_of_another_group_is_a_spec_error(argv, capsys):
    assert main(argv.split() + ["--radius", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: subgroup ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "roundtrip z-standard --radius -2",
    "check-cones z-standard --radius -1",
    "blowup alternating-line --radius -1",
    "orbit-order z-line --radius -1",
    "quotient z2-lex --subgroup second-factor --radius -1",
    "build-tree z-standard --stages -1",
    "examples run z --radius -1",
])
def test_negative_radius_or_stage_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


SEEDED = [
    "roundtrip dihedral-standard --radius 4",
    "build-tree z2-lex --radius 2 --emit json",
    "orbit-order dihedral-line --radius 3 --json",
    "blowup alternating-line --emit dot",
    "examples run dihedral --radius 4",
]


def test_output_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs[seed] = [
            subprocess.run([sys.executable, "-m", "treeorder.cli", *argv.split()],
                           env=env, capture_output=True, timeout=120)
            for argv in SEEDED
        ]
    for argv, first, second in zip(SEEDED, runs["0"], runs["1"]):
        assert first.returncode == second.returncode == 0, argv
        assert first.stdout == second.stdout and first.stdout, argv


# site may load third-party modules at start-up, so only what importing the
# package adds to sys.modules counts
IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
before = set(sys.modules)
import treeorder
for info in pkgutil.iter_modules(treeorder.__path__):
    importlib.import_module("treeorder." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(name for name in loaded if name != "treeorder" and name not in sys.stdlib_module_names))
"""


def test_the_library_imports_only_the_standard_library():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_EVERYTHING], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# the exit status and stderr prefix of each error class in the contract
CONTRACT = {
    "PosetError": (1, "check failed: "), "ConeError": (1, "check failed: "),
    "BuildError": (1, "check failed: "), "OrbitError": (1, "check failed: "),
    "TreeError": (1, "check failed: "), "SpecError": (2, "error: "),
    "CatalogError": (2, "error: "), "GroupError": (2, "error: "),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_each_contract_error_maps_to_its_exit_status(name, monkeypatch, capsys):
    def failing(args):
        raise getattr(errors, name)("the witness")

    monkeypatch.setitem(cli._COMMANDS, "check-cones", failing)
    code, prefix = CONTRACT[name]
    assert main(["check-cones", "z-standard"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{prefix}the witness\n")


@pytest.mark.parametrize("exc", [ValueError, KeyError, LookupError, RuntimeError], ids=lambda e: e.__name__)
def test_an_error_outside_the_contract_propagates(exc, monkeypatch):
    def failing(args):
        raise exc("not a contract error")

    monkeypatch.setitem(cli._COMMANDS, "check-cones", failing)
    with pytest.raises(exc, match="not a contract error"):
        main(["check-cones", "z-standard"])


NOT_A_GROUP = _group({"table": {"elements": [0, 1], "products": [[0, 1], [1, 1]], "identity": 0}})


def _table(elements, products, identity="e"):
    return _group({"table": {"elements": elements, "products": products, "identity": identity}})


# real failures in a fresh process, where each error class comes from a module
# the command loads only when it runs: (argv, document to pass, exit, stderr)
FRESH_FAILURES = {
    "poset-error": (["check-poset"], _doc("poset", {"elements": ["a", "b", "c"], "relations": [
        ["a", "lt", "b"], ["a", "lt", "c"], ["b", "simu", "c"]]}), 1, ""),
    "tree-error": (["blowup"], _doc("tree", {"nodes": ["a", "b"], "arcs": [["e1", "a", "b"], ["e2", "b", "a"]]}),
                   1, "check failed: blow-up needs a well-formed tree: identified arc graph has a cycle\n"),
    "catalog-error-example": (["examples", "run", "banana"], None, 2, "error: unknown example 'banana'"),
    "spec-error-list-name": (["examples", "list", "z"], None, 2,
                             "error: examples list takes no name; try 'examples run z'\n"),
    "catalog-error-subgroup": (["quotient", "z2-lex", "--subgroup", "banana"], None, 2,
                               "error: unknown subgroup 'banana'; known: even, second-factor\n"),
    "group-error": (["check-cones"], NOT_A_GROUP, 2, "error: 1 has no inverse\n"),
    "group-error-duplicate": (["check-cones", "--radius", "1"], _table(["e", "e"], [["e", "e"], ["e", "e"]]), 2,
                              "error: duplicate table elements\n"),
    "group-error-identity": (["check-cones", "--radius", "1"], _table(["e", "a"], [["e", "a"], ["a", "e"]], "x"),
                             2, "error: identity missing from the table elements\n"),
    "group-error-square": (["check-cones", "--radius", "1"], _table(["e", "a"], [["e", "a"]]), 2,
                           "error: product table must be square over the elements\n"),
    "group-error-escape": (["check-cones", "--radius", "1"], _table(["e", "a"], [["e", "a"], ["a", "b"]]), 2,
                           "error: product 'a'*'a' = 'b' escapes the table\n"),
    "group-error-identity-law": (["check-cones", "--radius", "1"], _table(["e", "a"], [["a", "a"], ["a", "e"]]),
                                 2, "error: identity law fails at 'e'\n"),
    "group-error-associativity": (["check-cones", "--radius", "1"],
                                  _table(["e", "a", "b"], [["e", "a", "b"], ["a", "e", "e"], ["b", "e", "a"]]),
                                  2, "error: associativity fails at 'a', 'a', 'b'\n"),
    "spec-error-node-kind": (["blowup"], _doc("tree", {"nodes": [{"id": "a", "kind": "bogus"}], "arcs": []}), 2,
                             "error: tree body: bad node kind 'bogus'\n"),
    "spec-error-arc-core": (["blowup"], _doc("tree", {"nodes": ["a", "b"], "arcs": [
        {"id": "e", "tail": "a", "head": "b", "core": "yes"}]}), 2,
        "error: tree body: arc 'e' has a non-boolean core 'yes'\n"),
    "spec-error-arc-kind": (["blowup"], _doc("tree", {"nodes": ["a", "b"], "arcs": [
        {"id": "e", "tail": "a", "head": "b", "kind": "bogus"}]}), 2,
        "error: tree body: bad arc kind 'bogus'\n"),
    "spec-error": (["check-cones", "nonesuch"], None, 2,
                   "error: 'nonesuch' is neither a spec file nor a builtin cone name\n"),
    "spec-error-builtin": (["check-cones"], _doc("group-order", {"builtin": "banana"}), 2,
                           "error: unknown cone 'banana'; known: "),
}


@pytest.mark.parametrize("name", sorted(FRESH_FAILURES))
def test_exit_statuses_hold_in_a_fresh_process(name, tmp_path):
    argv, payload, code, err = FRESH_FAILURES[name]
    if payload is not None:
        argv = [*argv, write(tmp_path, "spec.json", payload)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "treeorder.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == code
    assert done.stderr.startswith(err) and done.stderr.count("\n") == (1 if err else 0)
    if code == 2:
        assert done.stdout == ""
    if not err:  # check-poset reports an inadmissible poset as a failed check on stdout
        assert "poset: INVALID" in done.stdout and done.stdout.endswith("result: FAIL\n")


@pytest.mark.parametrize("argv", [
    "examples list",
    "roundtrip z-standard --radius 2",
    "check-cones z-standard --radius 2 --json",
])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "treeorder.cli", *argv.split()], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("argv, err", [
    ("quotient z2-product --subgroup second-factor --radius 3",
     "check failed: cones do not partition at (1,-1): no piece\n"),
    ("quotient z-broken --subgroup even --radius 2", "check failed: cones do not partition at -2: no piece\n"),
])
def test_a_quotient_scan_meets_the_first_partition_failure_in_scan_order(argv, err, capsys):
    # a scan that classified whole rows up front would meet (-1,1) first on z2-product
    assert main(argv.split()) == 1
    assert capsys.readouterr().err == err


def test_a_quotient_scan_classifies_each_distinct_quotient_about_once(monkeypatch, capsys):
    from treeorder.grouporder import ConeStructure

    calls = []
    classify = ConeStructure.classify

    def counted(self, g, h):
        calls.append(None)
        return classify(self, g, h)

    monkeypatch.setattr(ConeStructure, "classify", counted)
    assert main(["quotient", "z2-lex", "--subgroup", "second-factor", "--radius", "6"]) == 0
    assert len(calls) <= 2000  # 70,506 when every pair was classified
