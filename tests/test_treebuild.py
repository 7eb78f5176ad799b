from __future__ import annotations

import copy
import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from treeorder import orbitorder
from treeorder.actions import act_on_labels
from treeorder.catalog import BUILTIN_CONES, dihedral_standard, get_cone, run_build_suite, z_standard
from treeorder.cli import main
from treeorder.corpus import all_extended_posets, tree_corpus
from treeorder.errors import ConeError
from treeorder.gplus import blow_up_gplus
from treeorder.grouporder import ConeStructure, induced_ball_poset
from treeorder.groups import TableGroup
from treeorder.orbitorder import ConePipeline
from treeorder.ordertree import TreeIndex
from treeorder.poset import ExtendedPoset, PosetError, from_pairs
from treeorder.treebuild import (
    MINUS,
    PLAIN,
    PLUS,
    BuildError,
    _path_points,
    auto_pairs,
    build_from_cones,
    build_stage,
    build_tree,
    doubled_between,
    doubled_members,
    normalize_decomposition,
    orient_segments,
    r_equivalent,
    stage_labels,
    verify_stage_properties,
)


def plains_placed(state):
    out = {}
    for lab in state.nu:
        if lab[1] == PLAIN:
            out[lab[0]] = state.find(state.nu[lab])
    return out


def plain_label_count(layout):
    return sum(lab[1] == PLAIN for lab in layout.label_point)


def test_integer_build_properties_hold():
    state = build_from_cones(z_standard(), radius=4, stages=4)
    props = verify_stage_properties(state)
    assert props["ok"], props
    assert props["gaps"]["violations"] == []
    assert props["paths"]["violations"] == []
    assert props["identity"]["violations"] == []


def test_integer_build_places_a_path():
    state = build_from_cones(z_standard(), radius=4, stages=4)
    placed = plains_placed(state)
    assert set(placed) == {-2, -1, 0, 1, 2}
    # Distinct group elements land on distinct points.
    assert len(set(placed.values())) == len(placed)


def test_dihedral_build_properties_hold():
    state = build_from_cones(dihedral_standard(), radius=4, stages=4)
    props = verify_stage_properties(state)
    assert props["ok"], props
    placed = plains_placed(state)
    assert len(set(placed.values())) == len(placed)


def test_orientation_is_direction_independent():
    state = build_from_cones(dihedral_standard(), radius=4, stages=4)
    layout = orient_segments(state)
    assert 0 < plain_label_count(layout) <= len(state.nu)
    assert set(layout.label_point) == set(state.nu)


def test_stage_count_is_respected():
    short = build_from_cones(z_standard(), radius=6, stages=2)
    longer = build_from_cones(z_standard(), radius=6, stages=4)
    assert len(short.stages_done) == 2
    assert len(longer.stages_done) == 4
    assert len(plains_placed(short)) < len(plains_placed(longer))


def test_acting_by_a_generator_permutes_labels():
    state = build_from_cones(z_standard(), radius=4, stages=4)
    report = act_on_labels(state, 1)
    images = {lab: (lab[0] + 1, lab[1]) for lab in state.nu}
    assert report["moved"] == {lab: image for lab, image in images.items() if image in state.nu}
    assert set(report["escaped"]) == {lab for lab, image in images.items() if image not in state.nu}
    assert report["moved"] and report["escaped"]
    assert report["ok"] and report["checked_triples"] > 0


def lay(p, *stages):
    """Lay ``stages`` one by one onto the base-only build of p."""
    state = build_tree(p, stages=0)
    for stage in stages:
        build_stage(state, stage)
    return state


def relay_the_last_stage(p):
    """Lay the last stage (x, y) of the full build again, once ``built``
    has lost the members of B(x, y) past x while ``nu`` keeps their labels:
    the stage then meets the built part in x alone, and its first label
    past x's tags is laid already."""
    state = build_tree(p)
    x, y = state.stages_done[-1]
    state.built -= set(p.between_members(x, y)[1:])
    return build_stage(state, (x, y))


@pytest.mark.parametrize("build, message", [
    (lambda p: lay(p, (0, 1), (0, 3)), "stage (0, 3) is not a single-point gluing; built part ['0', '1']"),
    (lambda p: lay(p, (0, 1), (0, 1)), "stage (0, 1) is not a single-point gluing; built part ['0', '1']"),
    (lambda p: build_tree(p, stages=-1), "stage count must not be negative, got -1"),
    (lambda p: ConePipeline.of(z_standard(), 3).build(-1), "stage count must not be negative, got -1"),
    (lambda p: ConePipeline.of(z_standard(), 3).layout(-1), "stage count must not be negative, got -1"),
    (relay_the_last_stage, "label laid twice: 3-"),
], ids=["case1-past-x", "case1-again", "negative-stages",
        "pipeline-build-negative", "pipeline-layout-negative", "label-laid-twice"])
def test_each_refusal_of_the_construction_is_pinned(build, message):
    with pytest.raises(BuildError) as exc:
        build(induced_ball_poset(z_standard(), 3))
    assert str(exc.value) == message


def test_a_refused_stage_count_leaves_the_pipeline_empty():
    # a slice by a negative count would lay all but the last stages
    pipeline = ConePipeline.of(z_standard(), 3)
    for step in (pipeline.build, pipeline.layout):
        with pytest.raises(BuildError, match="must not be negative, got -2"):
            step(-2)
    assert pipeline._per_stages == {}
    assert len(pipeline.build(99).stages_done) == len(normalize_decomposition(pipeline.ball_poset)) == 6


def test_each_normalized_stage_meets_the_built_part_in_its_first_point_alone():
    # so every stage glues at one built point, and the built part always
    # has a greatest element on the way to the new one
    posets = ball_posets() + all_extended_posets(4) + [from_pairs(["e"], [])]
    assert len(posets) == 423
    for p in posets:
        built = {p.elements[0]}
        for x, y in normalize_decomposition(p):
            members = set(p.between_members(x, y))
            assert members & built == {x}, (p.elements, x, y)
            built |= members
        assert built == set(p.elements), p.elements


def test_the_star_cover_reads_one_between_set_per_stage(monkeypatch):
    # a built y has all of B(base, y) built, so only the elements that
    # start a stage have their between set read
    calls = []
    members = ExtendedPoset.between_members
    monkeypatch.setattr(ExtendedPoset, "between_members", lambda self, a, b: calls.append(b) or members(self, a, b))
    posets = ball_posets() + all_extended_posets(4)
    assert len(posets) == 422
    for p in posets:
        calls.clear()
        assert calls == [y for _x, y in normalize_decomposition(p)], p.elements


def test_each_stage_and_each_verified_pair_reads_one_between_set(monkeypatch):
    # the star cover reads one between set per stage, and a stage is laid
    # from the members of the between set it glues, so its doubled labels
    # read no second one; verification reads one per pair
    p = ConePipeline.of(get_cone("free2-standard"), 3).ball_poset
    stages = normalize_decomposition(p)
    calls = []
    members = ExtendedPoset.between_members
    monkeypatch.setattr(ExtendedPoset, "between_members", lambda self, a, b: calls.append((a, b)) or members(self, a, b))
    state = build_tree(p)
    assert len(stages) == 6
    assert calls == [(p.elements[0], y) for _x, y in stages] + list(stages)
    calls.clear()
    assert verify_stage_properties(state)["ok"]
    assert calls == list(itertools.combinations(sorted(state.built, key=p.index), 2))


def test_path_points_climbs_to_the_meeting_point_and_not_across_components():
    index = TreeIndex("abcde", [("a", "b"), ("b", "c"), ("a", "d")])
    assert _path_points(index, "c", "d") == ["c", "b", "a", "d"]
    assert _path_points(index, "a", "a") == ["a"]
    with pytest.raises(BuildError, match="points are not connected"):
        _path_points(index, "c", "e")


@pytest.mark.parametrize("cone, radius", [(z_standard, 6), (dihedral_standard, 4)], ids=["z-r6", "dihedral-r4"])
def test_verification_tests_each_pair_for_a_chain_at_most_once_per_row(cone, radius, monkeypatch):
    calls = []
    is_chain = ExtendedPoset._is_chain
    monkeypatch.setattr(ExtendedPoset, "_is_chain", lambda self, mask: calls.append(mask) or is_chain(self, mask))
    state = build_from_cones(cone(), radius=radius)
    n = 3 * state.poset.n  # the doubled order's size
    assert 0 < len(calls) <= n * (n - 1)
    built = len(calls)
    assert verify_stage_properties(state)["ok"]
    assert len(calls) == built  # verification reads members only


@pytest.mark.parametrize("name, radii", [("z-standard", range(11)), ("dihedral-standard", range(9)),
                                         ("z2-lex", range(4)), ("free2-standard", range(4))],
                         ids=["z-r10", "dihedral-r8", "z2-lex-r3", "free2-r3"])
def test_doubled_between_sets_read_off_the_base_order_match_the_doubled_poset(name, radii):
    pairs = 0
    for radius in radii:
        state = ConePipeline.of(get_cone(name), radius).build(None)
        p = state.poset
        doubled = blow_up_gplus(p)
        for a in state.built:
            for b in state.built:
                if a != b:
                    got = doubled_members(p, p.between_members(a, b))
                    assert got == list(doubled.between_members((a, PLAIN), (b, PLAIN))), (a, b)
                    pairs += 1
    assert pairs > 100


@pytest.mark.parametrize("name, radius", [("dihedral-standard", 2), ("z2-lex", 1), ("z-standard", 3)])
def test_doubled_betweenness_read_off_the_base_order_matches_the_doubled_poset(name, radius):
    p = induced_ball_poset(get_cone(name), radius)
    doubled = blow_up_gplus(p)
    labels = doubled.elements
    for x in labels:
        for z in labels:
            if x != z:
                assert [doubled_between(p, x, y, z) for y in labels] == [doubled.is_between(x, y, z) for y in labels]


def test_a_non_total_between_set_raises_the_base_orders_error():
    chain = ExtendedPoset(range(4), [0b1110, 0b1100, 0b1000, 0], [0, 0b1, 0b11, 0b111], [0] * 4, [0] * 4)
    state = build_tree(chain)
    assert sorted(state.built) == [0, 1, 2, 3]
    # rows corrupted past validation into the diamond: 1 and 2 both lie
    # between 0 and 3 and face each other, so B(0, 3) has no travel order
    diamond = copy.copy(chain)
    diamond._up, diamond._down = (0b1110, 0b1000, 0b1000, 0), (0, 0b1, 0b1, 0b111)
    diamond._simu = (0, 0b100, 0b10, 0)
    diamond._comp = tuple(u | d for u, d in zip(diamond._up, diamond._down))
    diamond._bet = {}
    with pytest.raises(PosetError, match=r"^travel order on B\(0, 3\) is not total at \(1, 2\)$"):
        diamond.between_members(0, 3)
    state.poset = diamond
    # the path check reads B(0, 3) off the base order and lets its error stand
    with pytest.raises(PosetError) as err:
        verify_stage_properties(state)
    assert str(err.value) == "travel order on B(0, 3) is not total at (1, 2)"


def test_the_build_suite_never_builds_the_doubled_order(monkeypatch):
    def refuse(p):
        pytest.fail("the doubled poset was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("treeorder.") and hasattr(module, "blow_up_gplus"):
            monkeypatch.setattr(module, "blow_up_gplus", refuse)
    for name, radius in [("z-standard", 6), ("dihedral-standard", 6), ("z2-lex", 2), ("free2-standard", 2)]:
        assert run_build_suite(get_cone(name), radius=radius, stages=None)["ok"]


@pytest.mark.parametrize("argv, bound", [
    (["build-tree", "free2-standard", "--radius", "3"], 1_000),
    (["roundtrip", "free2-standard", "--radius", "4"], 5_000),
], ids=["build-tree-free2-r3", "roundtrip-free2-r4"])
def test_chain_tests_through_the_command_line_stay_bounded(argv, bound, monkeypatch, capsys):
    # only build_stage's class cuts test chains: 572 and 4,168 calls
    calls = []
    is_chain = ExtendedPoset._is_chain
    monkeypatch.setattr(ExtendedPoset, "_is_chain", lambda self, mask: calls.append(mask) or is_chain(self, mask))
    assert main(argv) == 0
    assert 0 < len(calls) <= bound


@pytest.mark.parametrize("argv, builds", [
    (["roundtrip", "dihedral-standard", "--radius", "6"], 0),
    (["build-tree", "z-standard", "--radius", "4"], 0),
    (["examples", "run", "gplus-z"], 1),
], ids=["roundtrip", "build-tree", "gplus-suite"])
def test_the_doubled_order_is_built_only_where_it_is_checked(argv, builds, monkeypatch, capsys):
    # the build reads touching off the ball poset and verification reads the
    # doubled between sets off it too; only the doubled-order suite builds
    # the doubled poset, once
    calls = []
    blow_up = blow_up_gplus
    for name, module in list(sys.modules.items()):  # every loaded holder of the name
        if name.startswith("treeorder.") and getattr(module, "blow_up_gplus", None) is blow_up:
            monkeypatch.setattr(module, "blow_up_gplus", lambda p: calls.append(p.n) or blow_up(p))
    assert main(argv) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("argv, layouts", [
    (["build-tree", "dihedral-standard", "--radius", "4", "--stages", "99"], 0),
    (["build-tree", "dihedral-standard", "--radius", "4", "--stages", "99", "--emit", "json"], 1),
    (["examples", "run", "dihedral", "--radius", "4"], 1),
], ids=["build-tree", "build-tree-emit", "examples-dihedral"])
def test_a_command_lays_out_only_the_trees_it_prints_or_blows_up(argv, layouts, monkeypatch, capsys):
    # the build suite groups plain labels by the build's own points; only an
    # emitted tree or the round trip's blow-up needs the oriented layout
    calls = []
    orient = orbitorder.orient_segments
    monkeypatch.setattr(orbitorder, "orient_segments", lambda state: calls.append(state) or orient(state))
    assert main(argv) == 0
    assert len(calls) == layouts


# -- verification against corrupted builds ------------------------------------
# Each case edits a copy of the finished z-standard r = 2 build's label map and
# names the report entry that the corruption must raise.  Labels are (g, tag).


def corrupted(edit):
    state = ConePipeline.of(get_cone("z-standard"), 2).build(None)
    assert verify_stage_properties(state)["ok"]
    state = copy.copy(state)
    state.nu = dict(state.nu)
    edit(state.nu)
    report = verify_stage_properties(state)
    assert not report["ok"]
    assert laid_apart(report) == oracles.naive_laid_apart(state)
    return report


def laid_apart(report):
    return [v for v in report["identity"]["violations"] if v.get("problem") == "touching labels laid apart"]


def swap(a, b):
    def edit(nu):
        nu[a], nu[b] = nu[b], nu[a]
    return edit


def move(lab, onto):
    def edit(nu):
        nu[lab] = nu[onto]
    return edit


def path_problems(report, problem):
    return [(v["pair"], v["labels"]) for v in report["paths"]["violations"] if v["problem"] == problem]


def test_a_deleted_tag_leaves_its_between_sets_unbuilt():
    report = corrupted(lambda nu: nu.pop((0, -1)))
    assert path_problems(report, "between set not fully built") == [
        (pair, ["0-"]) for pair in [("0", "-1"), ("0", "-2"), ("-1", "1"), ("-1", "2"), ("1", "-2"), ("-2", "2")]
    ]


def test_swapped_tags_put_path_labels_out_of_order():
    report = corrupted(swap((0, -1), (0, 1)))
    assert (("0", "-1"), ["0", "-1+", "-1"]) in path_problems(report, "path labels out of order")
    assert (("0", "-1"), ["0+"]) in path_problems(report, "extra label without touching partner")


def test_swapped_plain_labels_leave_a_stray_plain_label_on_a_path():
    report = corrupted(swap((0, 0), (-1, 0)))
    assert path_problems(report, "stray plain label on path") == [
        (("0", "1"), ["-1"]), (("0", "2"), ["-1"]), (("-1", "-2"), ["0"])
    ]


def test_a_plain_label_on_a_tag_point_strands_the_tags_it_passes():
    report = corrupted(move((0, 0), (0, 1)))
    assert path_problems(report, "extra label without touching partner") == [
        (("0", "-1"), ["0+"]), (("0", "-1"), ["1-"]), (("0", "-2"), ["0+"]), (("0", "-2"), ["1-"])
    ]


def test_a_split_touching_pair_is_laid_apart():
    report = corrupted(move((2, -1), (2, 0)))
    assert report["identity"]["violations"] == [
        {"labels": ("2-", "2"), "point": (4, Fraction(7, 8))},
        {"labels": ("1+", "2-"), "problem": "touching labels laid apart"},
    ]
    assert report["paths"]["ok"]


def test_labels_that_do_not_touch_may_not_share_a_point():
    report = corrupted(move((-2, -1), (2, 1)))
    assert report["identity"]["violations"] == [{"labels": ("-2-", "2+"), "point": (4, Fraction(1))}]
    assert report["gaps"]["ok"] and report["paths"]["ok"]


def test_a_gap_between_foreign_labels_is_a_violation():
    report = corrupted(swap((-2, -1), (2, 1)))
    assert report["gaps"]["violations"] == [
        {"interval": 3, "gap": (Fraction(7, 8), Fraction(1)), "left": ["-2"], "right": ["2+"]},
        {"interval": 4, "gap": (Fraction(7, 8), Fraction(1)), "left": ["2"], "right": ["-2-"]},
    ]
    assert report["identity"]["ok"] and report["paths"]["ok"]


def test_a_deleted_glue_target_disconnects_the_tree():
    report = corrupted(lambda nu: nu.pop((0, 1)))
    assert report["tree"]["problems"] == ["11 points but 9 spans", "glued intervals are not connected"]


def test_a_pair_across_components_is_reported_not_raised():
    # (0, 1) is the glue target of interval 2; moving it inward cuts that
    # interval off, so the paths from 0 and -1 to 1 and 2 do not exist
    report = corrupted(lambda nu: nu.__setitem__((0, 1), (0, Fraction(1, 2))))
    assert report["tree"]["problems"] == ["11 points but 9 spans", "glued intervals are not connected"]
    assert path_problems(report, "points are not connected") == [
        (pair, list(pair)) for pair in [("0", "1"), ("0", "2"), ("-1", "1"), ("-1", "2"), ("1", "-2"), ("-2", "2")]
    ]


def laid_out(name, radius, edit):
    """orient_segments of the full build of a builtin cone's ball order,
    after ``edit`` of its label positions."""
    state = copy.copy(ConePipeline.of(get_cone(name), radius).build(None))
    state.nu = dict(state.nu)
    edit(state.nu)
    return orient_segments(state)


@pytest.mark.parametrize("name, radius, edit, message", [
    ("z2-lex", 2, swap(((0, -2), MINUS), ((0, -2), PLUS)), "direction of unit 0 in interval 1 disagrees at (0,-2)"),
    # ((0, 1), PLAIN) is the one member of unit 1 of interval 1
    ("dihedral-standard", 3, lambda nu: nu.pop(((0, 1), PLAIN)), "unit 1 of interval 1 has no interior label"),
], ids=["direction-disagrees", "no-interior-label"])
def test_each_refusal_of_the_layout_is_pinned(name, radius, edit, message):
    assert laid_out(name, radius, lambda nu: None).tree.arcs
    with pytest.raises(BuildError) as exc:
        laid_out(name, radius, edit)
    assert str(exc.value) == message


def test_no_pairs_cover_a_one_element_poset_and_nothing_larger():
    assert normalize_decomposition(from_pairs(["e"], [])) == ()
    # a larger poset's star cover pairs the base with every other element
    assert auto_pairs(from_pairs("ab", [("a", "lt", "b")])) == [("a", "b")]


def test_an_empty_poset_has_no_tree():
    empty = from_pairs([], [])
    for build in (lambda: build_tree(empty), lambda: normalize_decomposition(empty)):
        with pytest.raises(BuildError, match="^an empty poset has no tree$"):
            build()


def test_the_base_is_laid_as_one_class_by_the_slot_rule():
    # its tags at the ends of interval 0 and its plain label at the midpoint
    for p in ball_posets() + [from_pairs(["e"], [])]:
        base = p.elements[0]
        state = build_tree(p, stages=0)
        assert state.nu == {(base, MINUS): (0, 0), (base, PLAIN): (0, Fraction(1, 2)), (base, PLUS): (0, 1)}
        assert (state.lows, state.built, state.stages_done) == ([0], {base}, [])


def test_a_short_build_is_a_prefix_of_the_full_build():
    # the first k stages lay each label where the full build does, for k up
    # to one past the star cover; the pipeline builds each count apart
    builds = [(lambda k, p=p: build_tree(p, stages=k)) for p in all_extended_posets(4)]
    for name in sorted(BUILTIN_CONES):
        for radius in range(4):
            pipe = ConePipeline(get_cone(name), radius)
            try:
                pipe.ball_poset
            except ConeError:
                continue  # z-broken and z2-product have no ball order past radius 0
            builds.append(pipe.build)
    assert len(builds) == 422
    for build in builds:
        full = build(None)
        for k in range(len(full.stages_done) + 2):
            short = build(k)
            assert short.stages_done == full.stages_done[:k], (full.poset.elements, k)
            assert short.nu.items() <= full.nu.items(), (full.poset.elements, k)


def ball_posets() -> list:
    """The ball order of every builtin cone at radius 0-3 that has one."""
    posets = []
    for name in sorted(BUILTIN_CONES):
        for radius in range(4):
            try:
                posets.append(induced_ball_poset(get_cone(name), radius))
            except ConeError:
                pass  # z-broken and z2-product have no ball order past radius 0
    return posets


@pytest.mark.parametrize("population, size", [
    (lambda: [p for n in range(1, 5) for p in all_extended_posets(n)], 437),
    (lambda: tree_corpus(100), 100),
    (ball_posets, 22),
], ids=["posets-1-4", "trees-100", "balls-r3"])
def test_a_poset_comes_back_from_the_blow_up_of_its_tree(population, size):
    posets = population()
    assert len(posets) == size
    for p in posets:
        q = oracles.tree_roundtrip(p)
        assert (q.elements, q.rows) == (p.elements, p.rows), p.elements


@pytest.mark.parametrize("population, size", [
    (lambda: [p for n in range(2, 5) for p in all_extended_posets(n)], 436),
    (lambda: tree_corpus(100), 100),
    (ball_posets, 22),
], ids=["posets-2-4", "trees-100", "balls-r3"])
def test_each_stage_lays_three_labels_per_member_that_touch_exactly_across_members(population, size):
    # the slot rule of build_stage: label t of a stage goes to slot
    # 2 (t // 3) + t % 3, one slot shared by each member's last label and the
    # next member's first, which is right exactly when those two touch
    posets = population()
    assert len(posets) == size
    for p in posets:
        for x in p.elements:
            for y in p.elements:
                if x != y:
                    members = p.between_members(x, y)
                    seq = stage_labels(p, members)
                    assert [u for u, _tag in seq] == [m for m in members for _ in range(3)]
                    steps = list(zip(seq, seq[1:]))
                    assert [r_equivalent(p, u, v) for u, v in steps] == [u[0] != v[0] for u, v in steps], (x, y)
        assert verify_stage_properties(build_tree(p))["ok"], p.elements


def table_group(elements, mult):
    """The TableGroup of ``mult`` on ``elements``, the first the identity."""
    return TableGroup(elements, [[mult(a, b) for b in elements] for a in elements], elements[0])


def permutation_group(generators):
    """The closure of permutation tuples under composition."""
    elements = [tuple(range(len(generators[0])))]
    for g in elements:
        for h in generators:
            gh = tuple(g[i] for i in h)
            if gh not in elements:
                elements.append(gh)
    return table_group(elements, lambda a, b: tuple(a[i] for i in b))


FINITE_GROUPS = {
    **{f"z{n}": table_group(list(range(n)), lambda a, b, n=n: (a + b) % n) for n in range(2, 7)},
    "klein": table_group([(0, 0), (0, 1), (1, 0), (1, 1)], lambda a, b: (a[0] ^ b[0], a[1] ^ b[1])),
    "s3": permutation_group([(1, 0, 2), (0, 2, 1)]),
    "d4": permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)]),
}


@pytest.mark.parametrize("piece", ["upper", "lower"])
@pytest.mark.parametrize("name", FINITE_GROUPS)
def test_a_finite_groups_cone_builds_a_star_of_all_its_elements(name, piece):
    # all of G \ {e} in U (or in L) is a cone; its tree is one node with
    # |G| in-rays (out-rays), and the round trip realizes the whole group
    group = FINITE_GROUPS[name]
    n = len(group.elements)
    rest = lambda w: w != group.identity
    none = lambda w: False
    cone = ConeStructure(f"{name}-{piece}", group, none, *((rest, none) if piece == "upper" else (none, rest)))
    pipeline = ConePipeline.of(cone, 1)
    assert pipeline.cone_report.ok
    state = pipeline.build(None)
    assert len(state.stages_done) == n - 1 and state.built == set(group.elements)
    assert verify_stage_properties(state)["ok"]
    tree = pipeline.layout(None).tree
    assert len(tree.arcs) == n
    hubs = [rays for rays in tree.node_incidences().values() if len(rays[0]) + len(rays[1]) == n]
    assert [tuple(map(len, rays)) for rays in hubs] == [(n, 0) if piece == "upper" else (0, n)]
    report = pipeline.roundtrip()
    assert report["ok"] and report["coverage"] == 1


# -- the layout and its verification, pinned per build -------------------------
# One sha256 per (cone, radius) over the builds at every stage count of
# LAYOUT_STAGES: the layout tree (nodes, arc tail/head, boundary), the labels
# at each node (read off label_point in label order), label_point, the
# plain-label count and the verification report.

LAYOUT_STAGES = (0, 1, 2, 3, 6, None)


def layout_rows(state):
    """The rows under display ids: each point names its node or arc by the
    tree's display table."""
    layout = orient_segments(state)
    tree = layout.tree
    name = tree.names.__getitem__
    label_point = {lab: (kind, name(at), *t) for lab, (kind, at, *t) in layout.label_point.items()}
    node_labels: dict = {}
    for lab, pt in label_point.items():
        if pt[0] == "node":
            node_labels[pt[1]] = node_labels.get(pt[1], ()) + (lab,)
    return (sorted(map(name, tree.nodes)), sorted((name(aid), name(a.tail), name(a.head)) for aid, a in tree.arcs.items()),
            sorted(map(name, tree.boundary)), list(node_labels.items()), list(label_point.items()),
            plain_label_count(layout), verify_stage_properties(state))


def layout_digest(builds):
    return hashlib.sha256(repr([layout_rows(state) for state in builds]).encode()).hexdigest()


LAYOUT_DIGESTS = {
    ('dihedral-standard', 0): "fce3d26095cd5a0c36f89e9dac7c4d668a58c72c906c78a22107af3f4292fccb",
    ('dihedral-standard', 1): "54dff3fef08559b9df45025526704ba8851e37e082018ccd14087d1dc3b5982e",
    ('dihedral-standard', 2): "7acaf04011a8a720fcae2a5e277e653adafc587a5bf3aa6ee65813fea276b041",
    ('dihedral-standard', 3): "2ccfc62028ae9f5f64cb4ec9763d72ee8528e307b0c2584255287db9ad7cdb94",
    ('free2-standard', 0): "a0f1fca90bdcb9cb6879f0e8870b5e0a538c794f5941b73f29cd1a6170aa1c55",
    ('free2-standard', 1): "32ac44b6619d7c6a565b4612c483e8326416484d03eaa3da340d77eace207da3",
    ('free2-standard', 2): "d6288e107ad0c9d9d0c9294a7345d62681ec9a77f12533cc631a8a592559ac8f",
    ('free2-standard', 3): "da2620b81fd18071cc388992018abf5891cbe7280780fdd2c88ca2be7109b64a",
    ('z-broken', 0): "50a82831da6b4247f7a8b6da1f2297123ffbed374aa2ad093c90b81f8b46dbe2",
    ('z-standard', 0): "50a82831da6b4247f7a8b6da1f2297123ffbed374aa2ad093c90b81f8b46dbe2",
    ('z-standard', 1): "d1b6e6c678ebfe18022210951dedaf7546fc533d877f15814c4a504f7ea77fdc",
    ('z-standard', 2): "cd79a42bc445cf65afbadbb9c8b259248545c3de4b49a15dc46feea6e74d9322",
    ('z-standard', 3): "e59d01458981fdb655a085074c1d92f3ca93478a56aca29822302329cfdf4c05",
    ('z2-lex', 0): "fce3d26095cd5a0c36f89e9dac7c4d668a58c72c906c78a22107af3f4292fccb",
    ('z2-lex', 1): "8517e4289294370f3e35a6e618be1a377076010ed38116e718082a9e6d25e82b",
    ('z2-lex', 2): "3dd350d4a3d05a66e384afb93b54088b68a000181b38a4d5dd2d3b5042b893f5",
    ('z2-lex', 3): "064b0d45f49eedfbc336caeca4f885bb130e24a22c17b5404b237b86b523f6c6",
    ('z2-product', 0): "fce3d26095cd5a0c36f89e9dac7c4d668a58c72c906c78a22107af3f4292fccb",
    ('z3-lex', 0): "e3557622425ab6aaa140b342e478d61c01ae210b28e1e20daf417f9400a9c2f0",
    ('z3-lex', 1): "505aaab0073f79ca21dc55d5a7aae027e5615e23dcf17b9750edbf163f6c2098",
    ('z3-lex', 2): "bbc1cd7e3b9f06a9a973d18992d6e311fe4d4f1957efad51833ac5879bdc07d3",
    ('z3-lex', 3): "a064172ae13a99ff549030e2f6c393c9eaa4f54a91261eb63baa8d0d5fe8987f",
}


def test_layout_digests_cover_every_cone_with_a_ball_order():
    def has_ball_order(name, radius):
        try:
            ConePipeline.of(get_cone(name), radius).ball_poset
        except ConeError:
            return False
        return True

    assert set(LAYOUT_DIGESTS) == {(name, r) for name in BUILTIN_CONES for r in range(4) if has_ball_order(name, r)}


@pytest.mark.parametrize("name, radius", sorted(LAYOUT_DIGESTS), ids=[f"{n}-r{r}" for n, r in sorted(LAYOUT_DIGESTS)])
def test_the_layout_of_each_build_is_pinned(name, radius):
    pipe = ConePipeline.of(get_cone(name), radius)
    assert layout_digest(pipe.build(n) for n in LAYOUT_STAGES) == LAYOUT_DIGESTS[name, radius]


def test_every_full_build_passes_verification_with_nothing_undetermined(capsys):
    # every stage glues at one built point, so no gap or identity is left
    # unchecked; the reports keep their empty lists for the build suite
    for name, radius in sorted(LAYOUT_DIGESTS):
        props = verify_stage_properties(ConePipeline.of(get_cone(name), radius).build(None))
        assert props["ok"], (name, radius, props)
        assert props["gaps"]["undetermined"] == props["identity"]["undetermined"] == [], (name, radius)
    assert main(["build-tree", "dihedral-standard", "--radius", "4"]) == 0
    assert "  undetermined: 0 gaps, 0 identities" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name, radius", sorted(LAYOUT_DIGESTS), ids=[f"{n}-r{r}" for n, r in sorted(LAYOUT_DIGESTS)])
def test_the_pair_loop_finds_the_laid_apart_tags_of_the_scan_over_tagged_pairs(name, radius):
    # the corrupted builds above run the same comparison
    pipe = ConePipeline.of(get_cone(name), radius)
    for n in LAYOUT_STAGES:
        state = pipe.build(n)
        assert laid_apart(verify_stage_properties(state)) == oracles.naive_laid_apart(state)


# One sha256 per tree, over its layout (orient_segments) and blow-up
# (denjoy_blowup): dicts and lists as the program laid them out, sets sorted.
SEEDED_POPULATION = """
import hashlib
from treeorder.catalog import BUILTIN_CONES, get_cone
from treeorder.corpus import all_extended_posets
from treeorder.errors import ConeError
from treeorder.grouporder import ConeStructure, induced_ball_poset
from treeorder.groups import TableGroup
from treeorder.ordertree import denjoy_blowup
from treeorder.treebuild import build_tree, orient_segments

def rows(tree):
    name = tree.names.__getitem__  # a blow-up's names extend its base's
    return ([(name(nid), kind) for nid, kind in tree.nodes.items()],
            [(name(aid), name(a.tail), name(a.head), a.kind, a.core) for aid, a in tree.arcs.items()],
            [(name(cap), name(aid), side) for cap, aid, side in tree.adjacencies], sorted(map(name, tree.boundary), key=repr))


def named(tree, point):
    kind, at, *t = point
    return (kind, tree.names[at], *t)

posets = list(all_extended_posets(4))
for name in sorted(BUILTIN_CONES):
    for radius in range(4):
        try:
            posets.append(induced_ball_poset(get_cone(name), radius))
        except ConeError:
            pass
for p in posets:
    layout = orient_segments(build_tree(p))
    blown = denjoy_blowup(layout.tree)
    name = blown.names.__getitem__
    out = (rows(layout.tree), [(lab, named(layout.tree, pt)) for lab, pt in layout.label_point.items()], rows(blown),
           [(name(nid), name(target)) for nid, target in blown.phi_nodes.items()],
           [(name(aid), (kind, name(target))) for aid, (kind, target) in blown.phi_arcs.items()])
    print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


def test_every_small_tree_and_its_blow_up_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", SEEDED_POPULATION], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        runs.append(run.stdout.split())
    assert len(runs[0]) == 422
    assert runs[0] == runs[1]
