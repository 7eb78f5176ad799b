from __future__ import annotations

import pytest

from treeorder.catalog import dihedral_standard, z_standard
from treeorder.grouporder import PLAIN, induced_ball_poset, plain_of, tag_of
from treeorder.ordertree import TreeIndex
from treeorder.poset import ExtendedPoset
from treeorder.treebuild import (
    BuildError,
    _path_points,
    act_on_labels,
    build_from_cones,
    build_tree,
    orient_segments,
    verify_stage_properties,
)


def plains_placed(state):
    out = {}
    for lab in state.nu:
        if tag_of(lab) == PLAIN:
            out[plain_of(lab)] = state.point_of(lab)
    return out


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
    assert 0 < layout.checked_labels <= len(state.nu)
    assert set(layout.label_point) == set(state.nu)


def test_stage_count_is_respected():
    short = build_from_cones(z_standard(), radius=6, stages=2)
    longer = build_from_cones(z_standard(), radius=6, stages=4)
    assert len(short.stages_done) == 2
    assert len(longer.stages_done) == 4
    assert len(plains_placed(short)) < len(plains_placed(longer))


def test_acting_by_a_generator_permutes_labels():
    state = build_from_cones(z_standard(), radius=4, stages=4)
    placed = plains_placed(state)
    moved = act_on_labels(state, 1)
    for lab, target in moved.items():
        if tag_of(lab) != PLAIN:
            continue
        shifted = plain_of(lab) + 1
        if shifted in placed:
            assert target == placed[shifted]


def test_truncated_limit_gluing_leaves_gaps_undetermined():
    # forcing (0, 3) to attach as a truncated limit: the only path on which
    # verification reports undetermined items instead of checking them
    p = induced_ball_poset(z_standard(), 3)
    state = build_tree(p, pairs=[(0, 1), (0, 3), (0, -3)], case2=[(0, 3)])
    assert [stage.case for stage in state.stages_done] == [1, 2, 1]
    props = verify_stage_properties(state)
    assert props["ok"], props
    assert len(props["gaps"]["undetermined"]) == 2
    assert len(props["identity"]["undetermined"]) == 0
    assert orient_segments(state).checked_labels == 7


def test_path_points_climbs_to_the_meeting_point_and_not_across_components():
    index = TreeIndex("abcde", [("a", "b"), ("b", "c"), ("a", "d")])
    assert _path_points(index, "c", "d") == ["c", "b", "a", "d"]
    assert _path_points(index, "a", "a") == ["a"]
    with pytest.raises(BuildError, match="points are not connected"):
        _path_points(index, "c", "e")


@pytest.mark.parametrize("cone, radius", [(z_standard, 6), (dihedral_standard, 4)], ids=["z-r6", "dihedral-r4"])
def test_verification_tests_each_pair_for_a_chain_at_most_once_per_row(cone, radius, monkeypatch):
    state = build_from_cones(cone(), radius=radius)
    calls = []
    is_chain = ExtendedPoset._is_chain
    monkeypatch.setattr(ExtendedPoset, "_is_chain", lambda self, mask: calls.append(mask) or is_chain(self, mask))
    assert verify_stage_properties(state)["ok"]
    n = state.aug.n
    assert 0 < len(calls) <= n * (n - 1)
