"""Orders extracted from group actions on oriented one-manifolds.

Pulling the order of a branchless manifold (``ordertree.manifold_poset``)
back along an orbit with trivial stabilizer yields a left-invariant tagged
order on the group.  When the stabilizer is a totally ordered subgroup
instead, the coset order refines by the stabilizer order on same-coset
pairs, which ``manifold_poset`` takes as a caller-given order on g^-1 h.

The concrete manifolds and actions, ``check_action``,
``stabilizer_extension_order`` and ``realized_bound`` live in ``actions``;
``__getattr__`` serves the benchmark tracer's targets among them, and
``ordertree``'s ``manifold_graph`` and ``manifold_order``.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import lazy_names
from .errors import BuildError, OrbitError, TreeError
from .grouporder import (
    ConeReport,
    ConeStructure,
    induced_ball_poset,
    verify_cone_axioms,
)
from .ordertree import OrderTree, denjoy_blowup, manifold_poset
from .poset import ExtendedPoset
from .treebuild import (
    PLAIN,
    BuildLayout,
    LabeledTree,
    build_tree,
    orient_segments,
)


# -- group actions ------------------------------------------------------------


class TreeAction(NamedTuple):
    """A partial action on the finite manifold: ``act(g, point)`` returns the
    image point or None when the image leaves the truncation window."""

    group: object
    act: Callable


class OrbitPoset(NamedTuple):
    """The tagged order pulled back along an orbit, with escape bookkeeping."""

    poset: ExtendedPoset
    escaped: tuple
    points: dict

    @property
    def realized(self) -> tuple:
        """The ball elements whose orbit point stayed in the window."""
        return self.poset.elements


def orbit_points(action: TreeAction, x0: tuple, radius: int) -> tuple:
    """Map the ball through the action; returns (points, escaped)."""
    points: dict = {}
    escaped = []
    for g in action.group.ball(radius):
        img = action.act(g, x0)
        if img is None:
            escaped.append(g)
        else:
            points[g] = img
    return points, tuple(escaped)


def orbit_poset(m: OrderTree, action: TreeAction, x0: tuple, radius: int) -> OrbitPoset:
    """The order on ball elements through their orbit points.

    Elements whose orbit point leaves the window are excluded (counted, not
    guessed).  A nontrivial stabilizer inside the ball is an error; use
    stabilizer_extension_order for that situation.
    """
    group = action.group
    points, escaped = orbit_points(action, x0, radius)  # in ball order
    ident = group.identity
    for g, img in points.items():
        if g != ident and img == x0:
            raise OrbitError(f"nontrivial stabilizer: {group.format(g)} fixes the base point")
    poset = manifold_poset(m, points)
    return OrbitPoset(poset=poset, escaped=escaped, points=points)


def label_action(state, layout, manifold: OrderTree) -> tuple:
    """The left translation action read off a built tree's labels.

    Every plain label g owns an interior point of the layout; translation by
    h sends that point to the point of h*g, or escapes when h*g was never
    built.  Returns (action, base_point): the base point is the identity's.
    A point is looked up by its arc and its parameter's numerator and
    denominator, all ints.
    """
    group = state.group
    if group is None:
        raise BuildError("the build carries no group")
    points: dict = {}
    inverse: dict = {}
    for lab, pt in layout.label_point.items():
        if lab[1] != PLAIN:
            continue
        if pt[0] != "arc":
            raise BuildError(f"plain label {lab!r} landed on a junction")
        manifold.require_point(pt)
        points[lab[0]] = pt
        inverse[pt[1], pt[2].numerator, pt[2].denominator] = lab[0]

    def act(h, p):
        g = inverse.get((p[1], p[2].numerator, p[2].denominator)) if p[0] == "arc" else None
        if g is None:
            raise TreeError(f"action undefined at {manifold.named(p)!r}")
        return points.get(group.mult(h, g))

    ident = group.identity
    if ident not in points:
        raise BuildError("identity was not built")
    return TreeAction(group=group, act=act), points[ident]


class ConePipeline:
    """The chain from a cone order to its tree and back, at one radius.

    Cone-axiom report and ball poset (gated on the report) are computed on
    first use and kept; so are the build, its layout and the round trip for
    each stage count asked for.  The build reads touching off the ball
    poset, so no step here builds the doubled poset.
    The round trip compares the orbit order with the ball order row by row
    when both list the ball alike; pairs are compared only otherwise, or
    to list mismatches.
    Use ``ConePipeline.of`` so that every step of a command shares one
    pipeline per (cone, radius).
    """

    def __init__(self, cone: ConeStructure, radius: int):
        self.cone = cone
        self.radius = radius
        self._per_stages: dict = {}

    @classmethod
    def of(cls, cone: ConeStructure, radius: int) -> "ConePipeline":
        if radius not in cone.pipelines:
            cone.pipelines[radius] = cls(cone, radius)
        return cone.pipelines[radius]

    @cached_property
    def cone_report(self) -> ConeReport:
        return verify_cone_axioms(self.cone, self.radius)

    @cached_property
    def ball_poset(self) -> ExtendedPoset:
        return induced_ball_poset(self.cone, self.radius, self.cone_report)

    def _memo(self, step: str, stages: Optional[int], make: Callable):
        if (step, stages) not in self._per_stages:
            self._per_stages[step, stages] = make(stages)
        return self._per_stages[step, stages]

    def build(self, stages: Optional[int] = None) -> LabeledTree:
        return self._memo("build", stages, lambda n: build_tree(self.ball_poset, n, self.cone.group))

    def layout(self, stages: Optional[int] = None) -> BuildLayout:
        return self._memo("layout", stages, lambda n: orient_segments(self.build(n)))

    def roundtrip(self) -> dict:
        """See roundtrip_orbit."""
        return self._memo("roundtrip", None, self._roundtrip)

    def _roundtrip(self, stages: int) -> dict:
        state, layout = self.build(stages), self.layout(stages)
        manifold = denjoy_blowup(layout.tree)
        action, x0 = label_action(state, layout, manifold)
        orbit = orbit_poset(manifold, action, x0, self.radius)
        induced = self.ball_poset
        mismatches = []
        if orbit.realized != induced.elements or orbit.poset.rows != induced.rows:
            for g in orbit.realized:  # only to list the mismatches, in pair order
                for h in orbit.realized:
                    got = orbit.poset.rel(g, h)
                    want = induced.rel(g, h)
                    if got != want:
                        mismatches.append((g, h, got, want))
        n_ball, n_real = len(induced.elements), len(orbit.realized)
        pair_coverage = Fraction(n_real * (n_real - 1), n_ball * (n_ball - 1)) if n_ball > 1 else Fraction(1)
        return {
            "ok": not mismatches and pair_coverage * 10 >= 9,
            "cone": self.cone.name,
            "radius": self.radius,
            "realized": n_real,
            "escaped": len(orbit.escaped),
            "undetermined_elements": list(orbit.escaped),
            "ball": n_ball,
            "coverage": Fraction(n_real, n_ball),
            "pair_coverage": pair_coverage,
            "mismatches": mismatches,
        }


def roundtrip_orbit(cone: ConeStructure, radius: int = 6) -> dict:
    """Build the tree of a cone order, blow it up, act by translation on the
    labels, and pull the manifold order back along the identity orbit.

    The pulled-back order must agree with the ball order induced by the cone
    on every realized pair; elements outside the built part are excluded and
    listed, never guessed.  ``ok`` is the round trip's one verdict: no
    mismatch, and at least 9/10 of the ball's pairs realized
    (``pair_coverage``), so a window that realizes little shows little.
    The report is plain data, shared with the cone's pipeline; copy it to
    change it.
    """
    return ConePipeline.of(cone, radius).roundtrip()


# name -> the module that defines it, for the benchmark tracer's targets only
_HOME = dict.fromkeys(("integer_line", "shift_action", "dihedral_example", "check_action",
                       "stabilizer_extension_order", "realized_bound"), "actions")
_HOME.update(dict.fromkeys(("manifold_graph", "manifold_order"), "ordertree"))
__getattr__ = lazy_names(__name__, _HOME)
