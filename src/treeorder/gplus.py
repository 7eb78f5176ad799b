"""The doubled order itself, built and checked.

The doubling's labels and the reads off the base order that the tree
build needs live in ``treebuild``; only the gplus suite and the tests build
the doubled order.  ``grouporder`` serves these names on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .treebuild import MINUS, PLAIN, PLUS
from .relations import GT, LT, REL_NAMES, SIML, SIMU

if TYPE_CHECKING:
    from .poset import ExtendedPoset


_TRIPLE = str.maketrans({"0": "000", "1": "111"})


def _spread3(mask: int) -> int:
    """Each bit j of the mask becomes bits 3j, 3j + 1 and 3j + 2."""
    return int(bin(mask)[2:].translate(_TRIPLE), 2)


def blow_up_gplus(p: ExtendedPoset) -> ExtendedPoset:
    """Replace every element g by the ordered triple g- < g < g+.

    Comparabilities spread to all nine tag combinations (x < y forces
    x+ < y-), and similarity tags copy across unchanged.  The result passes
    the same admissibility checks as any tagged poset; in particular the
    doubling never creates a common bound that the base pair lacked.
    """
    from .poset import ExtendedPoset

    elements = []
    up, down, simu, siml = [], [], [], []
    for i, g in enumerate(p.elements):
        elements.extend(((g, MINUS), (g, PLAIN), (g, PLUS)))
        spread = [_spread3(row[i]) for row in p.rows]
        # the triple's own bits above and below each of g-, g, g+
        for above, below in ((0b110, 0b000), (0b100, 0b001), (0b000, 0b011)):
            up.append(spread[0] | above << 3 * i)
            down.append(spread[1] | below << 3 * i)
            simu.append(spread[2])
            siml.append(spread[3])
    return ExtendedPoset(elements, up, down, simu, siml)


def check_augmented_between(augmented: ExtendedPoset, a, b) -> dict:
    """Verify the doubled between-set signature of the pair's relation.

    Exactly one of three shapes must hold: a < b puts {a+, b-} inside
    B(a-, b+); an upward pair puts {a+, b+} inside B(a-, b-); a downward
    pair puts {a-, b-} inside B(a+, b+).  The other two shapes must fail.
    """

    def shape(x, y, s, t) -> bool:  # {x^-s, y^-t} inside B(x^s, y^t)
        return all(augmented.is_between((x, s), m, (y, t)) for m in ((x, -s), (y, -t)))

    r = augmented.rel((a, PLAIN), (b, PLAIN))
    shapes = {"lt(a,b)": shape(a, b, MINUS, PLUS), "lt(b,a)": shape(b, a, MINUS, PLUS),
              "simu": shape(a, b, MINUS, MINUS), "siml": shape(a, b, PLUS, PLUS)}
    expected = {LT: "lt(a,b)", GT: "lt(b,a)", SIMU: "simu", SIML: "siml"}[r]
    ok = shapes[expected] and not any(v for k, v in shapes.items() if k != expected)
    return {"pair": (a, b), "rel": REL_NAMES[r], "expected": expected, "shapes": shapes, "ok": ok}


def check_no_singleton_classes(augmented: ExtendedPoset, plain_elements: Iterable) -> list:
    """Doubling must thicken every similarity class of a plain pair."""
    plains = list(plain_elements)
    out = []
    for i, a in enumerate(plains):
        for b in plains[i + 1:]:
            chain = augmented.between_set((a, PLAIN), (b, PLAIN))
            for cls in chain.classes:
                if len(cls) == 1:
                    out.append({"pair": (a, b), "singleton": cls[0]})
    return out

