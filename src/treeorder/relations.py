"""The five relation codes of a tagged order and betweenness read off them:
the cone layer reads a pair's code off a cone piece without loading
``poset``, which re-exports these names."""

from .errors import PosetError

EQ, LT, GT, SIMU, SIML = range(5)  # equal, less, greater, upward- and downward-similar
REL_NAMES = {EQ: "eq", LT: "lt", GT: "gt", SIMU: "simu", SIML: "siml"}
REL_CODES = {name: code for code, name in REL_NAMES.items()}
SWAP = {EQ: EQ, LT: GT, GT: LT, SIMU: SIMU, SIML: SIML}


def between_by_codes(rac: int, rab: int, rbc: int) -> bool:
    """Whether b lies strictly between a and c, from the three pair codes.

    rac, rab, rbc are the codes of (a, c), (a, b) and (b, c).  Betweenness
    only looks at these three relations, so it restricts cleanly to any
    sub-poset containing the triple.
    """
    if rac == LT:
        return (rab == LT and rbc == LT) or (rab == SIMU and rbc == SIML)
    if rac == GT:
        return (rab == GT and rbc == GT) or (rab == SIML and rbc == SIMU)
    if rac == SIML:
        return (rab == SIML and rbc == LT) or (rbc == SIML and rab == GT)
    if rac == SIMU:
        return (rab == SIMU and rbc == GT) or (rbc == SIMU and rab == LT)
    raise PosetError("betweenness needs two distinct endpoints")
