"""Closed-form induced colors and the claims of each sweep cell,
independent of any graph construction."""
from __future__ import annotations

from typing import NamedTuple, Optional

from .matrices import Family, FamilyParams, ParamError


class ColorTriple(NamedTuple):
    """The three induced colors of a family instance: the leaf/merged
    color, the u-vertex color, and the v-vertex color."""

    c_center: int
    c_u: int
    c_v: int


def center_constant(params: FamilyParams) -> int:
    """Per-leaf color before any merge scaling."""
    n, k = params.n, params.k
    if params.family is Family.M2:
        return n * (8 * k + 4) + 4 * k + 3
    return (2 * n + 2) * (4 * k + 2) + 1


def color_triple(params: FamilyParams) -> ColorTriple:
    n, k = params.n, params.k
    scale = 2 * params.factorization[1] + 1 if params.factorization else 1
    if params.family is Family.M2:
        c_u = 8 * k * n * n + 6 * k * n + 4 * n * n + k + 4 * n + 1
        c_v = 8 * k * n * n + 2 * k * n + 4 * n * n + k + 2 * n + 1
    else:
        c_u = (n + 1) * (3 * n + 1) * (4 * k + 2) + n + 2 * k + 2
        c_v = (n + 1) ** 2 * (4 * k + 2) + n + 1
    return ColorTriple(scale * center_constant(params), c_u, c_v)


class Claims(NamedTuple):
    """What a crossed or merged cell must measure: every vertex at its
    role's color, the component count, the regular degree (None where no
    regularity is claimed) and the chromatic lower bound."""

    colors: ColorTriple
    components: int
    regular: Optional[int]
    chi: int


def claims(params: FamilyParams, stage: str) -> Claims:
    """The claims of the given stage of params.

    Crossing keeps the leaves' color and leaves k+1 components, so a
    crossed cell's colors are unscaled even if it carries (r, s).  A merge
    scales the leaf color by 2s+1 and leaves r+1 components; m3 merged at
    n = 2s is (2n+2)-regular.  Every member is tripartite with an odd
    cycle, so chi >= 3.  Only the crossed and merged stages have claims."""
    if stage == "crossed":
        return Claims(color_triple(params._replace(factorization=None)), 1 + params.k, None, 3)
    if stage != "merged":
        raise ParamError(f"only the crossed and merged stages have claims, not {stage!r}")
    if params.factorization is None:
        raise ParamError("merge requires a factorization (r, s)")
    r, s = params.factorization
    m3_regular = params.family is Family.M3 and params.n == 2 * s
    return Claims(color_triple(params), 1 + r, 2 * params.n + 2 if m3_regular else None, 3)
