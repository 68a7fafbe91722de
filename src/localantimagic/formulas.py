"""Closed-form induced colors and sign certificates, independent of any
graph construction."""
from __future__ import annotations

from typing import NamedTuple, Tuple

from .matrices import Family, FamilyParams, ParamError


class ColorTriple(NamedTuple):
    """The three induced colors of a family instance: the leaf/merged
    color, the u-vertex color, and the v-vertex color."""

    c_center: int
    c_u: int
    c_v: int
    params: FamilyParams


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
    return ColorTriple(
        c_center=scale * center_constant(params),
        c_u=c_u,
        c_v=c_v,
        params=params,
    )


class DistinctnessCertificate(NamedTuple):
    """Signs of the center-vs-u and center-vs-v color differences with the
    case branch each falls under."""

    params: FamilyParams
    diff_center_u: int
    diff_center_v: int
    branch_center_u: str
    branch_center_v: str


class FalsificationError(AssertionError):
    """A color difference came out zero; should be impossible."""


def distinctness_certificate(params: FamilyParams) -> DistinctnessCertificate:
    if params.factorization is None:
        raise ParamError("certificate requires a factorization (r, s)")
    n = params.n
    _, s = params.factorization
    triple = color_triple(params)
    d_u = triple.c_center - triple.c_u
    d_v = triple.c_center - triple.c_v
    if params.family is Family.M2:
        branch_u = "2s >= n" if 2 * s >= n else "2s - n <= -1"
        if 2 * s >= n:
            branch_v = "2s >= n"
        elif 2 * s - n == -1:
            branch_v = "2s - n = -1"
        else:
            branch_v = "2s - n <= -2"
    else:
        branch_u = "2s >= n" if 2 * s >= n else "2s - n <= -1"
        branch_v = "4s >= n" if 4 * s >= n else "4s - n <= -1"
    if d_u == 0 or d_v == 0:
        raise FalsificationError(
            f"zero color difference at {params}: center-u={d_u}, center-v={d_v}"
        )
    return DistinctnessCertificate(
        params=params,
        diff_center_u=d_u,
        diff_center_v=d_v,
        branch_center_u=branch_u,
        branch_center_v=branch_v,
    )


def expected_branch_signs(cert: DistinctnessCertificate) -> Tuple[int, int]:
    """Sign each case branch predicts for (center-u, center-v).

    For the second family the published case analysis of the center-vs-u
    difference tracks a u-color expression that disagrees with the actual
    column sums, so its sign comes from this lemma instead.  With
    K = 4k+2 = 2(2r+1)(2s+1), c_center - c_u = K(n+1)(4s+1-3n) - K/2 + 2s - n.
    If 3n <= 4s, that is at least 2K - K/2 + 2s - n > 0; otherwise
    4s+1-3n <= 0 and it is at most -K/2 + 2s - n < 0, since K/2 >= 3(2s+1).
    """
    if cert.params.family is Family.M2:
        sign_u = 1 if cert.branch_center_u == "2s >= n" else -1
        sign_v = -1 if cert.branch_center_v == "2s - n <= -2" else 1
    else:
        _, s = cert.params.factorization
        sign_u = 1 if 3 * cert.params.n <= 4 * s else -1
        sign_v = 1 if cert.branch_center_v == "4s >= n" else -1
    return sign_u, sign_v
