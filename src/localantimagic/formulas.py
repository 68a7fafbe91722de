"""Closed-form induced colors and sign certificates, independent of any
graph construction."""
from __future__ import annotations

from typing import NamedTuple

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


class DistinctnessCertificate(NamedTuple):
    """The center-vs-u and center-vs-v color differences, each with the
    condition of the lemma that proves its sign and that sign: +1 if the
    condition holds, -1 if not."""

    params: FamilyParams
    diff_center_u: int
    diff_center_v: int
    condition_center_u: str
    condition_center_v: str
    sign_center_u: int
    sign_center_v: int


class FalsificationError(AssertionError):
    """A color difference lacks the sign its lemma proves; should be
    impossible."""


def distinctness_certificate(params: FamilyParams) -> DistinctnessCertificate:
    """Both color differences of a merged instance, with the lemma that
    proves each one's sign.

    Let K = 4k+2 = 2(2r+1)(2s+1) >= 18 and d = 2s - n.  Each difference
    equals a closed form (an exact identity, proved in
    `tests/test_formulas.py`) and is positive exactly when its condition
    holds, so none is zero:

    - m2, c_center - c_u = K(2n+1)(d + 3/4) + d + 1/2, positive iff 2s >= n.
      If d >= 0 it is at least 9K/4 + 1/2, since n >= 1; otherwise
      d + 3/4 <= -1/4 and it is at most -K(2n+1)/4 - 1/2.
    - m2, c_center - c_v = K((2n+1)(d + 5/4) - 1/2) + d + 1/2, positive iff
      2s >= n - 1.  If d >= -1 it is at least K/4 - 1/2; otherwise
      d + 5/4 <= -3/4 and it is at most -11K/4 - 3/2.
    - m3, c_center - c_u = K(n+1)(4s+1-3n) - K/2 + d, positive iff 3n <= 4s.
      If 3n <= 4s, that is at least 2K - K/2 + d > 0, as d > 0 there;
      otherwise 4s+1-3n <= 0 and it is at most -K/2 + d < 0, since
      K/2 >= 3(2s+1).
    - m3, c_center - c_v = K(n+1)(4s+1-n) + d, positive iff 4s >= n.  If it
      holds the difference is at least K(n+1) + d > 0, as d >= 2 - n;
      otherwise 4s+1-n <= 0 and it is at most d < 0.

    The m3 center-u condition corrects the paper's case analysis (README,
    "The families").  Raises FalsificationError if a difference lacks its
    lemma's sign.
    """
    if params.factorization is None:
        raise ParamError("certificate requires a factorization (r, s)")
    n, s = params.n, params.factorization[1]
    if params.family is Family.M2:
        cond_u, sign_u = "2s >= n", 1 if 2 * s >= n else -1
        cond_v, sign_v = "2s >= n - 1", 1 if 2 * s >= n - 1 else -1
    else:
        cond_u, sign_u = "3n <= 4s", 1 if 3 * n <= 4 * s else -1
        cond_v, sign_v = "4s >= n", 1 if 4 * s >= n else -1
    triple = color_triple(params)
    d_u, d_v = triple.c_center - triple.c_u, triple.c_center - triple.c_v
    if d_u * sign_u <= 0 or d_v * sign_v <= 0:
        raise FalsificationError(
            f"lemma sign violated at {params}: center-u {d_u} ({cond_u}: {sign_u:+d}),"
            f" center-v {d_v} ({cond_v}: {sign_v:+d})"
        )
    return DistinctnessCertificate(params, d_u, d_v, cond_u, cond_v, sign_u, sign_v)
