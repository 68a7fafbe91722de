from itertools import product

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    ParamError,
    Role,
    build_family,
    color_triple,
    distinctness_certificate,
    induced_colors,
)
from localantimagic import formulas
from localantimagic.formulas import FalsificationError


def test_triple_m2_crossed():
    t = color_triple(FamilyParams(Family.M2, 2, 4))
    assert (t.c_center, t.c_u, t.c_v) == (91, 205, 169)


def test_triple_m2_merged():
    t = color_triple(FamilyParams(Family.M2, 2, 4, (1, 1)))
    assert (t.c_center, t.c_u, t.c_v) == (273, 205, 169)


def test_triple_m3_merged():
    t = color_triple(FamilyParams(Family.M3, 2, 4, (1, 1)))
    assert (t.c_center, t.c_u, t.c_v) == (327, 390, 165)


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(1, 9))
def test_u_color_exceeds_v_color(family, n, k):
    t = color_triple(FamilyParams(family, n, k))
    assert t.c_u > t.c_v


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n,k", [(1, 2), (2, 4), (3, 1), (4, 3)])
def test_formula_graph_agreement_crossed(family, n, k):
    params = FamilyParams(family, n, k)
    t = color_triple(params)
    colors = induced_colors(build_family(params, "crossed"))
    for v, c in colors.items():
        if v.role is Role.U:
            assert c == t.c_u
        elif v.role is Role.V:
            assert c == t.c_v
        else:
            assert c == t.c_center


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n,r,s", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 1, 2)])
def test_formula_graph_agreement_merged(family, n, r, s):
    k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
    params = FamilyParams(family, n, k, (r, s))
    t = color_triple(params)
    colors = induced_colors(build_family(params, "merged"))
    for v, c in colors.items():
        if v.role is Role.U:
            assert c == t.c_u
        elif v.role is Role.V:
            assert c == t.c_v
        else:
            assert c == t.c_center


def paper_branches(family, n, s):
    """The paper's case branch for (center-u, center-v), each with the sign
    the paper derives on it.  Test data only: the certificate states the
    proved lemmas, and the paper's m3 center-u case is wrong."""
    d = 2 * s - n
    u = ("2s >= n", 1) if d >= 0 else ("2s - n <= -1", -1)
    if family is Family.M3:
        return u, ("4s >= n", 1) if 4 * s >= n else ("4s - n <= -1", -1)
    if d >= 0:
        return u, ("2s >= n", 1)
    return u, ("2s - n = -1", 1) if d == -1 else ("2s - n <= -2", -1)


def certificate(family, n, r, s):
    return distinctness_certificate(FamilyParams(family, n, 2 * r * s + r + s, (r, s)))


def test_certificate_m2_small_n():
    cert = distinctness_certificate(FamilyParams(Family.M2, 2, 4, (1, 1)))
    assert cert.diff_center_u == 273 - 205 == 68
    assert cert.condition_center_u == paper_branches(Family.M2, 2, 1)[0][0] == "2s >= n"
    assert cert.sign_center_u == cert.sign_center_v == 1
    assert cert.diff_center_u > 0 and cert.diff_center_v > 0


def test_certificate_m2_large_n():
    cert = distinctness_certificate(FamilyParams(Family.M2, 6, 4, (1, 1)))
    assert paper_branches(Family.M2, 6, 1) == (("2s - n <= -1", -1), ("2s - n <= -2", -1))
    assert (cert.condition_center_u, cert.condition_center_v) == ("2s >= n", "2s >= n - 1")
    assert cert.sign_center_u == cert.sign_center_v == -1
    assert cert.diff_center_u < 0 and cert.diff_center_v < 0


def test_certificate_m2_boundary_branch():
    # 2s - n = -1: the center-v difference stays positive, the center-u
    # difference is already negative
    cert = distinctness_certificate(FamilyParams(Family.M2, 3, 4, (1, 1)))
    assert paper_branches(Family.M2, 3, 1) == (("2s - n <= -1", -1), ("2s - n = -1", 1))
    assert (cert.sign_center_u, cert.sign_center_v) == (-1, 1)
    assert cert.diff_center_v > 0
    assert cert.diff_center_u < 0


def test_certificate_m3_branches():
    cert = distinctness_certificate(FamilyParams(Family.M3, 4, 4, (1, 1)))
    assert paper_branches(Family.M3, 4, 1) == (("2s - n <= -1", -1), ("4s >= n", 1))
    assert (cert.condition_center_u, cert.condition_center_v) == ("3n <= 4s", "4s >= n")
    assert (cert.sign_center_u, cert.sign_center_v) == (-1, 1)
    assert cert.diff_center_u < 0 and cert.diff_center_v > 0

    cert = distinctness_certificate(FamilyParams(Family.M3, 5, 4, (1, 1)))
    assert paper_branches(Family.M3, 5, 1)[1] == ("4s - n <= -1", -1)
    assert cert.sign_center_v == -1
    assert cert.diff_center_v < 0


def test_certificate_m3_center_u_branch_prediction_is_unreliable():
    # the paper's case analysis tracks the wrong u-color expression: here
    # 2s >= n, where the paper claims a positive center-vs-u difference,
    # yet it is negative, as the lemma 3n <= 4s says
    cert = distinctness_certificate(FamilyParams(Family.M3, 4, 7, (1, 2)))
    assert paper_branches(Family.M3, 4, 2)[0] == ("2s >= n", 1)
    assert cert.condition_center_u == "3n <= 4s"
    assert cert.sign_center_u == -1
    assert cert.diff_center_u == -465


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
def test_certificate_signs_match_branches(family, n, r, s):
    """The paper's branch signs equal the lemmas' signs, except for m3
    center-u at 4s < 3n <= 6s."""
    cert = certificate(family, n, r, s)
    (_, paper_u), (_, paper_v) = paper_branches(family, n, s)
    assert cert.diff_center_u != 0 and cert.diff_center_v != 0
    assert (cert.diff_center_u > 0) == (cert.sign_center_u > 0)
    assert (cert.diff_center_v > 0) == (cert.sign_center_v > 0)
    assert paper_v == cert.sign_center_v
    paper_wrong = family is Family.M3 and 4 * s < 3 * n <= 6 * s
    assert (paper_u != cert.sign_center_u) == paper_wrong


def _sign(x):
    return (x > 0) - (x < 0)


def test_certificate_signs_equal_actual_signs_on_grid():
    """Over n 1..30 and r, s 1..7, each certificate sign is the sign of
    color_triple's difference, and the paper's branches disagree with the
    lemmas only at m3 center-u."""
    disagree = set()
    for family, n, r, s in product([Family.M2, Family.M3], range(1, 31), range(1, 8), range(1, 8)):
        cert = certificate(family, n, r, s)
        t = color_triple(cert.params)
        assert cert.sign_center_u == _sign(t.c_center - t.c_u), (family, n, r, s)
        assert cert.sign_center_v == _sign(t.c_center - t.c_v), (family, n, r, s)
        (_, paper_u), (_, paper_v) = paper_branches(family, n, s)
        if paper_u != cert.sign_center_u:
            disagree.add((family, "center-u"))
        if paper_v != cert.sign_center_v:
            disagree.add((family, "center-v"))
    assert disagree == {(Family.M3, "center-u")}


# For each family and difference: the lemma's condition and the last n at
# which it holds, as a function of s.
LEMMA_EDGES = [
    (Family.M2, "center_u", "2s >= n", lambda s: 2 * s),
    (Family.M2, "center_v", "2s >= n - 1", lambda s: 2 * s + 1),
    (Family.M3, "center_u", "3n <= 4s", lambda s: 4 * s // 3),
    (Family.M3, "center_v", "4s >= n", lambda s: 4 * s),
]


@pytest.mark.parametrize("family,side,condition,last_n", LEMMA_EDGES,
                         ids=[f"{f.value}-{side}" for f, side, _, _ in LEMMA_EDGES])
def test_certificate_sign_flips_at_the_lemma_edge(family, side, condition, last_n):
    for r, s in product(range(1, 6), range(1, 11)):
        for n, want in ((last_n(s), 1), (last_n(s) + 1, -1)):
            cert = certificate(family, n, r, s)
            t = color_triple(cert.params)
            actual = t.c_center - (t.c_u if side == "center_u" else t.c_v)
            assert getattr(cert, f"condition_{side}") == condition
            assert getattr(cert, f"sign_{side}") == _sign(actual) == want, (n, r, s)


@pytest.mark.parametrize(
    "forge",
    [lambda t: t._replace(c_u=t.c_center), lambda t: t._replace(c_v=t.c_center + 1)],
    ids=["zero-difference", "wrong-sign"],
)
def test_certificate_raises_when_a_difference_lacks_its_lemma_sign(monkeypatch, forge):
    # m2 n=2, r=s=1: both lemmas hold, so both differences must be positive
    monkeypatch.setattr(formulas, "color_triple", lambda p: forge(color_triple(p)))
    with pytest.raises(FalsificationError, match="lemma sign violated"):
        distinctness_certificate(FamilyParams(Family.M2, 2, 4, (1, 1)))


def closed_form_differences_times_4(family, n, r, s):
    """4(c_center - c_u) and 4(c_center - c_v) by ROADMAP's "Closed forms",
    with K = 4k+2 = 2(2r+1)(2s+1) and d = 2s - n."""
    K, d = 2 * (2 * r + 1) * (2 * s + 1), 2 * s - n
    if family is Family.M2:
        return (K * (2 * n + 1) * (4 * d + 3) + 4 * d + 2,
                K * ((2 * n + 1) * (4 * d + 5) - 2) + 4 * d + 2)
    return (4 * K * (n + 1) * (4 * s + 1 - 3 * n) - 2 * K + 4 * d,
            4 * K * (n + 1) * (4 * s + 1 - n) + 4 * d)


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_closed_form_differences_are_identities(family):
    """The four closed forms equal color_triple's differences, as exact
    integer equations (times 4).

    With k = 2rs + r + s both sides are polynomials in (n, r, s) of degree
    at most 2 in each variable: k, and so K, has degree 1 in r and in s;
    the center color is (2s+1) times a polynomial of degree 1 in n and k;
    c_u and c_v have degree 2 in n and 1 in k; each closed form is K times
    a polynomial of degree 2 in n and 1 in s, plus a linear term in d.
    A polynomial of degree at most 2 in each of three variables that
    vanishes on {1,2,3}^3 is zero (three roots per variable, one variable
    at a time), so that grid proves the identities for every n, r and s.
    The wider grid adds only evidence."""
    proof = product(range(1, 4), repeat=3)
    evidence = product(range(1, 31), range(1, 8), range(1, 8))
    for n, r, s in (*proof, *evidence):
        t = color_triple(FamilyParams(family, n, 2 * r * s + r + s, (r, s)))
        diffs = (4 * (t.c_center - t.c_u), 4 * (t.c_center - t.c_v))
        assert diffs == closed_form_differences_times_4(family, n, r, s), (n, r, s)


def crossed_differences(family, n, k):
    """c_u - c_center, c_v - c_center and c_u - c_v of a crossed cell, whose
    colors are unscaled, by README's closed forms."""
    if family is Family.M2:
        return (k * (8 * n * n - 2 * n - 3) + 4 * n * n - 2,
                k * (8 * n * n - 6 * n - 3) + 4 * n * n - 2 * n - 2,
                2 * n * (2 * k + 1))
    K = 4 * k + 2
    return (K * (n + 1) * (3 * n - 1) + n + 2 * k + 1,
            K * (n + 1) * (n - 1) + n,
            2 * n * (n + 1) * K + 2 * k + 1)


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_crossed_color_differences_are_identities(family):
    """The three crossed differences equal color_triple's, so the crossed
    colors are distinct for every n and k.

    The center color has degree 1 in n and in k, c_u and c_v degree 2 in n
    and 1 in k, and so has each closed form.  A polynomial of degree at
    most 2 in n and 1 in k that vanishes on {1,2,3} x {1,2} is zero, so
    that grid proves the identities for all n and k.  None of the six
    forms is zero for n, k >= 1: in m2, 8n^2-2n-3 and 4n^2-2 are positive,
    c_v - c_center is -k at n = 1 and has positive coefficients of k and 1
    for n >= 2, and 2n(2k+1) > 0; in m3 each form is a sum of terms that
    are at least 0, and its last term is positive.  The wider grid adds
    only evidence."""
    proof = product(range(1, 4), range(1, 3))
    evidence = product(range(1, 60), range(1, 60))
    for n, k in (*proof, *evidence):
        t = color_triple(FamilyParams(family, n, k))
        got = (t.c_u - t.c_center, t.c_v - t.c_center, t.c_u - t.c_v)
        assert got == crossed_differences(family, n, k), (n, k)
        assert 0 not in got, (n, k)


def test_certificate_requires_factorization():
    with pytest.raises(ParamError):
        distinctness_certificate(FamilyParams(Family.M2, 2, 4))


def test_factorization_forces_k_at_least_4():
    # smallest valid factorization is (2r+1)(2s+1) = 9, so 2k+1 >= 9
    with pytest.raises(ParamError):
        FamilyParams(Family.M2, 1, 3, (1, 1))
    p = FamilyParams(Family.M2, 1, 4, (1, 1))
    assert p.k >= 4
