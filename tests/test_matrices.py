import pickle
import re
from itertools import product
from pathlib import Path
from typing import Tuple

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    ParamError,
    build_matrix,
    matrix_column_sums,
)
from localantimagic.formulas import center_constant, color_triple
from localantimagic.io import matrix_to_csv
from localantimagic.matrices import row_names

GOLDEN = Path(__file__).parent / "golden"


# The matrices cell by cell, as a separate writing of the label blocks that
# build_matrix lists row by row: test_rows_match_the_per_cell_formulas
# compares the two.
def _cell_m2(n: int, k: int, role: Tuple[str, int], i: int) -> int:
    kind, j = role
    m = n * (8 * k + 4)
    if kind == "uv":
        return i
    if kind == "ux":
        if j == 1:
            return m + k + 1 + i if i <= k else m + i - k
        if j == 2:
            return m - 2 * k - 2 * i if i <= k else m - 2 * k - 1 - 2 * (i - k - 1)
        w = (n - (j + 1) // 2) * (8 * k + 4)
        if j % 2 == 1:
            return w + 9 * k + 5 + i if i <= k else w + 7 * k + 4 + i
        return w + 5 * k + 3 - i if i <= k else w + 7 * k + 4 - i
    # vx rows
    if j == 1:
        return 3 * k + 1 + i if i <= k + 1 else k + i
    if j == 2:
        return 8 * k + 6 - 2 * i if i <= k + 1 else 8 * k + 3 - 2 * (i - k - 2)
    t = ((j + 1) // 2) * (8 * k + 4)
    if j % 2 == 1:
        return t - 5 * k - 3 + i if i <= k + 1 else t - 7 * k - 4 + i
    return t - k + 1 - i if i <= k + 1 else t + k + 2 - i


def _cell_m3(n: int, k: int, role: Tuple[str, int], i: int) -> int:
    kind, j = role
    if kind == "uv":
        return i
    if kind == "ux":
        if j == 2 * n + 1:
            return (n + 1) * (4 * k + 2) + 2 * k + 2 - i
        w = (2 * n - (j + 1) // 2) * (4 * k + 2)
        if j % 2 == 1:
            return w + 10 * k + 6 - i
        return w + 6 * k + 3 + i
    # vx rows
    if j == 1:
        return 4 * k + 3 - i
    t = (j // 2 - 1) * (4 * k + 2)
    if j % 2 == 0:
        return t + 4 * k + 2 + i
    return t + 8 * k + 5 - i


def golden_rows(name):
    text = (GOLDEN / name).read_text()
    return [[int(v) for v in line.split(",")] for line in text.splitlines()]


def test_m2_example_matches_golden_table():
    mat = build_matrix(FamilyParams(Family.M2, 2, 4))
    assert mat.rows == golden_rows("m2_n2_k4.csv")


def test_m3_example_matches_golden_table():
    mat = build_matrix(FamilyParams(Family.M3, 2, 4))
    assert mat.rows == golden_rows("m3_n2_k4.csv")


def test_csv_export_byte_matches_golden():
    for fam, name in ((Family.M2, "m2_n2_k4.csv"), (Family.M3, "m3_n2_k4.csv")):
        mat = build_matrix(FamilyParams(fam, 2, 4))
        assert matrix_to_csv(mat) == (GOLDEN / name).read_text()


def test_spot_cells():
    m2 = build_matrix(FamilyParams(Family.M2, 2, 4))
    assert m2.ux[0][0] == 78  # leaf 1, copy 1
    assert m2.ux[3][4] == 27
    assert m2.vx[3][5] == 72
    m3 = build_matrix(FamilyParams(Family.M3, 2, 4))
    assert m3.ux[0][0] == 99
    assert m3.ux[4][8] == 55
    assert m3.vx[4][4] == 50


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 7))
def test_bijection_on_grid(family, n, k):
    # build_matrix raises if the cells are not a bijection onto [1, q]
    mat = build_matrix(FamilyParams(family, n, k))
    assert sorted(v for row in mat.rows for v in row) == list(range(1, mat.params.q + 1))


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(1, 13) for k in range(1, 13)] + [(60, 60)]
)
def test_rows_match_the_per_cell_formulas(family, n, k):
    # build_matrix writes each row as one or two arithmetic runs; the
    # reference evaluates every cell
    cell = _cell_m2 if family is Family.M2 else _cell_m3
    params = FamilyParams(family, n, k)
    want = [[cell(n, k, name, i) for i in range(1, 2 * k + 2)]
            for name in row_names(params)]
    assert build_matrix(params).rows == want


def test_m2_n1_k1_is_5x3_bijection():
    mat = build_matrix(FamilyParams(Family.M2, 1, 1))
    assert len(mat.rows) == 5 and all(len(row) == 3 for row in mat.rows)
    assert sorted(v for row in mat.rows for v in row) == list(range(1, 16))


def test_column_sums_examples():
    assert matrix_column_sums(build_matrix(FamilyParams(Family.M2, 2, 4))) == (205, 169)
    assert matrix_column_sums(build_matrix(FamilyParams(Family.M3, 2, 4))) == (390, 165)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 7))
def test_m2_column_sums_match_closed_forms(n, k):
    u, v = matrix_column_sums(build_matrix(FamilyParams(Family.M2, n, k)))
    assert u == 8 * k * n * n + 6 * k * n + 4 * n * n + k + 4 * n + 1
    assert v == 8 * k * n * n + 2 * k * n + 4 * n * n + k + 2 * n + 1


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 7))
def test_m3_column_sums_match_closed_forms(n, k):
    u, v = matrix_column_sums(build_matrix(FamilyParams(Family.M3, n, k)))
    assert u == (n + 1) * (3 * n + 1) * (4 * k + 2) + n + 2 * k + 2
    assert v == (n + 1) ** 2 * (4 * k + 2) + n + 1


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n,k", list(product(range(1, 13), repeat=2)))
def test_crossing_pair_constant(family, n, k):
    """The leaf-color lemma: `ux` row j at copy i plus `vx` row j at copy
    2k+2-i is center_constant, for every row j and copy i.  A crossed leaf
    is joined to u_i and v_(2k+2-i), so this is its color.  build_matrix's
    docstring proves it for all n and k; test_leaf_row_pair_lemma checks
    the proof's steps."""
    params = FamilyParams(family, n, k)
    mat = build_matrix(params)
    const = center_constant(params)
    for ux, vx in zip(mat.ux, mat.vx):
        # copy i is entry i-1, so copy 2k+2-i is entry 2k-(i-1): reversed order
        for u, v in zip(ux, reversed(vx)):
            assert u + v == const
        assert ux[k] + vx[k] == const  # copy k+1 pairs with itself


def _blocks(params):
    """(u block, v block) of each leaf row j, as build_matrix's docstring
    states the block map."""
    n = params.n
    if params.family is Family.M3:
        return [(4 * n + 3 - j, j) for j in range(1, 2 * n + 2)]
    return [(4 * n + 2 - 2 * j, 2 * j - 1) for j in range(1, 2 * n + 1)]


def _offsets(params):
    """(u offsets, v offsets) of each leaf row, copy by copy: cell minus
    block times c.  Each row lists its block once, so 1..c once."""
    mat, c = build_matrix(params), params.copies
    rows = []
    for (bu, bv), ux, vx in zip(_blocks(params), mat.ux, mat.vx):
        ou, ov = [x - bu * c for x in ux], [x - bv * c for x in vx]
        assert sorted(ou) == sorted(ov) == list(range(1, c + 1)), params
        rows.append((ou, ov))
    return rows


# A row's offsets depend on its class and k only, and n = 2 already holds
# every class of both families: M3's up and down rows, M2's rows 1 and 2
# and a rotated up/down pair j >= 3.
LEMMA_CELLS = [(n, k) for n in range(1, 7) for k in range(1, 61)]


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_leaf_row_pair_lemma(family):
    """build_matrix's leaf lemma, step by step: ux row j and vx row j take
    blocks whose indices sum to rows, center_constant is (rows+1)c+1, and
    the offsets at copies i and 2k+2-i add to c+1 in every row."""
    for n, k in LEMMA_CELLS:
        params = FamilyParams(family, n, k)
        c = params.copies
        assert center_constant(params) == (params.rows + 1) * c + 1
        assert {bu + bv for bu, bv in _blocks(params)} == {params.rows}
        for ou, ov in _offsets(params):
            assert [a + b for a, b in zip(ou, reversed(ov))] == [c + 1] * c, (n, k)


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_column_sum_lemma(family):
    """matrix_column_sums' lemma, step by step, on each side: in M3 the
    leaf offsets and the uv cell add to (n+1)(c+1) in every column; in M2
    rows 1 and 2 and the uv cell add to 3k+3, and each up/down pair of
    rows j >= 3 to c+1."""
    for n, k in LEMMA_CELLS:
        c = 2 * k + 1
        offsets, uv = _offsets(FamilyParams(family, n, k)), range(1, c + 1)
        for side in (0, 1):
            rows = [row[side] for row in offsets]
            if family is Family.M3:
                assert [sum(col) for col in zip(uv, *rows)] == [(n + 1) * (c + 1)] * c
                continue
            assert [sum(col) for col in zip(uv, *rows[:2])] == [3 * k + 3] * c
            for up, down in zip(rows[2::2], rows[3::2]):
                assert [a + b for a, b in zip(up, down)] == [c + 1] * c, (n, k)


def column_sum_forms(family, n, k):
    """(u, v) column sums as matrix_column_sums' lemma adds them up: c times
    the side's block indices plus the offsets' constant.  M3's u blocks
    2n+2..4n+2 add to (2n+1)(3n+2) and its v blocks 1..2n+1 to
    (2n+1)(n+1); M2's u blocks 2, 4, .., 4n add to 2n(2n+1) and its v
    blocks 1, 3, .., 4n-1 to 4n^2."""
    c = 2 * k + 1
    if family is Family.M3:
        rest = (n + 1) * (c + 1)
        return c * (2 * n + 1) * (3 * n + 2) + rest, c * (2 * n + 1) * (n + 1) + rest
    rest = (n - 1) * (c + 1) + 3 * k + 3
    return c * 2 * n * (2 * n + 1) + rest, c * 4 * n * n + rest


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_column_sums_are_the_closed_forms(family):
    """The lemma's sums equal color_triple's c_u and c_v.  Both sides have
    degree at most 2 in n and 1 in k, so agreeing on {1,2,3} x {1,2}
    proves the identity for all n and k.  The wider grid adds evidence
    that the lemma's sums are the matrix's."""
    for n, k in product(range(1, 4), range(1, 3)):
        t = color_triple(FamilyParams(family, n, k))
        assert column_sum_forms(family, n, k) == (t.c_u, t.c_v), (n, k)
    for n, k in product(range(1, 13), repeat=2):
        mat = build_matrix(FamilyParams(family, n, k))
        assert column_sum_forms(family, n, k) == matrix_column_sums(mat), (n, k)


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
@pytest.mark.parametrize("n,r,s", [(1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2)])
def test_merge_block_sums(family, n, r, s):
    """Consecutive (2s+1)-blocks of crossing pairs sum to (2s+1) x const."""
    k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
    params = FamilyParams(family, n, k, (r, s))
    mat = build_matrix(params)
    const = center_constant(params)
    block = 2 * s + 1
    for ux, vx in zip(mat.ux, mat.vx):
        # entry c is copy c+1; its crossing partner, copy 2k+1-c, is entry 2k-c
        for a in range(1, r + 1):
            lo = (a - 1) * block
            total_y = sum(ux[c] + vx[2 * k - c] for c in range(lo, lo + block))
            total_z = sum(vx[c] + ux[2 * k - c] for c in range(lo, lo + block))
            assert total_y == total_z == block * const
        mid = range(r * block, (r + 1) * block)
        assert sum(ux[c] + vx[2 * k - c] for c in mid) == block * const


def test_param_validation():
    with pytest.raises(ParamError):
        FamilyParams(Family.M2, 0, 1)
    with pytest.raises(ParamError):
        FamilyParams(Family.M2, 1, 0)
    with pytest.raises(ParamError):
        FamilyParams(Family.M2, 2, 3, (1, 1))  # 9 != 7
    with pytest.raises(ParamError):
        FamilyParams(Family.M2, 2, 4, (0, 4))


def test_param_validation_on_every_path():
    """_replace, _make and unpickling build through the same checks as
    the constructor, so no path yields invalid parameters."""
    with pytest.raises(ParamError, match="n must be >= 1, got 0"):
        FamilyParams(Family.M2, 1, 1)._replace(n=0)
    with pytest.raises(ParamError, match="k must be >= 1, got 0"):
        FamilyParams._make((Family.M2, 1, 0, None))
    merged = FamilyParams(Family.M3, 2, 4, (1, 1))
    with pytest.raises(ParamError, match=r"\(2r\+1\)\(2s\+1\) = 9 but 2k\+1 = 11"):
        merged._replace(k=5)
    with pytest.raises(ParamError, match=r"^k must be an int, got 4\.0$"):
        merged._replace(k=4.0)
    with pytest.raises(ParamError, match=r"must be a pair \(r, s\), got \(1, 1, 1\)$"):
        merged._replace(factorization=(1, 1, 1))
    assert pickle.loads(pickle.dumps(merged)) == merged
    assert type(pickle.loads(pickle.dumps(merged))) is FamilyParams
    assert merged._replace(n=3) == FamilyParams(Family.M3, 3, 4, (1, 1))


def test_family_given_by_its_value_is_that_family():
    """A family's value ("m2") builds that family, not the other one, on
    every path; an unknown value is an error that names it."""
    from localantimagic import build_family

    p = FamilyParams("m2", 1, 1)
    assert p.family is Family.M2
    assert p == FamilyParams(Family.M2, 1, 1)
    assert p.q == 15 and build_family(p).q == 15
    assert p._replace(family="m3").family is Family.M3
    assert p._replace(family="m3").q == 21
    for bad in ("m4", "M2", None):
        with pytest.raises(ParamError, match=f"unknown family {bad!r}"):
            FamilyParams(bad, 1, 1)
    with pytest.raises(ParamError, match="unknown family 'm4'"):
        p._replace(family="m4")


@pytest.mark.parametrize(
    "args, field",
    [
        ((Family.M2, 1.5, 1), "n"),
        ((Family.M2, 2, 1.0), "k"),
        ((Family.M2, 2, 4, (1.0, 1)), "r"),
        ((Family.M2, True, 1), "n"),
    ],
    ids=["n-float", "k-float", "r-float", "n-bool"],
)
def test_param_sizes_must_be_ints(args, field):
    """A float or bool size is a ParamError naming its field, not a later
    TypeError in build_matrix or build_family, nor `"n": true` in a report."""
    with pytest.raises(ParamError, match=f"^{field} must be an int, got "):
        FamilyParams(*args)


@pytest.mark.parametrize("factorization", [(1, 1, 1), (1,), 5],
                         ids=["triple", "single", "int"])
def test_factorization_must_be_a_pair(factorization):
    """A factorization that is not a pair is a ParamError that shows it,
    not a bare unpacking ValueError or TypeError."""
    want = rf"^factorization must be a pair \(r, s\), got {re.escape(repr(factorization))}$"
    with pytest.raises(ParamError, match=want):
        FamilyParams(Family.M2, 2, 4, factorization)


def test_list_factorization_is_stored_as_a_tuple():
    p = FamilyParams(Family.M2, 2, 4, [1, 1])
    assert p.factorization == (1, 1) and type(p.factorization) is tuple
    assert p == FamilyParams(Family.M2, 2, 4, (1, 1))
    assert hash(p) == hash(FamilyParams(Family.M2, 2, 4, (1, 1)))


def test_records_print_and_compare_as_their_fields():
    """The records are NamedTuples: the repr names every field, as the
    error messages that embed params expect, and a record equals the
    plain tuple of its fields."""
    p = FamilyParams(Family.M2, 2, 4, (1, 1))
    assert repr(p) == "FamilyParams(family=<Family.M2: 'm2'>, n=2, k=4, factorization=(1, 1))"
    assert p == (Family.M2, 2, 4, (1, 1))
    assert hash(p) == hash((Family.M2, 2, 4, (1, 1)))


def test_uv_row_is_identity():
    for fam in (Family.M2, Family.M3):
        mat = build_matrix(FamilyParams(fam, 3, 5))
        assert mat.uv == list(range(1, 12))
        assert mat.rows[mat.params.leaves_per_copy] is mat.uv
