"""Label matrices for the two graph families.

Family M2 is the (4n+1)-row matrix (leaves come in 2n per copy), family M3
the (4n+3)-row one (2n+1 leaves per copy).  Columns run over i in [1, 2k+1];
rows are the u-side leaf rows, the partner-edge row, then the v-side leaf
rows.  Cell values form a bijection onto [1, rows*(2k+1)].
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple


class Family(Enum):
    M2 = "m2"
    M3 = "m3"


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    n: int
    k: int
    factorization: Optional[Tuple[int, int]] = None  # (r, s)

    def __post_init__(self):
        if self.n < 1:
            raise ParamError(f"n must be >= 1, got {self.n}")
        # r and s first: a sweep derives k from them, so a bad r or s
        # would otherwise be reported as a k the user never gave
        if self.factorization is not None:
            r, s = self.factorization
            if r < 1 or s < 1:
                raise ParamError(f"r, s must be >= 1, got ({r}, {s})")
            if (2 * r + 1) * (2 * s + 1) != 2 * self.k + 1:
                raise ParamError(
                    f"(2r+1)(2s+1) = {(2 * r + 1) * (2 * s + 1)} "
                    f"but 2k+1 = {2 * self.k + 1}"
                )
        if self.k < 1:
            raise ParamError(f"k must be >= 1, got {self.k}")

    @property
    def leaves_per_copy(self) -> int:
        return 2 * self.n if self.family is Family.M2 else 2 * self.n + 1

    @property
    def copies(self) -> int:
        return 2 * self.k + 1

    @property
    def rows(self) -> int:
        return 2 * self.leaves_per_copy + 1

    @property
    def q(self) -> int:
        return self.rows * self.copies


@dataclass(frozen=True)
class LabelMatrix:
    """The label matrix as rows of plain ints: `ux[j-1]` is the u-side
    leaf-j row, `uv` the partner row, `vx[j-1]` the v-side leaf-j row, and
    entry i-1 of every row is copy i."""

    params: FamilyParams
    ux: List[List[int]]
    uv: List[int]
    vx: List[List[int]]

    @property
    def rows(self) -> List[List[int]]:
        """All rows in print order: ux 1..m, uv, vx 1..m."""
        return [*self.ux, self.uv, *self.vx]


def row_names(params: FamilyParams) -> List[Tuple[str, int]]:
    """(role, leaf) of each row of `LabelMatrix.rows`, in the same order."""
    leaves = range(1, params.leaves_per_copy + 1)
    return [("ux", j) for j in leaves] + [("uv", 0)] + [("vx", j) for j in leaves]


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


def build_matrix(params: FamilyParams) -> LabelMatrix:
    cell = _cell_m2 if params.family is Family.M2 else _cell_m3
    n, k, m = params.n, params.k, params.leaves_per_copy
    rows = [
        [cell(n, k, name, i) for i in range(1, params.copies + 1)]
        for name in row_names(params)
    ]
    if sorted(v for row in rows for v in row) != list(range(1, params.q + 1)):
        raise AssertionError(
            f"matrix cells are not a bijection onto [1, {params.q}] "
            f"for {params}"
        )
    return LabelMatrix(params=params, ux=rows[:m], uv=rows[m], vx=rows[m + 1 :])


def matrix_column_sums(mat: LabelMatrix) -> Tuple[int, int]:
    """(u-block column sum, v-block column sum); constant across columns."""
    u_sums = {sum(col) for col in zip(mat.uv, *mat.ux)}
    v_sums = {sum(col) for col in zip(mat.uv, *mat.vx)}
    if len(u_sums) != 1 or len(v_sums) != 1:
        raise AssertionError(f"column sums not constant for {mat.params}")
    return u_sums.pop(), v_sums.pop()
