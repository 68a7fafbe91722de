"""Label matrices for the two graph families.

Family M2 is the (4n+1)-row matrix (leaves come in 2n per copy), family M3
the (4n+3)-row one (2n+1 leaves per copy).  Columns run over i in [1, 2k+1];
rows are the u-side leaf rows, the partner-edge row, then the v-side leaf
rows.  Cell values form a bijection onto [1, rows*(2k+1)].
"""
from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import List, NamedTuple, Optional, Tuple


class Family(Enum):
    M2 = "m2"
    M3 = "m3"


class ParamError(ValueError):
    pass


class _ParamFields(NamedTuple):
    family: Family
    n: int
    k: int
    factorization: Optional[Tuple[int, int]] = None  # (r, s)


class FamilyParams(_ParamFields):
    """Validated on construction, so by `_make`, `_replace` and unpickling
    too.  `family` is a `Family` or its value ("m2", "m3"); the
    factorization is None or a pair (r, s); n, k, r and s are ints, not
    bools or floats."""

    __slots__ = ()

    def __new__(
        cls, family: Family | str, n: int, k: int, factorization=None
    ) -> "FamilyParams":
        if type(family) is not Family:
            try:
                family = Family(family)
            except ValueError:
                raise ParamError(f"unknown family {family!r}") from None
        sizes = [("n", n), ("k", k)]
        if factorization is not None:
            try:
                r, s = factorization
            except (TypeError, ValueError):
                raise ParamError(
                    f"factorization must be a pair (r, s), got {factorization!r}"
                ) from None
            factorization = (r, s)  # a list would neither hash nor equal the tuple
            sizes += [("r", r), ("s", s)]
        for name, value in sizes:
            if type(value) is not int:  # not isinstance: True is an int too
                raise ParamError(f"{name} must be an int, got {value!r}")
        if n < 1:
            raise ParamError(f"n must be >= 1, got {n}")
        # r and s first: a sweep derives k from them, so a bad r or s
        # would otherwise be reported as a k the user never gave
        if factorization is not None:
            if r < 1 or s < 1:
                raise ParamError(f"r, s must be >= 1, got ({r}, {s})")
            if (2 * r + 1) * (2 * s + 1) != 2 * k + 1:
                raise ParamError(
                    f"(2r+1)(2s+1) = {(2 * r + 1) * (2 * s + 1)} "
                    f"but 2k+1 = {2 * k + 1}"
                )
        if k < 1:
            raise ParamError(f"k must be >= 1, got {k}")
        return tuple.__new__(cls, (family, n, k, factorization))

    @classmethod
    def _make(cls, fields) -> "FamilyParams":  # _replace() builds through here too
        return cls(*fields)

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


class LabelMatrix(NamedTuple):
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


def _rows_m2(n: int, k: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(ux rows, vx rows) of M2.  Row j is two runs with one step: the u
    side splits after copy k, the v side after copy k+1.  With K = 8k+4
    and h = ceil(j/2), only the j = 2 rows step by -2."""
    K = 8 * k + 4
    ux, vx = [], []
    for j in range(1, 2 * n + 1):
        h = (j + 1) // 2
        w, t = (n - h) * K, h * K
        if j % 2:
            u, v, d = (w + 9 * k + 6, w + 8 * k + 5), (t - 5 * k - 2, t - 6 * k - 2), 1
        elif j == 2:
            u, v, d = (w + 6 * k + 2, w + 6 * k + 3), (8 * k + 4, 8 * k + 3), -2
        else:
            u, v, d = (w + 5 * k + 2, w + 6 * k + 3), (t - k, t), -1
        ux.append([*range(u[0], u[0] + d * k, d), *range(u[1], u[1] + d * (k + 1), d)])
        vx.append([*range(v[0], v[0] + d * (k + 1), d), *range(v[1], v[1] + d * k, d)])
    return ux, vx


def _rows_m3(n: int, k: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(ux rows, vx rows) of M3.  Row j is one run over all 2k+1 copies:
    with K = 4k+2 and h = ceil(j/2), odd rows step by -1, even by +1."""
    K, c = 4 * k + 2, 2 * k + 1
    ux, vx = [], []
    for j in range(1, 2 * n + 2):
        h = (j + 1) // 2
        if j % 2:
            a, b = (2 * n - h) * K + 10 * k + 5, (h - 2) * K + 8 * k + 4
            ux.append(list(range(a, a - c, -1)))
            vx.append(list(range(b, b - c, -1)))
        else:
            a, b = (2 * n - h) * K + 6 * k + 4, (h - 1) * K + 4 * k + 3
            ux.append(list(range(a, a + c)))
            vx.append(list(range(b, b + c)))
    return ux, vx


def build_matrix(params: FamilyParams) -> LabelMatrix:
    rows_of = _rows_m2 if params.family is Family.M2 else _rows_m3
    ux, vx = rows_of(params.n, params.k)
    uv = list(range(1, params.copies + 1))
    if sorted(chain(uv, *ux, *vx)) != list(range(1, params.q + 1)):
        raise AssertionError(
            f"matrix cells are not a bijection onto [1, {params.q}] "
            f"for {params}"
        )
    return LabelMatrix(params=params, ux=ux, uv=uv, vx=vx)


def matrix_column_sums(mat: LabelMatrix) -> Tuple[int, int]:
    """(u-block column sum, v-block column sum); constant across columns."""
    u_sums = {sum(col) for col in zip(mat.uv, *mat.ux)}
    v_sums = {sum(col) for col in zip(mat.uv, *mat.vx)}
    if len(u_sums) != 1 or len(v_sums) != 1:
        raise AssertionError(f"column sums not constant for {mat.params}")
    return u_sums.pop(), v_sums.pop()
