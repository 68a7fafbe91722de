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


def _block(b: int, c: int, down: bool) -> range:
    """Block b of c labels, b*c+1 .. b*c+c, running up or down."""
    labels = range(b * c + 1, b * c + c + 1)
    return labels[::-1] if down else labels


def _rows_m2(n: int, k: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(ux rows, vx rows) of M2.  Row j runs up for odd j and down for
    even j, rotated left by k+1 on the u side and by k on the v side.  At
    j = 2 a row lists one parity of its block, then the other."""
    c = 2 * k + 1
    ux, vx = [], []
    for j in range(1, 2 * n + 1):
        down = j % 2 == 0
        u, v = _block(4 * n + 2 - 2 * j, c, down), _block(2 * j - 1, c, down)
        if j == 2:
            ux.append([*u[1::2], *u[::2]])
            vx.append([*v[::2], *v[1::2]])
        else:
            ux.append([*u[k + 1:], *u[:k + 1]])
            vx.append([*v[k:], *v[:k]])
    return ux, vx


def _rows_m3(n: int, k: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(ux rows, vx rows) of M3.  Row j is its block, running down for
    odd j and up for even j."""
    c, leaves = 2 * k + 1, range(1, 2 * n + 2)
    ux = [list(_block(4 * n + 3 - j, c, j % 2 == 1)) for j in leaves]
    vx = [list(_block(j, c, j % 2 == 1)) for j in leaves]
    return ux, vx


def build_matrix(params: FamilyParams) -> LabelMatrix:
    """The label matrix of `params`.  Its cells are a bijection onto
    1..q for every n and k.  Cut 1..q into the blocks of c = 2k+1
    consecutive labels; block b is b*c+1 .. b*c+c, for b in 0..rows-1.

    - `uv` is block 0.
    - M3: vx row j is block j and ux row j block 4n+3-j, for j in
      1..2n+1.  So the v side takes blocks 1..2n+1 and the u side blocks
      2n+2..4n+2.
    - M2: vx row j is block 2j-1 and ux row j block 4n+2-2j, for j in
      1..2n.  So the v side takes the odd blocks 1..4n-1 and the u side
      the even blocks 2..4n.

    Each block is taken once, and rows = 4n+3 (M3) or 4n+1 (M2), so the
    rows take blocks 0..rows-1 once each.  Each row lists its block
    reversed, rotated or split by parity, which is a permutation of it.
    So the cells list 1..q once each.  The check below is the guard.
    """
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
