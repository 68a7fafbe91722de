"""Parameter sweeps: run the family constructions over a grid and check
every instance against the closed-form predictions."""
from __future__ import annotations

import os
import time
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from .families import build_family
from .formulas import color_triple
from .graph import Role, graph_stats, verify_local_antimagic
from .matrices import (
    Family,
    FamilyParams,
    ParamError,
    build_matrix,
    matrix_column_sums,
)


class CellResult(NamedTuple):
    params: FamilyParams
    stage: str
    verified: bool
    colors: Tuple[int, int, int]
    components: int
    regular: Optional[int]
    runtime_ms: int
    failures: List[str]


class SweepReport(NamedTuple):
    cells: List[CellResult]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cells if c.verified)

    @property
    def failed(self) -> int:
        return len(self.cells) - self.passed


def check_cell(params: FamilyParams, stage: str) -> CellResult:
    """Build one family instance and check each structural claim once:
    valid local antimagic labeling, every vertex at its role's formula
    color, component count, chi >= 3, the matrix's column sums, and m3's
    regularity at n = 2s.  A valid labeling with every role at its color
    has exactly the three predicted colors, and with chi >= 3 certifies
    chi_la = 3.  Only the crossed and merged stages have claims to check."""
    if stage not in ("crossed", "merged"):
        raise ParamError(f"check_cell checks the crossed and merged stages, not {stage!r}")
    start = time.monotonic()
    failures: List[str] = []
    # Crossing keeps the leaves' color; only a merge scales it by 2s+1.
    triple = color_triple(params if stage == "merged" else params._replace(factorization=None))
    mat = build_matrix(params)
    g = build_family(params, stage=stage, mat=mat)
    report = verify_local_antimagic(g)
    components, _, regular = graph_stats(g)

    if not report.is_local_antimagic:
        failures.append("labeling is not local antimagic")
    # Sorted vertices run U, then V, then leaves: check each block's sums at once.
    vs, sums = g._vertices, report.sums
    u_end, v_end = bisect_left(vs, (Role.V,)), bisect_left(vs, (Role.X,))
    for lo, hi, want in ((0, u_end, triple.c_u), (u_end, v_end, triple.c_v),
                         (v_end, len(vs), triple.c_center)):
        if sums[lo:hi].count(want) != hi - lo:
            i = next(i for i in range(lo, hi) if sums[i] != want)
            failures.append(f"color of {vs[i]} is {sums[i]}, formula says {want}")
    want_components = 1 + (
        params.factorization[0] if stage == "merged" else params.k  # type: ignore[index]
    )
    if components != want_components:
        failures.append(f"{components} components, expected {want_components}")
    if report.chi_lower != 3:
        failures.append(f"chi lower bound {report.chi_lower} != 3")
    u_sum, v_sum = matrix_column_sums(mat)
    if (u_sum, v_sum) != (triple.c_u, triple.c_v):
        failures.append(
            f"column sums ({u_sum}, {v_sum}) != closed forms "
            f"({triple.c_u}, {triple.c_v})"
        )
    if (
        stage == "merged"
        and params.family is Family.M3
        and params.n == 2 * params.factorization[1]  # type: ignore[index]
        and regular != 2 * params.n + 2
    ):
        failures.append(f"expected {2 * params.n + 2}-regular, got {regular}")

    return CellResult(
        params=params,
        stage=stage,
        verified=not failures,
        colors=(triple.c_center, triple.c_u, triple.c_v),
        components=components,
        regular=regular,
        runtime_ms=int((time.monotonic() - start) * 1000),
        failures=failures,
    )


def worker_count() -> int:
    """Sweep worker processes: ANTIMAGIC_THREADS if set, else the CPU count."""
    cap = os.environ.get("ANTIMAGIC_THREADS")
    if not cap:
        return os.cpu_count() or 1
    try:
        workers = int(cap)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParamError(f"ANTIMAGIC_THREADS must be a positive integer, got {cap!r}")
    return workers


def run_sweep(cells: List[Tuple[FamilyParams, str]]) -> SweepReport:
    workers = min(worker_count(), len(cells)) if cells else 1
    if workers <= 1:
        return SweepReport(cells=[check_cell(p, s) for p, s in cells])
    # Only a multi-worker sweep needs the pool, and importing it costs more than the package.
    from concurrent.futures import ProcessPoolExecutor
    chunksize = max(1, len(cells) // (16 * workers))  # ~16 round trips per worker
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return SweepReport(cells=list(pool.map(check_cell, *zip(*cells), chunksize=chunksize)))


def grid_cells(
    families: List[Family | str],
    n_range: List[int],
    k_range: List[int],
    rs_range: Optional[List[int]] = None,
) -> List[Tuple[FamilyParams, str]]:
    """Crossed cells over n x k; if rs_range is given, merged cells over
    n x r x s instead (k is forced by (2r+1)(2s+1) = 2k+1)."""
    if rs_range is None:
        return [(FamilyParams(fam, n, k), "crossed")
                for fam in families for n in n_range for k in k_range]
    return [(FamilyParams(fam, n, 2 * r * s + r + s, (r, s)), "merged")
            for fam in families for n in n_range for r in rs_range for s in rs_range]
