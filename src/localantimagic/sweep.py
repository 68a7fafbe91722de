"""Parameter sweeps: run the family constructions over a grid and check
every instance against the closed-form predictions."""
from __future__ import annotations

import os
import time
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

from .families import build_family
from .formulas import color_triple
from .graph import Role, _sums, chromatic_lower_bound, graph_stats
from .matrices import Family, FamilyParams, ParamError


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
    """Build one family instance and check each measured claim once: every
    vertex at its role's formula color, component count, chi >= 3, and
    m3's regularity at n = 2s.  Only the crossed and merged stages have
    claims to check.

    A cell that passes is local antimagic without a verifier run:
    - every edge joins two different parts: chi lower bound 3 comes only
      after check_tripartite passes, and _layout puts U in part 1, V in
      part 2 and every leaf in part 3;
    - the three formula colors are pairwise distinct for every crossed and
      merged member (README's proved closed forms and sign lemmas), and
      every vertex is measured at its role's color, so adjacent vertices
      differ;
    - the labels are a bijection onto 1..q: _labels lists each matrix cell
      once, and build_matrix's cells are a proved bijection, which its
      guard asserts.
    So the cell has exactly the three predicted colors, and with chi >= 3
    that certifies chi_la = 3.

    u_i's incident labels are column i's uv and ux cells, v_i's its uv and
    vx cells, so the role colors are the matrix's column-sum claim."""
    if stage not in ("crossed", "merged"):
        raise ParamError(f"check_cell checks the crossed and merged stages, not {stage!r}")
    start = time.monotonic()
    failures: List[str] = []
    # Crossing keeps the leaves' color; only a merge scales it by 2s+1.
    triple = color_triple(params if stage == "merged" else params._replace(factorization=None))
    g = build_family(params, stage)
    components, _, regular = graph_stats(g)

    # Sorted vertices run U, then V, then leaves: check each block's sums at once.
    vs, sums = g._vertices, _sums(g)
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
    chi_lower = chromatic_lower_bound(g)
    if chi_lower != 3:
        failures.append(f"chi lower bound {chi_lower} != 3")
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
    """Sweep worker processes: ANTIMAGIC_THREADS if set, else the CPUs this
    process may run on (all of them where the platform cannot tell)."""
    cap = os.environ.get("ANTIMAGIC_THREADS")
    if not cap:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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
