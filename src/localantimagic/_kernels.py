"""Hot search kernel for the exhaustive oracle.

The DFS below is written against plain numpy arrays so the exact same
function body runs either JIT-compiled through numba, when the optional
`[jit]` extra is installed, or as pure Python.  `search_fallback` is always
the interpreted body.
"""
from __future__ import annotations

import numpy as np


def _search_impl(eu, ev, degrees, adj_off, adj_flat, q, n, prune):
    """Enumerate bijections [edges] -> [1,q] in lexicographic label order.

    Returns (best_color_count, best_labels, labelings_tried, valid_count);
    best_color_count is 0 when no bijection is local antimagic.  With
    prune=True a partial assignment is abandoned as soon as two adjacent
    saturated vertices collide, so labelings_tried counts only the
    complete assignments actually reached.
    """
    assign = np.zeros(q, dtype=np.int64)
    used = np.zeros(q + 1, dtype=np.bool_)
    sums = np.zeros(n, dtype=np.int64)
    rem = degrees.copy()
    best = 0
    best_labels = np.zeros(q, dtype=np.int64)
    tried = 0
    valid = 0
    pos = 0
    while True:
        lab = assign[pos] + 1
        if assign[pos] != 0:
            old = assign[pos]
            used[old] = False
            u = eu[pos]
            v = ev[pos]
            sums[u] -= old
            sums[v] -= old
            rem[u] += 1
            rem[v] += 1
            assign[pos] = 0
        while lab <= q and used[lab]:
            lab += 1
        if lab > q:
            pos -= 1
            if pos < 0:
                break
            continue
        assign[pos] = lab
        used[lab] = True
        u = eu[pos]
        v = ev[pos]
        sums[u] += lab
        sums[v] += lab
        rem[u] -= 1
        rem[v] -= 1
        if prune:
            conflict = False
            for w in (u, v):
                if rem[w] == 0:
                    for t in range(adj_off[w], adj_off[w + 1]):
                        x = adj_flat[t]
                        if rem[x] == 0 and sums[x] == sums[w]:
                            conflict = True
                            break
                if conflict:
                    break
            if conflict:
                continue
        if pos == q - 1:
            tried += 1
            ok = True
            if not prune:
                for e in range(q):
                    if sums[eu[e]] == sums[ev[e]]:
                        ok = False
                        break
            if ok:
                valid += 1
                sorted_sums = np.sort(sums)
                count = 1
                for i in range(1, n):
                    if sorted_sums[i] != sorted_sums[i - 1]:
                        count += 1
                if best == 0 or count < best:
                    best = count
                    best_labels = assign.copy()
            continue
        pos += 1
    return best, best_labels, tried, valid


USING_NUMBA = False
search = _search_impl
try:
    from numba import njit

    search = njit(cache=True)(_search_impl)
    USING_NUMBA = True
except ImportError:
    pass

search_fallback = _search_impl
