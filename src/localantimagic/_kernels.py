"""Hot search kernel for the exhaustive oracle.

`search` is plain Python over lists of ints, all prepared by
`oracle._kernel_inputs`: the endpoints of each edge in search order and,
for each search position, the edges whose endpoints are both saturated
(every incident edge labeled) once that position is labeled.  A vertex
saturates at a fixed position, the last one that touches it, so pruning
needs no degree counters or adjacency walk at search time.
"""
from __future__ import annotations

# Kept as a constant for callers that record which kernel ran (the
# benchmark's environment stamp reads it); the kernel is never compiled.
USING_NUMBA = False


def search(eu, ev, checks, q, n, prune):
    """Enumerate bijections [edges] -> [1,q] in lexicographic label order.

    eu[pos], ev[pos] are the endpoints of the edge at search position pos
    (vertices numbered 0..n-1); checks[pos] lists the (a, b) edges that
    become fully saturated at pos.  Returns (best_color_count,
    best_labels, labelings_tried, valid_count); best_color_count is 0 when
    no bijection is local antimagic.  With prune=True a partial assignment
    is abandoned as soon as two adjacent saturated vertices collide, so
    labelings_tried counts only the complete assignments actually reached.
    """
    sums = [0] * n
    assign = [0] * q
    used = [False] * (q + 1)
    best = 0
    best_labels = assign[:]
    tried = 0
    valid = 0
    final = q - 1
    pos = 0
    lab = 1
    while True:
        while lab <= q and used[lab]:
            lab += 1
        if lab > q:
            pos -= 1
            if pos < 0:
                break
            lab = assign[pos]
            used[lab] = False
            sums[eu[pos]] -= lab
            sums[ev[pos]] -= lab
            lab += 1
            continue
        u = eu[pos]
        v = ev[pos]
        sums[u] += lab
        sums[v] += lab
        clash = False
        if prune:
            for a, b in checks[pos]:
                if sums[a] == sums[b]:
                    clash = True
                    break
        if not clash:
            assign[pos] = lab
            if pos < final:
                used[lab] = True
                pos += 1
                lab = 1
                continue
            tried += 1
            if prune or not any(sums[a] == sums[b] for a, b in zip(eu, ev)):
                valid += 1
                count = len(set(sums))
                if best == 0 or count < best:
                    best = count
                    best_labels = assign[:]
        sums[u] -= lab
        sums[v] -= lab
        lab += 1
    return best, best_labels, tried, valid
