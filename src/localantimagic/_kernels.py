"""Hot search kernel for the exhaustive oracle.

`search` is plain Python over lists of ints, all prepared by
`oracle._kernel_inputs`: the endpoints of each edge in search order, the
checks to run once each position is labeled, a bound per position and a
floor on the colors.

Edge (a, b) adds its label to both ends, so sums[a] - sums[b] is final
once every other edge at a or b is labeled; its check sits at the latest
such position (0 if none).  After position q-3 the two free labels
x < y are placed inline as (x, y), then (y, x), so the two widest levels
never scan `used`.  The sums of a valid labeling properly color the
graph, so no leaf can beat a best count equal to chi(G)'s floor: from
then on leaves are counted but not colored.

The bound keeps one labeling per orbit of the oracle's automorphism
group: the label at pos must exceed the label at low[pos], so the scan at
pos starts at assign[low[pos]] + 1, and the inline last two check the
same.  A free position's low is the slot assign[q], which stays 0, so the
main loop has no branch for it.
"""
from __future__ import annotations

# Kept as a constant for callers that record which kernel ran (the
# benchmark's environment stamp reads it); the kernel is never compiled.
USING_NUMBA = False


def search(eu, ev, checks, low, q, n, floor):
    """Enumerate bijections [edges] -> [1,q] in lexicographic label order,
    keeping those with assign[pos] > assign[low[pos]] at every position.

    eu[pos], ev[pos] are the endpoints of the edge at search position pos
    (vertices numbered 0..n-1); checks[pos] lists the (a, b) edges whose
    sums are compared once pos is labeled, and every edge appears in one
    list.  low[pos] is an earlier position, or q (whose label is always 0)
    for no bound.  floor is a lower bound on the colors of any valid
    labeling.  Returns (best_color_count, best_labels, valid_count) over
    the labelings kept; valid_count is 0 when none is local antimagic.
    """
    if q < 2:  # edgeless: the empty map, one color; a lone edge's ends tie
        return (min(n, 1), [], 1) if q == 0 else (0, [], 0)
    sums = [0] * n
    assign = [0] * (q + 1)  # assign[q] stays 0: the bound of free positions
    used = [False] * (q + 1)
    best = 0
    best_labels = []
    valid = 0
    stop = q - 2
    u1, v1, c1 = eu[stop], ev[stop], checks[stop]
    u2, v2, c2 = eu[stop + 1], ev[stop + 1], checks[stop + 1]
    low1, low2 = low[stop], low[stop + 1]
    pos = 0
    lab = 1
    while True:
        if pos < stop:
            while lab <= q and used[lab]:
                lab += 1
            if lab <= q:
                u = eu[pos]
                v = ev[pos]
                sums[u] += lab
                sums[v] += lab
                for a, b in checks[pos]:
                    if sums[a] == sums[b]:
                        break
                else:
                    assign[pos] = lab
                    used[lab] = True
                    pos += 1
                    lab = assign[low[pos]] + 1
                    continue
                sums[u] -= lab
                sums[v] -= lab
                lab += 1
                continue
        else:
            x = used.index(False, 1)
            y = used.index(False, x + 1)
            lo = assign[low1]
            for s, t in ((x, y), (y, x)):
                assign[stop] = s  # low2 may be stop itself
                if s < lo or t < assign[low2]:  # labels differ: never equal
                    continue
                sums[u1] += s
                sums[v1] += s
                for a, b in c1:
                    if sums[a] == sums[b]:
                        break
                else:
                    sums[u2] += t
                    sums[v2] += t
                    for a, b in c2:
                        if sums[a] == sums[b]:
                            break
                    else:
                        valid += 1
                        if best != floor:
                            count = len(set(sums))
                            if best == 0 or count < best:
                                best = count
                                best_labels = assign[:stop] + [s, t]
                    sums[u2] -= t
                    sums[v2] -= t
                sums[u1] -= s
                sums[v1] -= s
        pos -= 1
        if pos < 0:
            break
        lab = assign[pos]
        used[lab] = False
        sums[eu[pos]] -= lab
        sums[ev[pos]] -= lab
        lab += 1
    return best, best_labels, valid
