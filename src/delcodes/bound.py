"""Fractional clique-cover upper bound from container cliques.

Every word y of length n - t defines a clique of the conflict graph: the
candidates whose t-deletion balls hold y.  Given integer weights W_y >= 0,
let c be the least total weight of the ball of any open vertex.  The balls
of a code are disjoint, so a code inside the open vertices has at most
sum_y W_y // c words, and inside a smaller open set at most the weight of
the y still reachable from it, divided by c.

The weights come from the dual of the packing LP over these cliques
(Kulkarni and Kashyap, IEEE Trans. IT 2013).  The LP is solved over orbits
under complement and reversal by a dense float simplex whose right-hand
side is nonnegative, so the slack basis is feasible from the start.  Its
duals are rounded to integers and c is recomputed exactly over every open
vertex, so the bound holds whatever the float error, and for any integer
weights at all.  Only tools/root_data.py runs the simplex, to write the
stored rows (_root_data.py); the search reads its weights from them, so a
stale or wrong row can only make the bound weak.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .words import _ball_table, _images

_SCALE = 1 << 20
_EPS = 1e-9


def _orbit_index(words, length: int) -> tuple[dict[int, int], list[int]]:
    """Orbit number of each word under {id, complement, reverse, both}, and
    the size of each orbit."""
    index: dict[int, int] = {}
    sizes: list[int] = []
    for b in words:
        if b in index:
            continue
        orbit = set(_images(b, length))
        for x in orbit:
            index[x] = len(sizes)
        sizes.append(len(orbit))
    return index, sizes


def _open_words(graph, open_mask: int) -> list[tuple[int, int]]:
    """(vertex index, packed word) of each open vertex."""
    return [(i, w.bits) for i, w in enumerate(graph.vertices) if open_mask >> i & 1]


def optimal_duals(graph, open_mask: int) -> list[float]:
    """Optimal dual weights, one per packed word of length n - t, of
    max sum z_X s.t. sum_X |D_t(x) & Y| z_X <= |Y|, z >= 0.

    X runs over the orbits of the open vertices of the conflict graph (a set
    closed under complement and reversal), Y over the orbits of the words in
    their balls; words in no open ball get weight 0.
    """
    n, t = graph.word_length, graph.t
    m = n - t
    balls = _ball_table(n, t)
    vertices = [x for _, x in _open_words(graph, open_mask)]
    x_orbit, x_sizes = _orbit_index(vertices, n)
    y_orbit, y_sizes = _orbit_index(
        sorted({y for x in vertices for y in balls[x]}), m
    )
    k, r = len(x_sizes), len(y_sizes)
    width = k + r
    rows = [[0.0] * (width + 1) for _ in range(r)]
    seen = set()
    for x in vertices:
        col = x_orbit[x]
        if col in seen:
            continue
        seen.add(col)
        for y in balls[x]:
            rows[y_orbit[y]][col] += 1.0
    for i, row in enumerate(rows):
        row[k + i] = 1.0
        row[width] = float(y_sizes[i])
    # reduced profits c_j - z_j; the duals are minus those of the slacks
    obj = [1.0] * k + [0.0] * (r + 1)
    basis = list(range(k, width))
    bland = False
    while True:
        # Dantzig's rule, or Bland's after a degenerate pivot so that a run
        # of degenerate pivots cannot cycle
        if bland:
            enter = next((j for j in range(width) if obj[j] > _EPS), -1)
        else:
            enter = max(range(width), key=obj.__getitem__)
        if enter < 0 or obj[enter] <= _EPS:
            duals = [-obj[k + i] for i in range(r)] + [0.0]
            return [duals[y_orbit.get(y, r)] for y in range(1 << m)]
        leave = -1
        ratio = 0.0
        for i, row in enumerate(rows):
            a = row[enter]
            if a > _EPS:
                q = row[width] / a
                if leave < 0 or q < ratio - _EPS or (
                    q <= ratio + _EPS and basis[i] < basis[leave]
                ):
                    leave, ratio = i, q
        # every column has a positive entry, so the LP is bounded
        bland = ratio <= _EPS
        prow = rows[leave]
        p = prow[enter]
        prow = rows[leave] = [v / p for v in prow]
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and f:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, prow)]
        basis[leave] = enter


def integer_weights(duals: Sequence[float]) -> dict[int, int]:
    """The positive weights W_y of float duals on the integer scale of
    certify, keyed by packed word y."""
    weights = {}
    for y, w in enumerate(duals):
        w = round(w * _SCALE)
        if w > 0:
            weights[y] = w
    return weights


def certify(
    graph, open_mask: int, weights: Mapping[int, int]
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Integer certificate from weights W_y over the open vertices.

    Returns (c, containers): c is the least weight of any vertex ball, and
    containers pairs, for each positive-weight y, the mask of vertex indices
    whose balls hold y with the weight W_y (pairs with one mask merged).  A
    code among the vertices of an open mask om has at most
    sum(w for mask, w in containers if mask & om) // c words.  Words missing
    from `weights`, or given a weight below 1, weigh nothing, so any mapping
    gives a sound bound.  None when some vertex ball carries no weight, or
    the open mask is empty: either proves nothing.
    """
    balls = _ball_table(graph.word_length, graph.t)
    vertices = _open_words(graph, open_mask)
    weight = {y: w for y, w in weights.items() if w > 0}
    c = min(
        (sum(weight.get(y, 0) for y in balls[x]) for _, x in vertices), default=0
    )
    if c <= 0:
        return None
    masks: dict[int, int] = {}
    for i, x in vertices:
        for y in balls[x]:
            if y in weight:
                masks[y] = masks.get(y, 0) | 1 << i
    merged: dict[int, int] = {}
    for y, mask in masks.items():
        merged[mask] = merged.get(mask, 0) + weight[y]
    return c, tuple(sorted(merged.items(), key=lambda p: -p[1]))
