"""Stored root rows of the search: read, checked, and computed afresh.

Two root inputs of a search depend only on (n, t): the weights W_y of the
root LP (see bound.py) and the pruning pairs, each dominant word with its
least subordinate that is not dominant.  _root_data.py stores both for
every (n, t) inside the search caps, t < n, as strings of hex "a:b" pairs.
tools/root_data.py writes the rows from computed_rows.

One row of weights serves every flag pair: the optimal duals at the root of
the default flags, whose least ball weight is c (1 when no word is open
there), plus weight c on the two constant windows, which lie in no ball
open there.  Every ball the other flags open holds a constant window or a
kept subordinate's ball, so it weighs at least c too, and the default
certificate is unchanged.

The search re-checks what it reads, so a stale or wrong row is weak, never
wrong: certify derives a sound bound from any weights, and pruning checks
every pair against the ball table.

The search imports this module when it starts, not with the package, so
that starting the CLI compiles neither it nor the rows.
"""

from __future__ import annotations

import functools

from . import _root_data
from .words import Word, _ball_table, _frozen_table, _images


def encode(pairs: dict[int, int]) -> str:
    """A stored row: hex "a:b" pairs, ascending in a."""
    return " ".join(f"{a:x}:{b:x}" for a, b in sorted(pairs.items()))


def decode(row: str) -> dict[int, int]:
    items = [int(h, 16) for h in row.replace(":", " ").split()]
    return dict(zip(items[::2], items[1::2]))


def stored_weights(n: int, t: int) -> dict[int, int]:
    """The stored root LP weights of (n, t) inside the search caps, t < n,
    for any flags."""
    return decode(_root_data.DUALS[n, t])


@functools.lru_cache(maxsize=None)
@_frozen_table
def pruning(n: int, t: int) -> dict[int, int]:
    """The words the search drops, each mapped to a kept word whose ball
    lies inside its own: the stored PRUNE row of (n, t), 1 <= t < n.

    A code keeps its size when each dropped word is traded for its kept
    word, so dropping them is sound.  So every pair is checked: two distinct
    words, ball(v) inside ball(u), v not dropped, and the dropped words
    mapped onto themselves by complement and reversal, as the orbital
    branching needs.  Raises ValueError on the first pair that fails."""
    pairs = decode(_root_data.PRUNE[n, t])
    balls = _ball_table(n, t)
    for u, v in pairs.items():
        if not (
            0 <= u < len(balls)
            and 0 <= v < len(balls)
            and u != v
            and v not in pairs
            and balls[v] <= balls[u]
            and all(image in pairs for image in _images(u, n))
        ):
            raise ValueError(
                f"dominance pruning unsound at n={n}, t={t}: "
                f"dropped word {u:0{n}b} with kept word {v:0{n}b}"
            )
    return pairs


def basic_subordinates(n: int, t: int) -> dict[int, int]:
    """For each dominant word, its smallest subordinate that is not
    dominant, from the exhaustive pair scan."""
    # imported here: a search reads the stored rows and never loads the scan
    from .dominance import _dominant_pairs_packed

    pairs = _dominant_pairs_packed(n, t)
    dominant = {u for u, _ in pairs}
    out: dict[int, int] = {}
    for u, v in pairs:  # ascending in v
        if v not in dominant:
            out.setdefault(u, v)
    return out


def computed_rows(n: int, t: int) -> tuple[dict[int, int], dict[int, int]]:
    """The root weights and pruning pairs of (n, t) from the live
    computations: the rounded optimal duals at the root of the default
    flags, with the two constant windows at their unit c (1 when that root
    has no open word), and basic_subordinates."""
    # imported here: the search imports this module, not the other way
    # round, and runs neither the simplex nor the scan
    from .bound import certify, integer_weights, optimal_duals
    from .search import _root_state, build_conflict_graph

    prune = basic_subordinates(n, t)
    graph = build_conflict_graph(
        [Word.from_bits(b, n) for b in range(1 << n) if b not in prune], t
    )
    open0, _ = _root_state(graph, True)
    weights, unit = {}, 1
    if open0:
        weights = integer_weights(optimal_duals(graph, open0))
        unit, _ = certify(graph, open0, weights)
    weights[0] = weights[(1 << (n - t)) - 1] = unit
    return weights, prune
