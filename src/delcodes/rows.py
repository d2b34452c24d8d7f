"""Stored root rows of the search, read and re-checked.

Two root inputs of a search depend only on (n, t): the weights W_y of the
root LP and the pruning pairs, each dominant word with its least
subordinate that is not dominant.  _root_data.py stores both for every
(n, t) inside the search caps, t < n, as strings of hex "a:b" pairs.
tools/root_data.py computes and writes them: the pair scan gives the
pairs, and a simplex gives the weights.

The weights bound the root by a fractional clique cover.  Every word y of
length n - t defines a clique of the conflict graph: the candidates whose
t-deletion balls hold y.  Given integer weights W_y >= 0, let c be the
least total weight of the ball of any open vertex.  The balls of a code
are disjoint, so a code inside the open vertices has at most
sum_y W_y // c words, and inside a smaller open set at most the weight of
the y still reachable from it, divided by c.  The stored weights are the
rounded optimal duals of the packing LP over these cliques (Kulkarni and
Kashyap, IEEE Trans. IT 2013).

One row of weights serves every flag pair: the optimal duals at the root of
the default flags, whose least ball weight is c (1 when no word is open
there), plus weight c on the two constant windows, which lie in no ball
open there.  Every ball the other flags open holds a constant window or a
kept subordinate's ball, so it weighs at least c too, and the default
certificate is unchanged.

The search re-checks what it reads, so a stale or wrong row is weak, never
wrong: search._root_bound derives a sound bound from any weights, and
pruning checks every pair against the ball table.

The search module and tools/root_data.py import this one.  Neither the
package nor the CLI imports the search when it starts, so a job other than
search compiles neither this module nor the rows.
"""

from __future__ import annotations

import functools

from . import _root_data
from .words import _ball_table, _images


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
            and set(balls[u]).issuperset(balls[v])
            and all(image in pairs for image in _images(u, n))
        ):
            raise ValueError(
                f"dominance pruning unsound at n={n}, t={t}: "
                f"dropped word {u:0{n}b} with kept word {v:0{n}b}"
            )
    return pairs
