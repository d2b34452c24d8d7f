"""Reference implementations used as independent oracles.

Everything here works on plain '0'/'1' strings with itertools, sharing no
code with the package, so a bug in the packed-integer paths cannot hide.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque

import pytest
from hypothesis import strategies as st

from delcodes import Word


@pytest.fixture(autouse=True)
def _unfreeze_the_heap():
    """cli.main freezes the collector's heap for the rest of its process; a
    test process runs many jobs, so the freeze is undone after each test,
    or the garbage live at each freeze would be kept to the end."""
    yield
    gc.unfreeze()


def all_strings(n: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def ref_ball(s: str, t: int) -> set[str]:
    return {
        "".join(c for i, c in enumerate(s) if i not in drop)
        for drop in itertools.combinations(range(len(s)), t)
    }


def ref_lcs(a: str, b: str) -> int:
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def ref_indel_bfs(x: str, y: str) -> int:
    """Insert/delete edit distance by breadth-first search over strings.

    Intermediate lengths never need to exceed max(|x|, |y|): an optimal
    route deletes down to a common subsequence and inserts back up.
    """
    cap = max(len(x), len(y))
    seen = {x}
    frontier = deque([(x, 0)])
    while frontier:
        s, d = frontier.popleft()
        if s == y:
            return d
        for i in range(len(s)):
            nxt = s[:i] + s[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
        if len(s) < cap:
            for i in range(len(s) + 1):
                for c in "01":
                    nxt = s[:i] + c + s[i:]
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append((nxt, d + 1))
    raise AssertionError("breadth-first search exhausted without reaching target")


def ref_dominant_pairs(n: int, t: int) -> set[tuple[str, str]]:
    """Quadratic scan over all ordered pairs, straight from the definition."""
    balls = {s: ref_ball(s, t) for s in all_strings(n)}
    return {
        (u, v)
        for u in balls
        for v in balls
        if u != v and balls[v] <= balls[u]
    }


@st.composite
def words_st(draw, min_len: int = 0, max_len: int = 10) -> Word:
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    bits = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return Word.from_bits(bits, n)


@st.composite
def word_pairs_st(draw, min_len: int = 1, max_len: int = 8):
    """Two words of one length."""
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    top = (1 << n) - 1
    u = draw(st.integers(min_value=0, max_value=top))
    v = draw(st.integers(min_value=0, max_value=top))
    return Word.from_bits(u, n), Word.from_bits(v, n)
