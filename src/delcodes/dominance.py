"""Dominant pairs of binary words under t deletions.

A word u dominates a word v (same length, u != v) when every word reachable
from v by t deletions is also reachable from u.  This module provides the
definitional test, exhaustive enumeration of all dominant pairs, closed-form
generation from built-in pattern tables for one and two deletions, and a
report type that diffs generated pairs against the exhaustive enumeration.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple, Sequence

from .words import (
    BRUTE_FORCE_CAP,
    Word,
    WordSet,
    _ball_packed,
    _ball_table,
    _check_pair,
    _deletion_masks,
    _images,
    _orbit_leaders,
)


class DominancePair(NamedTuple):
    """Ordered pair (u dominant, v subordinate) at a fixed deletion count."""

    u: Word
    v: Word
    t: int

    @classmethod
    def checked(cls, u: Word, v: Word, t: int) -> "DominancePair":
        """Construct only if the containment actually holds."""
        if not is_dominant(u, v, t):
            raise ValueError(f"{u} does not dominate {v} at t={t}")
        return cls(u, v, t)

    def sort_key(self) -> tuple[int, int]:
        return (self.v.bits, self.u.bits)

    def __str__(self) -> str:
        return f"({self.u} > {self.v}, t={self.t})"


def is_dominant(u: Word, v: Word, t: int) -> bool:
    """True iff u != v and the t-deletion ball of v sits inside that of u."""
    _check_pair(u, v, t)
    if u.bits == v.bits:
        return False
    return _ball_packed(v.bits, v.n, t) <= _ball_packed(u.bits, u.n, t)


@functools.lru_cache(maxsize=None)
def _dominant_pairs_packed(n: int, t: int) -> tuple[tuple[int, int], ...]:
    """All packed (u, v) with u dominant over v, sorted by (v, u).

    Each length-(n - t) window of v, `v >> k & low` for k = 0..t, is v after
    t deletions, so a word u dominates v only if its ball B holds all t + 1
    of them.  The scan starts from u and walks the candidates from the
    prefix windows p = v >> t in B: it keeps each p whose last n - 2t bits
    start some window of B, the bits p shares with the suffix window v & low
    (none when n <= 2t), then extends the survivors one symbol at a time, t
    times, keeping x only while its newest window x & low is in B.  What is
    left are the v whose t + 1 windows all lie in B.  The ball of v is the
    union of the (n - 1, t - 1) balls of its one-deletion images, which at
    t = 1 are the singletons, so v is dominated when B holds each image's
    ball; the test stops at the first that B does not hold, and no ball of
    v is built or kept.

    At t = 1 only the leaders u of at most four runs are scanned
    (Levenshtein 1966): a ball holds one image per run of its word, and two
    distinct words share at most two images, so a dominated v has at most
    two runs; u is one of v's images, of at most two runs, with one symbol
    inserted, which adds two runs at most.  These leaders are made from the
    words of at most four runs, not picked from all leaders: at n = 14 they
    are 196 of 4 160.  Above t = 1 no run bound is used: Levenshtein's bound
    on the shared images, 2 * D(n - 2, t - 1), exceeds the balls it would
    have to rule out (24 against at most 7 words at n = 14, t = 2).

    A candidate v of a weight other than u's is skipped when v has at least
    t zeros and at least t ones: deleting t zeros of v leaves a word of
    weight w(v) that B must hold, so w(v) <= w(u), and deleting t ones
    leaves one of weight w(v) - t >= w(u) - t, so w(v) >= w(u).

    Complement and reversal map balls to balls, so the least u of each
    orbit is scanned and each pair found stands for its images under them;
    a pair is packed as v << n | u, so the sorted ints are in (v, u) order.
    """
    masks = _deletion_masks(n)
    # the (n - 1, 0) balls are singletons, made on the fly: no table at t = 1
    prev = _ball_table(n - 1, t - 1).__getitem__ if t > 1 else lambda y: (y,)
    union = set().union

    def images(b: int) -> set[int]:
        return {b & lo | (b >> 1) & hi for lo, hi in masks}

    m = n - t
    low = (1 << m) - 1
    shared = low >> t
    word = (1 << n) - 1
    if t == 1:
        # a dominator has at most four runs (see above), and so has each of
        # its images.  A word starting with 0 is the XOR of the low masks
        # (1 << s) - 1 at the bits s where its symbol changes, three of them
        # at most: three rounds of one more mask reach them all
        lows = [(1 << s) - 1 for s in range(1, n)]
        few_runs = {0}
        for _ in range(3):
            few_runs |= {w ^ low for w in few_runs for low in lows}
        leaders = {min(_images(w, n)) for w in few_runs}
    else:
        leaders = _orbit_leaders(n)
    pairs: set[int] = set()
    for u in leaders:
        # a list: unpacking a bare map leaves tuples on the free lists
        dom = union(*list(map(prev, images(u))))
        weight = u.bit_count()
        # the prefix windows whose last n - 2t bits start a window of B,
        # extended t times by one symbol while the newest window is in B
        starts = {s >> t for s in dom}
        cands = [p for p in dom if p & shared in starts]
        for _ in range(t):
            cands = [x for p in cands for x in (p << 1, p << 1 | 1) if x & low in dom]
        for v in cands:
            w = v.bit_count()
            if v == u or w != weight and t <= w <= m:
                continue
            if all(map(dom.issuperset, map(prev, images(v)))):
                pairs.update(b << n | a for a, b in zip(_images(u, n), _images(v, n)))
    packed = sorted(pairs)
    # the scan peaks while the table is built: the set is not needed there
    del pairs
    return tuple((p & word, p >> n) for p in packed)


def enumerate_dominant_pairs(n: int, t: int) -> list[DominancePair]:
    """Every dominant pair of length n, by exhaustive scan; sorted by (v, u)."""
    if not 2 <= n <= BRUTE_FORCE_CAP:
        raise ValueError(f"length {n} outside enumeration range 2..{BRUTE_FORCE_CAP}")
    if not 1 <= t <= 3:
        raise ValueError(f"deletion count {t} outside enumeration range 1..3")
    if t > n:
        raise ValueError(f"deletion count {t} exceeds length {n}")
    return [
        DominancePair(Word.from_bits(u, n), Word.from_bits(v, n), t)
        for u, v in _dominant_pairs_packed(n, t)
    ]


def dominators_of(v: Word, t: int) -> WordSet:
    """All words dominating v."""
    _check_query(v.n, t)
    pairs = _dominant_pairs_packed(v.n, t)
    return WordSet._from_packed(v.n, (a for a, b in pairs if b == v.bits))


def subordinates_of(u: Word, t: int) -> WordSet:
    """All words dominated by u."""
    _check_query(u.n, t)
    pairs = _dominant_pairs_packed(u.n, t)
    return WordSet._from_packed(u.n, (b for a, b in pairs if a == u.bits))


def _check_query(n: int, t: int) -> None:
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"length {n} exceeds scan cap {BRUTE_FORCE_CAP}")
    if not 1 <= t <= n:
        raise ValueError(f"deletion count {t} out of range 1..{n}")


# --- closed-form pattern tables -------------------------------------------
#
# Exponents are symbolic: (a, b, c) stands for a*n + b*m + c.  A row
# instantiates at concrete (n, m, p) by materializing each run; any negative
# exponent means m is outside the row's range.  Roles: 'p' is the chosen
# symbol, 'q' its complement.

Exponent = tuple[int, int, int]
Run = tuple[str, Exponent]


def _e(n: int = 0, m: int = 0, c: int = 0) -> Exponent:
    return (n, m, c)


_ONE = _e(c=1)
_TWO = _e(c=2)


class PatternPair(NamedTuple):
    """One row of a closed-form table: run templates for a dominant pair."""

    family: str
    row: int
    u_runs: tuple[Run, ...]
    v_runs: tuple[Run, ...]

    @property
    def tag(self) -> str:
        return f"{self.family}:{self.row}"

    @property
    def uses_m(self) -> bool:
        return any(e[1] for _, e in self.u_runs + self.v_runs)

    def instantiate(self, n: int, m: int, p: int) -> tuple[Word, Word] | None:
        """Words (u, v) at concrete parameters, or None if m is out of range."""
        u = _materialize(self.u_runs, n, m, p)
        v = _materialize(self.v_runs, n, m, p)
        if u is None or v is None:
            return None
        return Word.from_bits(u, n), Word.from_bits(v, n)


def _materialize(runs: tuple[Run, ...], n: int, m: int, p: int) -> int | None:
    bits = 0
    total = 0
    for role, (a, b, c) in runs:
        e = a * n + b * m + c
        if e < 0:
            return None
        if (role == "p") == (p == 1):
            bits = (bits << e) | ((1 << e) - 1)
        else:
            bits <<= e
        total += e
    assert total == n, "pattern row exponents must sum to the word length"
    return bits


# v is a two-run word; u transposes the adjacent symbols at its run boundary.
BOUNDARY_SWAP = PatternPair(
    "boundary-swap",
    1,
    u_runs=(("p", _e(m=1, c=-1)), ("q", _ONE), ("p", _ONE), ("q", _e(n=1, m=-1, c=-1))),
    v_runs=(("p", _e(m=1)), ("q", _e(n=1, m=-1))),
)

# Pairs at Hamming distance one (two deletions).
SUBSTITUTION_ROWS = (
    PatternPair(
        "substitution",
        1,
        u_runs=(("p", _e(m=1)), ("q", _ONE), ("p", _e(n=1, m=-1, c=-2)), ("q", _ONE)),
        v_runs=(("p", _e(n=1, c=-1)), ("q", _ONE)),
    ),
    PatternPair(
        "substitution",
        2,
        u_runs=(
            ("p", _e(m=1)),
            ("q", _ONE),
            ("p", _e(n=1, m=-1, c=-3)),
            ("q", _ONE),
            ("p", _ONE),
        ),
        v_runs=(("p", _e(n=1, c=-2)), ("q", _ONE), ("p", _ONE)),
    ),
)

# Pairs differing in both the first and the last position (two deletions).
OPPOSITE_ENDS_ROWS = (
    PatternPair(
        "opposite-ends",
        1,
        u_runs=(("q", _ONE), ("p", _ONE), ("q", _e(n=1, c=-4)), ("p", _ONE), ("q", _ONE)),
        v_runs=(("p", _ONE), ("q", _e(n=1, c=-2)), ("p", _ONE)),
    ),
    PatternPair(
        "opposite-ends",
        2,
        u_runs=(("q", _ONE), ("p", _e(n=1, c=-3)), ("q", _ONE), ("p", _ONE)),
        v_runs=(("p", _e(n=1, c=-1)), ("q", _ONE)),
    ),
)

# Pairs agreeing on the first symbol with two or more differing positions
# (two deletions).
INTERIOR_ROWS = (
    PatternPair(
        "interior",
        1,
        u_runs=(
            ("p", _ONE),
            ("q", _ONE),
            ("p", _e(m=1, c=-1)),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _e(n=1, m=-1, c=-3)),
        ),
        v_runs=(("p", _ONE), ("q", _ONE), ("p", _e(m=1)), ("q", _e(n=1, m=-1, c=-2))),
    ),
    PatternPair(
        "interior",
        2,
        u_runs=(
            ("p", _ONE),
            ("q", _e(m=1)),
            ("p", _ONE),
            ("q", _ONE),
            ("p", _e(n=1, m=-1, c=-3)),
        ),
        v_runs=(("p", _ONE), ("q", _e(m=1, c=1)), ("p", _e(n=1, m=-1, c=-2))),
    ),
    PatternPair(
        "interior",
        3,
        u_runs=(("p", _TWO), ("q", _ONE), ("p", _e(n=1, c=-3))),
        v_runs=(("p", _ONE), ("q", _ONE), ("p", _e(n=1, c=-2))),
    ),
    PatternPair(
        "interior",
        4,
        u_runs=(
            ("p", _e(m=1, c=-2)),
            ("q", _ONE),
            ("p", _TWO),
            ("q", _ONE),
            ("p", _e(n=1, m=-1, c=-2)),
        ),
        v_runs=(("p", _e(m=1)), ("q", _ONE), ("p", _e(n=1, m=-1, c=-1))),
    ),
    PatternPair(
        "interior",
        5,
        u_runs=(
            ("p", _e(m=1, c=-1)),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _ONE),
            ("p", _e(n=1, m=-1, c=-2)),
        ),
        v_runs=(("p", _e(m=1)), ("q", _ONE), ("p", _e(n=1, m=-1, c=-1))),
    ),
    PatternPair(
        "interior",
        6,
        u_runs=(("p", _e(n=1, c=-4)), ("q", _ONE), ("p", _TWO), ("q", _ONE)),
        v_runs=(("p", _e(n=1, c=-2)), ("q", _ONE), ("p", _ONE)),
    ),
    PatternPair(
        "interior",
        7,
        u_runs=(("p", _e(n=1, c=-3)), ("q", _ONE), ("p", _ONE), ("q", _ONE)),
        v_runs=(("p", _e(n=1, c=-2)), ("q", _ONE), ("p", _ONE)),
    ),
    PatternPair(
        "interior",
        8,
        u_runs=(
            ("p", _e(m=1)),
            ("q", _ONE),
            ("p", _e(n=1, m=-1, c=-3)),
            ("q", _ONE),
            ("p", _ONE),
        ),
        v_runs=(("p", _e(n=1, c=-1)), ("q", _ONE)),
    ),
    PatternPair(
        "interior",
        9,
        u_runs=(
            ("p", _e(m=1, c=-2)),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _e(n=1, m=-1, c=-2)),
        ),
        v_runs=(("p", _e(m=1)), ("q", _e(n=1, m=-1))),
    ),
    PatternPair(
        "interior",
        10,
        u_runs=(
            ("p", _e(m=1, c=-2)),
            ("q", _ONE),
            ("p", _TWO),
            ("q", _e(n=1, m=-1, c=-1)),
        ),
        v_runs=(("p", _e(m=1)), ("q", _e(n=1, m=-1))),
    ),
    PatternPair(
        "interior",
        11,
        u_runs=(("p", _e(n=1, c=-2)), ("q", _ONE), ("p", _ONE)),
        v_runs=(("p", _e(n=1, c=-1)), ("q", _ONE)),
    ),
    PatternPair(
        "interior",
        12,
        u_runs=(("p", _e(n=1, c=-3)), ("q", _ONE), ("p", _TWO)),
        v_runs=(("p", _e(n=1, c=-1)), ("q", _ONE)),
    ),
    PatternPair(
        "interior",
        13,
        u_runs=(
            ("p", _e(m=1, c=-1)),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _e(n=1, m=-1, c=-3)),
        ),
        v_runs=(
            ("p", _e(m=1)),
            ("q", _ONE),
            ("p", _ONE),
            ("q", _e(n=1, m=-1, c=-2)),
        ),
    ),
    PatternPair(
        "interior",
        14,
        u_runs=(("p", _e(n=1, c=-3)), ("q", _TWO), ("p", _ONE)),
        v_runs=(("p", _e(n=1, c=-2)), ("q", _TWO)),
    ),
    PatternPair(
        "interior",
        15,
        u_runs=(("p", _e(n=1, c=-4)), ("q", _ONE), ("p", _TWO), ("q", _ONE)),
        v_runs=(("p", _e(n=1, c=-3)), ("q", _TWO), ("p", _ONE)),
    ),
    PatternPair(
        "interior",
        16,
        u_runs=(("p", _e(n=1, c=-4)), ("q", _ONE), ("p", _ONE), ("q", _ONE), ("p", _ONE)),
        v_runs=(("p", _e(n=1, c=-3)), ("q", _ONE), ("p", _ONE), ("q", _ONE)),
    ),
    PatternPair(
        "interior",
        17,
        u_runs=(("p", _e(m=1, c=-1)), ("q", _e(n=1, m=-1, c=-1)), ("p", _ONE), ("q", _ONE)),
        v_runs=(("p", _e(m=1)), ("q", _e(n=1, m=-1, c=-1)), ("p", _ONE)),
    ),
    PatternPair(
        "interior",
        18,
        u_runs=(("p", _e(m=1, c=-1)), ("q", _e(n=1, m=-1)), ("p", _ONE)),
        v_runs=(("p", _e(m=1)), ("q", _e(n=1, m=-1))),
    ),
)

TWO_DELETION_ROWS = SUBSTITUTION_ROWS + OPPOSITE_ENDS_ROWS + INTERIOR_ROWS

_ROWS = {1: (BOUNDARY_SWAP,), 2: TWO_DELETION_ROWS}


class FilteredInstance(NamedTuple):
    """A pattern-row instance with u != v that fails the dominance test."""

    source: str
    n: int
    m: int | None
    p: int
    u: Word
    v: Word

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "m": self.m,
            "p": self.p,
            "u": str(self.u),
            "v": str(self.v),
        }


class GenerationResult(NamedTuple):
    """Closed-form pairs with per-pair source tags and rejected instantiations."""

    n: int
    t: int
    pairs: list[DominancePair]
    provenance: dict[DominancePair, tuple[str, ...]]
    filtered: Sequence[FilteredInstance] = ()


def generate_closed_form(n: int, t: int) -> list[DominancePair]:
    """Dominant pairs from the closed-form tables alone; sorted by (v, u)."""
    return closed_form_generation(n, t).pairs


def closed_form_generation(n: int, t: int) -> GenerationResult:
    """Closed-form generation with provenance, for t of one or two deletions."""
    if t not in _ROWS:
        raise ValueError(f"no closed-form tables for t={t}")
    if n <= t:
        raise ValueError(f"closed-form tables for t={t} need length at least {t + 1}")
    acc, filtered = _generate(n, t)

    pairs = {}
    for (ub, vb), tags in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        pair = DominancePair(Word.from_bits(ub, n), Word.from_bits(vb, n), t)
        pairs[pair] = tuple(sorted(tags))
    return GenerationResult(
        n=n, t=t, pairs=list(pairs), provenance=pairs, filtered=filtered
    )


# Every length from t + 1 up comes from the rows alone, with no exhaustive
# scan: the constant-word subordinates, at t = 2 the monotone lift of the
# t = 1 pairs, and each row instance at p in {0, 1} and every m, closed under
# complement and reversal.
def _generate(n: int, t: int):
    acc: dict[tuple[int, int], set[str]] = {}
    filtered: list[FilteredInstance] = []
    _add_constant_subordinates(acc, n, t)
    if t == 2:
        # anything dominant under one deletion stays dominant under two
        for key in _generate(n, 1)[0]:
            acc.setdefault(key, set()).add("monotone-lift")
    for pattern in _ROWS[t]:
        ms = range(n + 1) if pattern.uses_m else (None,)
        for p in (0, 1):
            for m in ms:
                _try_row(acc, filtered, pattern, n, m, p, t)
    return acc, filtered


def _add_constant_subordinates(acc, n: int, t: int) -> None:
    """Words dominating the all-zero and all-one words: weight 1..t,
    respectively their complements, of weight n - t..n - 1."""
    one = (1 << n) - 1
    for k in range(1, t + 1):
        for bits in combinations([1 << i for i in range(n)], k):
            ub = sum(bits)
            acc.setdefault((ub, 0), set()).add("all-zero")
            acc.setdefault((ub ^ one, one), set()).add("all-one")


def _try_row(acc, filtered, pattern: PatternPair, n, m, p, t) -> None:
    inst = pattern.instantiate(n, 0 if m is None else m, p)
    if inst is None:
        return
    u, v = inst
    # no pair at all: interior:18 at m = n gives u = v = 0...0 or 1...1
    if u == v:
        return
    if not is_dominant(u, v, t):
        filtered.append(FilteredInstance(pattern.tag, n, m, p, u, v))
        return
    for key in zip(_images(u.bits, n), _images(v.bits, n)):
        acc.setdefault(key, set()).add(pattern.tag)


def equivalence_closure(pairs) -> set[DominancePair]:
    """Close a pair collection under complementing, reversal, and both."""
    out: set[DominancePair] = set()
    for pair in pairs:
        n = pair.u.n
        for ub, vb in zip(_images(pair.u.bits, n), _images(pair.v.bits, n)):
            out.add(
                DominancePair(Word.from_bits(ub, n), Word.from_bits(vb, n), pair.t)
            )
    return out


class CharacterizationReport(NamedTuple):
    """Diff between exhaustively enumerated and closed-form-generated pairs."""

    n: int
    t: int
    brute_count: int
    generated_count: int
    missing: list[DominancePair]
    spurious: list[DominancePair]
    filtered: list[FilteredInstance]

    @property
    def confirmed(self) -> bool:
        return not self.missing and not self.spurious

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "brute_count": self.brute_count,
            "generated_count": self.generated_count,
            "missing": [{"u": str(p.u), "v": str(p.v)} for p in self.missing],
            "spurious": [{"u": str(p.u), "v": str(p.v)} for p in self.spurious],
            "filtered": [f.to_json_dict() for f in self.filtered],
        }

    def summary(self) -> str:
        lines = [
            f"n={self.n} t={self.t}: "
            f"enumerated {self.brute_count}, generated {self.generated_count}, "
            f"missing {len(self.missing)}, spurious {len(self.spurious)}, "
            f"filtered {len(self.filtered)}"
        ]
        for p in self.missing:
            lines.append(f"  missing: u={p.u} v={p.v}")
        for p in self.spurious:
            lines.append(f"  spurious: u={p.u} v={p.v}")
        return "\n".join(lines)


def verify_characterization(n: int, t: int) -> CharacterizationReport:
    """Check the closed-form tables against the exhaustive enumeration."""
    if t not in _ROWS:
        raise ValueError(f"no closed-form tables for t={t}")
    brute = enumerate_dominant_pairs(n, t)
    generation = closed_form_generation(n, t)
    brute_set = set(brute)
    generated_set = set(generation.pairs)
    missing = sorted(brute_set - generated_set, key=DominancePair.sort_key)
    spurious = sorted(generated_set - brute_set, key=DominancePair.sort_key)
    return CharacterizationReport(
        n=n,
        t=t,
        brute_count=len(brute_set),
        generated_count=len(generated_set),
        missing=missing,
        spurious=spurious,
        filtered=generation.filtered,
    )
