"""Fixed-length binary words and the per-word primitives everything else builds on.

A word packs into a single integer with the leftmost symbol in the most
significant bit, so for words of one length the numeric order of packed
values is the lexicographic order of their 0/1 strings.  All functions
here are pure; words and word sets are immutable and safe to share.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import chain, groupby
from typing import Iterable, Iterator

MAX_LEN = 62


@functools.total_ordering
class Word:
    """Immutable binary word of length 0..62, symbols indexed 1..n from the left."""

    __slots__ = ("n", "bits")

    def __init__(self, symbols: str = "") -> None:
        if len(symbols) > MAX_LEN:
            raise ValueError(f"word longer than {MAX_LEN} symbols: {len(symbols)}")
        for c in symbols:
            if c not in "01":
                raise ValueError(f"invalid symbol {c!r} in word {symbols!r}")
        self.n = len(symbols)
        self.bits = int(symbols or "0", 2)

    @classmethod
    def from_bits(cls, bits: int, n: int) -> "Word":
        if n < 0 or n > MAX_LEN:
            raise ValueError(f"word length out of range: {n}")
        if bits < 0 or bits >> n:
            raise ValueError(f"packed value {bits} does not fit in {n} bits")
        w = cls.__new__(cls)
        w.n = n
        w.bits = bits
        return w

    @classmethod
    def zeros(cls, n: int) -> "Word":
        return cls.from_bits(0, n)

    @classmethod
    def ones(cls, n: int) -> "Word":
        if n < 0 or n > MAX_LEN:
            raise ValueError(f"word length out of range: {n}")
        return cls.from_bits((1 << n) - 1, n)

    @classmethod
    def all_of_length(cls, n: int) -> Iterator["Word"]:
        """All 2**n words of length n in ascending packed order."""
        for bits in range(1 << n):
            yield cls.from_bits(bits, n)

    def symbol(self, i: int) -> int:
        """Symbol at position i (1-based from the left)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return (self.bits >> (self.n - i)) & 1

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b") if self.n else ""

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (self.n, self.bits) < (other.n, other.bits)


class WordSet:
    """Deduplicated set of equal-length words, iterated in ascending packed order."""

    __slots__ = ("member_length", "_packed")

    def __init__(self, member_length: int, members: Iterable[Word] = ()) -> None:
        packed = set()
        for w in members:
            if w.n != member_length:
                raise ValueError(
                    f"member length {w.n} differs from declared {member_length}"
                )
            packed.add(w.bits)
        self.member_length = member_length
        self._packed = tuple(sorted(packed))

    @classmethod
    def _from_packed(cls, member_length: int, packed: Iterable[int]) -> "WordSet":
        """Set of the given packed values, taken unchecked as member_length-bit
        words; for a Code the caller also vouches that they are not empty."""
        s = cls.__new__(cls)
        s.member_length = member_length
        s._packed = tuple(sorted(set(packed)))
        return s

    def packed(self) -> tuple[int, ...]:
        return self._packed

    def strings(self) -> list[str]:
        return [str(w) for w in self]

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Word]:
        n = self.member_length
        for bits in self._packed:
            yield Word.from_bits(bits, n)

    def __contains__(self, w: object) -> bool:
        if not isinstance(w, Word) or w.n != self.member_length:
            return False
        packed = self._packed
        i = bisect_left(packed, w.bits)
        return i < len(packed) and packed[i] == w.bits

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WordSet)
            and self.member_length == other.member_length
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.member_length, self._packed))

    def __le__(self, other: object) -> bool:
        if not isinstance(other, WordSet):
            return NotImplemented
        return (
            self.member_length == other.member_length
            and set(other._packed).issuperset(self._packed)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.member_length}, size={len(self)})"


def weight(w: Word) -> int:
    """Number of 1-symbols."""
    return w.bits.bit_count()


def complement(w: Word) -> Word:
    """Flip every symbol."""
    return Word.from_bits(_images(w.bits, w.n)[1], w.n)


def reverse(w: Word) -> Word:
    """Read the word right to left."""
    return Word.from_bits(_images(w.bits, w.n)[2], w.n)


def reverse_complement(w: Word) -> Word:
    """Reverse and flip; the two steps commute."""
    return Word.from_bits(_images(w.bits, w.n)[3], w.n)


def delete_at(w: Word, i: int) -> Word:
    """Remove the symbol at position i (1-based), preserving order."""
    if not 1 <= i <= w.n:
        raise ValueError(f"position {i} out of range 1..{w.n}")
    shift = w.n - i
    bits = ((w.bits >> (shift + 1)) << shift) | (w.bits & ((1 << shift) - 1))
    return Word.from_bits(bits, w.n - 1)


def deletion_ball(w: Word, t: int) -> WordSet:
    """All distinct subsequences of w with t symbols removed."""
    if not 0 <= t <= w.n:
        raise ValueError(f"deletion count {t} out of range 0..{w.n}")
    return WordSet._from_packed(w.n - t, _ball_packed(w.bits, w.n, t))


def _check_pair(u: Word, v: Word, t: int) -> None:
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    if not 1 <= t <= u.n:
        raise ValueError(f"deletion count {t} out of range 1..{u.n}")


def is_subsequence(x: Word, y: Word) -> bool:
    """True iff x can be obtained from y by deletions: their longest common
    subsequence is x itself."""
    return lcs_length(x, y) == x.n


def lcs_length(x: Word, y: Word) -> int:
    """Length of a longest common subsequence, by bit-parallel column updates.

    Zero bits of the running vector mark accumulated matches; one pass over
    the longer operand costs a handful of integer operations per symbol.
    """
    return _lcs_packed(x.bits, x.n, y.bits, y.n)


def levenshtein_indel(x: Word, y: Word) -> int:
    """Minimum number of insertions plus deletions transforming x into y."""
    return x.n + y.n - 2 * lcs_length(x, y)


def deletion_distance(u: Word, v: Word) -> int:
    """Half the insertion/deletion distance; defined for equal lengths only."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    return u.n - lcs_length(u, v)


def hamming_distance(u: Word, v: Word) -> int:
    """Number of positions where the symbols differ."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    return (u.bits ^ v.bits).bit_count()


def run_length_encode(w: Word) -> list[tuple[int, int]]:
    """Maximal runs left to right as (symbol, exponent) pairs."""
    if w.n == 0:
        raise ValueError("cannot run-length encode the empty word")
    return [(int(s), len(list(r))) for s, r in groupby(str(w))]


# --- packed-integer internals -------------------------------------------
#
# The enumeration-heavy callers (dominance tables, conflict graphs) work on
# raw packed values and only materialize Word objects at their boundaries.


def _lcs_packed(xb: int, xn: int, yb: int, yn: int) -> int:
    if xn > yn:
        xb, xn, yb, yn = yb, yn, xb, xn
    if xn == 0:
        return 0
    mask = (1 << xn) - 1
    ones = xb  # bit k holds the symbol at position xn-k; both operands reversed together
    zeros = ones ^ mask
    v = mask
    for _ in range(yn):
        match = ones if yb & 1 else zeros
        u = v & match
        v = ((v + u) | (v & ~match)) & mask
        yb >>= 1
    return xn - v.bit_count()


def _images(bits: int, n: int) -> tuple[int, int, int, int]:
    """The word, its complement, its reversal and its reverse complement:
    the orbit under the symmetry group that maps every code to a code of
    the same size."""
    mask = (1 << n) - 1
    # at n = 0 the format is "0", which reads back as 0
    r = int(format(bits, f"0{n}b")[::-1], 2)
    return bits, bits ^ mask, r, r ^ mask


def _orbit_leaders(n: int) -> Iterator[int]:
    """The least member of every orbit of `_images` at length n >= 1, in
    ascending order.  A word starting with 1 has a smaller complement, and of
    its reversal and reverse complement the one starting with 0 is the
    smaller, so the leaders are the words v < 2**(n-1) that are at most
    that one.  For v < 2**(n-1) the reversal is the (n-1)-bit reversal of v
    shifted up one bit; those reversals are built one bit at a time."""
    mask = (1 << n) - 1
    rev = [0]
    for _ in range(n - 1):
        rev = [r << 1 for r in rev] + [r << 1 | 1 for r in rev]
    for v, r in enumerate(rev):
        r <<= 1
        if v <= (r ^ mask if v & 1 else r):
            yield v


def _ball_packed(bits: int, n: int, t: int) -> frozenset[int]:
    """Packed values of all distinct subsequences after t deletions."""
    masks = _deletion_masks(n)
    level = {bits}
    for k in range(t):
        level = {b & lo | (b >> 1) & hi for b in level for lo, hi in masks[: n - k]}
    return frozenset(level)


@functools.lru_cache(maxsize=None)
def _deletion_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(lo, hi) for each bit s of an n-bit word: dropping the symbol at bit s
    keeps the s bits below it (b & lo) and shifts the bits above it down by
    one ((b >> 1) & hi)."""
    return tuple([((1 << s) - 1, -1 << s) for s in range(n)])


# longest word length whose ball table (all 2**n balls) is built: the pair
# scan's range and the conflict graph's limit for reading balls from it
BRUTE_FORCE_CAP = 14


@functools.lru_cache(maxsize=None)
def _ball_table(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Deletion balls of every length-n word, indexed by packed value,
    for 1 <= t <= n; each ball a tuple of its distinct members."""
    if not 1 <= t <= n:
        raise ValueError(f"ball table needs 1 <= t <= n, got n={n}, t={t}")
    # deleting bit s maps b = h*2**(s+1) + x*2**s + l to h*2**s + l, so over
    # b in order the images are the block h*2**s .. (h+1)*2**s - 1 twice per
    # h: column s is every block of 2**s consecutive words, each twice.
    # Read as the words, one shared int object each, a row repeats an
    # image wherever a run absorbs the deletion; a set keeps each image once
    words = list(range(1 << (n - 1)))
    columns = [
        chain.from_iterable(
            b for b in zip(*[iter(words)] * (1 << s)) for _ in (0, 1)
        )
        for s in range(n)
    ]
    rows = map(set, zip(*columns))
    if t == 1:
        return tuple(map(tuple, rows))
    # above t = 1 a ball is the union of its images' (n - 1, t - 1) balls
    prev = _ball_table(n - 1, t - 1).__getitem__
    union = set().union
    # a list: unpacking a bare map leaves tuples on the free lists
    return tuple([tuple(union(*list(map(prev, row)))) for row in rows])
