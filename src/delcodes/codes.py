"""Codes of equal-length binary words and the predicates that matter for
deletion correction: disjoint-ball verification, code deletion distance,
perfect and basic codes, dominant-codeword replacement, code equivalence,
and the classical checksum baseline construction.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .dominance import (
    BRUTE_FORCE_CAP,
    _check_query,
    _dominant_words_packed,
    subordinates_of,
)
from .words import Word, _ball_packed, _images, deletion_distance


class Code:
    """Nonempty, deduplicated set of equal-length words, stored in ascending order."""

    __slots__ = ("length", "words", "_lookup")

    def __init__(self, words: Iterable[Word | str]) -> None:
        ws = [w if isinstance(w, Word) else Word(w) for w in words]
        if not ws:
            raise ValueError("a code must contain at least one word")
        n = ws[0].n
        for w in ws:
            if w.n != n:
                raise ValueError(f"codeword length {w.n} differs from {n}")
        self.length = n
        self.words = tuple(sorted(set(ws), key=lambda w: w.bits))
        self._lookup = frozenset(self.words)

    @classmethod
    def from_text(cls, text: str) -> "Code":
        """Parse the code file format: one word per line, '#' comments, blanks ignored."""
        ws = []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                ws.append(Word(line))
            except ValueError as e:
                raise ValueError(f"line {ln}: {e}") from None
        return cls(ws)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "Code":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        return "\n".join(str(w) for w in self.words) + "\n"

    def to_file(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return isinstance(w, Word) and w in self._lookup

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Code)
            and self.length == other.length
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.length, self.words))

    def __repr__(self) -> str:
        return f"Code(n={self.length}, size={len(self.words)})"


def find_ball_collision(code: Code, t: int) -> tuple[Word, Word] | None:
    """First pair of codewords (ascending order) whose deletion balls meet."""
    _check_t(code, t)
    owner: dict[int, Word] = {}
    for w in code.words:
        for member in sorted(_ball_packed(w.bits, w.n, t)):
            if member in owner:
                return owner[member], w
            owner[member] = w
    return None


def is_t_deletion_correcting(code: Code, t: int) -> bool:
    """True iff the deletion balls of distinct codewords are pairwise disjoint."""
    return find_ball_collision(code, t) is None


def code_deletion_distance(code: Code) -> int:
    """Minimum deletion distance over distinct codeword pairs."""
    if len(code) < 2:
        raise ValueError("code deletion distance needs at least two codewords")
    return min(
        deletion_distance(u, v)
        for i, u in enumerate(code.words)
        for v in code.words[i + 1 :]
    )


def is_perfect(code: Code, t: int) -> bool:
    """True iff the (already disjoint) balls cover every word of length n-t."""
    if not is_t_deletion_correcting(code, t):
        raise ValueError(f"code is not {t}-deletion-correcting")
    covered = sum(len(_ball_packed(w.bits, w.n, t)) for w in code.words)
    return covered == 1 << (code.length - t)


def dominant_codewords(code: Code, t: int) -> list[Word]:
    """Codewords that dominate some other word of the full space."""
    _check_t(code, t)
    _check_query(code.length, t, BRUTE_FORCE_CAP)
    dominant = _dominant_words_packed(code.length, t)
    return [w for w in code.words if w.bits in dominant]


def is_basic(code: Code, t: int) -> bool:
    """True iff no codeword dominates any other word."""
    return not dominant_codewords(code, t)


def replace_dominant(code: Code, t: int) -> Code:
    """Swap dominant codewords for subordinates until the code is basic or stuck.

    Each step replaces the first (ascending) dominant codeword by its
    numerically smallest subordinate outside the code, provided that strictly
    decreases the packed-value sum; correction capability and cardinality are
    preserved.  Stops when no such replacement exists, so mutually dominant
    pairs cannot cycle.
    """
    if not is_t_deletion_correcting(code, t):
        raise ValueError(f"code is not {t}-deletion-correcting")
    current = set(code.words)
    while True:
        replaced = False
        for w in sorted(current, key=lambda w: w.bits):
            subs = [v for v in subordinates_of(w, t) if v not in current]
            if subs and subs[0].bits < w.bits:
                current.remove(w)
                current.add(subs[0])
                replaced = True
                break
        if not replaced:
            return Code(current)


def are_equivalent(c1: Code, c2: Code) -> bool:
    """True iff c2 is c1, its complement, its reversal, or both applied."""
    if c1.length != c2.length:
        raise ValueError(f"length mismatch: {c1.length} != {c2.length}")
    orbits = [_images(w.bits, c1.length) for w in c1.words]
    target = frozenset(w.bits for w in c2.words)
    return any(frozenset(o[k] for o in orbits) == target for k in range(4))


def vt_code(n: int, a: int) -> Code:
    """Words whose position-weighted checksum is a modulo n+1.

    The checksum is sum(i * x_i) with positions counted 1..n from the left;
    every residue class corrects one deletion and the classes partition the
    full space.
    """
    if n < 1:
        raise ValueError(f"length must be positive: {n}")
    if not 0 <= a <= n:
        raise ValueError(f"residue {a} out of range 0..{n}")
    members = [
        Word.from_bits(bits, n)
        for bits in range(1 << n)
        if _vt_checksum(bits, n) % (n + 1) == a
    ]
    return Code(members)


def _vt_checksum(bits: int, n: int) -> int:
    s = 0
    b = bits
    while b:
        low = b & -b
        s += n - (low.bit_length() - 1)
        b ^= low
    return s


def _check_t(code: Code, t: int) -> None:
    if not 1 <= t < code.length:
        raise ValueError(
            f"deletion count {t} out of range 1..{code.length - 1}"
        )
