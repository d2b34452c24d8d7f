"""Codes of equal-length binary words and the predicates that matter for
deletion correction: disjoint-ball verification, code deletion distance,
perfect and basic codes, dominant-codeword replacement, code equivalence,
and the classical checksum baseline construction.
"""

from __future__ import annotations

import os
from typing import Iterable

from .words import Word, WordSet, _ball_packed, _images, _lcs_packed

# longest checksum code listed: vt_code visits all 2**n words, and
# n = 20 takes about 2 s (see README)
VT_CAP = 20


class Code(WordSet):
    """Nonempty WordSet that also takes its members as 0/1 strings and reads
    and writes the code file format."""

    __slots__ = ()

    def __init__(self, words: Iterable[Word | str]) -> None:
        ws = [w if isinstance(w, Word) else Word(w) for w in words]
        if not ws:
            raise ValueError("a code must contain at least one word")
        super().__init__(ws[0].n, ws)

    @classmethod
    def from_text(cls, text: str) -> "Code":
        """Parse the code file format: one word per line, '#' comments, blanks ignored."""
        ws = []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                w = Word(line)
                if ws and w.n != ws[0].n:
                    raise ValueError(
                        f"word length {w.n} differs from the first word's {ws[0].n}"
                    )
            except ValueError as e:
                raise ValueError(f"line {ln}: {e}") from None
            ws.append(w)
        return cls(ws)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "Code":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        return "\n".join(self.strings()) + "\n"

    def to_file(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())


def find_ball_collision(
    code: Code, t: int, owner: dict[int, int] | None = None
) -> tuple[Word, Word] | None:
    """First pair of codewords (ascending order) whose deletion balls meet.

    Each ball is built once, and `owner`, when given, records the codeword
    of every ball member scanned: with no collision it ends up holding the
    union of the balls."""
    _check_t(code, t)
    if owner is None:
        owner = {}
    n = code.member_length
    for bits in code.packed():
        for member in sorted(_ball_packed(bits, n, t)):
            if member in owner:
                return Word.from_bits(owner[member], n), Word.from_bits(bits, n)
            owner[member] = bits
    return None


def is_t_deletion_correcting(code: Code, t: int) -> bool:
    """True iff the deletion balls of distinct codewords are pairwise disjoint."""
    return find_ball_collision(code, t) is None


def code_deletion_distance(code: Code) -> int:
    """Minimum deletion distance over distinct codeword pairs."""
    if len(code) < 2:
        raise ValueError("code deletion distance needs at least two codewords")
    n = code.member_length
    words = code.packed()
    return n - max(
        _lcs_packed(u, n, v, n) for i, u in enumerate(words) for v in words[i + 1 :]
    )


def is_perfect(code: Code, t: int) -> bool:
    """True iff the (already disjoint) balls cover every word of length n-t."""
    owner: dict[int, int] = {}
    if find_ball_collision(code, t, owner) is not None:
        raise ValueError(f"code is not {t}-deletion-correcting")
    return len(owner) == 1 << (code.member_length - t)


def dominant_codewords(code: Code, t: int) -> list[Word]:
    """Codewords that dominate some other word of the full space."""
    # imported on use: only the pair tables need the dominance module
    from .dominance import _check_query, _dominant_pairs_packed

    _check_t(code, t)
    n = code.member_length
    _check_query(n, t)
    dominant = {u for u, _ in _dominant_pairs_packed(n, t)}
    return [Word.from_bits(bits, n) for bits in code.packed() if bits in dominant]


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
    from .dominance import _check_query, _dominant_pairs_packed

    if not is_t_deletion_correcting(code, t):
        raise ValueError(f"code is not {t}-deletion-correcting")
    n = code.member_length
    _check_query(n, t)
    subordinates: dict[int, list[int]] = {}
    for u, v in _dominant_pairs_packed(n, t):  # ascending in v
        subordinates.setdefault(u, []).append(v)
    current = set(code.packed())
    while True:
        for bits in sorted(current):
            subs = [v for v in subordinates.get(bits, ()) if v not in current]
            if subs and subs[0] < bits:
                current.remove(bits)
                current.add(subs[0])
                break
        else:
            return Code._from_packed(n, current)


def are_equivalent(c1: Code, c2: Code) -> bool:
    """True iff c2 is c1, its complement, its reversal, or both applied."""
    n = c1.member_length
    if n != c2.member_length:
        raise ValueError(f"length mismatch: {n} != {c2.member_length}")
    return _least_image(n, c1.packed()) == _least_image(n, c2.packed())


def _least_image(n: int, packed: Iterable[int]) -> tuple[int, ...]:
    """The least sorted image of a code under complement, reversal and both:
    one key per equivalence class, as the four maps form a group.  Packed
    order is string order at one length."""
    orbits = [_images(bits, n) for bits in packed]
    return min(tuple(sorted(o[k] for o in orbits)) for k in range(4))


def vt_code(n: int, a: int) -> Code:
    """Words whose position-weighted checksum is a modulo n+1.

    The checksum is sum(i * x_i) with positions counted 1..n from the left;
    every residue class corrects one deletion and the classes partition the
    full space.
    """
    if not 1 <= n <= VT_CAP:
        raise ValueError(f"word length out of range 1..{VT_CAP}: {n}")
    if not 0 <= a <= n:
        raise ValueError(f"residue {a} out of range 0..{n}")
    return Code._from_packed(
        n, (bits for bits in range(1 << n) if _vt_checksum(bits, n) % (n + 1) == a)
    )


def _vt_checksum(bits: int, n: int) -> int:
    s = 0
    b = bits
    while b:
        low = b & -b
        s += n - (low.bit_length() - 1)
        b ^= low
    return s


def _check_t(code: Code, t: int) -> None:
    n = code.member_length
    if n < 2:
        raise ValueError(f"words of length {n} admit no deletion count")
    if not 1 <= t < n:
        raise ValueError(f"deletion count {t} out of range 1..{n - 1}")
