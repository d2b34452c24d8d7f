"""Reference answers and checks for the benchmark, independent of delcodes.

Nothing here imports the package under test: balls, dominance and
equivalence are recomputed from their definitions on 0/1 strings, so a
defect in delcodes cannot hide itself by also breaking its own checker.
"""

from __future__ import annotations

import functools
import itertools
import random

# Maximum size of a t-deletion-correcting binary code of length n.  The t=1
# values are Sloane's ("On single-deletion-correcting codes", 2002); the
# others are settled results of exact search, fixed here as constants.
OPTIMA = {
    (1, 5): 6,
    (1, 6): 10,
    (1, 7): 16,
    (1, 8): 30,
    (1, 9): 52,
    (2, 6): 4,
    (2, 7): 5,
    (2, 8): 7,
    (2, 9): 11,
    (3, 7): 2,
    (3, 9): 5,
    (3, 10): 6,
}

# Open cases: (best known lower bound, proved upper bound).  t=2 n=10 has a
# 16-word code in Sloane's tables; the fractional clique bound of
# Kulkarni and Kashyap (IEEE Trans. IT 2013) is 20.47.
OPEN_RANGES = {(2, 10): (16, 20)}


def all_words(n: int) -> list[str]:
    """Every 0/1 string of length n, in ascending order."""
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


@functools.lru_cache(maxsize=None)
def ball(word: str, t: int) -> frozenset[str]:
    """All distinct subsequences of `word` with t symbols deleted."""
    level = {word}
    for _ in range(t):
        level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
    return frozenset(level)


def code_problem(words: list[str], n: int, t: int) -> str | None:
    """Why `words` is not a t-deletion-correcting code of length n, or None."""
    if not words:
        return "empty code"
    if len(set(words)) != len(words):
        return "repeated codeword"
    seen: set[str] = set()
    for w in words:
        if len(w) != n or set(w) - {"0", "1"}:
            return f"malformed codeword {w!r}"
        b = ball(w, t)
        if seen & b:
            return f"ball of {w} meets an earlier ball"
        seen |= b
    return None


def class_key(words: list[str]) -> tuple[str, ...]:
    """Smallest sorted image of a code under complement and reversal."""
    flip = str.maketrans("01", "10")
    images = (
        words,
        [w.translate(flip) for w in words],
        [w[::-1] for w in words],
        [w[::-1].translate(flip) for w in words],
    )
    return min(tuple(sorted(img)) for img in images)


def greedy_code(n: int, t: int, rng: random.Random) -> list[str]:
    """A maximal t-deletion-correcting code: words in random order, kept when
    their ball misses every ball kept so far."""
    words = all_words(n)
    rng.shuffle(words)
    covered: set[str] = set()
    code = []
    for w in words:
        b = ball(w, t)
        if not covered & b:
            covered |= b
            code.append(w)
    return sorted(code)


def check_facts(words: list[str], n: int, t: int) -> dict:
    """What `delcodes check --basic --perfect` must report, by brute force."""
    dominant = dominant_codewords(words, n, t)
    correcting = code_problem(words, n, t) is None
    covered = sum(len(ball(w, t)) for w in words)
    return {
        "words": len(words),
        "length": n,
        "t": t,
        "deletion_correcting": correcting,
        "basic": not dominant,
        "dominant_codewords": dominant,
        "perfect": covered == 1 << (n - t) if correcting else None,
    }


def dominant_codewords(words: list[str], n: int, t: int) -> list[str]:
    """Codewords whose ball holds the ball of some other word of length n."""
    balls = {w: ball(w, t) for w in all_words(n)}
    return [u for u in words if any(v != u and balls[v] <= balls[u] for v in balls)]


def dominates(u: str, v: str, t: int) -> bool:
    """True iff u != v and the t-deletion ball of v lies inside that of u."""
    return u != v and ball(v, t) <= ball(u, t)


def lcs_length(x: str, y: str) -> int:
    """Longest common subsequence length by the textbook dynamic program."""
    prev = [0] * (len(y) + 1)
    for a in x:
        cur = [0]
        for j, b in enumerate(y):
            cur.append(prev[j] + 1 if a == b else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


# --- checks of one CLI job's JSON output -----------------------------------
#
# Each returns (problem, outcome).  problem is None when the output is right;
# outcome holds whether a search settled, the size of a budget-limited code,
# and the counts that must repeat from run to run.


def check_search(n, t, budget, doc, returncode, facts):
    witness, size = doc["witness"], doc["optimum"]
    problem = code_problem(witness, n, t)
    if problem:
        return problem, {}
    if len(witness) != size:
        return f"witness has {len(witness)} words, optimum says {size}", {}
    if doc["exhausted"] != (returncode == 0):
        return f"exit code {returncode} with exhausted={doc['exhausted']}", {}
    known = OPTIMA.get((t, n))
    low, high = OPEN_RANGES.get((t, n), (known, known))
    if doc["exhausted"]:
        if low is None or not low <= size <= high:
            return f"settled at {size}, reference {low}..{high}", {}
        counts = {} if budget is not None else {"nodes": doc["node_count"]}
        return None, {"settled": True, "counts": {"optimum": size, **counts}}
    if high is not None and size > high:
        return f"code of {size} words exceeds the optimum {high}", {}
    return None, {"settled": False, "lower_bound": size, "counts": {}}


def check_classes(n, t, budget, doc, returncode, facts):
    size, classes = doc["optimum"], doc["classes"]
    if size != OPTIMA[(t, n)]:
        return f"optimum {size}, reference {OPTIMA[(t, n)]}", {}
    if not classes:
        return "no optimal class listed", {}
    keys = set()
    for words in classes:
        problem = code_problem(words, n, t)
        if problem:
            return problem, {}
        if len(words) != size:
            return f"class of {len(words)} words at optimum {size}", {}
        if dominant_codewords(words, n, t):
            return "class is not basic", {}
        keys.add(class_key(words))
    if len(keys) != len(classes):
        return "two listed classes are equivalent", {}
    return None, {"settled": True, "counts": {"classes": len(classes)}}


def check_verify(n, t, budget, doc, returncode, facts):
    if doc["missing"] or doc["spurious"]:
        return (
            f"{len(doc['missing'])} missing, {len(doc['spurious'])} spurious pairs",
            {},
        )
    if doc["brute_count"] != doc["generated_count"]:
        return "pair counts differ", {}
    return None, {"counts": {"pairs": doc["brute_count"]}}


def check_pairs(n, t, budget, doc, returncode, facts):
    pairs = [(p["u"], p["v"]) for p in doc["pairs"]]
    order = [(v, u) for u, v in pairs]
    if order != sorted(set(order)):
        return "pairs not strictly sorted by (v, u)", {}
    for u, v in pairs:
        if len(u) != n or not dominates(u, v, t):
            return f"{u} does not dominate {v}", {}
    return None, {"counts": {"pairs": len(pairs)}}


def check_code_file(n, t, budget, doc, returncode, facts):
    for key, want in facts.items():
        if doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, expected {want!r}", {}
    if (doc["collision"] is None) != facts["deletion_correcting"]:
        return "collision disagrees with deletion_correcting", {}
    return None, {"counts": {}}


CHECKS = {
    "search": check_search,
    "classes": check_classes,
    "verify": check_verify,
    "pairs": check_pairs,
    "check": check_code_file,
}
