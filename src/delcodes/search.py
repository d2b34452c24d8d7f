"""Exact maximum code sizes by branch-and-bound over conflict graphs.

Candidate words become vertices; two words conflict when their deletion
balls intersect (equivalently, deletion distance at most t), so codes are
exactly the independent sets.  Vertex sets are bitmasks over the candidate
list.  Two bounds prune the search: the fractional container-clique cover
of the root (see rows.py), which every node reuses on the words its open
vertices can still reach, and a greedy clique partition of the open
vertices, which also orders the branching: one partition per node bounds
every child (the colouring branch-and-bound of MCQ and BBMC, seen from the
complement graph).  Two search-space reductions are available, both
applied once at the root: dropping dominated words and pre-selecting the
two constant words.

Two root inputs depend only on (n, t): the dominant words dropped, each with
a kept subordinate, and the weights of the root LP.  Every search, whatever
its flags, reads both from stored rows and re-checks them (see rows.py), and
runs neither the simplex nor the pair scan, so a stale row can make a
search slower, never wrong.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple

from .codes import Code, vt_code
from .rows import certify, pruning, stored_weights
from .words import BRUTE_FORCE_CAP, Word, _ball_packed, _ball_table, _images

SEARCH_CAPS = {1: 12, 2: 10, 3: 10}
ENUMERATION_CAP = 7
# nodes a multi-process search expands serially before it starts its pool:
# about twice the pool's start cost in nodes (see README), as two processes
# at best halve the nodes left, so the pool pays only on a larger remainder
_SERIAL_PREFIX_NODES = 4096


class SearchBudgetExceeded(Exception):
    """Raised when enumeration or the canonical witness runs out of time budget."""


class SearchConfig(NamedTuple):
    n: int
    t: int
    basic_only: bool = True
    force_constants: bool = True
    canonical_witness: bool = False
    time_budget: float = 600.0
    workers: int = 1

    def validate(self) -> None:
        if self.t not in SEARCH_CAPS:
            raise ValueError(f"deletion count {self.t} not supported (1..3)")
        if self.t >= self.n:
            raise ValueError(
                f"deletion count {self.t} must be below the word length {self.n}"
            )
        if self.n > SEARCH_CAPS[self.t]:
            raise ValueError(
                f"length {self.n} exceeds search cap {SEARCH_CAPS[self.t]} for t={self.t}"
            )
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        # also false for NaN, with which every comparison fails
        if not self.time_budget >= 0:
            raise ValueError("time budget must be nonnegative")


class SearchResult(NamedTuple):
    n: int
    t: int
    optimum: int
    witness: Code
    node_count: int
    wall_time_ms: int
    exhausted: bool
    # proved: no code is larger; equals optimum when exhausted
    upper_bound: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "optimum": self.optimum,
            "upper_bound": self.upper_bound,
            "witness": [str(w) for w in self.witness],
            "node_count": self.node_count,
            "wall_time_ms": self.wall_time_ms,
            "exhausted": self.exhausted,
        }


class ConflictGraph:
    """Undirected graph on candidate words; edge iff deletion balls intersect.
    `windows` maps each word of length n - t in a ball to its holders' mask."""

    __slots__ = ("t", "word_length", "vertices", "adj", "windows", "_index")

    def __init__(
        self, t: int, vertices: tuple[Word, ...], adj: tuple[int, ...], windows: dict
    ):
        self.t = t
        self.word_length = vertices[0].n
        self.vertices = vertices
        self.adj = adj
        self.windows = windows
        self._index = {w.bits: i for i, w in enumerate(vertices)}

    def index_of(self, w: Word) -> int:
        try:
            return self._index[w.bits]
        except KeyError:
            raise ValueError(f"{w} is not among the candidates") from None

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(len(self.vertices))) // 2

    def __len__(self) -> int:
        return len(self.vertices)


def build_candidates(n: int, t: int, basic_only: bool) -> list[Word]:
    """All words of length n, minus the dominated-replaceable ones if requested."""
    if t not in SEARCH_CAPS:
        raise ValueError(f"deletion count {t} not supported (1..3)")
    if n > SEARCH_CAPS[t]:
        raise ValueError(f"length {n} exceeds search cap {SEARCH_CAPS[t]} for t={t}")
    if basic_only:
        if t >= n:
            raise ValueError(f"no dominance pruning for t={t} at length {n}")
        pruned = pruning(n, t)
        return [Word.from_bits(b, n) for b in range(1 << n) if b not in pruned]
    return [Word.from_bits(b, n) for b in range(1 << n)]


def build_conflict_graph(candidates: list[Word], t: int) -> ConflictGraph:
    """Graph over the given words, vertex order ascending by packed value."""
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    n = candidates[0].n
    for w in candidates:
        if w.n != n:
            raise ValueError(f"candidate length {w.n} differs from {n}")
    if not 1 <= t <= n:
        raise ValueError(f"deletion count {t} out of range 1..{n}")
    return _graph_on(tuple(sorted(set(candidates), key=lambda w: w.bits)), t)


def _graph_on(verts: tuple[Word, ...], t: int) -> ConflictGraph:
    """Graph over distinct words of one length, vertex i being verts[i]."""
    n = verts[0].n
    # a table holds the balls of all 2**n words: too many beyond the scan cap
    table = _ball_table(n, t) if n <= BRUTE_FORCE_CAP else None
    balls = [table[w.bits] if table else _ball_packed(w.bits, n, t) for w in verts]
    windows: dict[int, int] = {}
    for i, ball in enumerate(balls):
        for y in ball:
            windows[y] = windows.get(y, 0) | 1 << i
    adj = []
    for i, ball in enumerate(balls):
        mask = 0
        for y in ball:
            mask |= windows[y]
        adj.append(mask & ~(1 << i))
    return ConflictGraph(t, verts, tuple(adj), windows)


# --- bitmask independent-set core -----------------------------------------


def _children(
    adj: tuple[int, ...], om: int, size: int, chosen: int, best_size: int
) -> list[tuple[int, int, int, int]]:
    """Colour-ordered children (open mask, size, chosen, bound) of a node.

    One pass splits the open vertices into cliques, one class at a time: a
    class takes the lowest open vertex left, then keeps taking the lowest
    one adjacent to all it holds.  An independent set meets each class at
    most once, so an extension whose last vertex lies in class k has at most
    size + k members: that is the bound of class k.  A class whose bound
    does not beat best_size gives no child.  Every other class gives, as it
    is built, one child per vertex v, which takes v and keeps open only the
    vertices walked before v that v does not conflict with.  So each
    extension that can beat best_size lands in exactly one child, that of
    its last vertex.  At a node that collect mode (see _solve_stack) has
    just recorded, of size best_size + 1, every class gives children.  The
    last child holds the most open vertices and pops first."""
    out = []
    earlier = 0
    bound = size
    while om:
        bound += 1
        r = om
        while r:
            low = r & -r
            v = low.bit_length() - 1
            if bound > best_size:
                out.append((earlier & ~adj[v], size + 1, chosen | low, bound))
            earlier |= low
            r &= adj[v]
        om &= ~earlier
    return out


def _solve_stack(
    adj: tuple[int, ...],
    stack: list[tuple[int, int, int, int]],
    best_size: int,
    best_chosen: int,
    deadline: float | None,
    cap: int,
    cliques: tuple[int, tuple[tuple[int, int], ...]] | None,
    found: list[int] | None = None,
    limit: int | None = None,
) -> tuple[int, int, int, bool]:
    """Exact max independent set over the subproblems (open mask, size,
    chosen, bound) on the stack, the last popped first.

    Branch-and-bound: a node is pruned by the container-clique certificate
    `cliques` = (c, ((mask, weight), ...)) from rows.certify (no pruning
    when it is None or holds no container), and otherwise split into its
    colour-ordered children (see _children), each stored with its bound and
    skipped when popped if that bound no longer beats the incumbent.  The
    search stops once the incumbent reaches `cap`, a proved upper bound.
    Returns (best_size, best_chosen, nodes, exhausted), nodes counting the
    pops that were expanded; on deadline expiry the best found so far comes
    back with exhausted False, and so it does after `limit` expanded nodes,
    with every subproblem not yet expanded left on the stack.

    The same loop serves three modes.  Maximise: best_size is an incumbent
    and cap a proved bound.  Find a solution of size T: best_size T - 1 and
    cap T.  Collect every solution of size T, the optimum: best_size a floor
    below T, cap a proved bound and a list `found`, to which each solution
    one above the floor is appended once for every subproblem that holds
    it; one two or more above empties `found` and lifts the floor to one
    below its size.  A recorded node is expanded like any other, though at
    the optimum it has no open vertex.  The stack is consumed.

    Any vertex labelling is correct; the order of the labels decides the
    partitions and so the size of the tree.
    """
    containers = cliques[1] if cliques else ()
    nodes = 0
    while stack:
        if best_size >= cap:
            break
        om, size, chosen, bound = stack.pop()
        if bound <= best_size:
            continue
        if deadline is not None and time.monotonic() > deadline:
            return best_size, best_chosen, nodes, False
        if nodes == limit:
            stack.append((om, size, chosen, bound))
            return best_size, best_chosen, nodes, False
        nodes += 1
        if size > best_size:
            if found is None:
                best_size, best_chosen = size, chosen
            else:
                if size > best_size + 1:
                    found.clear()
                    best_size = size - 1
                found.append(chosen)
        if not om:
            continue
        if containers:
            # prune iff (weight reachable from om) // c <= best_size - size
            room = (best_size - size + 1) * cliques[0]
            for mask, w in containers:
                if mask & om:
                    room -= w
                    if room <= 0:
                        break
            else:
                continue
        stack += _children(adj, om, size, chosen, best_size)
    return best_size, best_chosen, nodes, True


def _symmetry_perms(graph: ConflictGraph) -> tuple[list[int], ...]:
    """Complement, reversal and reverse complement as permutations of the
    vertex labels.  They are automorphisms of every search graph: the
    dominance relation commutes with them, so the candidates, the forced
    words and the conflicts are all mapped onto themselves."""
    n = graph.word_length
    index = graph._index
    perms: tuple[list[int], ...] = tuple([0] * len(graph) for _ in range(3))
    for i, w in enumerate(graph.vertices):
        for perm, image in zip(perms, _images(w.bits, n)[1:]):
            perm[i] = index[image]
    return perms


def _orbit_roots(
    adj: tuple[int, ...],
    open_mask: int,
    size: int,
    chosen: int,
    cap: int,
    perms: tuple[list[int], ...],
) -> list[tuple[int, int, int, int]]:
    """Orbital branching at the root: subproblems (open mask, size, chosen,
    bound) for _solve_stack that hold an image of every solution.

    `perms` are the non-identity members of a group of automorphisms that
    maps the open vertices onto themselves.  The open orbits O_1, O_2, ...
    are taken in descending label order of their first vertex v_i; entry i
    takes v_i and keeps open the vertices outside O_1 ... O_{i-1} and the
    closed neighbourhood of v_i, the rest of O_i among them.  A solution
    whose first orbit met is O_i has an image through v_i, and that image
    avoids the earlier orbits, so it lies in entry i and in no other.  With
    no open vertex the root itself is the only entry.  Entry 1 holds the
    most open vertices and pops first."""
    if not open_mask:
        return [(0, size, chosen, cap)]
    roots = []
    earlier = 0
    rem = open_mask
    while rem:
        v = rem.bit_length() - 1
        bit = 1 << v
        orbit = bit
        for perm in perms:
            orbit |= 1 << perm[v]
        roots.append((open_mask & ~earlier & ~adj[v] & ~bit, size + 1, chosen | bit, cap))
        earlier |= orbit
        rem &= ~orbit
    roots.reverse()
    return roots


# (adj, best_size, deadline, cap, cliques) for the subproblems a --threads
# worker runs, set once in each worker process by the pool's initializer
_worker_search: tuple = ()


def _set_worker_search(*shared) -> None:
    global _worker_search
    _worker_search = shared


def _solve_task(task: tuple[int, int, int, int]) -> tuple[int, int, int, bool]:
    adj, best_size, deadline, cap, cliques = _worker_search
    return _solve_stack(adj, [task], best_size, 0, deadline, cap, cliques)


def max_code_size(config: SearchConfig) -> SearchResult:
    """Exact maximum cardinality of a t-deletion-correcting code of length n."""
    config.validate()
    start = time.monotonic()
    deadline = start + config.time_budget if config.time_budget else None
    graph, open0, size0, chosen0, upper, cliques = _root(config)
    adj = graph.adj
    # some image of every code under the symmetries lies in the roots
    stack = _orbit_roots(adj, open0, size0, chosen0, upper, _symmetry_perms(graph))
    best_size, best_chosen = _initial_incumbent(graph, stack)
    procs = min(config.workers, _cpu_count())
    # with several processes, a serial prefix first: a small tree ends in it
    # and starts no pool; the prefix leaves at least one subproblem on the
    # stack when it does not end the tree
    best_size, best_chosen, nodes, exhausted = _solve_stack(
        adj, stack, best_size, best_chosen, deadline, upper, cliques,
        limit=_SERIAL_PREFIX_NODES if procs > 1 else None,
    )
    if not exhausted and (deadline is None or time.monotonic() <= deadline):
        # one subproblem per task, in pop order, each worker from the
        # prefix's incumbent size alone; the graph and the certificate go to
        # each worker once, not per task
        tasks = [node for node in reversed(stack) if node[3] > best_size]
        shared = (adj, best_size, deadline, upper, cliques)
        exhausted = True
        # imported here: the process pool pulls in multiprocessing, pickle,
        # socket and logging, which no single-process job needs
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its processes at the first submit
        with ProcessPoolExecutor(
            max_workers=min(procs, len(tasks)),
            initializer=_set_worker_search,
            initargs=shared,
        ) as pool:
            for size, chosen, sub_nodes, sub_done in pool.map(_solve_task, tasks):
                nodes += sub_nodes
                exhausted = exhausted and sub_done
                # ties keep the earlier subproblem in pop order
                if size > best_size:
                    best_size, best_chosen = size, chosen
    if config.canonical_witness and exhausted:
        best_chosen = _canonical_witness(
            adj, open0, size0, chosen0, best_size, deadline, cliques,
            sorted(range(len(graph)), key=lambda i: graph.vertices[i].bits),
        )

    witness = Code._from_packed(
        config.n, [graph.vertices[i].bits for i in _bits_of(best_chosen)]
    )
    return SearchResult(
        n=config.n,
        t=config.t,
        optimum=best_size,
        witness=witness,
        node_count=nodes,
        wall_time_ms=int((time.monotonic() - start) * 1000),
        exhausted=exhausted,
        upper_bound=best_size if exhausted else upper,
    )


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _root(config: SearchConfig):
    """The root step of every search: the prepared graph and root state (see
    _prepare), the proved bound and the certificate (see _root_bound)."""
    graph, open0, size0, chosen0 = _prepare(config)
    weights = stored_weights(config.n, config.t)
    return graph, open0, size0, chosen0, *_root_bound(graph, open0, size0, weights)


def _root_bound(
    graph: ConflictGraph, open0: int, size0: int, weights: dict[int, int]
) -> tuple[int, tuple[int, tuple[tuple[int, int], ...]] | None]:
    """Proved upper bound on the optimum, and the node certificate for
    _solve_stack, from the integer LP weights given: None when they prove
    nothing, as at a root with no open vertex, and then the bound counts
    every open vertex."""
    cliques = certify(graph, open0, weights)
    if cliques is None:
        return size0 + open0.bit_count(), None
    return size0 + sum(w for _, w in cliques[1]) // cliques[0], cliques


def enumerate_optimal_codes(config: SearchConfig) -> list[Code]:
    """All maximum codes that are basic, one canonical member per equivalence class.

    One root step (see _root) and one collect pass over the orbit roots
    (see _solve_stack), from a floor one below the initial incumbent's
    size: the pass lifts the floor itself when the optimum is larger.  It
    prunes with the root certificate under one deadline, taken at entry."""
    config.validate()
    if config.n > ENUMERATION_CAP:
        raise ValueError(
            f"length {config.n} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    deadline = time.monotonic() + config.time_budget if config.time_budget else None
    graph, open0, size0, chosen0, upper, cliques = _root(config)
    adj = graph.adj
    # one image of every optimum suffices: the classes are orbits, and the
    # dominant words are mapped onto themselves
    roots = _orbit_roots(adj, open0, size0, chosen0, upper, _symmetry_perms(graph))
    seed, _ = _initial_incumbent(graph, roots)
    found: list[int] = []
    *_, exhausted = _solve_stack(
        adj, roots, seed - 1, 0, deadline, upper, cliques, found
    )
    if not exhausted:
        raise SearchBudgetExceeded(
            f"enumeration at n={config.n}, t={config.t} ran out of budget"
        )

    n = config.n
    # the stored pruning pairs drop exactly the dominant words, as the tests
    # check against the pair scan at every stored (n, t)
    dominant = pruning(n, config.t)
    keys: set[tuple[int, ...]] = set()
    for chosen in found:
        orbits = [_images(graph.vertices[i].bits, n) for i in _bits_of(chosen)]
        if any(o[0] in dominant for o in orbits):
            continue
        # least sorted image; packed order is string order at one length
        keys.add(min(tuple(sorted(o[k] for o in orbits)) for k in range(4)))
    return [Code._from_packed(n, key) for key in sorted(keys)]


def _initial_incumbent(
    graph: ConflictGraph, roots: list[tuple[int, int, int, int]]
) -> tuple[int, int]:
    """Deterministic starting solution (size, chosen mask).  For single
    deletions it is the checksum code VT_0, the largest residue class
    (Ginzburg 1967), its pruned words traded for their stored subordinates;
    for more deletions, the largest dive from the orbit roots `roots` (see
    _orbit_roots), the earliest in the list on ties.  A dive keeps taking
    the lowest open label and closing its conflicts."""
    if graph.t == 1:
        n = graph.word_length
        index = graph._index
        mask = 0
        for bits in vt_code(n, 0).packed():
            if bits not in index:
                # a subordinate's ball lies inside the codeword's, so the
                # code still corrects
                bits = pruning(n, 1)[bits]
            mask |= 1 << index[bits]
        return mask.bit_count(), mask
    best = 0, 0
    for om, size, chosen, _ in roots:
        while om:
            low = om & -om
            size += 1
            chosen |= low
            om &= ~graph.adj[low.bit_length() - 1] & ~low
        if size > best[0]:
            best = size, chosen
    return best


def _prepare(config: SearchConfig):
    """Candidate graph in search order plus the root state (open mask, chosen
    size and mask).

    The vertices ascend by open degree at the root, ties by packed value.
    Greedy clique partitions in this order grow each class from the vertices
    with the fewest conflicts (the order of MCQ, Tomita et al., seen from the
    complement graph), which keeps the search tree small."""
    candidates = build_candidates(config.n, config.t, config.basic_only)
    packed = build_conflict_graph(candidates, config.t)
    adj = packed.adj
    open0, _ = _root_state(packed, config.force_constants)
    order = sorted(range(len(packed)), key=lambda i: ((adj[i] & open0).bit_count(), i))
    verts = tuple(packed.vertices[i] for i in order)
    del packed, adj  # one graph at a time: the packed one goes first
    graph = _graph_on(verts, config.t)
    open0, forced = _root_state(graph, config.force_constants)
    return graph, open0, forced.bit_count(), forced


def _root_state(graph: ConflictGraph, force_constants: bool) -> tuple[int, int]:
    """Open and chosen masks at the root: forcing takes the two constant
    words, whose balls {0^(n-t)} and {1^(n-t)} are disjoint for t < n, and
    closes their conflicts."""
    all_mask = (1 << len(graph)) - 1
    if not force_constants:
        return all_mask, 0
    n = graph.word_length
    i, j = graph.index_of(Word.zeros(n)), graph.index_of(Word.ones(n))
    forced = 1 << i | 1 << j
    return all_mask & ~forced & ~graph.adj[i] & ~graph.adj[j], forced


def _canonical_witness(
    adj: tuple[int, ...],
    open0: int,
    size0: int,
    chosen0: int,
    optimum: int,
    deadline: float | None,
    cliques: tuple[int, tuple[tuple[int, int], ...]] | None,
    order: list[int],
) -> int:
    """Optimum solution least in the vertex order `order`, fixed vertex by
    vertex.  In packed-value order it is the smallest optimal code among the
    candidates: under dominance pruning, the smallest optimal basic code.

    A vertex that no optimum holds together with the choice so far fits no
    later, larger choice either, so it leaves the open set.  Raises
    SearchBudgetExceeded when the deadline passes first."""
    chosen = chosen0
    size = size0
    om = open0
    for v in order:
        if size >= optimum:
            break
        bit = 1 << v
        if not om & bit:
            continue
        sub = om & ~bit & ~adj[v]
        best, _, _, exhausted = _solve_stack(
            adj, [(sub, size + 1, 0, optimum)], optimum - 1, 0, deadline, optimum,
            cliques,
        )
        if best >= optimum:
            chosen |= bit
            size += 1
            om = sub
        elif not exhausted:
            raise SearchBudgetExceeded("canonical witness ran out of budget")
        else:
            om ^= bit
    if size < optimum:
        raise AssertionError("canonical witness reconstruction failed")
    return chosen


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
