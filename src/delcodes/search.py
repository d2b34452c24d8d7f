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

import math
import os
import time
from typing import Callable, Mapping, NamedTuple

from .codes import Code, _least_image, vt_code
from .rows import pruning, stored_weights
from .words import BRUTE_FORCE_CAP, Word, _ball_packed, _ball_table, _images

SEARCH_CAPS = {1: 12, 2: 10, 3: 10}
ENUMERATION_CAP = 7
# nodes a multi-process search expands serially before it starts its pool:
# about twice the pool's start cost in nodes (see README), as two processes
# at best halve the nodes left, so the pool pays only on a larger remainder
_SERIAL_PREFIX_NODES = 4096
# (c, ((mask, weight), ...)): the node certificate of a search (see _root_bound)
Certificate = tuple[int, tuple[tuple[int, int], ...]]


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
        return {**self._asdict(), "witness": self.witness.strings()}


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
) -> list[tuple[int, int, int]]:
    """Colour-ordered children (open mask, chosen mask, bound) of a node
    whose chosen mask holds `size` vertices.

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
                out.append((earlier & ~adj[v], chosen | low, bound))
            earlier |= low
            r &= adj[v]
        om &= ~earlier
    return out


def _solve_stack(
    adj: tuple[int, ...],
    stack: list[tuple[int, int, int]],
    best_size: int,
    best_chosen: int,
    deadline: float,
    cap: int,
    cliques: Certificate,
    found: list[int] | None = None,
    limit: float = math.inf,
) -> tuple[int, int, int, bool]:
    """Exact max independent set over the subproblems (open mask, chosen
    mask, bound) on the stack, the last popped first.  A subproblem's size
    is the number of vertices in its chosen mask.

    Branch-and-bound: a node is pruned by the container-clique certificate
    `cliques` = (c, ((mask, weight), ...)) from _root_bound (no pruning
    when it holds no container), and otherwise split into its
    colour-ordered children (see _children), each stored with its bound and
    skipped when popped if that bound no longer beats the incumbent.  The
    search stops once the incumbent reaches `cap`, a proved upper bound.
    Returns (best_size, best_chosen, nodes, exhausted), nodes counting the
    pops that were expanded; on deadline expiry the best found so far comes
    back with exhausted False, and so it does after `limit` expanded nodes
    (math.inf, the default, for no limit), with every subproblem not yet
    expanded left on the stack.

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
    unit, containers = cliques
    nodes = 0
    while stack:
        if best_size >= cap:
            break
        om, chosen, bound = stack.pop()
        if bound <= best_size:
            continue
        if time.monotonic() > deadline:
            return best_size, best_chosen, nodes, False
        if nodes == limit:
            stack.append((om, chosen, bound))
            return best_size, best_chosen, nodes, False
        nodes += 1
        size = chosen.bit_count()
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
            room = (best_size - size + 1) * unit
            for mask, w in containers:
                if mask & om:
                    room -= w
                    if room <= 0:
                        break
            else:
                continue
        stack += _children(adj, om, size, chosen, best_size)
    return best_size, best_chosen, nodes, True


def _orbit_roots(
    adj: tuple[int, ...],
    open_mask: int,
    chosen: int,
    cap: int,
    orbit: Callable[[int], int],
) -> list[tuple[int, int, int]]:
    """Orbital branching at the root: subproblems (open mask, chosen mask,
    bound) for _solve_stack that hold an image of every solution.

    `orbit(v)` is the mask of v's orbit under a group of automorphisms that
    maps the open vertices onto themselves; it is called once for each
    orbit, with its first vertex.  The open orbits O_1, O_2, ...
    are taken in descending label order of their first vertex v_i; entry i
    takes v_i and keeps open the vertices outside O_1 ... O_{i-1} and the
    closed neighbourhood of v_i, the rest of O_i among them.  A solution
    whose first orbit met is O_i has an image through v_i, and that image
    avoids the earlier orbits, so it lies in entry i and in no other.  With
    no open vertex the root itself is the only entry.  Entry 1 holds the
    most open vertices and pops first."""
    if not open_mask:
        return [(0, chosen, cap)]
    roots = []
    earlier = 0
    rem = open_mask
    while rem:
        v = rem.bit_length() - 1
        bit = 1 << v
        roots.append((open_mask & ~earlier & ~adj[v] & ~bit, chosen | bit, cap))
        earlier |= orbit(v)
        rem &= ~earlier
    roots.reverse()
    return roots


# (adj, best_size, deadline, cap, cliques) for the subproblems a --threads
# worker runs, set once in each worker process by the pool's initializer
_worker_search: tuple = ()


def _set_worker_search(*shared) -> None:
    global _worker_search
    _worker_search = shared


def _solve_task(task: tuple[int, int, int]) -> tuple[int, int, int, bool]:
    adj, best_size, deadline, cap, cliques = _worker_search
    return _solve_stack(adj, [task], best_size, 0, deadline, cap, cliques)


def max_code_size(config: SearchConfig) -> SearchResult:
    """Exact maximum cardinality of a t-deletion-correcting code of length n."""
    config.validate()
    start = time.monotonic()
    deadline = start + (config.time_budget or math.inf)
    graph, open0, chosen0, stack, best_chosen, upper, cliques = _root(config)
    best_size = best_chosen.bit_count()
    adj = graph.adj
    procs = min(config.workers, _cpu_count())
    # with several processes, a serial prefix first: a small tree ends in it
    # and starts no pool; the prefix leaves at least one subproblem on the
    # stack when it does not end the tree
    best_size, best_chosen, nodes, exhausted = _solve_stack(
        adj, stack, best_size, best_chosen, deadline, upper, cliques,
        limit=_SERIAL_PREFIX_NODES if procs > 1 else math.inf,
    )
    if not exhausted and time.monotonic() <= deadline:
        # one subproblem per task, in pop order, each worker from the
        # prefix's incumbent size alone; the graph and the certificate go to
        # each worker once, not per task
        tasks = [node for node in reversed(stack) if node[-1] > best_size]
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
            graph, open0, chosen0, best_size, deadline, cliques
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
    """The root step of every search: (graph, open0, chosen0, roots, seed,
    upper, cliques).

    The graph holds the candidates, ascending by open degree at the root,
    ties by packed value: greedy clique partitions in this order grow each
    class from the vertices with the fewest conflicts (the order of MCQ,
    Tomita et al., seen from the complement graph), which keeps the search
    tree small.  open0 and chosen0 are its root masks (see _root_state);
    the roots are its orbit roots (see _orbit_roots), each orbit read from
    its words (see words._images) as it is walked; the seed is the chosen
    mask of the starting solution from them (see _initial_incumbent); upper
    and cliques are the proved bound and the certificate (see _root_bound).
    Complement, reversal and reverse complement are automorphisms of every
    search graph: the dominance relation commutes with them, so the
    candidates, the forced words and the conflicts are all mapped onto
    themselves, and some image of every code lies in the roots."""
    packed = build_conflict_graph(
        build_candidates(config.n, config.t, config.basic_only), config.t
    )
    adj = packed.adj
    open0, _ = _root_state(packed, config.force_constants)
    order = sorted(range(len(packed)), key=lambda i: ((adj[i] & open0).bit_count(), i))
    verts = tuple(packed.vertices[i] for i in order)
    del packed, adj, order  # one graph at a time: the packed one goes first
    graph = _graph_on(verts, config.t)
    open0, chosen0 = _root_state(graph, config.force_constants)
    upper, cliques = _root_bound(
        graph, open0, chosen0, stored_weights(config.n, config.t)
    )
    n = graph.word_length
    index = graph._index

    def orbit(v: int) -> int:
        mask = 0
        for image in _images(graph.vertices[v].bits, n):
            mask |= 1 << index[image]
        return mask

    roots = _orbit_roots(graph.adj, open0, chosen0, upper, orbit)
    seed = _initial_incumbent(graph, roots)
    return graph, open0, chosen0, roots, seed, upper, cliques


def _root_bound(
    graph: ConflictGraph, open0: int, chosen0: int, weights: Mapping[int, int]
) -> tuple[int, Certificate]:
    """Proved upper bound on the optimum over the root's open and chosen
    masks, and the node certificate (c, containers) for _solve_stack, from
    integer LP weights W_y (see rows.py).

    c is the least weight of any open vertex ball, and containers pairs, for
    each positive-weight window y of graph.windows that meets the open set,
    its mask of open vertices with the weight W_y, in graph.windows order.
    A code among the vertices of an open mask om has at most sum(w for mask,
    w in containers if mask & om) // c words.  Every weight is positive, so
    whether that sum beats a bound does not depend on the order.  Words
    missing from `weights`, or given a weight below 1, weigh nothing, so any
    mapping gives a sound bound.  When some open vertex ball weighs nothing,
    or no vertex is open, the weights prove nothing: the certificate is
    (1, ()), which prunes no node, and the bound counts every open vertex."""
    size0 = chosen0.bit_count()
    balls = _ball_table(graph.word_length, graph.t)
    weight = {y: w for y, w in weights.items() if w > 0}
    c = min(
        (sum(weight.get(y, 0) for y in balls[v.bits])
         for i, v in enumerate(graph.vertices) if open0 >> i & 1),
        default=0,
    )
    if c <= 0:
        return size0 + open0.bit_count(), (1, ())
    containers = tuple(
        (mask & open0, weight[y])
        for y, mask in graph.windows.items()
        if y in weight and mask & open0
    )
    return size0 + sum(w for _, w in containers) // c, (c, containers)


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
    deadline = time.monotonic() + (config.time_budget or math.inf)
    # one image of every optimum suffices: the classes are orbits, and the
    # dominant words are mapped onto themselves
    graph, _, _, roots, seed, upper, cliques = _root(config)
    found: list[int] = []
    *_, exhausted = _solve_stack(
        graph.adj, roots, seed.bit_count() - 1, 0, deadline, upper, cliques, found
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
        words = [graph.vertices[i].bits for i in _bits_of(chosen)]
        if not any(bits in dominant for bits in words):
            keys.add(_least_image(n, words))
    return [Code._from_packed(n, key) for key in sorted(keys)]


def _initial_incumbent(
    graph: ConflictGraph, roots: list[tuple[int, int, int]]
) -> int:
    """Chosen mask of a deterministic starting solution.  For single
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
        return mask
    best = 0
    for om, chosen, _ in roots:
        while om:
            low = om & -om
            chosen |= low
            om &= ~graph.adj[low.bit_length() - 1] & ~low
        if chosen.bit_count() > best.bit_count():
            best = chosen
    return best


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
    graph: ConflictGraph,
    om: int,
    chosen: int,
    optimum: int,
    deadline: float,
    cliques: Certificate,
) -> int:
    """Optimum solution (chosen mask) of the search graph least in packed
    order, fixed vertex by vertex from the root's open and chosen masks (see
    _root): the smallest optimal code among the candidates, and under
    dominance pruning the smallest optimal basic code.  Packed order does
    not follow the labels, so the witness is the same code under any
    labelling.  Each step is a find search from the one subproblem (open
    mask, chosen mask with v, optimum), so one that succeeds returns an
    optimal code that extends the choice so far.

    A vertex that no optimum holds together with the choice so far fits no
    later, larger choice either, so it leaves the open set.  Raises
    SearchBudgetExceeded when the deadline passes first."""
    adj = graph.adj
    for v in sorted(range(len(graph)), key=lambda i: graph.vertices[i].bits):
        if chosen.bit_count() >= optimum:
            break
        bit = 1 << v
        if not om & bit:
            continue
        sub = om & ~bit & ~adj[v]
        best, _, _, exhausted = _solve_stack(
            adj, [(sub, chosen | bit, optimum)], optimum - 1, 0, deadline, optimum,
            cliques,
        )
        if best >= optimum:
            chosen |= bit
            om = sub
        elif not exhausted:
            raise SearchBudgetExceeded("canonical witness ran out of budget")
        else:
            om ^= bit
    if chosen.bit_count() < optimum:
        raise AssertionError("canonical witness reconstruction failed")
    return chosen


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
